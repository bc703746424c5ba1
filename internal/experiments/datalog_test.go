package experiments

import (
	"slices"
	"testing"

	"relmac/internal/fault"
	"relmac/internal/frames"
	"relmac/internal/sim"
)

// dataLogShadow keeps two receiver data logs per station. For every RTS
// or RAK that a group member or the addressee decodes, it asks both
// whether the receiver already holds the polled message: the full
// history of every message ID received as a member, and the last
// message ID received per sender (what Station.HasData keeps).
type dataLogShadow struct {
	t       *testing.T
	seen    []map[int64]bool        // receiver → every member-DATA message ID
	last    []map[frames.Addr]int64 // receiver → sender → last member-DATA ID
	queries int
	hits    int
}

func newDataLogShadow(t *testing.T, n int) *dataLogShadow {
	s := &dataLogShadow{t: t, seen: make([]map[int64]bool, n), last: make([]map[frames.Addr]int64, n)}
	for i := range s.seen {
		s.seen[i] = map[int64]bool{}
		s.last[i] = map[frames.Addr]int64{}
	}
	return s
}

func (s *dataLogShadow) Kinds() sim.KindSet { return sim.Kinds(sim.EvRxOK) }

func (s *dataLogShadow) Observe(ev *sim.Event) {
	f, receiver, now := ev.Frame, ev.Station, ev.Slot
	member := slices.Contains(f.Group, frames.Addr(receiver))
	switch {
	case f.Type == frames.Data && member:
		s.seen[receiver][f.MsgID] = true
		s.last[receiver][f.Src] = f.MsgID
	case (f.Type == frames.RTS || f.Type == frames.RAK) && (member || int(f.Dst) == receiver):
		full := s.seen[receiver][f.MsgID]
		id, ok := s.last[receiver][f.Src]
		if perSender := ok && id == f.MsgID; perSender != full {
			s.t.Errorf("slot %d: station %d polled by %s for msg %d: full history says %v, last-per-sender log says %v",
				now, receiver, f.Src, f.MsgID, full, perSender)
		}
		s.queries++
		if full {
			s.hits++
		}
	}
}

// TestSenderNeverRevisitsMessage pins the premise behind
// dcf.Station.HasData: a sender serves one request at a time and never
// returns to a request it has left, so "the last member-DATA from this
// sender carried this message ID" answers every poll exactly as the full
// history of received message IDs does — on clean runs, under the
// observed-impaired fault mix (PER, Gilbert–Elliott bursts, crashes) and
// under mobility with faults.
func TestSenderNeverRevisitsMessage(t *testing.T) {
	impaired := fault.Config{
		PER:   0.02,
		GE:    fault.GilbertElliott{PGoodBad: 0.005, PBadGood: 0.25, PERBad: 0.5},
		Crash: fault.Crash{MTTF: 1500, MTTR: 150},
	}
	conditions := []struct {
		name  string
		fault fault.Config
		speed float64
	}{
		{"clean", fault.Config{}, 0},
		{"impaired", impaired, 0},
		{"mobile-impaired", impaired, 0.004},
	}
	for _, p := range ExtendedProtocols {
		hits := 0
		for _, c := range conditions {
			for _, seed := range []int64{1, 2} {
				cfg := Defaults(p, seed)
				cfg.Fault = c.fault
				cfg.Speed = c.speed
				sh := newDataLogShadow(t, cfg.Nodes)
				cfg.Observers = []sim.Observer{sh}
				if _, err := Run(cfg); err != nil {
					t.Fatal(err)
				}
				t.Logf("%s %s seed %d: %d polls of a member or addressee, %d already held",
					p, c.name, seed, sh.queries, sh.hits)
				hits += sh.hits
			}
		}
		if p != Plain80211 && hits == 0 {
			t.Errorf("%s: no poll ever found the data already held; the comparison is vacuous", p)
		}
	}
}
