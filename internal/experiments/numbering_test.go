package experiments_test

import (
	"fmt"
	"math/rand"
	"testing"

	"relmac/internal/experiments"
	"relmac/internal/fault"
	"relmac/internal/sim"
	"relmac/internal/topo"
	"relmac/internal/traffic"
)

// alertOverTraffic is the emergency example's source shape: one
// scripted alert released beside a Generator's background traffic. It
// announces the earlier of the two next arrivals, so the optimized
// engine still skips idle stretches.
type alertOverTraffic struct {
	gen    *traffic.Generator
	script *traffic.Script
	buf    []*sim.Request
}

func (s *alertOverTraffic) Arrivals(now sim.Slot) []*sim.Request {
	s.buf = append(append(s.buf[:0], s.gen.Arrivals(now)...), s.script.Arrivals(now)...)
	return s.buf
}

func (s *alertOverTraffic) NextArrival(after sim.Slot) (sim.Slot, bool) {
	g, gok := s.gen.NextArrival(after)
	a, aok := s.script.NextArrival(after)
	switch {
	case gok && aok:
		return min(g, a), true
	case gok:
		return g, true
	}
	return a, aok
}

// submitLog checks the engine's numbering as the requests arrive: the
// n-th submission carries ID n and untouched counts. It also counts the
// terminal events per message, which the surfaces that read a request's
// counts at its terminal event rely on being one.
type submitLog struct {
	t     *testing.T
	reqs  []*sim.Request
	order []string // "slot src kind" per submission
	terms map[int64]int
}

func (l *submitLog) Kinds() sim.KindSet {
	return sim.Kinds(sim.EvSubmit, sim.EvComplete, sim.EvAbort)
}

func (l *submitLog) Observe(ev *sim.Event) {
	switch ev.Kind {
	case sim.EvSubmit:
		r := ev.Req
		l.reqs = append(l.reqs, r)
		if r.ID != int64(len(l.reqs)) || r.Contentions != 0 || r.Rounds != 0 || r.Residual != len(r.Dests) {
			l.t.Errorf("submission %d reads ID %d, counts %d/%d/%d of %d receivers",
				len(l.reqs), r.ID, r.Contentions, r.Rounds, r.Residual, len(r.Dests))
		}
		l.order = append(l.order, fmt.Sprintf("%d %d %v", ev.Slot, r.Src, r.Kind))
	case sim.EvComplete, sim.EvAbort:
		l.terms[ev.Req.ID]++
		if l.terms[ev.Req.ID] > 1 {
			l.t.Errorf("message %d: second terminal event (%v at %d)", ev.Req.ID, ev.Kind, ev.Slot)
		}
	}
}

// TestEngineNumbersMixedSources runs the alert-over-background shape on
// both engine paths for every protocol, impaired: the engine numbers
// the requests 1..N in submission order whatever source made them, the
// alert included, both paths submit the same sequence and end with the
// same counts on every request, and no message sees two terminal events.
func TestEngineNumbersMixedSources(t *testing.T) {
	const alertAt = 300
	for _, proto := range experiments.ExtendedProtocols {
		t.Run(string(proto), func(t *testing.T) {
			var runs [2]*submitLog
			var alertIDs [2]int64
			for k, reference := range []bool{false, true} {
				rng := rand.New(rand.NewSource(5))
				tp := topo.Uniform(40, 0.25, rng)
				gen := traffic.NewGenerator(tp, rng)
				gen.Rate = 0.0015
				alert := &sim.Request{Kind: sim.Broadcast, Src: 0,
					Dests: append([]int(nil), tp.Neighbors(0)...), Deadline: alertAt + 300}
				script := traffic.NewScript()
				script.At(alertAt, alert)

				cfg := experiments.Defaults(proto, 5)
				factory, err := experiments.Factory(proto, cfg.MAC)
				if err != nil {
					t.Fatal(err)
				}
				inj, err := fault.NewInjector(fault.Config{
					PER:  0.02,
					GE:   fault.GilbertElliott{PGoodBad: 0.005, PBadGood: 0.25, PERBad: 0.5},
					Seed: 5,
				})
				if err != nil {
					t.Fatal(err)
				}
				log := &submitLog{t: t, terms: map[int64]int{}}
				eng := sim.New(sim.Config{Topo: tp, Seed: 5, Reference: reference, Impairment: inj,
					Observers: []sim.Observer{log}})
				eng.AttachMACs(factory)
				eng.Run(1500, &alertOverTraffic{gen: gen, script: script})

				if len(log.reqs) < 10 {
					t.Fatalf("reference=%v: %d submissions; the check is vacuous", reference, len(log.reqs))
				}
				if alert.ID < 2 || log.reqs[alert.ID-1] != alert {
					t.Errorf("reference=%v: alert numbered %d, not at its submission", reference, alert.ID)
				}
				runs[k], alertIDs[k] = log, alert.ID
			}
			opt, ref := runs[0], runs[1]
			if fmt.Sprint(opt.order) != fmt.Sprint(ref.order) || alertIDs[0] != alertIDs[1] {
				t.Fatalf("submission sequences diverged between the engine paths")
			}
			for i, r := range opt.reqs {
				q := ref.reqs[i]
				if r.Contentions != q.Contentions || r.Rounds != q.Rounds || r.Residual != q.Residual {
					t.Errorf("message %d: optimized counts %d/%d/%d, reference %d/%d/%d", r.ID,
						r.Contentions, r.Rounds, r.Residual, q.Contentions, q.Rounds, q.Residual)
				}
			}
		})
	}
}
