package experiments_test

// The cross-commit trajectory pin. The equivalence suite compares two
// engine paths inside one tree; this test compares the tree against a
// recorded past. Every event a run emits but the channel state, with its
// slot and payload, is folded in order into
// one SHA-256 per case, so any change to event order, frame contents or
// PRNG draw order shows up as a changed hash. A refactor that claims "same bytes" must leave
// testdata/transcript_golden.txt untouched.

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"relmac/internal/experiments"
	"relmac/internal/fault"
	"relmac/internal/frames"
	"relmac/internal/sim"
)

// hashRecorder folds every message and service-detail event, and
// through its channelView every transmission and reception, into a
// running SHA-256, one formatted line per event.
type hashRecorder struct {
	h hash.Hash
	n int
	// aborts counts abort events by reason, so the golden line shows
	// which give-up paths a case exercised.
	aborts [2]int
}

func newHashRecorder() *hashRecorder { return &hashRecorder{h: sha256.New()} }

func (r *hashRecorder) add(format string, args ...any) {
	fmt.Fprintf(r.h, format+"\n", args...)
	r.n++
}

func frameString(f *frames.Frame) string {
	return fmt.Sprintf("%v %v->%v msg=%d dur=%d seq=%d grp=%v miss=%v sup=%v",
		f.Type, f.Src, f.Dst, f.MsgID, f.Duration, f.Seq, f.Group, f.Missing, f.Suppress)
}

func reqString(req *sim.Request) string {
	return fmt.Sprintf("req=%d kind=%v src=%d dests=%v arr=%d dl=%d",
		req.ID, req.Kind, req.Src, req.Dests, req.Arrival, req.Deadline)
}

// Kinds implements sim.Observer.
func (r *hashRecorder) Kinds() sim.KindSet {
	return sim.MessageKinds | sim.Kinds(sim.EvServiceStart, sim.EvRoundStart, sim.EvResponseDrop)
}

// Observe formats one event of the message, service-detail or
// reception kinds.
func (r *hashRecorder) Observe(ev *sim.Event) {
	now, req, f := ev.Slot, ev.Req, ev.Frame
	switch ev.Kind {
	case sim.EvRxOK:
		r.add("rx %d @%d %s", ev.Station, now, frameString(f))
	case sim.EvRxLost:
		r.add("lost %d @%d %s", ev.Station, now, frameString(f))
	case sim.EvSubmit:
		r.add("submit @%d %s", now, reqString(req))
	case sim.EvContention:
		r.add("contention @%d req=%d", now, req.ID)
	case sim.EvFrameTx:
		r.add("frametx %d @%d %s", ev.Station, now, frameString(f))
	case sim.EvDataRx:
		r.add("datarx %d @%d msg=%d", ev.Station, now, f.MsgID)
	case sim.EvRound:
		r.add("round @%d req=%d residual=%d", now, req.ID, ev.Residual)
	case sim.EvComplete:
		r.add("complete @%d req=%d", now, req.ID)
	case sim.EvAbort:
		r.add("abort @%d req=%d reason=%v", now, req.ID, ev.Reason)
		r.aborts[ev.Reason]++
	case sim.EvServiceStart:
		r.add("service @%d req=%d", now, req.ID)
	case sim.EvRoundStart:
		r.add("roundstart @%d req=%d round=%d polled=%d", now, req.ID, ev.Round, ev.Polled)
	case sim.EvResponseDrop:
		r.add("respdrop %d @%d %s", ev.Station, now, frameString(f))
	}
}

// channelView is the recorder's subscription to the transmissions and
// the receptions. Attached after the recorder, it folds each frame-tx
// in a second time, as a channel span.
type channelView struct{ *hashRecorder }

func (v channelView) Kinds() sim.KindSet { return sim.Kinds(sim.EvFrameTx, sim.EvRxOK, sim.EvRxLost) }

func (v channelView) Observe(ev *sim.Event) {
	if ev.Kind == sim.EvFrameTx {
		v.add("tx %d [%d,%d] %s", ev.Station, ev.Start, ev.End, frameString(ev.Frame))
		return
	}
	v.hashRecorder.Observe(ev)
}

// transcriptFaults are the golden's two channel conditions: clean, and
// the fault mix of the observed-impaired benchmark workload.
var transcriptFaults = []struct {
	name string
	cfg  fault.Config
}{
	{"clean", fault.Config{}},
	{"impaired", fault.Config{
		PER:   0.02,
		GE:    fault.GilbertElliott{PGoodBad: 0.005, PBadGood: 0.25, PERBad: 0.5},
		Crash: fault.Crash{MTTF: 1500, MTTR: 150},
	}},
}

// TestTranscriptGolden pins the full event-level trajectory of every
// protocol, clean and impaired, at two seeds; the second seed also
// tightens the retry budget. Each line counts the aborts by reason
// (deadline/retries) next to the hash.
func TestTranscriptGolden(t *testing.T) {
	var b strings.Builder
	for _, p := range experiments.ExtendedProtocols {
		for _, fc := range transcriptFaults {
			for seed := int64(1); seed <= 2; seed++ {
				cfg := experiments.Defaults(p, seed)
				cfg.Nodes = 50
				cfg.Slots = 3000
				cfg.Rate = 0.001
				cfg.Fault = fc.cfg
				if seed == 2 {
					// A tight retry budget, so the give-up path of every
					// retrying sender runs too.
					cfg.MAC.RetryLimit = 3
				}
				rec := newHashRecorder()
				cfg.Observers = []sim.Observer{rec, channelView{rec}}
				if _, err := experiments.Run(cfg); err != nil {
					t.Fatalf("%s %s seed %d: %v", p, fc.name, seed, err)
				}
				fmt.Fprintf(&b, "%-10s %-8s seed=%d events=%d aborts=%d/%d sha256=%x\n",
					p, fc.name, seed, rec.n, rec.aborts[sim.AbortDeadline], rec.aborts[sim.AbortRetries], rec.h.Sum(nil))
			}
		}
	}
	want, err := os.ReadFile(filepath.Join("testdata", "transcript_golden.txt"))
	if err != nil {
		t.Fatalf("%v\ngot:\n%s", err, b.String())
	}
	if b.String() != string(want) {
		t.Errorf("event transcripts diverged from the recorded trajectories\ngot:\n%s\nwant:\n%s",
			b.String(), want)
	}
}

// TestMobileFaultGolden pins moving runs under the impaired fault mix:
// the topology is rebuilt every 50 slots, so each sender's neighbour
// list changes under its Gilbert–Elliott link states many times per
// run. Each line holds the event hash and the injector's counters —
// i.i.d. and burst erasures, receptions dropped at crashed receivers,
// and down intervals entered — so a link state lost or misattributed
// across a topology swap shows up here even when no event moves.
func TestMobileFaultGolden(t *testing.T) {
	var b strings.Builder
	for _, p := range []experiments.Protocol{experiments.LAMM, experiments.BMMM} {
		for seed := int64(1); seed <= 2; seed++ {
			cfg := experiments.Defaults(p, seed)
			cfg.Nodes = 50
			cfg.Slots = 3000
			cfg.Rate = 0.001
			cfg.Speed = 0.002
			cfg.Fault = transcriptFaults[1].cfg
			rec := newHashRecorder()
			cfg.Observers = []sim.Observer{rec, channelView{rec}}
			res, err := experiments.Run(cfg)
			if err != nil {
				t.Fatalf("%s seed %d: %v", p, seed, err)
			}
			iid, ge := res.Fault.Erasures()
			drops, downs := res.Fault.CrashStats()
			fmt.Fprintf(&b, "%-4s seed=%d events=%d iid=%d ge=%d crash_drops=%d crash_downs=%d sha256=%x\n",
				p, seed, rec.n, iid, ge, drops, downs, rec.h.Sum(nil))
		}
	}
	want, err := os.ReadFile(filepath.Join("testdata", "mobile_fault_golden.txt"))
	if err != nil {
		t.Fatalf("%v\ngot:\n%s", err, b.String())
	}
	if b.String() != string(want) {
		t.Errorf("mobile faulted runs diverged from the recorded trajectories\ngot:\n%s\nwant:\n%s",
			b.String(), want)
	}
}
