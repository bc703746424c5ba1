package dcf_test

// The sender skeleton every protocol shares, checked once per sender:
// the station counts contention phases, gives up at the retry limit and
// completes requests that name no receiver.

import (
	"testing"

	"relmac/internal/baseline/bmw"
	"relmac/internal/baseline/dcf"
	"relmac/internal/baseline/kuri"
	"relmac/internal/baseline/tgbcast"
	"relmac/internal/core"
	"relmac/internal/geom"
	"relmac/internal/mac"
	"relmac/internal/prototest"
	"relmac/internal/sim"
)

// senders lists every sender state machine: the DCF unicast exchange
// (served by every station; reached here through Plain) and the six
// group services. retries is false for the one that never retries.
var senders = []struct {
	name    string
	factory func(mac.Config) func(int, *sim.Env) sim.MAC
	unicast bool
	retries bool
}{
	{"unicast", dcf.NewPlain, true, true},
	{"802.11", dcf.NewPlain, false, false},
	{"TG", tgbcast.New, false, true},
	{"BSMA", tgbcast.NewBSMA, false, true},
	{"KK-Leader", kuri.New, false, true},
	{"BMW", bmw.New, false, true},
	{"BMMM", core.NewBMMM, false, true},
	{"LAMM", core.NewLAMM, false, true},
}

// TestSenderGivesUpAtRetryLimit: a receiver that never answers costs
// exactly RetryLimit contention phases, after which the sender aborts
// with AbortRetries. Plain never retries: it completes after one phase.
func TestSenderGivesUpAtRetryLimit(t *testing.T) {
	const limit = 4
	for _, s := range senders {
		t.Run(s.name, func(t *testing.T) {
			cfg := mac.DefaultConfig()
			cfg.RetryLimit = limit
			f := s.factory(cfg)
			// Station 1 is out of range of the sender but named as its
			// receiver, so nothing ever answers.
			pts := []geom.Point{geom.Pt(0.1, 0.1), geom.Pt(0.9, 0.9)}
			run := prototest.New(pts, r, func(n int, e *sim.Env) sim.MAC { return f(n, e) })
			if s.unicast {
				run.Unicast(5, 0, 1, 1000000)
			} else {
				run.Multicast(5, 0, []int{1}, 1000000)
			}
			run.Steps(5000)
			rec := run.Record(1)
			if !s.retries {
				if !rec.Completed || rec.Aborted || rec.Contentions != 1 {
					t.Fatalf("a sender that never retries completes after one phase: %+v", rec)
				}
				return
			}
			if rec.Completed || !rec.Aborted {
				t.Fatalf("unreachable receiver must abort: %+v", rec)
			}
			if rec.AbortReason != sim.AbortRetries {
				t.Errorf("abort reason = %v, want retry exhaustion", rec.AbortReason)
			}
			if rec.Contentions != limit {
				t.Errorf("contentions = %d, want exactly RetryLimit %d", rec.Contentions, limit)
			}
		})
	}
}

// TestSenderEmptyGroupCompletes: a request naming no receiver completes
// as it enters service, without a contention phase or a transmission.
func TestSenderEmptyGroupCompletes(t *testing.T) {
	for _, s := range senders {
		t.Run(s.name, func(t *testing.T) {
			f := s.factory(mac.DefaultConfig())
			pts := []geom.Point{geom.Pt(0.5, 0.5), geom.Pt(0.6, 0.5)}
			run := prototest.New(pts, r, func(n int, e *sim.Env) sim.MAC { return f(n, e) })
			if s.unicast {
				run.Script.At(5, &sim.Request{Kind: sim.Unicast, Src: 0, Deadline: 105})
			} else {
				run.Multicast(5, 0, nil, 100)
			}
			run.Steps(20)
			rec := run.Record(1)
			if !rec.Completed || rec.Contentions != 0 || run.Trace.TxSeq() != "" {
				t.Errorf("empty request: %+v, tx=%q", rec, run.Trace.TxSeq())
			}
		})
	}
}
