package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"relmac/internal/fault"
	"relmac/internal/sim"
)

// TestFaultZeroConfigByteIdentical is the no-op guarantee of the fault
// subsystem: with a zero-value fault.Config, every protocol's run
// metrics are byte-identical to the output pinned in
// testdata/zerofault_golden.txt. A diff here means the hook perturbs
// the engine's random sequence or event order even when disabled.
func TestFaultZeroConfigByteIdentical(t *testing.T) {
	var b strings.Builder
	for _, p := range ExtendedProtocols {
		cfg := Defaults(p, 42)
		cfg.Slots = 2000
		cfg.Fault = fault.Config{} // explicit zero: must be a true no-op
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Fault != nil {
			t.Errorf("%s: zero config built an injector", p)
		}
		js, err := json.Marshal(res.Summary)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%-10s %s avgdeg=%.6f\n", p, js, res.AvgDegree)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "zerofault_golden.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != string(want) {
		t.Errorf("zero-fault metrics diverged from pre-change golden\ngot:\n%s\nwant:\n%s",
			b.String(), want)
	}
}

// TestFaultPERGracefulDegradation pins how the batch protocols degrade
// at 10% i.i.d. frame loss. BMMM requires a positive ACK from every
// intended receiver, so each message it completes still reaches its
// full receiver set — delivery ratio 1.0 on completions, with the loss
// surfacing only as extra contention phases and aborts. LAMM instead
// completes once its minimal covering set has ACKed; that inference is
// sound when losses are spatially correlated (collisions) but i.i.d.
// erasures break the correlation, so a completed LAMM message may leave
// a non-covering receiver short. The test pins both behaviours: BMMM
// exactly full, LAMM nearly full (≥ 90% of receivers per completed
// message on average), and strictly more contention phases for both.
func TestFaultPERGracefulDegradation(t *testing.T) {
	for _, p := range []Protocol{BMMM, LAMM} {
		var cleanCont, faultCont float64
		for run := 0; run < 3; run++ {
			seed := int64(42 + run)
			clean := Defaults(p, seed)
			clean.Slots = 2000
			cres, err := Run(clean)
			if err != nil {
				t.Fatal(err)
			}
			faulted := clean
			faulted.Fault = fault.Config{PER: 0.1}
			fres, err := Run(faulted)
			if err != nil {
				t.Fatal(err)
			}
			if fres.Fault == nil {
				t.Fatalf("%s: PER 0.1 built no injector", p)
			}
			if iid, _ := fres.Fault.Erasures(); iid == 0 {
				t.Errorf("%s run %d: no frames erased at PER 0.1", p, run)
			}
			var reached, intended int
			for _, rec := range fres.Collector.Records() {
				if !rec.Completed {
					continue
				}
				reached += rec.Delivered
				intended += len(rec.Dests)
				if p == BMMM && rec.Delivered < len(rec.Dests) {
					t.Errorf("BMMM run %d: completed msg %d reached %d/%d receivers",
						run, rec.ID, rec.Delivered, len(rec.Dests))
				}
			}
			if intended == 0 {
				t.Fatalf("%s run %d: no completed messages under PER 0.1", p, run)
			}
			if frac := float64(reached) / float64(intended); frac < 0.9 {
				t.Errorf("%s run %d: completed messages reached only %.3f of receivers", p, run, frac)
			}
			cleanCont += cres.Summary.AvgContentions
			faultCont += fres.Summary.AvgContentions
		}
		if faultCont <= cleanCont {
			t.Errorf("%s: contention phases did not increase under PER 0.1 (clean %.3f, faulted %.3f)",
				p, cleanCont/3, faultCont/3)
		}
	}
}

// TestFaultCrashReducesDelivery sanity-checks the crash axis end to
// end: with nodes down 1/6 of the time, receptions are dropped at
// crashed receivers and the mean delivered fraction falls below the
// clean run's.
func TestFaultCrashReducesDelivery(t *testing.T) {
	cfg := Defaults(BMMM, 42)
	cfg.Slots = 2000
	clean, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Fault = fault.Config{Crash: fault.Crash{MTTF: 500, MTTR: 100}}
	crashed, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	drops, downs := crashed.Fault.CrashStats()
	if downs == 0 {
		t.Fatal("no down intervals over 2000 slots at MTTF 500")
	}
	if drops == 0 {
		t.Error("no receptions attributed to crashed receivers")
	}
	if crashed.Summary.MeanDeliveredFraction >= clean.Summary.MeanDeliveredFraction {
		t.Errorf("crashes did not reduce delivered fraction: clean %.4f, crashed %.4f",
			clean.Summary.MeanDeliveredFraction, crashed.Summary.MeanDeliveredFraction)
	}
}

// TestRunRejectsBadFaultConfig checks that an out-of-range fault
// configuration comes back from Run as an error instead of a panic from
// the injector constructor.
func TestRunRejectsBadFaultConfig(t *testing.T) {
	for _, fc := range []fault.Config{
		{PER: 1.5},
		{PER: -1},
		{Crash: fault.Crash{MTTF: 1000}}, // no MTTR
	} {
		cfg := Defaults(BMMM, 1)
		cfg.Slots = 10
		cfg.Fault = fc
		if _, err := Run(cfg); err == nil {
			t.Errorf("Run accepted invalid fault config %+v", fc)
		}
	}
}

// TestSeedForPairsProtocols pins the paired-seed design: every protocol
// at a given (point, run) draws the same seed — hence the same
// topology, traffic and fault schedule — while distinct points and runs
// draw distinct seeds.
func TestSeedForPairsProtocols(t *testing.T) {
	seen := map[int64]bool{}
	for point := 0; point < 4; point++ {
		for run := 0; run < 4; run++ {
			base := seedFor(point, 0, run)
			for proto := 1; proto < len(ExtendedProtocols); proto++ {
				if got := seedFor(point, proto, run); got != base {
					t.Fatalf("seedFor(%d, %d, %d) = %d, want %d: protocols must be paired",
						point, proto, run, got, base)
				}
			}
			if seen[base] {
				t.Fatalf("seed %d reused across (point, run) cells", base)
			}
			seen[base] = true
		}
	}
}

// submitLog records the identity of every request handed to a MAC.
type submitLog struct{ subs []string }

func (l *submitLog) Kinds() sim.KindSet { return sim.Kinds(sim.EvSubmit) }

func (l *submitLog) Observe(ev *sim.Event) {
	req := ev.Req
	l.subs = append(l.subs, fmt.Sprintf("id=%d src=%d kind=%v dests=%v arrival=%d",
		req.ID, req.Src, req.Kind, req.Dests, req.Arrival))
}

// TestPairedArrivals is what the pairing of TestSeedForPairsProtocols
// buys: at one seedFor cell, every protocol is handed the identical
// request sequence — IDs, sources, kinds, destination sets and arrival
// slots — even though each protocol consumes the engine PRNG (backoff,
// capture) differently.
func TestPairedArrivals(t *testing.T) {
	var want []string
	for i, p := range AllProtocols {
		log := &submitLog{}
		cfg := Defaults(p, seedFor(1, i, 0))
		cfg.Slots = 5000
		cfg.Observers = []sim.Observer{log}
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = log.subs
			if len(want) < 50 {
				t.Fatalf("%s: only %d submits; the comparison is too weak", p, len(want))
			}
			continue
		}
		if len(log.subs) != len(want) {
			t.Errorf("%s: %d submits, %s had %d", p, len(log.subs), AllProtocols[0], len(want))
		}
		for k := 0; k < len(want) && k < len(log.subs); k++ {
			if log.subs[k] != want[k] {
				t.Errorf("%s: submit %d is %s, %s saw %s", p, k, log.subs[k], AllProtocols[0], want[k])
				break
			}
		}
	}
}
