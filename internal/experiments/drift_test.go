package experiments

import (
	"math"
	"strings"
	"testing"
)

// TestDriftWithinTolerance is the acceptance gate for the drift monitor:
// on the Figure 6 configuration (Table 2 defaults, reduced fidelity for
// test time), the message-weighted signed relative error between the
// observed contention-phase counts and the fₙ recurrence at the
// empirical p̂ must stay inside DriftTolerance for BMMM and LAMM.
func TestDriftWithinTolerance(t *testing.T) {
	o := Options{Runs: 6, Slots: 5000, Protocols: []Protocol{BMMM, LAMM}}
	_, sums, err := Drift(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, proto := range o.Protocols {
		s, ok := sums[proto]
		if !ok {
			t.Fatalf("no drift summary for %s", proto)
		}
		if s.Messages < 500 {
			t.Fatalf("%s: only %d completed messages — not enough signal for the gate", proto, s.Messages)
		}
		if s.PHat <= 0.5 || s.PHat > 1 {
			t.Errorf("%s: p̂ = %g, implausible for the clean-channel defaults", proto, s.PHat)
		}
		if math.IsNaN(s.WeightedRelErr) || math.Abs(s.WeightedRelErr) > DriftTolerance {
			t.Errorf("%s: weighted drift %g exceeds tolerance %g (p̂=%g, %d msgs)",
				proto, s.WeightedRelErr, DriftTolerance, s.PHat, s.Messages)
		}
	}
}

// TestDriftBMWPerReceiverModel pins that BMW is compared against n/p,
// not the batch recurrence: on a clean channel its observed contention
// count grows linearly with group size.
func TestDriftBMWPerReceiverModel(t *testing.T) {
	o := Options{Runs: 4, Slots: 4000, Protocols: []Protocol{BMW}}
	_, sums, err := Drift(o)
	if err != nil {
		t.Fatal(err)
	}
	s := sums[BMW]
	if s.Model != "per-receiver" {
		t.Fatalf("BMW model = %q, want per-receiver", s.Model)
	}
	if math.Abs(s.WeightedRelErr) > DriftTolerance {
		t.Errorf("BMW weighted drift %g exceeds tolerance %g", s.WeightedRelErr, DriftTolerance)
	}
}

func TestDriftTableShape(t *testing.T) {
	o := Options{Runs: 2, Slots: 2000, Protocols: []Protocol{BMMM}}
	tb, _, err := Drift(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) == 0 {
		t.Fatal("empty drift table")
	}
	var sb strings.Builder
	if err := tb.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, col := range []string{"protocol", "p_hat", "observed", "expected", "rel_err"} {
		if !strings.Contains(out, col) {
			t.Errorf("rendered table missing column %q", col)
		}
	}
	last := tb.Rows[len(tb.Rows)-1]
	if last[3] != "all" {
		t.Errorf("last row n = %q, want aggregate \"all\"", last[3])
	}
}
