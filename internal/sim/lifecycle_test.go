package sim

import (
	"fmt"
	"testing"

	"relmac/internal/frames"
)

// recLifecycle records one line per lifecycle event in arrival order.
type recLifecycle struct {
	lines []string
}

func (r *recLifecycle) OnServiceStart(req *Request, now Slot) {
	r.lines = append(r.lines, fmt.Sprintf("service msg=%d t=%d", req.ID, now))
}

func (r *recLifecycle) OnRoundStart(req *Request, round, polled int, now Slot) {
	r.lines = append(r.lines, fmt.Sprintf("round msg=%d r=%d n=%d t=%d", req.ID, round, polled, now))
}

func (r *recLifecycle) OnResponseDrop(station int, f *frames.Frame, now Slot) {
	r.lines = append(r.lines, fmt.Sprintf("drop st=%d %s t=%d", station, f.Type, now))
}

// TestEnvLifecycleReporting pins the Env.Report* dispatch: nil hook is a
// no-op, non-nil hook sees the arguments verbatim with the engine clock
// and the reporting station's ID attached.
func TestEnvLifecycleReporting(t *testing.T) {
	tp := lineTopo(2, 0.1, 0.15)

	bare := New(Config{Topo: tp})
	env := bare.EnvOf(0)
	if env.LifecycleOn() {
		t.Error("LifecycleOn() = true with no hook installed")
	}
	env.ReportServiceStart(&Request{ID: 1}) // nil hook: must not panic
	env.ReportRoundStart(&Request{ID: 1}, 1, 2)
	env.ReportResponseDrop(&frames.Frame{Type: frames.ACK})

	rec := &recLifecycle{}
	hooked := New(Config{Topo: tp, Lifecycles: []LifecycleObserver{rec}})
	env = hooked.EnvOf(1)
	if !env.LifecycleOn() {
		t.Error("LifecycleOn() = false with a hook installed")
	}
	req := &Request{ID: 4}
	env.ReportServiceStart(req)
	env.ReportRoundStart(req, 2, 3)
	env.ReportResponseDrop(&frames.Frame{Type: frames.NAK})
	want := []string{"service msg=4 t=0", "round msg=4 r=2 n=3 t=0", "drop st=1 NAK t=0"}
	if fmt.Sprint(rec.lines) != fmt.Sprint(want) {
		t.Errorf("reported stream = %v, want %v", rec.lines, want)
	}
}
