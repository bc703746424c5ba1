// Package good implements a clean profiler in the sanctioned shape: an
// injectable clock held as a func value (never a static time.Now call)
// and pure counter accumulation. hookpure must stay silent here.
package good

import (
	"time"

	"relmac/internal/sim"
)

// timer is a minimal phase accumulator: every hook only reads the
// injected clock and adds into engine-external counters.
type timer struct {
	clock   func() time.Time
	last    time.Time
	cur     sim.Phase
	acc     [sim.NumPhases]int64
	running bool
}

func (t *timer) RunStart() {
	t.running = true
	t.last = t.clock()
	t.cur = sim.PhaseUntracked
}

func (t *timer) Enter(p sim.Phase) {
	if !t.running {
		return
	}
	now := t.clock()
	t.acc[int(t.cur)] += now.Sub(t.last).Nanoseconds()
	t.last, t.cur = now, p
}

func (t *timer) RunEnd() {
	t.Enter(sim.PhaseUntracked)
	t.running = false
}
