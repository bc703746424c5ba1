package bad

import (
	"math/rand"

	"relmac/internal/frames"
	"relmac/internal/sim"
)

// jitterTracer draws from a field-held generator when a transmission
// starts: TxStart runs inside the engine's startTx, so the draw shifts
// every later one in the run.
type jitterTracer struct {
	rng  *rand.Rand
	lags []int
}

func (t *jitterTracer) TxStart(f *frames.Frame, sender int, start, end sim.Slot) { // want `hook \(bad\.jitterTracer\)\.TxStart reaches a PRNG draw`
	t.lags = append(t.lags, t.rng.Intn(4))
}

func (t *jitterTracer) RxOK(f *frames.Frame, receiver int, now sim.Slot) {}

func (t *jitterTracer) RxLost(f *frames.Frame, receiver int, now sim.Slot) {}

// abortTracer aborts a request when a frame is decoded: RxOK runs
// inside the engine's completeSlot, so the tracer steers the run it
// records.
type abortTracer struct {
	env *sim.Env
	req *sim.Request
}

func (t *abortTracer) TxStart(f *frames.Frame, sender int, start, end sim.Slot) {}

func (t *abortTracer) RxOK(f *frames.Frame, receiver int, now sim.Slot) { // want `hook \(bad\.abortTracer\)\.RxOK reaches a sim\.Engine/Env mutation`
	t.env.ReportAbort(t.req, sim.AbortDeadline)
}

func (t *abortTracer) RxLost(f *frames.Frame, receiver int, now sim.Slot) {}
