// Package prototest provides the scaffolding used by the protocol test
// suites: canned topologies, a trace recorder that turns channel events
// into golden-comparable strings, scripted interferer stations, and a Run
// wrapper bundling engine, metrics and traffic script.
//
// It is imported only from _test.go files.
package prototest

import (
	"fmt"
	"math"
	"strings"

	"relmac/internal/frames"
	"relmac/internal/geom"
	"relmac/internal/metrics"
	"relmac/internal/sim"
	"relmac/internal/topo"
	"relmac/internal/traffic"
)

// TraceRecorder collects channel events as strings like
// "12 TX RTS 0→1" and "13 RX CTS 1→0 @0".
type TraceRecorder struct {
	Events []string
}

// Kinds implements sim.Observer: the transmissions and the receptions.
func (r *TraceRecorder) Kinds() sim.KindSet {
	return sim.Kinds(sim.EvFrameTx, sim.EvRxOK, sim.EvRxLost)
}

// Observe implements sim.Observer.
func (r *TraceRecorder) Observe(ev *sim.Event) {
	f := ev.Frame
	if ev.Kind == sim.EvFrameTx {
		r.Events = append(r.Events, fmt.Sprintf("%d TX %s %s→%s", ev.Start, f.Type, f.Src, f.Dst))
	} else {
		verb := "RX"
		if ev.Kind == sim.EvRxLost {
			verb = "LOST"
		}
		r.Events = append(r.Events, fmt.Sprintf("%d %s %s %s→%s @%d", ev.Slot, verb, f.Type, f.Src, f.Dst, ev.Station))
	}
}

// TxTypes returns the sequence of transmitted frame types, e.g.
// ["RTS","CTS","DATA"].
func (r *TraceRecorder) TxTypes() []string {
	var out []string
	for _, e := range r.Events {
		parts := strings.Fields(e)
		if len(parts) >= 3 && parts[1] == "TX" {
			out = append(out, parts[2])
		}
	}
	return out
}

// TxSeq renders TxTypes as a single space-joined string for golden
// comparisons.
func (r *TraceRecorder) TxSeq() string { return strings.Join(r.TxTypes(), " ") }

// Run bundles one configured simulation.
type Run struct {
	Engine    *sim.Engine
	Collector *metrics.Collector
	Trace     *TraceRecorder
	Script    *traffic.Script
	Topo      *topo.Topology
}

// Factory builds a MAC for a station.
type Factory func(node int, env *sim.Env) sim.MAC

// New builds a Run over the given points with every station using the
// factory. Extra configuration is applied through opts.
func New(pts []geom.Point, radius float64, factory Factory, opts ...Option) *Run {
	tp := topo.FromPoints(pts, radius)
	r := &Run{
		Collector: metrics.NewCollector(),
		Trace:     &TraceRecorder{},
		Script:    traffic.NewScript(),
		Topo:      tp,
	}
	cfg := sim.Config{Topo: tp, Observers: []sim.Observer{r.Collector, r.Trace}}
	for _, o := range opts {
		o(&cfg)
	}
	r.Engine = sim.New(cfg)
	r.Engine.AttachMACs(func(node int, env *sim.Env) sim.MAC { return factory(node, env) })
	return r
}

// Option tweaks the engine configuration.
type Option func(*sim.Config)

// WithCapture installs a capture model.
func WithCapture(m interface {
	Name() string
	Probability(int) float64
	Resolve([]float64, float64) int
}) Option {
	return func(c *sim.Config) { c.Capture = m }
}

// WithSeed sets the engine seed.
func WithSeed(seed int64) Option {
	return func(c *sim.Config) { c.Seed = seed }
}

// WithTiming sets the engine's frame airtimes, which the MACs read
// through their Env.
func WithTiming(tm frames.Timing) Option {
	return func(c *sim.Config) { c.Timing = tm }
}

// WithExposedTerminal sets the engine's exposed-terminal option
// (sim.Config.ExposedTerminal).
func WithExposedTerminal(on bool) Option {
	return func(c *sim.Config) { c.ExposedTerminal = on }
}

// Multicast schedules a multicast request from src to dests at slot t
// with the given timeout in slots, returning it. The engine numbers it
// at submission: the n-th request the run submits has ID n.
func (r *Run) Multicast(t sim.Slot, src int, dests []int, timeout int) *sim.Request {
	return r.Script.At(t, &sim.Request{
		Kind: sim.Multicast, Src: src, Dests: dests,
		Deadline: t + sim.Slot(timeout),
	})
}

// Unicast schedules a unicast request.
func (r *Run) Unicast(t sim.Slot, src, dst int, timeout int) *sim.Request {
	return r.Script.At(t, &sim.Request{
		Kind: sim.Unicast, Src: src, Dests: []int{dst},
		Deadline: t + sim.Slot(timeout),
	})
}

// Steps advances the simulation n slots, feeding the script.
func (r *Run) Steps(n int) { r.Engine.Run(n, r.Script) }

// Record returns the record of the id-th submitted request, or nil.
func (r *Run) Record(id int64) *metrics.Record {
	if recs := r.Collector.Records(); id >= 1 && id <= int64(len(recs)) {
		return recs[id-1]
	}
	return nil
}

// Star returns a sender at the center of the unit square surrounded by k
// receivers on a circle of the given radius fraction of the transmission
// radius r. Node 0 is the sender; 1..k the receivers.
func Star(k int, r, frac float64) []geom.Point {
	pts := []geom.Point{geom.Pt(0.5, 0.5)}
	for i := 0; i < k; i++ {
		th := 2 * math.Pi * float64(i) / float64(k)
		pts = append(pts, geom.Pt(0.5+frac*r*math.Cos(th), 0.5+frac*r*math.Sin(th)))
	}
	return pts
}

// Jammer is a scripted station that transmits pre-programmed frames at
// fixed slots regardless of carrier sense — a deterministic interferer
// for loss-injection tests. Install it with Engine.SetMAC over one of the
// protocol stations after building the Run.
type Jammer struct {
	sends map[sim.Slot]*frames.Frame
}

// NewJammer returns an empty Jammer.
func NewJammer() *Jammer { return &Jammer{sends: map[sim.Slot]*frames.Frame{}} }

// JamAt schedules a 1-slot control transmission at slot t.
func (j *Jammer) JamAt(t sim.Slot) *Jammer {
	j.sends[t] = &frames.Frame{Type: frames.CTS, Dst: frames.NoAddr, MsgID: -1}
	return j
}

// JamFrameAt schedules an arbitrary frame at slot t.
func (j *Jammer) JamFrameAt(t sim.Slot, f *frames.Frame) *Jammer {
	j.sends[t] = f
	return j
}

// Tick implements sim.MAC.
func (j *Jammer) Tick(env *sim.Env) *frames.Frame { return j.sends[env.Now()] }

// Deliver implements sim.MAC.
func (j *Jammer) Deliver(env *sim.Env, f *frames.Frame, rx sim.Rx) {}

// Submit implements sim.MAC.
func (j *Jammer) Submit(env *sim.Env, req *sim.Request) {}
