package traffic

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"relmac/internal/sim"
	"relmac/internal/topo"
)

// Mix is the request-kind distribution. The three fields must be
// non-negative and sum to a positive value; they are normalised on use.
type Mix struct {
	Unicast, Multicast, Broadcast float64
}

// DefaultMix returns the paper's 0.2 / 0.4 / 0.4 traffic mix.
func DefaultMix() Mix { return Mix{Unicast: 0.2, Multicast: 0.4, Broadcast: 0.4} }

// Validate reports an error for a degenerate mix: a component that is
// negative or NaN, or components whose sum is zero or infinite. pick
// would turn every request of such a mix into a broadcast.
func (m Mix) Validate() error {
	if !(m.Unicast >= 0 && m.Multicast >= 0 && m.Broadcast >= 0) {
		return fmt.Errorf("traffic: negative or NaN mix component %+v", m)
	}
	switch total := m.Unicast + m.Multicast + m.Broadcast; {
	case total == 0:
		return fmt.Errorf("traffic: mix sums to zero")
	case math.IsInf(total, 0):
		return fmt.Errorf("traffic: mix %+v sums to infinity", m)
	}
	return nil
}

// pick draws a kind from the mix.
func (m Mix) pick(rng *rand.Rand) sim.Kind {
	total := m.Unicast + m.Multicast + m.Broadcast
	u := rng.Float64() * total
	switch {
	case u < m.Unicast:
		return sim.Unicast
	case u < m.Unicast+m.Multicast:
		return sim.Multicast
	default:
		return sim.Broadcast
	}
}

// Generator implements sim.EventSource with Bernoulli per-node arrivals,
// sampled by geometric inter-arrival gaps over the slot-major,
// node-minor lattice of (slot, node) points. It draws only from its own
// stream, and only when an arrival fires.
type Generator struct {
	// Topo supplies neighbor sets for destination selection.
	Topo *topo.Topology
	// Rate is the per-node, per-slot message generation probability.
	Rate float64
	// Mix is the kind distribution.
	Mix Mix
	// Timeout is the upper-layer deadline in slots after arrival.
	Timeout int

	rng *rand.Rand
	// The cursor: the next lattice point that fires, plus an init flag.
	// The first gap is drawn lazily, on the first Arrivals or
	// NextArrival call, so Rate may still be set after construction.
	init bool
	slot sim.Slot
	node int
	// buf is the reused Arrivals result slice. The engine consumes the
	// returned requests before the next Arrivals call (the sim.Source
	// contract), so only the requests — not the slice — must survive.
	buf []*sim.Request
}

// NewGenerator builds a Generator with the paper's defaults (rate
// 0.0005, mix 0.2/0.4/0.4, timeout 100) on the given topology. Every
// arrival time, kind and destination set is drawn from rng, which the
// generator must be the only consumer of while it runs.
func NewGenerator(tp *topo.Topology, rng *rand.Rand) *Generator {
	return &Generator{Topo: tp, Rate: 0.0005, Mix: DefaultMix(), Timeout: 100, rng: rng}
}

// Arrivals implements sim.Source: it fires every lattice point scheduled
// for this slot, drawing the next geometric gap after each. Calls on
// slots before the cursor draw nothing, so stepping every slot and
// jumping to the slots NextArrival announces yield the same requests.
func (g *Generator) Arrivals(now sim.Slot) []*sim.Request {
	out := g.buf[:0]
	if !g.start() {
		return out
	}
	// Points the caller stepped past without consulting us (mixed
	// sources, manual Step loops) are dropped, consuming their gap
	// draws so the stream stays aligned.
	for g.slot < now {
		g.advance(1)
	}
	for g.slot == now {
		node := g.node
		g.advance(1)
		if req := g.makeRequest(node, now); req != nil {
			out = append(out, req)
		}
	}
	g.buf = out
	return out
}

// start draws the first gap on first use and reports whether any
// arrival can ever fire.
func (g *Generator) start() bool {
	if g.Rate <= 0 || g.Topo.N() == 0 {
		return false
	}
	if !g.init {
		g.init = true
		g.advance(0)
	}
	return true
}

// advance moves the cursor from its current lattice point to the next
// firing one: `consumed` steps past the current point (1 after a
// firing, 0 on init), then a geometric number of silent points. The gap
// law floor(log1p(-u)/log1p(-p)) gives P(gap=k) = (1-p)^k·p, so every
// lattice point fires independently with probability Rate — the
// Bernoulli process of Table 2, sampled by inter-arrival, not by point.
// A gap past the last representable slot (rates below ~1e-19) parks the
// cursor at math.MaxInt64, a slot no run reaches.
func (g *Generator) advance(consumed int) {
	u := g.rng.Float64()
	gap := math.Floor(math.Log1p(-u) / math.Log1p(-g.Rate))
	n := sim.Slot(g.Topo.N())
	base := g.slot*n + sim.Slot(g.node) + sim.Slot(consumed)
	if gap >= float64(math.MaxInt64-base) {
		g.slot = math.MaxInt64
		return
	}
	idx := base + sim.Slot(gap)
	g.slot = idx / n
	g.node = int(idx % n)
}

// NextArrival implements sim.EventSource: the cursor's slot, or the
// asked-for slot when the cursor already lies behind it (Arrivals will
// drop those stale points there). It draws nothing beyond the first gap.
func (g *Generator) NextArrival(after sim.Slot) (sim.Slot, bool) {
	if !g.start() {
		return 0, false
	}
	if g.slot < after {
		return after, true
	}
	return g.slot, true
}

// makeRequest builds one request originating at the node, or nil when the
// node has no neighbors to address.
func (g *Generator) makeRequest(node int, now sim.Slot) *sim.Request {
	rng := g.rng
	nb := g.Topo.Neighbors(node)
	if len(nb) == 0 {
		return nil
	}
	kind := g.Mix.pick(rng)
	var dests []int
	switch kind {
	case sim.Unicast:
		dests = []int{nb[rng.Intn(len(nb))]}
	case sim.Broadcast:
		dests = append([]int(nil), nb...)
	default: // multicast: a uniform random non-empty subset size
		k := 1 + rng.Intn(len(nb))
		dests = sampleWithoutReplacement(nb, k, rng)
	}
	return &sim.Request{
		Kind:     kind,
		Src:      node,
		Dests:    dests,
		Arrival:  now,
		Deadline: now + sim.Slot(g.Timeout),
	}
}

// sampleWithoutReplacement draws k distinct elements of src in random
// order (partial Fisher–Yates on a copy).
func sampleWithoutReplacement(src []int, k int, rng *rand.Rand) []int {
	buf := append([]int(nil), src...)
	if k > len(buf) {
		k = len(buf)
	}
	for i := 0; i < k; i++ {
		j := i + rng.Intn(len(buf)-i)
		buf[i], buf[j] = buf[j], buf[i]
	}
	return buf[:k]
}

// Script is a deterministic sim.Source for tests and examples: requests
// are released at pre-programmed slots. It implements sim.EventSource —
// release slots are known upfront — so script-driven runs benefit from
// event-driven slot skipping automatically.
type Script struct {
	byts   map[sim.Slot][]*sim.Request
	sorted []sim.Slot // release slots, ascending; nil when stale
}

// NewScript returns an empty Script.
func NewScript() *Script { return &Script{byts: map[sim.Slot][]*sim.Request{}} }

// At schedules a request for release at the given slot, assigning arrival
// and returning the request for further inspection.
func (s *Script) At(t sim.Slot, req *sim.Request) *sim.Request {
	req.Arrival = t
	if req.Deadline == 0 {
		req.Deadline = t + 1_000_000 // effectively no timeout unless set
	}
	s.byts[t] = append(s.byts[t], req)
	s.sorted = nil
	return req
}

// Arrivals implements sim.Source.
func (s *Script) Arrivals(now sim.Slot) []*sim.Request {
	return s.byts[now]
}

// NextArrival implements sim.EventSource: the earliest release slot at
// or after the given one.
func (s *Script) NextArrival(after sim.Slot) (sim.Slot, bool) {
	if s.sorted == nil {
		s.sorted = make([]sim.Slot, 0, len(s.byts))
		for t := range s.byts {
			s.sorted = append(s.sorted, t)
		}
		sort.Slice(s.sorted, func(i, j int) bool { return s.sorted[i] < s.sorted[j] })
	}
	i := sort.Search(len(s.sorted), func(i int) bool { return s.sorted[i] >= after })
	if i == len(s.sorted) {
		return 0, false
	}
	return s.sorted[i], true
}
