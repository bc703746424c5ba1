package sim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"relmac/internal/capture"
	"relmac/internal/frames"
	"relmac/internal/topo"
)

// Slot is a point in slotted simulation time.
type Slot int64

// Kind classifies MAC service requests, mirroring the paper's traffic mix
// (unicast 0.2 / multicast 0.4 / broadcast 0.4).
type Kind uint8

// Request kinds.
const (
	Unicast Kind = iota
	Multicast
	Broadcast
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Unicast:
		return "unicast"
	case Multicast:
		return "multicast"
	case Broadcast:
		return "broadcast"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Request is a MAC service request handed to a station by the upper
// layer: deliver a data frame to the given set of neighbors before the
// deadline.
//
// A Source sets Kind, Src, Dests, Arrival and Deadline; the engine owns
// the rest, which MACs and observers only read. It updates the counts
// after the fan-out of the event that changes them, so the event's
// observers see the message as it was before it.
type Request struct {
	// ID numbers the message: 1, 2, 3, … in submission order, per engine.
	ID int64
	// Kind is unicast, multicast or broadcast. Broadcast is simply a
	// multicast to all neighbors (paper §1 treats broadcast as a special
	// case of multicast).
	Kind Kind
	// Src is the requesting station.
	Src int
	// Dests are the intended receivers (neighbor station IDs).
	Dests []int
	// Arrival is the slot the request reached the MAC layer.
	Arrival Slot
	// Deadline is the slot after which the request is considered timed
	// out by the upper layer (Arrival + Timeout in the paper's setup).
	Deadline Slot
	// Contentions and Rounds count the reported contention phases and
	// rounds; Residual is the last round's residual, len(Dests) before.
	Contentions, Rounds, Residual int
}

// Expired reports whether the request has passed its deadline at the
// given slot.
func (r *Request) Expired(now Slot) bool { return now > r.Deadline }

// AbortReason classifies why a sending MAC abandoned a request — the
// typed half of the graceful-degradation accounting: under an impaired
// channel the interesting question is not just how often a protocol
// gives up but which budget it exhausted first.
type AbortReason uint8

// Abort reasons.
const (
	// AbortDeadline: the request outlived its upper-layer timeout, either
	// waiting in the queue or mid-service.
	AbortDeadline AbortReason = iota
	// AbortRetries: the protocol exhausted its retry budget
	// (mac.Config.RetryLimit contention phases) before serving every
	// receiver.
	AbortRetries
	numAbortReasons
)

// NumAbortReasons is the number of distinct abort reasons, for
// reason-indexed counter arrays.
const NumAbortReasons = int(numAbortReasons)

// String implements fmt.Stringer.
func (r AbortReason) String() string {
	switch r {
	case AbortDeadline:
		return "deadline"
	case AbortRetries:
		return "retries"
	default:
		return fmt.Sprintf("AbortReason(%d)", uint8(r))
	}
}

// Rx is a receiver's role in a frame it decoded, computed by the engine
// once per frame and handed to MAC.Deliver. Every station in range
// decodes every clean frame (the paper's model); the role says whether
// the frame concerns it. A zero Rx is a pure overhear: the receiver's
// protocol (Figure 3) only sets its NAV, which the engine keeps, so such
// a frame never reaches the MAC.
type Rx uint8

// Receiver roles; a frame may carry both.
const (
	// RxAddressed: the frame's Dst is the receiving station.
	RxAddressed Rx = 1 << iota
	// RxMember: the receiving station is listed in the frame's Group.
	RxMember
)

// MAC is a per-station protocol state machine. The engine drives it with
// one Tick per slot and delivers successfully decoded frames.
type MAC interface {
	// Tick is invoked once per slot. The MAC may start one transmission
	// by returning a non-nil frame; the engine derives its airtime from
	// the frame type. Tick must return nil while the station is already
	// transmitting (the engine panics otherwise, as that is a protocol
	// implementation bug). The frame, and the lists it names, must stay
	// unchanged until the end of the slot that completes its airtime;
	// after that the MAC may reuse them (DESIGN.md, "Frame lifetime").
	Tick(env *Env) *frames.Frame
	// Deliver is invoked at the end of the slot in which the station
	// successfully decoded a frame it has a role in (rx non-zero), after
	// the engine raised the station's NAV for it if it is due (see
	// Env.Yielding). Overheard frames are never delivered. f is its
	// sender's; a MAC that keeps it copies it.
	Deliver(env *Env, f *frames.Frame, rx Rx)
	// Submit hands a new service request to the MAC.
	Submit(env *Env, req *Request)
}

// Sleeper is the optional MAC extension behind idle-station scheduling.
// A MAC that implements it is skipped by the engine while quiescent: no
// Tick calls for the ~90% of stations that have nothing to do in a
// typical run. This is safe for bit-identity only because a quiescent
// MAC's Tick draws no randomness from the engine PRNG and keeps no
// per-slot state: the idle run behind the DIFS rule is the engine's
// (Env.IdleFor), kept for every station whether it ticks or sleeps, so a
// woken station has nothing to catch up.
//
// The engine wakes a sleeping station when a request is submitted to it
// and when it decodes a frame addressed to it or naming it in the group;
// everything else that can change MAC state flows through those entry
// points. A crash/recover transition does not wake it: a down station is
// not ticked anyway, and its idle run skips the down slots by itself.
type Sleeper interface {
	// Quiescent reports whether the MAC has no pending work at or after
	// the given slot: nothing in service, nothing queued, no response
	// scheduled. A quiescent MAC's Tick must be a no-op and must not
	// touch the engine PRNG.
	Quiescent(after Slot) bool
}

// Source generates traffic. Arrivals is called once per slot per
// simulation and returns the requests arriving at that slot. The engine
// consumes the returned slice before the next call, so implementations
// may reuse its backing array; only the requests themselves must survive.
//
// A Source owns its randomness: the engine PRNG serves only MAC backoff
// and the channel's capture draws, so a Source never sees it. That
// is what lets a seeded source present the identical arrival sequence to
// every protocol run against it.
type Source interface {
	Arrivals(now Slot) []*Request
}

// EventSource is the optional Source extension behind event-driven slot
// skipping. NextArrival lets the engine ask "when is your next request
// due?" without simulating the empty slots in between; a Source that
// cannot answer simply doesn't implement it, and Run falls back to
// per-slot stepping.
//
// The contract that keeps skipping bit-identical to per-slot execution:
// Arrivals on a slot where it returns no requests must leave the source
// exactly as a skipped slot would, and NextArrival must be free of side
// effects visible in later arrivals. NextArrival(after) returns the
// earliest slot ≥ after at which Arrivals may return requests (ok false
// means never again); returning a conservative earlier slot is legal —
// the engine just steps that slot normally.
type EventSource interface {
	Source
	NextArrival(after Slot) (Slot, bool)
}

// Never is a slot no run reaches: the "no further transition" answer of
// Impairment.Crash.
const Never = Slot(math.MaxInt64)

// Impairment is the pluggable fault model hook (internal/fault): channel
// error processes and node failures beyond the collision-driven loss the
// capture models govern. Implementations must be deterministic from
// their own seed and must not touch the engine PRNG, so a nil (or inert)
// impairment leaves runs byte-identical to an unimpaired simulation.
//
// The engine owns the up/down state of every station in an array it
// reads in the tick and receiver loops without a call. It fills the
// array from Crash: once per station at construction, then at each
// station's announced flip slot, an obligation of the event clock so
// the array is right whenever Erase reads it (the reference path asks
// every station every slot instead). Completed frames cost one Erase
// call each, however many receivers they reach.
type Impairment interface {
	// Crash reports whether the station is crashed at slot now, and
	// the next slot strictly after now at which that flips (Never if
	// it never does). A down station neither transmits (its MAC is not
	// ticked, so pending CTS/ACK responses stay unsent) nor decodes
	// arriving frames.
	Crash(station int, now Slot) (down bool, next Slot)
	// Erase decides the fate of a frame from sender completing at slot
	// now at every in-range receiver at once: recv lists them and lost
	// is parallel to it. Entries of lost already true lost the frame to
	// a collision or to half duplex; Erase sets lost[k] for receivers
	// that lose it to a crash (down[recv[k]]; down is nil when no
	// station can crash) or to a channel error on the sender→receiver
	// link. recv is the sender's topo.Neighbors slice at transmission
	// start; topologies are immutable, so an implementation may key
	// per-sender state on the slice's identity.
	Erase(sender int, recv []int, lost, down []bool, now Slot)
}

// Config assembles an Engine.
type Config struct {
	// Topo is the station layout; required.
	Topo *topo.Topology
	// Timing holds frame airtimes; zero value is replaced by
	// frames.DefaultTiming().
	Timing frames.Timing
	// Capture is the collision capture model; nil means capture.None.
	Capture capture.Model
	// Seed initialises the engine PRNG.
	Seed int64
	// Impairment, when non-nil, injects channel errors and node crashes
	// (internal/fault). Nil keeps the unimpaired fast path.
	Impairment Impairment
	// Observers subscribe to engine events: each entry receives the
	// kinds its Kinds method names, once per event, in registration
	// order. A kind nobody subscribed to costs one length check per
	// event.
	Observers []Observer
	// SlotHook, when non-nil, runs at the start of every slot before
	// traffic arrivals and MAC ticks. Mobility drivers use it to advance
	// node positions and swap refreshed topologies in. A slot hook
	// disables event-driven slot skipping (the hook must observe every
	// slot), but not idle-station scheduling.
	SlotHook func(now Slot, e *Engine)
	// ExposedTerminal enables the location-aware exposed-terminal option
	// explored as the paper's future work (§8): a station that overhears
	// an RTS whose data receivers are all out of its own transmission
	// range reserves the medium only through the CTS turnaround instead
	// of the whole exchange, falling back on physical carrier sense
	// afterwards. This lets spatially separated exchanges proceed in
	// parallel at the cost of a small residual risk of colliding with the
	// exchange's closing ACKs. Off by default — the paper's protocols do
	// not include it.
	ExposedTerminal bool
	// Reference disables the engine's hot-path optimizations —
	// idle-station scheduling, event-driven slot skipping and
	// transmission storage recycling — and runs the original naive
	// resolution path. Output is bit-identical either way; the reference
	// path exists so the equivalence tests can prove it, the optimization
	// census can count what it saves and BenchmarkEngineThroughputReference
	// can time the gap.
	Reference bool
	// Profiler, when non-nil, receives phase-boundary marks from the
	// slot loop (see profiler.go) — the runtime profiling feed behind
	// internal/prof. Profilers observe wall time only: they are
	// PRNG-neutral and mutation-free (hookpure-checked), so output is
	// byte-identical with and without one attached. Nil keeps every
	// mark site a single comparison.
	Profiler Profiler
}

// Engine is the slotted channel simulator.
type Engine struct {
	topo    *topo.Topology
	timing  frames.Timing
	capture capture.Model
	imp     Impairment
	rng     *rand.Rand
	// subs is each kind's subscribers from Config.Observers, in
	// registration order; emit ranges over one of them per event and
	// hands each subscriber ev, the one scratch event.
	subs     [numKinds][]Observer
	ev       Event
	slotHook func(now Slot, e *Engine)

	now    Slot
	macs   []MAC
	envs   []Env
	lastID int64 // the last Request.ID assigned

	// Transmissions in the air, stored as a structure of arrays: row r
	// of the parallel tx* slices describes one transmission, rows
	// [0,txN) are live, and completeSlot compacts rows in place keeping
	// start order stable (the resolution order the reference path
	// produces). The hot per-slot scans (resolveSlot, computeBusy,
	// completeSlot) stream the scalar columns without pointer chasing;
	// corruption masks parked in rows ≥ txN are recycled by the next
	// startTx, replacing the former record free-list.
	txFrame   []*frames.Frame
	txSender  []int32
	txStart   []Slot
	txEnd     []Slot   // inclusive last slot
	txRecv    [][]int  // in-range stations at start, sorted
	txCorrupt [][]bool // parallel to txRecv
	txN       int

	// txBusyUntil[i] is the last slot station i's own transmission
	// occupies, or a past slot when idle.
	txBusyUntil []Slot

	// Per-slot signal collection. sigFirst[j] counts station j's signals
	// this slot and holds the first one flat; the per-station slices are
	// touched only once a second signal arrives, and then hold them all
	// in arrival order (tx row, receiver index within that row).
	sigFirst []firstSig
	sigTx    [][]int32
	sigRx    [][]int32
	dists    []float64
	touched  []int // stations with ≥1 signal this slot

	// Receiver roles: completeSlot stamps each member of a completing
	// frame's Group with a fresh groupGen, so membership is one array
	// read per receiver (see rxRole).
	groupMark []uint64
	groupGen  uint64

	// airScratch is the reused airing list handed to the slot observer;
	// slotCollided records whether resolveSlot saw a ≥2-signal overlap at
	// any listening station in the current slot.
	airScratch   []AiringTx
	slotCollided bool

	// Carrier sense is epoch-stamped rather than cleared: station i
	// senses the medium busy at the current slot iff busyStamp[i] == now,
	// so computeBusy only touches the neighbors of ongoing transmitters
	// instead of wiping an O(stations) array every slot. Only stations
	// that are up are stamped, so busyStamp[i] is also the last busy slot
	// station i sensed, the end of the idle run behind Env.IdleFor.
	busyStamp []Slot

	// nav[i] is station i's virtual carrier sense, raised by completeSlot
	// for every clean frame not directed at the station (see raisesNAV)
	// and read through Env.Yielding and Env.YieldingToOther. exposed is
	// Config.ExposedTerminal, which shortens some raises (navDuration).
	nav     []navState
	exposed bool

	// Idle-station scheduling (see Sleeper). sleepers[i] is non-nil iff
	// macs[i] implements Sleeper; asleep marks stations currently skipped
	// by the tick loop.
	sleepOK  bool
	sleepers []Sleeper
	asleep   []bool
	// awake is the tick loop's worklist: exactly the awake stations with
	// a MAC, in ascending ID order. wake binary-inserts into it and the
	// tick loop compacts out stations as they fall asleep; awakeDirty
	// forces an O(stations) rebuild only when the MAC set changes
	// (SetMAC), and wake leaves a dirty list to that rebuild.
	awake      []int
	awakeDirty bool
	// numAttached counts non-nil MACs, numAsleep the currently sleeping
	// ones; their equality is the "whole network asleep" test behind
	// event-driven slot skipping.
	numAttached int
	numAsleep   int

	// down[i] is station i's crash state at the current slot, nil when
	// no station can crash (see Impairment). The down slots are counted
	// for Env.IdleFor, which skips them: downSlots[i] holds those of
	// station i's finished down windows, downFrom[i] the first slot of
	// its current one, and busyDown[i] the value of downSlots[i] when
	// busyStamp[i] was written. All four are allocated together.
	down      []bool
	downSlots []Slot
	downFrom  []Slot
	busyDown  []Slot
	// The event clock's wake obligations: a binary min-heap over
	// (wakeAt, wakeWho) ordered by slot then station, holding each
	// station's next crash/recover transition. They are drained at the
	// top of every step, which flips down; on the reference path the
	// heap stays empty and down is refreshed every slot.
	wakeAt  []Slot
	wakeWho []int

	// reference pins the naive path (Config.Reference).
	reference bool

	// prof receives phase-boundary marks (Config.Profiler); nil-checked
	// at every mark site via enter().
	prof Profiler
	// phase is the phase last entered, so a hook dispatch can resume it
	// (see dispatch); kept only while a profiler is attached.
	phase Phase
}

// New builds an Engine from the configuration. MACs must be attached with
// SetMAC or AttachMACs before Run or Step is called.
func New(cfg Config) *Engine {
	if cfg.Topo == nil {
		panic("sim: Config.Topo is required")
	}
	tm := cfg.Timing
	if tm == (frames.Timing{}) {
		tm = frames.DefaultTiming()
	}
	if err := tm.Validate(); err != nil {
		panic(err)
	}
	cap := cfg.Capture
	if cap == nil {
		cap = capture.None{}
	}
	hook := cfg.SlotHook
	n := cfg.Topo.N()
	e := &Engine{
		topo:        cfg.Topo,
		timing:      tm,
		capture:     cap,
		imp:         cfg.Impairment,
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		slotHook:    hook,
		macs:        make([]MAC, n),
		envs:        make([]Env, n),
		txBusyUntil: make([]Slot, n),
		sigFirst:    make([]firstSig, n),
		sigTx:       make([][]int32, n),
		sigRx:       make([][]int32, n),
		groupMark:   make([]uint64, n),
		busyStamp:   make([]Slot, n),
		nav:         make([]navState, n),
		exposed:     cfg.ExposedTerminal,
		sleepers:    make([]Sleeper, n),
		asleep:      make([]bool, n),
		awake:       make([]int, 0, n),
		awakeDirty:  true,
		reference:   cfg.Reference,
		prof:        cfg.Profiler,
		sleepOK:     !cfg.Reference,
	}
	for i := 0; i < n; i++ {
		e.envs[i] = Env{engine: e, node: i}
		e.txBusyUntil[i] = -1
		e.busyStamp[i] = -1
	}
	e.subscribe(cfg.Observers)
	if e.imp != nil {
		e.initCrash()
	}
	return e
}

// initCrash reads every station's crash state at slot 0 and registers
// its first transition, allocating the crash arrays on the first station
// that can ever be down.
func (e *Engine) initCrash() {
	for i := range e.macs {
		down, next := e.imp.Crash(i, e.now)
		if !down && next == Never {
			continue
		}
		if e.down == nil {
			n := len(e.macs)
			e.down = make([]bool, n)
			e.downSlots = make([]Slot, n)
			e.downFrom = make([]Slot, n)
			e.busyDown = make([]Slot, n)
		}
		e.setDown(i, down)
		if next != Never && !e.reference {
			e.pushWake(next, i)
		}
	}
}

// setDown sets station i's crash state at the current slot, keeping the
// down-slot count behind Env.IdleFor.
func (e *Engine) setDown(i int, down bool) {
	if down == e.down[i] {
		return
	}
	e.down[i] = down
	if down {
		e.downFrom[i] = e.now
	} else {
		e.downSlots[i] += e.now - e.downFrom[i]
	}
}

// SetMAC installs the MAC state machine for station i.
func (e *Engine) SetMAC(i int, m MAC) {
	if (e.macs[i] == nil) != (m == nil) {
		if m == nil {
			e.numAttached--
		} else {
			e.numAttached++
		}
	}
	if e.asleep[i] {
		e.asleep[i] = false
		e.numAsleep--
	}
	e.macs[i] = m
	e.sleepers[i], _ = m.(Sleeper)
	e.awakeDirty = true
	// A fresh MAC holds no reservation, and its idle run starts now, as
	// if the previous slot were busy.
	e.nav[i] = navState{}
	e.busyStamp[i] = e.now - 1
	if e.down != nil {
		e.busyDown[i] = e.downBefore(i, e.now)
	}
}

// AttachMACs installs a MAC for every station using the factory.
func (e *Engine) AttachMACs(factory func(node int, env *Env) MAC) {
	for i := range e.macs {
		e.SetMAC(i, factory(i, &e.envs[i]))
	}
}

// Now returns the current slot.
func (e *Engine) Now() Slot { return e.now }

// Topo returns the topology being simulated.
func (e *Engine) Topo() *topo.Topology { return e.topo }

// SetTopology swaps in a refreshed topology snapshot — the mobility
// model's beacon-epoch update. The station count must not change.
// Transmissions already in the air keep the receiver sets captured at
// their start, which mirrors physics: a frame launched toward where a
// node was is received by whoever was in range when it propagated.
func (e *Engine) SetTopology(tp *topo.Topology) {
	if tp.N() != e.topo.N() {
		panic("sim: SetTopology must preserve the station count")
	}
	e.topo = tp
}

// Timing returns the frame airtimes in use.
func (e *Engine) Timing() frames.Timing { return e.timing }

// Rand returns the engine PRNG (shared; callbacks execute sequentially).
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Run advances the simulation by the given number of slots, feeding
// arrivals from src (which may be nil for a closed system).
//
// Run is the event clock's home: whenever nothing can happen in the
// current slot — every attached MAC asleep, no transmission in the air,
// no slot hook, and a source that can announce its next arrival
// (EventSource, or nil) — the slot counter jumps straight to the next
// slot at which anything can: the earliest scheduled arrival, the
// earliest wake obligation, or the end of the run. The jump performs no
// PRNG draws and fires no events, so output is byte-identical to
// stepping the skipped slots one by one (slot observers see the span
// as one EvIdleSpan event).
func (e *Engine) Run(slots int, src Source) {
	if e.prof != nil {
		e.prof.RunStart()
	}
	target := e.now + Slot(slots)
	es, _ := src.(EventSource)
	for e.now < target {
		if next := e.skipTarget(src, es, target); next > e.now {
			e.enter(PhaseIdleSkip)
			e.skipTo(next)
			e.enter(PhaseUntracked)
			continue
		}
		e.step(src)
	}
	if e.prof != nil {
		e.prof.RunEnd()
	}
}

// Step advances the simulation by one slot without external arrivals.
func (e *Engine) Step() {
	if e.prof != nil {
		e.prof.RunStart()
	}
	e.step(nil)
	if e.prof != nil {
		e.prof.RunEnd()
	}
}

// skipTarget returns the next slot at which anything can happen, or
// e.now when the current slot must be simulated.
func (e *Engine) skipTarget(src Source, es EventSource, target Slot) Slot {
	if !e.sleepOK || e.slotHook != nil || e.txN != 0 ||
		e.numAsleep != e.numAttached || (src != nil && es == nil) {
		return e.now
	}
	next := target
	if es != nil {
		t, ok := es.NextArrival(e.now)
		if !ok {
			// No arrivals ever again; obligations and the target govern.
		} else if t <= e.now {
			return e.now
		} else if t < next {
			next = t
		}
	}
	if len(e.wakeAt) > 0 && e.wakeAt[0] < next {
		next = e.wakeAt[0]
	}
	if next < e.now {
		next = e.now
	}
	return next
}

// skipTo jumps the clock to the given slot, reporting the skipped
// stretch — all idle by construction — as one EvIdleSpan.
func (e *Engine) skipTo(next Slot) {
	e.emit(Event{Kind: EvIdleSpan, Slot: e.now, Start: e.now, End: next - 1})
	e.now = next
}

func (e *Engine) step(src Source) {
	now := e.now

	// 0. Due wake obligations: flip the crash state of stations whose
	// schedule flips at this slot. The reference path asks every station
	// instead.
	for len(e.wakeAt) > 0 && e.wakeAt[0] <= now {
		_, i := e.popWake()
		down, next := e.imp.Crash(i, now)
		e.setDown(i, down)
		if next != Never {
			e.pushWake(next, i)
		}
	}
	if e.reference && e.down != nil {
		for i := range e.down {
			down, _ := e.imp.Crash(i, now)
			e.setDown(i, down)
		}
	}

	// 0.25. Mobility / environment hook.
	if e.slotHook != nil {
		e.slotHook(now, e)
	}

	// 0.5. Physical carrier sense, computed once for the slot: a station
	// senses the medium busy when a transmission that began in an earlier
	// slot is still in the air within range.
	e.enter(PhaseBusyStamp)
	e.computeBusy()

	// 1. Traffic arrivals.
	e.enter(PhaseArrivals)
	if src != nil {
		for _, req := range src.Arrivals(now) {
			m := e.macs[req.Src]
			if m == nil {
				panic(fmt.Sprintf("sim: no MAC attached to station %d", req.Src))
			}
			e.wake(req.Src)
			e.lastID++
			req.ID, req.Contentions, req.Rounds, req.Residual = e.lastID, 0, 0, len(req.Dests)
			e.emit(Event{Kind: EvSubmit, Slot: now, Station: req.Src, Req: req})
			m.Submit(&e.envs[req.Src], req)
		}
	}

	// 2. Tick every MAC; collect new transmissions. Carrier sense views
	// only transmissions started in earlier slots, which are exactly the
	// ones already in the tx table. Sleeping stations are skipped
	// wholesale: the awake worklist is kept in station-ID order, so the
	// surviving ticks — and with them every PRNG draw — happen in exactly
	// the order the naive loop produces. A station that falls asleep is
	// compacted out as the loop passes it, so the list never holds a
	// sleeper.
	e.enter(PhaseMacTick)
	if e.awakeDirty {
		e.awakeDirty = false
		e.awake = e.awake[:0]
		for i, m := range e.macs {
			if m != nil && !e.asleep[i] {
				e.awake = append(e.awake, i)
			}
		}
	}
	w := 0
	for _, i := range e.awake {
		e.awake[w] = i
		w++
		m := e.macs[i]
		// A crashed station is silent: no frame, no CTS/ACK response, no
		// backoff countdown. Its queued requests keep aging toward their
		// deadlines and its MAC state resumes intact on recovery.
		if e.down != nil && e.down[i] {
			continue
		}
		f := m.Tick(&e.envs[i])
		if f == nil {
			if e.sleepOK && e.sleepers[i] != nil && e.sleepers[i].Quiescent(now+1) {
				e.asleep[i] = true
				e.numAsleep++
				w--
			}
			continue
		}
		if e.txBusyUntil[i] >= now {
			panic(fmt.Sprintf("sim: station %d started a frame while already transmitting", i))
		}
		e.startTx(i, f)
	}
	e.awake = e.awake[:w]

	// 3. Per-slot interference resolution.
	e.enter(PhaseResolve)
	e.resolveSlot()

	// 3.5. Channel state: the airing set is complete (new transmissions
	// registered, none completed yet) and the collision flag is fresh
	// from resolution. Draws nothing from the PRNG, so the unobserved
	// and the observed path simulate bit-identically.
	if len(e.subs[EvSlot]) != 0 {
		e.emitSlot()
	}

	// 4. Frame completions.
	e.enter(PhaseDeliveries)
	e.completeSlot()

	e.enter(PhaseUntracked)
	e.now++
}

// wake returns a sleeping station to the tick loop. Idempotent for
// stations already awake.
func (e *Engine) wake(i int) {
	if e.asleep[i] {
		e.asleep[i] = false
		e.numAsleep--
		if !e.awakeDirty {
			// A sleeper is never in the list, so i goes in as new.
			k, _ := slices.BinarySearch(e.awake, i)
			e.awake = slices.Insert(e.awake, k, i)
		}
	}
}

// wakeLess orders the obligation heap by (slot, station).
func (e *Engine) wakeLess(a, b int) bool {
	return e.wakeAt[a] < e.wakeAt[b] ||
		(e.wakeAt[a] == e.wakeAt[b] && e.wakeWho[a] < e.wakeWho[b])
}

func (e *Engine) wakeSwap(a, b int) {
	e.wakeAt[a], e.wakeAt[b] = e.wakeAt[b], e.wakeAt[a]
	e.wakeWho[a], e.wakeWho[b] = e.wakeWho[b], e.wakeWho[a]
}

// pushWake registers a wake obligation for the station at slot t.
func (e *Engine) pushWake(t Slot, who int) {
	e.wakeAt = append(e.wakeAt, t)
	e.wakeWho = append(e.wakeWho, who)
	for c := len(e.wakeAt) - 1; c > 0; {
		p := (c - 1) / 2
		if !e.wakeLess(c, p) {
			break
		}
		e.wakeSwap(c, p)
		c = p
	}
}

// popWake removes and returns the earliest obligation.
func (e *Engine) popWake() (Slot, int) {
	t, who := e.wakeAt[0], e.wakeWho[0]
	n := len(e.wakeAt) - 1
	e.wakeSwap(0, n)
	e.wakeAt = e.wakeAt[:n]
	e.wakeWho = e.wakeWho[:n]
	for p := 0; ; {
		c := 2*p + 1
		if c >= n {
			break
		}
		if c+1 < n && e.wakeLess(c+1, c) {
			c++
		}
		if !e.wakeLess(c, p) {
			break
		}
		e.wakeSwap(p, c)
		p = c
	}
	return t, who
}

// startTx registers a transmission beginning at the current slot as a
// new row of the tx table.
func (e *Engine) startTx(sender int, f *frames.Frame) {
	// The radio, not the MAC, is the authority on who transmitted.
	f.Src = frames.Addr(sender)
	air := e.timing.Airtime(f.Type)
	nb := e.topo.Neighbors(sender)
	r := e.txN
	if r == len(e.txFrame) {
		e.txFrame = append(e.txFrame, nil)
		e.txSender = append(e.txSender, 0)
		e.txStart = append(e.txStart, 0)
		e.txEnd = append(e.txEnd, 0)
		e.txRecv = append(e.txRecv, nil)
		e.txCorrupt = append(e.txCorrupt, nil)
	}
	e.txFrame[r] = f
	e.txSender[r] = int32(sender)
	e.txStart[r] = e.now
	e.txEnd[r] = e.now + Slot(air) - 1
	e.txRecv[r] = nb
	// Corruption masks parked by earlier completions are recycled in
	// place (deterministically — the row index is the identity); the
	// reference path allocates fresh, as the naive engine did.
	if cor := e.txCorrupt[r]; !e.reference && cap(cor) >= len(nb) {
		cor = cor[:len(nb)]
		for i := range cor {
			cor[i] = false
		}
		e.txCorrupt[r] = cor
	} else {
		e.txCorrupt[r] = make([]bool, len(nb))
	}
	e.txN = r + 1
	e.txBusyUntil[sender] = e.txEnd[r]
	e.emit(Event{Kind: EvFrameTx, Slot: e.now, Station: sender, Frame: f, Start: e.txStart[r], End: e.txEnd[r]})
}

// firstSig is a station's signal count for the current slot and the
// first signal it collected: tx row and receiver index within that row.
type firstSig struct {
	n, tx, ri int32
}

// resolveSlot marks corruption for all signals overlapping this slot.
// A lone signal — the common case — lives only in sigFirst; from the
// second one on the station's signals are gathered in sigTx/sigRx.
func (e *Engine) resolveSlot() {
	now := e.now
	e.slotCollided = false
	touchedNodes := e.touched[:0]
	for ti := 0; ti < e.txN; ti++ {
		if e.txStart[ti] > now || e.txEnd[ti] < now {
			continue
		}
		for ri, j := range e.txRecv[ti] {
			s := &e.sigFirst[j]
			switch s.n {
			case 0:
				touchedNodes = append(touchedNodes, j)
				s.tx, s.ri = int32(ti), int32(ri)
			case 1:
				e.sigTx[j] = append(e.sigTx[j][:0], s.tx, int32(ti))
				e.sigRx[j] = append(e.sigRx[j][:0], s.ri, int32(ri))
			default:
				e.sigTx[j] = append(e.sigTx[j], int32(ti))
				e.sigRx[j] = append(e.sigRx[j], int32(ri))
			}
			s.n++
		}
	}
	for _, j := range touchedNodes {
		if e.resolveStation(j) {
			e.slotCollided = true
		}
	}
	e.touched = touchedNodes[:0]
}

// resolveStation resolves the signal set collected for station j this
// slot, marking corruption in the tx table and resetting the station's
// signal count. The capture draw, when one is needed, comes from the
// engine stream. Returns whether ≥2 signals overlapped (the slot
// observer's collision flag).
func (e *Engine) resolveStation(j int) bool {
	s := &e.sigFirst[j]
	n := s.n
	s.n = 0
	if n == 1 {
		if e.txBusyUntil[j] >= e.now {
			// Half duplex: a transmitting station decodes nothing.
			e.txCorrupt[s.tx][s.ri] = true
		}
		// Otherwise a clean slot for this frame at this receiver.
		return false
	}
	sigs, rxs := e.sigTx[j], e.sigRx[j]
	if e.txBusyUntil[j] >= e.now {
		// Half duplex; the overlap still counts as a physical collision
		// for the slot observer's flag.
		for k, ti := range sigs {
			e.txCorrupt[ti][rxs[k]] = true
		}
		return true
	}
	// Collision: ask the capture model which signal survives, given each
	// sender's distance under the current topology.
	d := e.dists[:0]
	for _, ti := range sigs {
		d = append(d, e.topo.Dist(j, int(e.txSender[ti])))
	}
	e.dists = d
	win := e.capture.Resolve(d, e.rng.Float64())
	for k, ti := range sigs {
		if k != win {
			e.txCorrupt[ti][rxs[k]] = true
		}
	}
	return true
}

// emitSlot hands the EvSlot subscribers the channel state of the
// current slot: every transmission in the air (via the reused scratch
// list) and whether resolution saw a signal overlap. Called only when
// someone subscribed; the airing list is built in PhaseResolve.
func (e *Engine) emitSlot() {
	now := e.now
	airing := e.airScratch[:0]
	for ti := 0; ti < e.txN; ti++ {
		if e.txStart[ti] <= now && e.txEnd[ti] >= now {
			airing = append(airing, AiringTx{
				Frame:  e.txFrame[ti],
				Sender: int(e.txSender[ti]),
				Start:  e.txStart[ti],
				End:    e.txEnd[ti],
			})
		}
	}
	e.emit(Event{Kind: EvSlot, Slot: now, Airing: airing, Collided: e.slotCollided})
	// Break the frame references before recycling the scratch so retained
	// frames stay collectable once their transmissions complete.
	for i := range airing {
		airing[i].Frame = nil
	}
	e.airScratch = airing[:0]
}

// completeSlot delivers every frame whose last slot is the current one,
// compacting the tx table in place. Live rows keep their relative order
// (the resolution order the reference path produces); completed rows'
// frames and corruption masks are swapped toward the tail.
//
// A completed frame's lifetime ends with this slot (DESIGN.md, "Frame
// lifetime"): its MAC reuses the frame and the lists it names for its
// next transmission, so whoever keeps one copies it. The framescribble
// build tag makes scribble overwrite each of them once every delivery
// of the slot is done, so a stale read changes the goldens.
func (e *Engine) completeSlot() {
	now := e.now
	w := 0
	for r := 0; r < e.txN; r++ {
		if e.txEnd[r] != now {
			if w != r {
				e.txFrame[w], e.txFrame[r] = e.txFrame[r], e.txFrame[w]
				e.txSender[w] = e.txSender[r]
				e.txStart[w] = e.txStart[r]
				e.txEnd[w] = e.txEnd[r]
				e.txRecv[w], e.txRecv[r] = e.txRecv[r], nil
				e.txCorrupt[w], e.txCorrupt[r] = e.txCorrupt[r], e.txCorrupt[w]
			}
			w++
			continue
		}
		f := e.txFrame[r]
		sender := int(e.txSender[r])
		lost := e.txCorrupt[r]
		if e.imp != nil {
			e.imp.Erase(sender, e.txRecv[r], lost, e.down, now)
		}
		e.markGroup(f)
		for ri, j := range e.txRecv[r] {
			if lost[ri] {
				if e.wants(EvRxLost) {
					e.emit(Event{Kind: EvRxLost, Slot: now, Station: j, Frame: f})
				}
				continue
			}
			if e.wants(EvRxOK) {
				e.emit(Event{Kind: EvRxOK, Slot: now, Station: j, Frame: f})
			}
			if f.Type == frames.Data && e.wants(EvDataRx) {
				e.emit(Event{Kind: EvDataRx, Slot: now, Station: j, Frame: f})
			}
			if m := e.macs[j]; m != nil {
				rx := e.rxRole(f, j)
				if raisesNAV(f, rx) {
					e.nav[j].raise(f.MsgID, now+Slot(e.navDuration(f, j))+1)
				}
				if rx == 0 {
					// A pure overhear: the NAV is all it changes.
					continue
				}
				m.Deliver(&e.envs[j], f, rx)
				// A sleeping receiver stays asleep unless the frame left
				// it something to do — a scheduled response, typically.
				if e.asleep[j] && !e.sleepers[j].Quiescent(now+1) {
					e.wake(j)
				}
			}
		}
		// The row is done: its corruption mask stays parked in the tail
		// for the next startTx to recycle, its frame until the slot's
		// deliveries are over.
		e.txRecv[r] = nil
	}
	for r := w; r < e.txN; r++ {
		scribble(e.txFrame[r])
		e.txFrame[r] = nil
	}
	e.txN = w
}

// markGroup stamps every station listed in f.Group with a fresh
// generation, so rxRole answers membership with one array read:
// O(|group|) per frame instead of a group scan per receiver. Addresses
// that name no station (BroadcastAddr, NoAddr, out of range) are
// skipped.
func (e *Engine) markGroup(f *frames.Frame) {
	e.groupGen++
	for _, a := range f.Group {
		if a >= 0 && int(a) < len(e.groupMark) {
			e.groupMark[a] = e.groupGen
		}
	}
}

// rxRole returns station j's role in f, the frame markGroup last
// stamped.
func (e *Engine) rxRole(f *frames.Frame, j int) Rx {
	var rx Rx
	if f.Dst == frames.Addr(j) {
		rx = RxAddressed
	}
	if e.groupMark[j] == e.groupGen {
		rx |= RxMember
	}
	return rx
}

// computeBusy stamps the current slot onto the neighbors of every
// ongoing transmitter that are up — O(active × degree) per slot, with no
// per-station clearing pass. The stamps double as the ends of the idle
// runs behind Env.IdleFor, kept for every station whether it ticks or
// sleeps.
func (e *Engine) computeBusy() {
	now := e.now
	for ti := 0; ti < e.txN; ti++ {
		if e.txStart[ti] < now && e.txEnd[ti] >= now {
			for _, j := range e.topo.Neighbors(int(e.txSender[ti])) {
				if e.down != nil {
					if e.down[j] {
						continue
					}
					e.busyDown[j] = e.downSlots[j]
				}
				e.busyStamp[j] = now
			}
		}
	}
}

// carrierBusy reports whether station i senses energy from another
// station's transmission that started before the current slot.
func (e *Engine) carrierBusy(i int) bool { return e.busyStamp[i] == e.now }

// idleRun returns how many consecutive slots station i has sensed the
// medium idle, up to and including the current one: the slots since its
// last busy stamp, less those it spent down (a down station senses
// nothing, so its run neither grows nor ends). While down, that is the
// run it had at its last up slot.
func (e *Engine) idleRun(i int) Slot {
	run := e.now - e.busyStamp[i]
	if e.down != nil {
		run -= e.downBefore(i, e.now+1) - e.busyDown[i]
	}
	return run
}

// downBefore returns how many slots before t station i spent down; t
// must not precede the start of its current down window.
func (e *Engine) downBefore(i int, t Slot) Slot {
	d := e.downSlots[i]
	if e.down[i] {
		d += t - e.downFrom[i]
	}
	return d
}
