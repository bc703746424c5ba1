// Package fault injects channel impairments and node failures into a
// simulation run, independently of the collision process the capture
// models govern. The paper's evaluation (§7) loses frames only to
// collisions; the regime its reliability mechanisms were designed for —
// "reliable multicast over an unreliable channel" — needs an error
// process the MAC cannot prevent, only recover from. This package
// supplies four such processes:
//
//   - an i.i.d. per-link packet error rate (Config.PER): every frame is
//     independently erased at each in-range receiver with fixed
//     probability, the memoryless channel of the §6 analysis;
//   - a Gilbert–Elliott two-state bursty channel per directed link
//     (Config.GE): each link flips between a good and a bad state with
//     per-slot transition probabilities and erases frames at a
//     state-dependent rate, modelling fades that outlive a whole
//     RTS/CTS/DATA exchange;
//   - node crash/recover schedules (Config.Crash): a crashed station
//     neither transmits nor decodes — it sends no CTS/ACK and buffers no
//     data — then recovers with its MAC state intact;
//   - location noise (Config.LocNoise): Gaussian error on the
//     coordinates LAMM's MCS/UPDATE procedures see, stressing Theorems
//     1–4 under stale or imprecise GPS fixes. This axis perturbs the
//     protocol's knowledge, not the channel, so it is applied when the
//     MAC factory is built (core.NewLAMMNoisy) rather than through the
//     Injector.
//
// # Determinism
//
// Every random decision derives from Config.Seed through stateless
// splitmix64 hashing of (seed, stream, key, index) tuples, never from the
// engine PRNG. The index is the slot for erase decisions and the draw
// number for Gilbert–Elliott holding times and crash intervals. Two
// consequences: a faulted run is exactly reproducible from its seed, and
// the zero-value Config is a true no-op — the engine consumes the same
// random sequence with and without a nil impairment, so metrics are
// byte-identical to a faultless run.
//
// # Wiring
//
// Build an Injector with NewInjector and pass it as sim.Config.Impairment
// (experiments.RunConfig.Fault does this for you, deriving the fault seed
// from the run seed). The engine asks Erase once per completed frame for
// all of its receivers, and asks Crash for a station's state only at
// that station's announced flips, keeping the up/down state itself.
// Crash boundaries are observed at slot granularity: a station that
// crashes while a frame of its own is in flight finishes that
// transmission — the radio, not the host, empties the antenna.
package fault

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"relmac/internal/obs"
	"relmac/internal/sim"
)

// GilbertElliott parameterises the two-state bursty channel: each
// directed link is an independent Markov chain over {good, bad} with
// per-slot transition probabilities, erasing frames at the rate of the
// state the link is in when the frame's last slot lands. Links start in
// the good state. The chain is simulated by its holding times — a state
// left with per-slot probability p lasts Geometric(p) slots — so a link
// costs one hashed draw per fade, not work per slot, and each draw
// evaluates a table logarithm rather than log1p unless that cannot
// decide the holding time exactly. The expected burst length is
// 1/PBadGood slots and the stationary bad-state fraction is
// PGoodBad/(PGoodBad+PBadGood).
type GilbertElliott struct {
	// PGoodBad is the per-slot probability of a good→bad transition.
	PGoodBad float64
	// PBadGood is the per-slot probability of a bad→good transition.
	PBadGood float64
	// PERGood is the frame erasure probability in the good state
	// (typically 0 or small).
	PERGood float64
	// PERBad is the frame erasure probability in the bad state.
	PERBad float64
}

// Enabled reports whether the chain can ever erase a frame.
func (g GilbertElliott) Enabled() bool {
	return (g.PGoodBad > 0 && g.PERBad > 0) || g.PERGood > 0
}

// Validate reports an error for out-of-range parameters.
func (g GilbertElliott) Validate() error {
	for _, p := range []float64{g.PGoodBad, g.PBadGood, g.PERGood, g.PERBad} {
		if p < 0 || p > 1 {
			return fmt.Errorf("fault: Gilbert–Elliott parameter %v outside [0,1]", p)
		}
	}
	return nil
}

// Crash parameterises per-node crash/recover schedules: each node
// alternates exponentially distributed up intervals (mean MTTF slots)
// and down intervals (mean MTTR slots), independently of every other
// node. All nodes start up.
type Crash struct {
	// MTTF is the mean time to failure in slots; 0 disables crashes.
	MTTF float64
	// MTTR is the mean time to recover in slots.
	MTTR float64
}

// Enabled reports whether nodes ever crash.
func (c Crash) Enabled() bool { return c.MTTF > 0 && c.MTTR > 0 }

// Validate reports an error for negative means or a half-configured
// schedule.
func (c Crash) Validate() error {
	if c.MTTF < 0 || c.MTTR < 0 {
		return fmt.Errorf("fault: negative crash interval mean (MTTF=%g, MTTR=%g)", c.MTTF, c.MTTR)
	}
	if (c.MTTF > 0) != (c.MTTR > 0) {
		return fmt.Errorf("fault: crash schedule needs both MTTF and MTTR (got MTTF=%g, MTTR=%g)", c.MTTF, c.MTTR)
	}
	return nil
}

// Config assembles the impairment axes of one run. The zero value is a
// true no-op: no injector is built, no random stream is consumed, and
// run results are byte-identical to a faultless run at the same seed.
type Config struct {
	// PER is the i.i.d. per-frame, per-receiver erasure probability.
	PER float64
	// GE is the Gilbert–Elliott bursty channel; zero value disabled.
	GE GilbertElliott
	// Crash is the node crash/recover schedule; zero value disabled.
	Crash Crash
	// LocNoise is the standard deviation of the Gaussian error applied
	// to the station coordinates LAMM's MCS/UPDATE sees (unit-square
	// units; the default radio radius is 0.2). It affects only
	// location-aware protocols and is wired at MAC-factory construction,
	// not through the Injector.
	LocNoise float64
	// Seed drives every impairment decision. experiments.Run derives it
	// from the run seed when left zero, keeping the seedFor scheme the
	// single source of randomness.
	Seed int64
}

// ChannelActive reports whether any axis served by the Injector (PER,
// GE, Crash) is enabled.
func (c Config) ChannelActive() bool {
	return c.PER > 0 || c.GE.Enabled() || c.Crash.Enabled()
}

// Active reports whether any impairment axis at all is enabled.
func (c Config) Active() bool { return c.ChannelActive() || c.LocNoise > 0 }

// Validate reports an error for out-of-range parameters on any axis.
func (c Config) Validate() error {
	if !(c.PER >= 0 && c.PER <= 1) { // NaN fails too
		return fmt.Errorf("fault: PER %v outside [0,1]", c.PER)
	}
	if !(c.LocNoise >= 0) {
		return fmt.Errorf("fault: LocNoise %v, need >= 0", c.LocNoise)
	}
	if err := c.GE.Validate(); err != nil {
		return err
	}
	return c.Crash.Validate()
}

// Hash streams, keeping the axes' random decisions independent even when
// they share (key, slot) coordinates.
const (
	streamIID uint64 = 1 + iota
	streamGEHold
	streamGEErase
	streamCrash
)

// never is the flip slot of a state that is never left; holding times
// saturate at it, so a link's flip slot cannot overflow.
const never = sim.Never

// geLink is the Markov state of one directed link, advanced lazily from
// flip to flip: the link keeps its current state until slot until
// (exclusive), and k counts the holding-time draws made so far, which
// doubles as the state — the first draw is for the good state and every
// draw flips it, so the link is bad exactly when k is even. A fresh link
// {until: -1, k: 0} makes its first draw at the first query, as a chain
// started good at slot -1.
type geLink struct {
	until sim.Slot
	k     uint64
}

// newLink is the state of a link not yet queried.
var newLink = geLink{until: -1}

// linkRow holds the Gilbert–Elliott states of one sender's links,
// index-parallel to recv, the receiver list of the sender's last
// completed frame. The engine hands every frame the sender's
// topo.Neighbors slice captured at transmission start, so the row is
// matched by slice identity and rebuilt only when the sender's
// neighbourhood changes (a mobility topology swap).
type linkRow struct {
	recv  []int
	links []geLink
}

// nodeSched is the lazily materialised crash schedule of one node: the
// node is in state down until slot until (exclusive), with k counting
// interval draws for the hash stream. k == 0 marks a schedule not yet
// drawn.
type nodeSched struct {
	down  bool
	until sim.Slot
	k     uint64
}

// Injector implements sim.Impairment for one engine run. It is stateful
// (Gilbert–Elliott link states, crash schedules, counters) and must not
// be shared between concurrent runs; Sweep builds one per run. A
// reception costs one inner hash shared by the i.i.d. and burst-erase
// draws, plus one draw per fade its link went through since it was last
// asked; the link's state is found by index in the sender's row, not by
// a map lookup.
type Injector struct {
	cfg Config
	// rows holds each sender's Gilbert–Elliott link states (see
	// linkRow), indexed by sender and grown on demand; ge reports
	// whether the axis is on at all.
	rows []linkRow
	ge   bool
	// logStay holds log1p(-p) for the good (index 0) and bad (index 1)
	// states' per-slot leave probability p, the holding-time scale, and
	// invLogStay its reciprocals.
	logStay    [2]float64
	invLogStay [2]float64
	crash      bool
	nodes      []nodeSched // indexed by station, grown on demand

	// Degradation counters, exported via FeedRegistry.
	iidErasures int64 // frames erased by the i.i.d. PER axis
	geErasures  int64 // frames erased by the bursty-channel axis
	crashDrops  int64 // frame receptions lost to a crashed receiver
	crashDowns  int64 // down intervals entered across all nodes
}

// NewInjector builds an Injector for the configuration, or reports why
// the configuration is invalid — an impairment silently out of range
// would invalidate a whole study.
func NewInjector(cfg Config) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	inj := &Injector{cfg: cfg, crash: cfg.Crash.Enabled(), ge: cfg.GE.Enabled()}
	if inj.ge {
		for s, p := range [2]float64{cfg.GE.PGoodBad, cfg.GE.PBadGood} {
			lq := math.Log1p(-p)
			inj.logStay[s] = lq
			inj.invLogStay[s] = 1 / lq
		}
	}
	return inj, nil
}

// Config returns the configuration the injector was built with.
func (inj *Injector) Config() Config { return inj.cfg }

// mix64 is the splitmix64 finaliser; a bijective avalanche over uint64.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// u01 hashes (seed, stream, key, t) to a uniform in [0,1). Stateless, so
// the decision for a given coordinate never depends on query order.
func (inj *Injector) u01(stream, key uint64, t sim.Slot) float64 {
	return inj.unit(stream, mix64(key^mix64(uint64(t))))
}

// unit finishes a u01 draw from its inner hash h = mix64(key ^
// mix64(t)), which every stream drawn at one (key, t) shares.
func (inj *Injector) unit(stream, h uint64) float64 {
	return float64(mix64(uint64(inj.cfg.Seed)^mix64(stream^h))>>11) / (1 << 53)
}

// linkKey packs a directed (sender, receiver) pair.
func linkKey(sender, receiver int) uint64 {
	return uint64(uint32(sender))<<32 | uint64(uint32(receiver))
}

// Erase implements sim.Impairment: it decides the fate of a frame from
// sender, whose last slot of airtime is now, at every receiver in recv
// at once. Entries of lost already true (collision, half duplex) are
// left alone and draw nothing; an intact reception at a receiver that
// is down (down[recv[k]], down nil when no station can crash) is lost
// to the crash; the rest are erased by the i.i.d. axis, then by the
// link's Gilbert–Elliott state. The i.i.d. and burst-erase draws of one
// reception share their inner hash, and mix64(now) is computed once per
// frame.
func (inj *Injector) Erase(sender int, recv []int, lost, down []bool, now sim.Slot) {
	var links []geLink
	if inj.ge {
		links = inj.row(sender, recv)
	}
	ht := mix64(uint64(now))
	for k, j := range recv {
		if lost[k] {
			continue
		}
		if down != nil && down[j] {
			lost[k] = true
			inj.crashDrops++
			continue
		}
		key := linkKey(sender, j)
		h := mix64(key ^ ht)
		if inj.cfg.PER > 0 && inj.unit(streamIID, h) < inj.cfg.PER {
			lost[k] = true
			inj.iidErasures++
			continue
		}
		if links != nil {
			per := inj.cfg.GE.PERGood
			if inj.advance(&links[k], key, now) {
				per = inj.cfg.GE.PERBad
			}
			if per > 0 && inj.unit(streamGEErase, h) < per {
				lost[k] = true
				inj.geErasures++
			}
		}
	}
}

// row returns the sender's link states index-parallel to recv. When recv
// is not the slice the row was built for, the row is rebuilt parallel to
// it and the states of receivers present in both are carried over by
// receiver id (a merge, as neighbour lists are sorted). A link whose
// state is dropped restarts from newLink and replays its chain on the
// next query: the chain is a function of (link, draw number) alone, so
// dropping state costs catch-up work, never a different decision.
func (inj *Injector) row(sender int, recv []int) []geLink {
	if sender >= len(inj.rows) {
		inj.rows = append(inj.rows, make([]linkRow, sender+1-len(inj.rows))...)
	}
	r := &inj.rows[sender]
	if len(recv) == len(r.recv) && (len(recv) == 0 || &recv[0] == &r.recv[0]) {
		return r.links
	}
	links := make([]geLink, len(recv))
	a := 0
	for k, j := range recv {
		for a < len(r.recv) && r.recv[a] < j {
			a++
		}
		if a < len(r.recv) && r.recv[a] == j {
			links[k] = r.links[a]
		} else {
			links[k] = newLink
		}
	}
	r.recv, r.links = recv, links
	return links
}

// advance moves the link's Markov chain to the given slot and reports
// whether it is in the bad state there. The chain jumps from flip to
// flip: the k-th holding time is a stateless hash of (link, k), so
// interleaved erase queries cannot shift the chain's trajectory. A link
// starts good at slot -1, so it is bad at slot 0 with probability
// PGoodBad, as a per-slot chain would be.
func (inj *Injector) advance(l *geLink, key uint64, now sim.Slot) bool {
	for l.until <= now && l.until != never {
		l.k++
		d := inj.holdTime(int(1-l.k&1), key, l.k)
		if d == never || l.until > never-d {
			l.until = never
		} else {
			l.until += d
		}
	}
	return l.k&1 == 0
}

// logErrBound bounds |fastLog(x) - fl(log1p(x-1))| for the x = 1-u that
// holdTime draws (u a multiple of 2^-53 in [0,1), so x in [2^-53, 1]
// and exact). fastLog's only approximation is ln(1+r) ≈ r, off by less
// than r²/2 < 2^-17 for 0 ≤ r < 2^-8; its table entries, its reduced
// argument r and its final sum (every term below 37 in magnitude) add
// rounding below 2^-45. math.Log1p is within 1 ulp, below 2^-47 for
// |ln x| < 64. The bound is their sum, rounded up to the next power
// of two.
const logErrBound = 0x1p-16

// holdTime draws the k-th holding time of a link in state s (0 good,
// 1 bad) from the link's holding-time hash stream.
func (inj *Injector) holdTime(s int, key, k uint64) sim.Slot {
	return inj.geometric(s, inj.u01(streamGEHold, key, sim.Slot(k)))
}

// geometric turns a uniform u in [0,1) into a Geometric(p) variate on
// {1, 2, …} by inversion, floor(log1p(-u) / log1p(-p)) + 1, where p is
// state s's per-slot leave probability. The floor comes from floorFast
// whenever its bracket decides it, so every holding time is
// bit-identical to the log1p formula. p ≥ 1 (log1p(-p) = -Inf) gives 1;
// p ≤ 0 (log1p(-p) = 0) and draws past the int64 range give never.
func (inj *Injector) geometric(s int, u float64) sim.Slot {
	lq := inj.logStay[s]
	if lq == 0 {
		return never
	}
	if math.IsInf(lq, -1) {
		return 1
	}
	n, ok := inj.floorFast(s, u)
	if !ok {
		n = math.Floor(math.Log1p(-u) / lq)
	}
	h := n + 1
	if h >= float64(never) {
		return never
	}
	return sim.Slot(h)
}

// floorFast brackets floor(log1p(-u) / log1p(-p)) for state s with
// fastLog, reporting ok false when the bracket cannot decide it. The
// quotient y it computes lies within logErrBound / |log1p(-p)| of the
// reference quotient, plus the rounding of the two multiplications and
// the reference division (under 2^-51·|y|; d allows 2^-50·|y|). So
// when [y-d, y+d] holds no integer, the reference quotient has the
// same floor as y.
func (inj *Injector) floorFast(s int, u float64) (n float64, ok bool) {
	y := fastLog(1-u) * inj.invLogStay[s]
	n = math.Floor(y)
	d := logErrBound*math.Abs(inj.invLogStay[s]) + math.Abs(y)*0x1p-50
	return n, y-d >= n && y+d < n+1
}

// logTabBits sizes fastLog's table: 2^logTabBits mantissa intervals.
const logTabBits = 8

// logTab holds, for c = 1 + i/2^logTabBits, 1/c and ln c.
var logTab = func() (t [1 << logTabBits]struct{ invc, logc float64 }) {
	for i := range t {
		c := 1 + float64(i)/(1<<logTabBits)
		t[i].invc, t[i].logc = 1/c, math.Log(c)
	}
	return t
}()

// fastLog approximates ln x for normal positive x, to within 2^-17 (see
// logErrBound): x = 2^e·m with m in [1,2) and m in [c, c+2^-logTabBits)
// for a table point c, so ln x = e·ln2 + ln c + ln(1+r) with
// r = (m-c)/c in [0, 2^-logTabBits), and ln(1+r) ≈ r. m-c is exact.
func fastLog(x float64) float64 {
	b := math.Float64bits(x)
	e := int(b>>52) - 1023
	mant := b & (1<<52 - 1)
	i := mant >> (52 - logTabBits)
	t := &logTab[i]
	m := math.Float64frombits(mant | 1023<<52)
	r := (m - (1 + float64(i)/(1<<logTabBits))) * t.invc
	return float64(e)*math.Ln2 + (t.logc + r)
}

// Crash implements sim.Impairment: it reports whether the station is
// crashed at the given slot and the next slot strictly after now at
// which that flips (sim.Never without a crash axis). The engine keeps
// the answer in its own per-station array and asks again at the flip,
// so a schedule advances one interval per call. A crashed station is
// skipped by the engine (it neither ticks — so it sends no frame and no
// CTS/ACK response — nor decodes arriving frames) while its queued
// requests keep aging toward their deadlines.
func (inj *Injector) Crash(station int, now sim.Slot) (down bool, next sim.Slot) {
	if !inj.crash {
		return false, never
	}
	s := inj.sched(station, now)
	return s.down, s.until
}

// sched advances the station's crash schedule to the given slot, drawing
// its first up interval on first use.
func (inj *Injector) sched(station int, now sim.Slot) *nodeSched {
	if station >= len(inj.nodes) {
		inj.nodes = append(inj.nodes, make([]nodeSched, station+1-len(inj.nodes))...)
	}
	s := &inj.nodes[station]
	if s.k == 0 {
		s.until = inj.drawInterval(station, s, inj.cfg.Crash.MTTF)
	}
	for s.until <= now {
		s.down = !s.down
		mean := inj.cfg.Crash.MTTF
		if s.down {
			mean = inj.cfg.Crash.MTTR
			inj.crashDowns++
		}
		s.until += inj.drawInterval(station, s, mean)
	}
	return s
}

// drawInterval draws an exponential interval (mean slots, minimum one
// slot) from the node's private hash stream.
func (inj *Injector) drawInterval(station int, s *nodeSched, mean float64) sim.Slot {
	s.k++
	u := inj.u01(streamCrash, uint64(uint32(station))<<32|s.k, 0)
	d := sim.Slot(math.Ceil(-mean * math.Log(1-u)))
	if d < 1 {
		d = 1
	}
	return d
}

// Erasures returns the frames erased so far by (iid, bursty) channel
// errors.
func (inj *Injector) Erasures() (iid, ge int64) { return inj.iidErasures, inj.geErasures }

// CrashStats returns the receptions dropped at crashed receivers and the
// number of down intervals entered.
func (inj *Injector) CrashStats() (drops, downs int64) { return inj.crashDrops, inj.crashDowns }

// FeedRegistry exports the injector's degradation counters under the
// given prefix: <prefix>.erasures.iid, <prefix>.erasures.burst,
// <prefix>.crash.rx_dropped and <prefix>.crash.downs. Calling it once
// per finished run aggregates multiple runs into the same counters.
func (inj *Injector) FeedRegistry(reg *obs.Registry, prefix string) {
	reg.Counter(prefix + ".erasures.iid").Add(inj.iidErasures)
	reg.Counter(prefix + ".erasures.burst").Add(inj.geErasures)
	reg.Counter(prefix + ".crash.rx_dropped").Add(inj.crashDrops)
	reg.Counter(prefix + ".crash.downs").Add(inj.crashDowns)
}

// ParseGE parses the CLI form of a Gilbert–Elliott configuration,
// "pGoodBad:pBadGood:perBad[:perGood]" — e.g. "0.01:0.1:0.8" for fades
// starting at 1%/slot, lasting 10 slots on average and erasing 80% of
// frames. An empty string yields the disabled zero value.
func ParseGE(s string) (GilbertElliott, error) {
	var g GilbertElliott
	if s == "" {
		return g, nil
	}
	parts := strings.Split(s, ":")
	if len(parts) != 3 && len(parts) != 4 {
		return g, fmt.Errorf("fault: -ge wants pGoodBad:pBadGood:perBad[:perGood], got %q", s)
	}
	dst := []*float64{&g.PGoodBad, &g.PBadGood, &g.PERBad, &g.PERGood}
	for i, p := range parts {
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return g, fmt.Errorf("fault: bad -ge component %q: %v", p, err)
		}
		*dst[i] = v
	}
	return g, g.Validate()
}

// Parse builds and validates the Config the CLI fault flags describe:
// -per, -ge (ParseGE), -crash (ParseCrash) and -locnoise.
func Parse(per float64, ge, crash string, locNoise float64) (Config, error) {
	c := Config{PER: per, LocNoise: locNoise}
	var err error
	if c.GE, err = ParseGE(ge); err != nil {
		return c, err
	}
	if c.Crash, err = ParseCrash(crash); err != nil {
		return c, err
	}
	return c, c.Validate()
}

// ParseCrash parses the CLI form of a crash schedule, "mttf:mttr" in
// slots — e.g. "2000:200" for nodes that stay up 2000 slots and down
// 200 slots on average. An empty string yields the disabled zero value.
func ParseCrash(s string) (Crash, error) {
	var c Crash
	if s == "" {
		return c, nil
	}
	parts := strings.Split(s, ":")
	if len(parts) != 2 {
		return c, fmt.Errorf("fault: -crash wants mttf:mttr, got %q", s)
	}
	var err error
	if c.MTTF, err = strconv.ParseFloat(parts[0], 64); err != nil {
		return c, fmt.Errorf("fault: bad -crash MTTF %q: %v", parts[0], err)
	}
	if c.MTTR, err = strconv.ParseFloat(parts[1], 64); err != nil {
		return c, fmt.Errorf("fault: bad -crash MTTR %q: %v", parts[1], err)
	}
	return c, c.Validate()
}
