package sim

// The idle-run oracle: Env.IdleFor must answer exactly what a MAC
// counting its own run from carrier sense on every tick would hold —
// busy resets the run to 0, idle adds 1, and a slot the station is down
// or detached is not observed at all — on the reference path, where
// every up station ticks every slot, and at every tick of the skipping
// path, where stations sleep through busy slots and down windows.

import (
	"math/rand"
	"testing"

	"relmac/internal/frames"
)

// idleScenario is a small line network: stations in range of their
// direct neighbors only, crash windows, requests that each become one
// DATA frame, and optionally a fresh MAC attached mid-run.
type idleScenario struct {
	name  string
	n     int
	slots int
	// down lists {station, from, to}: the station is down over [from, to).
	down [][3]int
	// sends lists {station, slot}: a request reaches the station.
	sends [][2]int
	// reattach is {station, slot}: a fresh MAC replaces the station's at
	// that slot; a zero slot means none.
	reattach [2]int
}

// idleProbe is a Sleeper double that sends one overheard DATA frame per
// request and records, at every tick, the run Env.IdleFor reports. On
// the reference path it also counts the run itself from CarrierBusy and
// checks IdleFor against that count.
type idleProbe struct {
	t       *testing.T
	oracle  bool
	run     int
	pending int
	seen    map[[2]int]int // (station, slot) → run, shared by all probes
}

func (m *idleProbe) Tick(env *Env) *frames.Frame {
	now := env.Now()
	if m.oracle {
		if env.CarrierBusy() {
			m.run = 0
		} else {
			m.run++
		}
		if !env.IdleFor(m.run) || env.IdleFor(m.run+1) {
			m.t.Errorf("station %d slot %d: IdleFor gives run %d, carrier sense counts %d",
				env.Node(), now, idleRunOf(env), m.run)
		}
	}
	m.seen[[2]int{env.Node(), int(now)}] = idleRunOf(env)
	if m.pending > 0 && !env.Transmitting() {
		m.pending--
		return &frames.Frame{Type: frames.Data, Dst: frames.BroadcastAddr}
	}
	return nil
}

func (m *idleProbe) Deliver(*Env, *frames.Frame, Rx) {}
func (m *idleProbe) Submit(*Env, *Request)           { m.pending++ }
func (m *idleProbe) Quiescent(Slot) bool             { return m.pending == 0 }

// downWindows is a crash-only Impairment: each station is down over its
// listed windows, which are sorted and disjoint.
type downWindows map[int][][2]Slot

func (d downWindows) Crash(station int, now Slot) (bool, Slot) {
	for _, w := range d[station] {
		if now < w[0] {
			return false, w[0]
		}
		if now < w[1] {
			return true, w[1]
		}
	}
	return false, Never
}

func (d downWindows) Erase(sender int, recv []int, lost, down []bool, now Slot) {
	for k, j := range recv {
		if down[j] {
			lost[k] = true
		}
	}
}

// runIdle plays the scenario on one path and returns every tick's run.
func runIdle(t *testing.T, sc idleScenario, reference bool) map[[2]int]int {
	seen := map[[2]int]int{}
	cfg := Config{Topo: lineTopo(sc.n, 0.1, 0.15), Reference: reference}
	if len(sc.down) > 0 {
		d := downWindows{}
		for _, w := range sc.down {
			d[w[0]] = append(d[w[0]], [2]Slot{Slot(w[1]), Slot(w[2])})
		}
		cfg.Impairment = d
	}
	e := New(cfg)
	probe := func() MAC { return &idleProbe{t: t, oracle: reference, seen: seen} }
	for i := 0; i < sc.n; i++ {
		e.SetMAC(i, probe())
	}
	src := newSlotSource()
	for _, s := range sc.sends {
		src.add(Slot(s[1]), &Request{Src: s[0], Kind: Broadcast, Deadline: Slot(sc.slots)})
	}
	if at := sc.reattach[1]; at > 0 {
		e.Run(at, src)
		e.SetMAC(sc.reattach[0], probe())
		e.Run(sc.slots-at, src)
	} else {
		e.Run(sc.slots, src)
	}
	return seen
}

// checkIdleRun runs the scenario on both paths: the reference run checks
// IdleFor against carrier sense at every tick, and every tick of the
// skipping run must see the reference's run for that station and slot.
func checkIdleRun(t *testing.T, sc idleScenario) {
	t.Helper()
	ref := runIdle(t, sc, true)
	opt := runIdle(t, sc, false)
	for k, got := range opt {
		want, ok := ref[k]
		if !ok {
			t.Fatalf("station %d ticked at slot %d on the skipping path only", k[0], k[1])
		}
		if got != want {
			t.Fatalf("station %d slot %d: skipping path sees run %d, reference %d", k[0], k[1], got, want)
		}
	}
	if len(opt) >= len(ref) {
		t.Fatalf("skipping path ticked %d times, reference %d: nothing slept", len(opt), len(ref))
	}
}

func TestIdleRunMatchesCarrierSense(t *testing.T) {
	for _, sc := range []idleScenario{
		{name: "busy neighbours", n: 3, slots: 80,
			sends: [][2]int{{0, 5}, {2, 7}, {1, 20}, {0, 30}, {1, 40}}},
		{name: "down straddles busy", n: 3, slots: 80,
			down:  [][3]int{{1, 8, 30}},
			sends: [][2]int{{0, 5}, {2, 25}, {1, 35}, {0, 50}, {1, 60}}},
		{name: "down from slot 0", n: 3, slots: 60,
			down:  [][3]int{{1, 0, 15}, {2, 0, 4}},
			sends: [][2]int{{0, 3}, {1, 10}, {2, 12}, {1, 30}}},
		{name: "mid-run attach", n: 3, slots: 60,
			down:     [][3]int{{1, 20, 25}},
			sends:    [][2]int{{0, 10}, {2, 18}, {1, 30}, {1, 45}},
			reattach: [2]int{1, 12}},
		{name: "attach while down", n: 3, slots: 60,
			down:     [][3]int{{1, 10, 20}},
			sends:    [][2]int{{0, 8}, {2, 16}, {1, 25}},
			reattach: [2]int{1, 15}},
	} {
		t.Run(sc.name, func(t *testing.T) { checkIdleRun(t, sc) })
	}
}

// FuzzIdleRun checks random scenarios drawn from a seed.
func FuzzIdleRun(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 4, 5, 6, 7, 8} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		sc := idleScenario{n: 2 + rng.Intn(4), slots: 150}
		for i := 0; i < sc.n; i++ {
			for from := rng.Intn(40); from < sc.slots; from += 10 + rng.Intn(40) {
				to := from + 1 + rng.Intn(20)
				sc.down = append(sc.down, [3]int{i, from, to})
				from = to
			}
		}
		for k := 4 + rng.Intn(12); k > 0; k-- {
			sc.sends = append(sc.sends, [2]int{rng.Intn(sc.n), rng.Intn(sc.slots)})
		}
		// A request in the last slot wakes station 0 there, so at least
		// one slept stretch ends in a woken tick.
		sc.sends = append(sc.sends, [2]int{0, sc.slots - 1})
		if rng.Intn(2) == 0 {
			sc.reattach = [2]int{rng.Intn(sc.n), 1 + rng.Intn(sc.slots-1)}
		}
		checkIdleRun(t, sc)
	})
}
