package fault

import (
	"math"
	"testing"

	"relmac/internal/obs"
	"relmac/internal/sim"
)

func TestFaultConfigActivation(t *testing.T) {
	var zero Config
	if zero.ChannelActive() || zero.Active() {
		t.Error("zero config must be inactive")
	}
	if err := zero.Validate(); err != nil {
		t.Errorf("zero config must validate: %v", err)
	}
	cases := []struct {
		name    string
		cfg     Config
		channel bool
	}{
		{"per", Config{PER: 0.1}, true},
		{"ge", Config{GE: GilbertElliott{PGoodBad: 0.1, PBadGood: 0.5, PERBad: 1}}, true},
		{"crash", Config{Crash: Crash{MTTF: 1000, MTTR: 100}}, true},
		{"locnoise", Config{LocNoise: 0.05}, false},
	}
	for _, c := range cases {
		if c.cfg.ChannelActive() != c.channel {
			t.Errorf("%s: ChannelActive = %v, want %v", c.name, c.cfg.ChannelActive(), c.channel)
		}
		if !c.cfg.Active() {
			t.Errorf("%s: Active = false", c.name)
		}
	}
}

func TestFaultConfigValidation(t *testing.T) {
	bad := []Config{
		{PER: -0.1},
		{PER: 1.5},
		{PER: math.NaN()},
		{LocNoise: -1},
		{LocNoise: math.NaN()},
		{GE: GilbertElliott{PGoodBad: 2}},
		{GE: GilbertElliott{PGoodBad: 0.1, PBadGood: -0.2}},
		{Crash: Crash{MTTF: 100}},         // missing MTTR
		{Crash: Crash{MTTF: -5, MTTR: 5}}, // negative mean
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config passed validation: %+v", i, cfg)
		}
	}
	if inj, err := NewInjector(Config{PER: 2}); err == nil || inj != nil {
		t.Errorf("NewInjector(PER 2) = %v, %v; want an error", inj, err)
	}
}

// mustInjector builds an injector for a valid test configuration.
func mustInjector(t testing.TB, cfg Config) *Injector {
	t.Helper()
	inj, err := NewInjector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

// erase1 asks for a single reception: whether a frame completing at now
// is erased on the sender→receiver link.
func erase1(inj *Injector, sender, receiver int, now sim.Slot) bool {
	lost := []bool{false}
	inj.Erase(sender, []int{receiver}, lost, nil, now)
	return lost[0]
}

// isDown reports the station's crash state at now.
func isDown(inj *Injector, station int, now sim.Slot) bool {
	down, _ := inj.Crash(station, now)
	return down
}

// TestFaultIIDDeterminism pins the core determinism contract: two
// injectors with the same seed make identical erasure decisions, and a
// different seed yields a different decision sequence.
func TestFaultIIDDeterminism(t *testing.T) {
	mk := func(seed int64) []bool {
		inj := mustInjector(t, Config{PER: 0.3, Seed: seed})
		var out []bool
		for s := sim.Slot(0); s < 200; s++ {
			out = append(out, erase1(inj, 0, 1, s))
		}
		return out
	}
	a, b, c := mk(42), mk(42), mk(43)
	same, diff := true, false
	erased := 0
	for i := range a {
		same = same && a[i] == b[i]
		diff = diff || a[i] != c[i]
		if a[i] {
			erased++
		}
	}
	if !same {
		t.Error("same seed produced different erasure sequences")
	}
	if !diff {
		t.Error("different seeds produced identical erasure sequences")
	}
	// 200 draws at PER 0.3: expect ~60, demand a loose sanity window.
	if erased < 20 || erased > 120 {
		t.Errorf("erased %d/200 frames at PER 0.3", erased)
	}
	if !erase1(mustInjector(t, Config{PER: 1, Seed: 1}), 0, 1, 0) {
		t.Error("PER 1 must erase every frame")
	}
}

// TestFaultGEOrderInvariance checks that a link's Gilbert–Elliott
// trajectory does not depend on when it is queried: an injector asked
// only at a few slots must agree with one asked every slot up to 500,
// because the k-th holding time is a stateless hash of (link, k).
func TestFaultGEOrderInvariance(t *testing.T) {
	cfg := Config{GE: GilbertElliott{PGoodBad: 0.2, PBadGood: 0.3, PERBad: 1}, Seed: 99}
	dense, sparse := mustInjector(t, cfg), mustInjector(t, cfg)
	var denseAt []bool
	for s := sim.Slot(0); s <= 500; s++ {
		denseAt = append(denseAt, erase1(dense, 3, 7, s))
	}
	// PERBad=1, PERGood=0: the erase decision IS the chain state, so a
	// few sparse queries must land on the same states.
	for _, s := range []sim.Slot{37, 38, 260, 500} {
		if got, want := erase1(sparse, 3, 7, s), denseAt[s]; got != want {
			t.Errorf("query order changed the chain: sparse=%v dense=%v at slot %d", got, want, s)
		}
	}
	bad := 0
	for _, b := range denseAt {
		if b {
			bad++
		}
	}
	// Stationary bad fraction is 0.2/(0.2+0.3) = 0.4 of 501 slots.
	if bad < 100 || bad > 320 {
		t.Errorf("bad-state slots = %d/501, far from stationary 0.4", bad)
	}
}

// TestFaultCrashSchedule checks the crash axis: all nodes start up,
// schedules are deterministic per seed, both states are visited over a
// long horizon, and independent nodes get independent schedules.
func TestFaultCrashSchedule(t *testing.T) {
	cfg := Config{Crash: Crash{MTTF: 200, MTTR: 50}, Seed: 7}
	a, b := mustInjector(t, cfg), mustInjector(t, cfg)
	if isDown(a, 0, 0) {
		t.Error("nodes must start up")
	}
	var downA, downB, downOther int
	for s := sim.Slot(0); s < 20000; s++ {
		if isDown(a, 1, s) {
			downA++
		}
		if isDown(b, 1, s) {
			downB++
		}
		if isDown(a, 2, s) {
			downOther++
		}
	}
	if downA != downB {
		t.Errorf("same seed, different downtime: %d vs %d", downA, downB)
	}
	if downA == 0 {
		t.Error("node 1 never crashed over 20k slots at MTTF 200")
	}
	// Stationary down fraction is 50/250 = 20%; allow a wide window.
	if frac := float64(downA) / 20000; frac < 0.05 || frac > 0.5 {
		t.Errorf("down fraction = %.3f, want near 0.2", frac)
	}
	if downOther == downA {
		t.Error("distinct nodes got identical schedules")
	}
	drops, downs := a.CrashStats()
	if drops != 0 || downs == 0 {
		t.Errorf("CrashStats = (%d, %d), want (0, >0)", drops, downs)
	}
}

func TestFaultFeedRegistry(t *testing.T) {
	inj := mustInjector(t, Config{PER: 1, Seed: 3})
	// Receiver 3 is down and receiver 4 already lost the frame to a
	// collision: one crash drop, two channel erasures, no draw for 4.
	lost := []bool{false, false, false, true}
	down := []bool{3: true, 4: false}
	inj.Erase(0, []int{1, 2, 3, 4}, lost, down, 0)
	reg := obs.NewRegistry()
	inj.FeedRegistry(reg, "BMMM.fault")
	for name, want := range map[string]int64{
		"BMMM.fault.erasures.iid":     2,
		"BMMM.fault.erasures.burst":   0,
		"BMMM.fault.crash.rx_dropped": 1,
		"BMMM.fault.crash.downs":      0,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if iid, ge := inj.Erasures(); iid != 2 || ge != 0 {
		t.Errorf("Erasures = (%d, %d), want (2, 0)", iid, ge)
	}
}

func TestFaultParseGE(t *testing.T) {
	g, err := ParseGE("0.01:0.1:0.8")
	if err != nil {
		t.Fatal(err)
	}
	if g.PGoodBad != 0.01 || g.PBadGood != 0.1 || g.PERBad != 0.8 || g.PERGood != 0 {
		t.Errorf("ParseGE = %+v", g)
	}
	g, err = ParseGE("0.01:0.1:0.8:0.02")
	if err != nil || g.PERGood != 0.02 {
		t.Errorf("4-part ParseGE = %+v, err %v", g, err)
	}
	if g, err = ParseGE(""); err != nil || g.Enabled() {
		t.Errorf("empty ParseGE = %+v, err %v", g, err)
	}
	for _, s := range []string{"0.1", "0.1:0.2", "a:b:c", "0.1:0.2:2", "1:2:3:4:5"} {
		if _, err := ParseGE(s); err == nil {
			t.Errorf("ParseGE(%q) accepted", s)
		}
	}
}

func TestFaultParseCrash(t *testing.T) {
	c, err := ParseCrash("2000:200")
	if err != nil || c.MTTF != 2000 || c.MTTR != 200 {
		t.Errorf("ParseCrash = %+v, err %v", c, err)
	}
	if c, err = ParseCrash(""); err != nil || c.Enabled() {
		t.Errorf("empty ParseCrash = %+v, err %v", c, err)
	}
	for _, s := range []string{"2000", "a:b", "100:-5", "100:0"} {
		if _, err := ParseCrash(s); err == nil {
			t.Errorf("ParseCrash(%q) accepted", s)
		}
	}
}
