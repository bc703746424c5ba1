package mac

import (
	"math/rand"
	"testing"

	"relmac/internal/sim"
)

// FuzzBackoff drives the contention machine with arbitrary busy/idle
// patterns (bytes: even = idle, odd = busy) and checks the safety and
// liveness invariants: it never clears on a busy slot, and it always
// clears within CW slots of continuous idle once a phase is active.
func FuzzBackoff(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 1, 0}, int64(1))
	f.Add([]byte{1, 1, 1, 1}, int64(2))
	f.Add([]byte{}, int64(3))
	f.Fuzz(func(t *testing.T, pattern []byte, seed int64) {
		if len(pattern) > 1024 {
			t.Skip("pattern too long")
		}
		rng := rand.New(rand.NewSource(seed))
		b := NewBackoff(8, 32)
		b.Begin()
		cleared := false
		for _, p := range pattern {
			busy := p%2 == 1
			if b.Tick(busy, rng) {
				if busy {
					t.Fatal("cleared on a busy slot")
				}
				cleared = true
				break
			}
		}
		if cleared {
			return
		}
		// Liveness: continuous idle must clear within CWMax+2 slots.
		for i := 0; i < 34; i++ {
			if b.Tick(false, rng) {
				return
			}
		}
		t.Fatal("never cleared despite continuous idle")
	})
}

// FuzzNAVTable drives Observe, the pruning ObserveFor and Clear with an
// advancing clock starting at nowRaw, and checks Yielding,
// YieldingToOther and Until after every operation against a map oracle
// holding the latest reserved slot per exchange. Each op is three bytes:
// kind, exchange ID, argument.
func FuzzNAVTable(f *testing.F) {
	f.Add([]byte{1, 10, 2, 20, 1, 5}, int64(30))
	f.Add([]byte{1, 1, 5, 2, 0, 3, 1, 2, 9, 1, 1, 2, 2, 0, 7, 0, 3, 40}, int64(0))
	f.Add([]byte{0, 1, 30, 1, 1, 0, 2, 0, 200, 1, 1, 4, 3, 0, 0, 1, 2, 3}, int64(-17))
	f.Fuzz(func(t *testing.T, ops []byte, nowRaw int64) {
		if len(ops) > 900 {
			t.Skip("too many ops")
		}
		var n NAVTable
		oracle := map[int64]sim.Slot{}
		observe := func(id int64, until sim.Slot) {
			if u, ok := oracle[id]; !ok || until > u {
				oracle[id] = until
			}
		}
		now := sim.Slot(nowRaw % 300)
		for i := 0; i+2 < len(ops); i += 3 {
			id, arg := int64(ops[i+1]%6), int(ops[i+2])
			switch ops[i] % 4 {
			case 0:
				until := now + sim.Slot(arg%40) - 10
				n.Observe(id, until)
				observe(id, until)
			case 1:
				d := arg%20 - 2
				n.ObserveFor(id, now, d)
				if d > 0 {
					observe(id, now+sim.Slot(d))
				}
			case 2:
				now += sim.Slot(arg % 8)
			case 3:
				n.Clear()
				clear(oracle)
			}
			// The oracle never forgets an entry; expired ones simply stop
			// counting, since the clock never runs backwards.
			until := now - 1
			for _, u := range oracle {
				if u > until {
					until = u
				}
			}
			if got := n.Until(now); got != until {
				t.Fatalf("op %d at %d: Until = %d, want %d", i/3, now, got, until)
			}
			if got := n.Yielding(now); got != (until >= now) {
				t.Fatalf("op %d at %d: Yielding = %v, want %v", i/3, now, got, until >= now)
			}
			// Own-exchange reservations never block their own responses.
			for q := int64(0); q < 6; q++ {
				want := false
				for id, u := range oracle {
					if id != q && u >= now {
						want = true
					}
				}
				if got := n.YieldingToOther(q, now); got != want {
					t.Fatalf("op %d at %d: YieldingToOther(%d) = %v, want %v", i/3, now, q, got, want)
				}
			}
		}
	})
}
