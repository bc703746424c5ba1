package mac

import (
	"math/rand"
	"testing"
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
