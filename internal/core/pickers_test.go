package core

// White-box tests of the MCS memo: hits return the stored cover, the
// key is order-sensitive (MinCoverSet's result depends on input
// enumeration order, so a set-keyed cache would change output bits),
// and a topology swap invalidates everything.

import (
	"math/rand"
	"testing"

	"relmac/internal/sim"
	"relmac/internal/topo"
)

func memoTopo(seed int64) *topo.Topology {
	return topo.Uniform(20, 0.3, rand.New(rand.NewSource(seed)))
}

// newTestEngine returns a throwaway engine over tp and station 0's
// environment; the pickers only consult env.Topo().
func newTestEngine(tp *topo.Topology) (*sim.Engine, *sim.Env) {
	var env *sim.Env
	eng := sim.New(sim.Config{Topo: tp})
	eng.AttachMACs(func(node int, ev *sim.Env) sim.MAC {
		if node == 0 {
			env = ev
		}
		return nil
	})
	return eng, env
}

func TestMCSMemoHitAndMiss(t *testing.T) {
	m := &mcsMemo{}
	tp := memoTopo(1)

	if _, ok := m.lookup(tp, []int{1, 2, 3}); ok {
		t.Fatal("empty memo reported a hit")
	}
	m.store([]int{1, 2, 3}, []int{2})
	got, ok := m.lookup(tp, []int{1, 2, 3})
	if !ok || len(got) != 1 || got[0] != 2 {
		t.Fatalf("lookup = %v, %v; want [2], true", got, ok)
	}
}

func TestMCSMemoKeyIsOrderSensitive(t *testing.T) {
	m := &mcsMemo{}
	tp := memoTopo(1)
	m.lookup(tp, []int{1, 2}) // bind the topology snapshot
	m.store([]int{1, 2}, []int{1})
	if _, ok := m.lookup(tp, []int{2, 1}); ok {
		t.Fatal("reversed sequence hit the cache; the key must encode order")
	}
	// The fixed 4-byte-per-ID encoding keeps sequences of different
	// lengths and values from ever sharing a key.
	m.store([]int{258}, []int{258})
	if _, ok := m.lookup(tp, []int{2, 1}); ok {
		t.Fatal("distinct sequences collided in the key encoding")
	}
}

func TestMCSMemoTopologySwapInvalidates(t *testing.T) {
	m := &mcsMemo{}
	tp1, tp2 := memoTopo(1), memoTopo(2)
	m.lookup(tp1, []int{1, 2})
	m.store([]int{1, 2}, []int{1})
	if _, ok := m.lookup(tp2, []int{1, 2}); ok {
		t.Fatal("entry survived a topology swap")
	}
	// And the swap re-binds: the old topology is now a miss too.
	if _, ok := m.lookup(tp1, []int{1, 2}); ok {
		t.Fatal("entry resurrected after re-binding to the old topology")
	}
}

// TestLAMMPickerMemoMatchesUncached pins the cache's transparency at
// the Poll level: a memoized picker and a memoless one must return the
// same cover for the same sequence, including after repeats.
func TestLAMMPickerMemoMatchesUncached(t *testing.T) {
	tp := memoTopo(3)
	// Poll only consults env.Topo(); build a throwaway engine env.
	_, env := newTestEngine(tp)

	cached := newLAMMPicker(nil, newCoverStore(nil))
	plain := newLAMMPicker(nil, nil)
	seqs := [][]int{{1, 4, 7, 9}, {1, 4, 7, 9}, {9, 7, 4, 1}, {2, 3}, {1, 4, 7, 9}}
	for trial, S := range seqs {
		a := cached.Poll(env, S)
		b := plain.Poll(env, S)
		if len(a) != len(b) {
			t.Fatalf("trial %d: covers diverged: %v vs %v", trial, a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("trial %d: covers diverged: %v vs %v", trial, a, b)
			}
		}
		if len(a) == 0 || len(a) > len(S) {
			t.Fatalf("trial %d: degenerate cover %v for %v", trial, a, S)
		}
		for _, id := range a {
			if !containsInt(S, id) {
				t.Fatalf("trial %d: cover member %d outside S %v", trial, id, S)
			}
		}
	}
}
