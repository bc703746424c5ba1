// Package beacon implements the neighbor-discovery substrate the paper
// assumes as given (§2): "the beacon containing the station MAC address
// is broadcast periodically by each station to announce its presence. A
// station knows the neighbor's MAC addresses through the exchanges of
// beacon signals." The paper further proposes carrying the station's GPS
// position in the beacon body (§5, "< 30 bits") so neighbors learn each
// other's locations for LAMM.
//
// Station wraps any protocol MAC with periodic beacon transmission and a
// beacon-built NeighborTable with per-entry ages. Under the static
// topologies of the paper the table converges to the true neighbor set
// after one beacon period; under mobility it is exactly as stale as the
// beacon period — the staleness the mobility study quantifies.
package beacon

import (
	"sort"

	"relmac/internal/frames"
	"relmac/internal/geom"
	"relmac/internal/sim"
)

// Entry is one discovered neighbor.
type Entry struct {
	// ID is the neighbor's station ID (its MAC address in the model).
	ID int
	// Pos is the location advertised in the neighbor's last beacon.
	Pos geom.Point
	// LastHeard is the slot the last beacon from this neighbor arrived.
	LastHeard sim.Slot
}

// NeighborTable accumulates beacon-discovered neighbors.
type NeighborTable struct {
	entries map[int]*Entry
}

// NewNeighborTable returns an empty table.
func NewNeighborTable() *NeighborTable {
	return &NeighborTable{entries: make(map[int]*Entry)}
}

// Observe records a beacon from the given neighbor.
func (t *NeighborTable) Observe(id int, pos geom.Point, now sim.Slot) {
	e := t.entries[id]
	if e == nil {
		e = &Entry{ID: id}
		t.entries[id] = e
	}
	e.Pos = pos
	e.LastHeard = now
}

// Lookup returns the entry for a neighbor, or nil.
func (t *NeighborTable) Lookup(id int) *Entry { return t.entries[id] }

// Neighbors returns the IDs heard within maxAge slots of now, in
// ascending order. maxAge ≤ 0 disables the age cut.
func (t *NeighborTable) Neighbors(now sim.Slot, maxAge int) []int {
	var out []int
	for id, e := range t.entries {
		if maxAge > 0 && now-e.LastHeard > sim.Slot(maxAge) {
			continue
		}
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// Expire drops entries older than maxAge slots and returns how many were
// removed.
func (t *NeighborTable) Expire(now sim.Slot, maxAge int) int {
	n := 0
	for id, e := range t.entries {
		if now-e.LastHeard > sim.Slot(maxAge) {
			delete(t.entries, id)
			n++
		}
	}
	return n
}

// Len returns the number of entries (regardless of age).
func (t *NeighborTable) Len() int { return len(t.entries) }

// Station decorates an inner protocol MAC with periodic beaconing and
// beacon-driven neighbor discovery. The inner MAC keeps full control of
// the medium; a due beacon goes out only in slots where the inner MAC
// has nothing to transmit, the station is not mid-frame, and the medium
// has been idle long enough (beacons are background maintenance traffic,
// never competition).
type Station struct {
	// Period is the beacon interval in slots.
	Period int
	// Jitter staggers the first beacon by the station ID so co-located
	// stations don't beacon in lockstep.
	Jitter int

	inner   sim.MAC
	table   *NeighborTable
	nextAt  sim.Slot
	idleRun int
}

// Wrap decorates the inner MAC. period must be positive.
func Wrap(inner sim.MAC, node, period int) *Station {
	if period < 1 {
		period = 1
	}
	return &Station{
		Period: period,
		Jitter: node % period,
		inner:  inner,
		table:  NewNeighborTable(),
		nextAt: sim.Slot(node % period),
	}
}

// Table exposes the discovered neighbor table.
func (s *Station) Table() *NeighborTable { return s.table }

// Tick implements sim.MAC.
func (s *Station) Tick(env *sim.Env) *frames.Frame {
	if env.CarrierBusy() {
		s.idleRun = 0
	} else {
		s.idleRun++
	}
	if f := s.inner.Tick(env); f != nil {
		return f
	}
	now := env.Now()
	if now >= s.nextAt && !env.Transmitting() && s.idleRun >= 2 {
		s.nextAt = now + sim.Slot(s.Period)
		return &frames.Frame{
			Type: frames.Beacon, Dst: frames.BroadcastAddr,
			MsgID: -int64(env.Node()) - 1_000_000, // outside message ID space
		}
	}
	return nil
}

// Deliver implements sim.MAC.
func (s *Station) Deliver(env *sim.Env, f *frames.Frame, rx sim.Rx) {
	if f.Type == frames.Beacon {
		src := int(f.Src)
		// The advertised position is the sender's location at transmit
		// time; with the paper's GPS-in-beacon scheme that is what the
		// frame body carries.
		s.table.Observe(src, env.Topo().Pos(src), env.Now())
		return // beacons are consumed by the discovery layer
	}
	s.inner.Deliver(env, f, rx)
}

// Submit implements sim.MAC.
func (s *Station) Submit(env *sim.Env, req *sim.Request) {
	s.inner.Submit(env, req)
}
