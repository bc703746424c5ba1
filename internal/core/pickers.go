package core

import (
	"math/rand"
	"slices"

	"relmac/internal/geom"
	"relmac/internal/sim"
	"relmac/internal/topo"
)

// newLAMMPicker builds the LAMM strategy. geo is the run's shared cover
// geometry with its per-topology MCS memo; nil selects the reference
// path, which re-derives MCS(S) and UPDATE from believed points every
// round, so equivalence tests can prove the store and the memo change no
// output bit. Cached covers are returned without copying — Poll results
// are read-only under the Picker contract.
func newLAMMPicker(locs *NoisyLocations, geo *coverStore) *lammPicker {
	return &lammPicker{locs: locs, geo: geo}
}

// bmmmPicker is BMMM's trivial strategy: poll every remaining receiver,
// retire exactly the ones that ACKed.
type bmmmPicker struct{}

// Poll implements Picker.
func (bmmmPicker) Poll(env *sim.Env, S []int) []int { return S }

// Update implements Picker: S \ S_ACK (Figure 3, sender's protocol),
// written into S's storage. acked is at most a batch round's poll set,
// small enough that a linear membership scan beats building a set.
func (bmmmPicker) Update(env *sim.Env, S []int, acked []int) []int {
	out := S[:0]
	for _, id := range S {
		if !containsInt(acked, id) {
			out = append(out, id)
		}
	}
	return out
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// lammPicker is LAMM's location-aware strategy (§5): poll only the
// minimum cover set MCS(S), and after the round retire every node whose
// coverage disk is contained in the union of the ACKing nodes' disks —
// by Theorem 3 such nodes are guaranteed to have received the data frame
// without collision even though they never sent an ACK.
//
// locs, when non-nil, supplies the sender's *believed* station locations
// instead of the true ones — the location-error study (the paper assumes
// GPS accuracy "is accurate enough"; this knob quantifies how much error
// LAMM tolerates before Theorem 3's guarantee erodes).
type lammPicker struct {
	locs *NoisyLocations
	geo  *coverStore // nil on the reference path
}

// mcsMemo caches MCS(S) results per receiver sequence for every station
// of a run: MCS(S) depends only on S and the believed positions, not on
// which station asks. The cover angles come from the run's coverStore
// and the search decides coverage on arc bitsets, but filling and
// arranging the table and searching it — the exact branch and bound up
// to geom.ExactMCSLimit receivers, the greedy rule beyond — is still the
// most expensive computation a LAMM station performs, and the same
// remainder set recurs across the rounds and retries of a message: about
// a quarter of the lookups on the Figure 6(a) density runs hit, and
// dropping the memo made those runs ~10 % slower. The key encodes the
// *ordered* ID sequence, not the set: MinCoverSet returns the first
// minimal cover its enumeration order finds, and that order follows the
// input order, so an order-insensitive key could hand back a different
// (equally minimal) cover than the uncached computation — changing
// output bits. Believed positions are fixed per topology snapshot
// (NoisyLocations materialises once), so entries stay valid until the
// topology pointer changes.
//
// The covers are stored back to back in one append-only arena, so a
// miss costs its key and no cover slice of its own. A returned cover is
// capped at its length and never overwritten; an arena the appends
// outgrow stays alive while a cover in it is in use.
type mcsMemo struct {
	topo   *topo.Topology // snapshot the entries were computed against
	m      map[string]memoSpan
	covers []int
	key    []byte
}

// memoSpan locates one stored cover in the arena.
type memoSpan struct{ off, n int32 }

// lookup returns the memoised cover for the sequence S, resetting the
// cache when the topology snapshot changed.
func (c *mcsMemo) lookup(tp *topo.Topology, S []int) ([]int, bool) {
	if c.topo != tp {
		c.topo = tp
		c.m = make(map[string]memoSpan)
		c.covers = nil
		return nil, false
	}
	sp, ok := c.m[string(c.encode(S))]
	if !ok {
		return nil, false
	}
	end := int(sp.off + sp.n)
	return c.covers[sp.off:end:end], true
}

// store records a copy of the cover computed for the sequence S and
// returns it.
func (c *mcsMemo) store(S, cover []int) []int {
	off := len(c.covers)
	c.covers = append(c.covers, cover...)
	end := len(c.covers)
	c.m[string(c.encode(S))] = memoSpan{int32(off), int32(len(cover))}
	return c.covers[off:end:end]
}

// encode packs the ID sequence into the reused key buffer.
func (c *mcsMemo) encode(S []int) []byte {
	k := slices.Grow(c.key[:0], 4*len(S))
	for _, id := range S {
		k = append(k, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	c.key = k
	return k
}

// coverStore is the cover geometry every LAMM station of one run
// shares. For each station i it keeps the cover angles
// CoverAngle(pos(i), pos(j), r) of its neighbours j, index-parallel to
// topo.Neighbors(i) — O(Σ degree) entries, each computed once per
// topology snapshot — and their arc arrangement, on which UPDATE decides
// coverage. Rows materialise on first use and are dropped when the
// topology pointer changes, the rule mcsMemo follows; believed positions
// are fixed per snapshot, so a row never goes stale in between.
//
// The store is byte-identical to computing the angles on demand: every
// entry is the CoverAngle call the point-based path makes, with the same
// argument order. A pair missing from the neighbour list is computed
// directly, because topo admits neighbours by Dist2 <= r*r while
// CoverAngle rejects by Hypot > r — the tests can disagree at the range
// edge, and believed positions need not respect true neighbourhoods.
// geom.BeyondCover spares that call for pairs clearly out of range. The
// same fallback gives a station paired with itself the full arc UPDATE
// relies on when an ACKer is in S.
//
// The store also holds the run's MCS memo. The table, its sort scratch
// and the buffers below it are shared scratch: stations run one at a
// time, and neither Poll nor Update keeps scratch across calls. A
// factory holding a coverStore therefore serves one engine at a time.
type coverStore struct {
	locs  *NoisyLocations
	topo  *topo.Topology // snapshot the rows were computed against
	rows  []coverRow
	memo  mcsMemo
	table geom.CoverTable
	slot  []int32  // slot[id]: 1 + id's index in the S being filled or in acked
	set   []int32  // set[b]: 1 + the row index that last set column b
	seen  []uint32 // seen[id] == gen: ACKer id is on the row covered walks
	gen   uint32
	pts   []geom.Point // believed positions of the S being filled
	acc   []uint64
	arcs  []geom.Arc
	use   []bool
	segs  []geom.Arc
	cover []int // a computed cover on its way into the memo
	rem   []int // update's result

	floatCovers int // UPDATE tests the arrangements left to the float sweep
}

// coverRow is one station's stored CoverAngle results and their
// arrangement.
type coverRow struct {
	ready  bool
	angles []coverAngle
	arr    geom.Arrangement
}

// coverAngle is one stored CoverAngle result.
type coverAngle struct {
	arc geom.Arc
	ok  bool
}

func newCoverStore(locs *NoisyLocations) *coverStore { return &coverStore{locs: locs} }

// bind points the store at the environment's topology snapshot,
// dropping every row when it changed. Row capacity is kept, so a
// mobility run re-fills rows in place.
func (s *coverStore) bind(env *sim.Env) {
	tp := env.Topo()
	if s.topo == tp {
		return
	}
	s.topo = tp
	if len(s.rows) != tp.N() {
		s.rows = make([]coverRow, tp.N())
		s.slot = make([]int32, tp.N())
		s.seen = make([]uint32, tp.N())
	}
	for i := range s.rows {
		s.rows[i].ready = false
	}
}

// row returns station i's neighbours and its row, materialising the row
// on first use after a bind.
func (s *coverStore) row(env *sim.Env, i int) ([]int, *coverRow) {
	nb, row := s.topo.Neighbors(i), &s.rows[i]
	if !row.ready {
		p := believedPos(s.locs, env, i)
		row.angles = row.angles[:0]
		arcs, use := s.arcs[:0], s.use[:0]
		for _, q := range nb {
			a, ok := geom.CoverAngle(p, believedPos(s.locs, env, q), s.topo.Radius())
			row.angles = append(row.angles, coverAngle{a, ok})
			arcs, use = append(arcs, a), append(use, ok)
		}
		s.table.Arrange(&row.arr, arcs, use)
		s.arcs, s.use = arcs, use
		row.ready = true
	}
	return nb, row
}

// angle returns CoverAngle(pos(i), pos(j), r) for a bound store; nb and
// row are station i's, from s.row.
func (s *coverStore) angle(env *sim.Env, i, j int, nb []int, row *coverRow) (geom.Arc, bool) {
	if k, found := slices.BinarySearch(nb, j); found {
		return row.angles[k].arc, row.angles[k].ok
	}
	return s.direct(believedPos(s.locs, env, i), believedPos(s.locs, env, j))
}

// direct is CoverAngle(p, q, r) for a pair off the neighbour lists.
func (s *coverStore) direct(p, q geom.Point) (geom.Arc, bool) {
	if geom.BeyondCover(p, q, s.topo.Radius()) {
		return geom.Arc{}, false
	}
	return geom.CoverAngle(p, q, s.topo.Radius())
}

// minCoverSet computes MCS(S) from the stored angles. Each member's row
// sets the pairs with its neighbours, found through slot; the remaining
// pairs are computed directly. The result is the table's buffer, valid
// until the store's next use.
func (s *coverStore) minCoverSet(env *sim.Env, S []int) []int {
	s.bind(env)
	t := &s.table
	t.Reset(len(S))
	s.pts = s.pts[:0]
	for b, j := range S {
		s.slot[j] = int32(b + 1)
		s.pts = append(s.pts, believedPos(s.locs, env, j))
	}
	s.set = append(s.set[:0], make([]int32, len(S))...)
	for a, i := range S {
		nb, row := s.row(env, i)
		for k, q := range nb {
			if b := int(s.slot[q]) - 1; b >= 0 {
				t.Set(a, b, row.angles[k].arc, row.angles[k].ok)
				s.set[b] = int32(a + 1)
			}
		}
		for b := range S {
			if b != a && s.set[b] != int32(a+1) {
				if arc, ok := s.direct(s.pts[a], s.pts[b]); ok {
					t.Set(a, b, arc, ok)
				}
			}
		}
	}
	for _, j := range S {
		s.slot[j] = 0
	}
	return t.MinCoverSet()
}

// update is geom.Update over the stored angles: the members of S whose
// disks the ACKers' disks do not cover. The ACKers are marked in slot
// for the duration, as minCoverSet marks S. The result is the store's
// buffer, valid until its next use.
func (s *coverStore) update(env *sim.Env, S, acked []int) []int {
	s.bind(env)
	for k, j := range acked {
		s.slot[j] = int32(k + 1)
	}
	out := s.rem[:0]
	for _, i := range S {
		if !s.covered(env, i, acked) {
			out = append(out, i)
		}
	}
	for _, j := range acked {
		s.slot[j] = 0
	}
	s.rem = out
	return out
}

// covered reports whether the ACKers' disks cover station i's, the
// Theorem 4 test geom.CircleCovered makes on their cover angles. The
// ACKers are the stations update marked in slot. It is decided on i's
// arrangement unless an ACKer's angle is not in it (a believed position
// off the neighbour list) or the bitsets cannot tell; then the float
// sweep decides.
func (s *coverStore) covered(env *sim.Env, i int, acked []int) bool {
	if s.slot[i] != 0 {
		return true // a station's cover angle for itself is the full arc
	}
	nb, row := s.row(env, i)
	acc := append(s.acc[:0], make([]uint64, row.arr.Words())...)
	s.acc = acc
	// One walk of i's row finds the ACKers on it; the rest are off it.
	s.gen++
	onRow := 0
	for k, q := range nb {
		if s.slot[q] != 0 {
			s.seen[q] = s.gen
			onRow++
			if row.angles[k].ok {
				row.arr.Or(acc, k)
			}
		}
	}
	swept := false
	for _, j := range acked {
		if onRow == len(acked) {
			break
		}
		if s.seen[j] == s.gen {
			continue
		}
		if a, ok := s.direct(believedPos(s.locs, env, i), believedPos(s.locs, env, j)); ok {
			if a.IsFull() {
				return true
			}
			swept = true
		}
	}
	if !swept {
		if covered, sure := row.arr.Covered(acc); sure {
			return covered
		}
	}
	s.floatCovers++
	arcs := s.arcs[:0]
	for _, j := range acked {
		if a, ok := s.angle(env, i, j, nb, row); ok {
			arcs = append(arcs, a)
		}
	}
	var covered bool
	covered, s.segs = geom.CircleCovered(arcs, s.segs)
	s.arcs = arcs
	return covered
}

// poll is MCS(S) as station IDs, through the memo.
func (s *coverStore) poll(env *sim.Env, S []int) []int {
	if out, ok := s.memo.lookup(env.Topo(), S); ok {
		return out
	}
	s.cover = s.cover[:0]
	for _, idx := range s.minCoverSet(env, S) {
		s.cover = append(s.cover, S[idx])
	}
	return s.memo.store(S, s.cover)
}

// believedPos returns the position the sender believes station id has:
// the NoisyLocations fix when locs is set, the true position otherwise.
func believedPos(locs *NoisyLocations, env *sim.Env, id int) geom.Point {
	if locs != nil {
		return locs.Pos(env, id)
	}
	return env.Topo().Pos(id)
}

// points returns the believed positions of the stations in ids.
func (p *lammPicker) points(env *sim.Env, ids []int) []geom.Point {
	pts := make([]geom.Point, len(ids))
	for k, id := range ids {
		pts[k] = believedPos(p.locs, env, id)
	}
	return pts
}

// Poll implements Picker using the MCS(S) procedure (Theorem 2). The
// station knows its neighbors' locations from GPS-bearing beacons; here
// that knowledge is the topology snapshot (optionally jittered).
func (p *lammPicker) Poll(env *sim.Env, S []int) []int {
	if len(S) <= 1 {
		return S
	}
	if p.geo == nil {
		sel := geom.MinCoverSet(p.points(env, S), env.Topo().Radius())
		out := make([]int, len(sel))
		for k, idx := range sel {
			out[k] = S[idx]
		}
		return out
	}
	return p.geo.poll(env, S)
}

// Update implements Picker using the angle-based UPDATE(S, S_ACK)
// procedure (Theorem 4).
func (p *lammPicker) Update(env *sim.Env, S []int, acked []int) []int {
	if len(acked) == 0 {
		return S
	}
	if p.geo != nil {
		return append(S[:0], p.geo.update(env, S, acked)...)
	}
	rem := geom.Update(p.points(env, S), p.points(env, acked), env.Topo().Radius())
	out := make([]int, len(rem))
	for k, idx := range rem {
		out[k] = S[idx]
	}
	return out
}

// NoisyLocations supplies per-station believed positions: each station's
// advertised GPS fix is its true position plus i.i.d. Gaussian error of
// the given standard deviation. All stations share the same erroneous
// fix for a given peer (the error originates at that peer's receiver and
// propagates through its beacons), so the table is computed once per
// topology.
type NoisyLocations struct {
	// Sigma is the location error standard deviation, in the same unit
	// as the topology coordinates (the unit square). For scale: the
	// paper's 802.11b range of up to 500 ft maps to radius 0.2, so
	// Sigma = 0.01 corresponds to GPS error of roughly 25 ft.
	Sigma float64
	// Seed makes the error draw reproducible.
	Seed int64

	pts []geom.Point
}

// Pos returns the believed position of station id, lazily materialising
// the jittered table from the environment's topology.
func (n *NoisyLocations) Pos(env *sim.Env, id int) geom.Point {
	if n.pts == nil {
		tp := env.Topo()
		rng := rand.New(rand.NewSource(n.Seed))
		n.pts = make([]geom.Point, tp.N())
		for i := range n.pts {
			p := tp.Pos(i)
			n.pts[i] = geom.Pt(p.X+rng.NormFloat64()*n.Sigma, p.Y+rng.NormFloat64()*n.Sigma)
		}
	}
	return n.pts[id]
}
