package fault

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"relmac/internal/sim"
)

// refTrajectory steps a Gilbert–Elliott chain one slot at a time from
// the good state at slot -1, drawing each transition from rng. It is the
// definition of the channel, kept here as the oracle the holding-time
// sampler must match in law.
func refTrajectory(g GilbertElliott, slots int, rng *rand.Rand) []bool {
	out := make([]bool, slots)
	bad := false
	for t := range out {
		u := rng.Float64()
		if bad {
			bad = u >= g.PBadGood
		} else {
			bad = u < g.PGoodBad
		}
		out[t] = bad
	}
	return out
}

// geStats summarises a set of per-link trajectories: bad slots past the
// burn-in, and the lengths of the good and bad runs that start and end
// inside the window.
type geStats struct {
	badSlots, slots int
	runs            [2]map[int]int // run-length histogram, good (0) and bad (1)
	burstSum        int
	bursts          int
}

func collectStats(trajs [][]bool, burn int) geStats {
	st := geStats{runs: [2]map[int]int{{}, {}}}
	for _, tr := range trajs {
		for t := burn; t < len(tr); t++ {
			st.slots++
			if tr[t] {
				st.badSlots++
			}
		}
		start := -1 // the first run began before slot 0; skip it
		for t := 1; t < len(tr); t++ {
			if tr[t] == tr[t-1] {
				continue
			}
			if start >= 0 {
				n, state := t-start, tr[t-1]
				if state {
					st.runs[1][n]++
					st.burstSum += n
					st.bursts++
				} else {
					st.runs[0][n]++
				}
			}
			start = t
		}
	}
	return st
}

// chiSquare2 runs the two-sample chi-square test on two run-length
// histograms, merging adjacent lengths until each bin holds at least 20
// runs in total. It returns the statistic and its degrees of freedom.
func chiSquare2(a, b map[int]int) (stat float64, df int) {
	var lens []int
	seen := map[int]bool{}
	for _, h := range []map[int]int{a, b} {
		for n := range h {
			if !seen[n] {
				seen[n] = true
				lens = append(lens, n)
			}
		}
	}
	sort.Ints(lens)
	type bin struct{ a, b float64 }
	var bins []bin
	var cur bin
	for _, n := range lens {
		cur.a += float64(a[n])
		cur.b += float64(b[n])
		if cur.a+cur.b >= 20 {
			bins = append(bins, cur)
			cur = bin{}
		}
	}
	if cur.a+cur.b > 0 {
		if len(bins) == 0 {
			bins = append(bins, cur)
		} else {
			bins[len(bins)-1].a += cur.a
			bins[len(bins)-1].b += cur.b
		}
	}
	var na, nb float64
	for _, x := range bins {
		na += x.a
		nb += x.b
	}
	if na == 0 || nb == 0 {
		return 0, 0
	}
	ka, kb := math.Sqrt(nb/na), math.Sqrt(na/nb)
	for _, x := range bins {
		d := ka*x.a - kb*x.b
		stat += d * d / (x.a + x.b)
	}
	return stat, len(bins) - 1
}

// chiCrit is the 99.9% quantile of chi-square with df degrees of
// freedom, by the Wilson–Hilferty approximation.
func chiCrit(df int) float64 {
	if df <= 0 {
		return 0
	}
	k := float64(df)
	c := 1 - 2/(9*k) + 3.09*math.Sqrt(2/(9*k))
	return k * c * c * c
}

// within reports whether |got-want| is inside z standard errors; a zero
// standard error demands equality.
func within(got, want, se float64) bool {
	const z = 4
	return math.Abs(got-want) <= z*se+1e-12
}

// TestFaultGELaw checks that the holding-time sampler realises the same
// Markov chain as per-slot stepping: P(bad at slot 0), the stationary
// bad fraction, the mean burst length and the holding-time histograms of
// both states agree with the reference chain within sampling error.
func TestFaultGELaw(t *testing.T) {
	const links, slots, burn = 200, 10000, 1000
	for _, g := range []GilbertElliott{
		{PGoodBad: 0.005, PBadGood: 0.25, PERBad: 0.5},
		{PGoodBad: 0.15, PBadGood: 0.25, PERBad: 1},
		{PGoodBad: 1, PBadGood: 1, PERBad: 1},
		{PGoodBad: 0, PBadGood: 0.25, PERGood: 0.1},
	} {
		inj := mustInjector(t, Config{GE: g, Seed: 2002})
		rng := rand.New(rand.NewSource(818))
		var got, want [][]bool
		states := make([]geLink, links)
		for l := range states {
			states[l] = newLink
			key := linkKey(l, l+1)
			tr := make([]bool, slots)
			for s := range tr {
				tr[s] = inj.advance(&states[l], key, sim.Slot(s))
			}
			got = append(got, tr)
			want = append(want, refTrajectory(g, slots, rng))
		}
		gs, ws := collectStats(got, burn), collectStats(want, burn)

		// P(bad at slot 0) over many independent links: Bernoulli(PGoodBad).
		const first = 100000
		bad0 := 0
		for l := 0; l < first; l++ {
			if st := newLink; inj.advance(&st, linkKey(l, 0), 0) {
				bad0++
			}
		}
		p0, a := float64(bad0)/first, g.PGoodBad
		if !within(p0, a, math.Sqrt(a*(1-a)/first)) {
			t.Errorf("%+v: P(bad at 0) = %.5f, want %.5f", g, p0, a)
		}

		// Stationary bad fraction. Slots of one link are correlated with
		// lag-one coefficient 1-a-b, which inflates the binomial variance
		// by (1+λ)/(1-λ).
		pi, lam := 0.0, 0.0
		if a > 0 {
			pi, lam = a/(a+g.PBadGood), 1-a-g.PBadGood
		}
		se := math.Sqrt(pi * (1 - pi) / float64(gs.slots) * (1 + lam) / (1 - lam))
		gf, wf := float64(gs.badSlots)/float64(gs.slots), float64(ws.badSlots)/float64(ws.slots)
		if !within(gf, wf, math.Sqrt2*se) {
			t.Errorf("%+v: bad fraction %.5f, reference %.5f (theory %.5f)", g, gf, wf, pi)
		}

		// Mean burst length: Geometric(b), variance (1-b)/b².
		if gs.bursts > 0 || ws.bursts > 0 {
			b := g.PBadGood
			gm, wm := float64(gs.burstSum)/float64(gs.bursts), float64(ws.burstSum)/float64(ws.bursts)
			sd := math.Sqrt((1 - b) / (b * b))
			if !within(gm, wm, sd*math.Sqrt(1/float64(gs.bursts)+1/float64(ws.bursts))) {
				t.Errorf("%+v: mean burst %.3f slots, reference %.3f (theory %.3f)", g, gm, wm, 1/b)
			}
		}

		for state, name := range []string{"good", "bad"} {
			stat, df := chiSquare2(gs.runs[state], ws.runs[state])
			if stat > chiCrit(df) {
				t.Errorf("%+v: %s holding times differ from reference: chi2 = %.1f on %d df (crit %.1f)",
					g, name, stat, df, chiCrit(df))
			}
		}

		if g.PGoodBad == 0 {
			// The chain never leaves good: one draw per link, and frames
			// are erased at the good-state rate alone.
			if k := states[0].k; k != 1 {
				t.Errorf("%+v: %d holding-time draws on a chain that never flips", g, k)
			}
			const n = 20000
			erased := 0
			for s := sim.Slot(0); s < n; s++ {
				if erase1(inj, 0, 1, s) {
					erased++
				}
			}
			per := g.PERGood
			if got := float64(erased) / n; !within(got, per, math.Sqrt(per*(1-per)/n)) {
				t.Errorf("%+v: good-state erasure rate %.4f, want %.4f", g, got, per)
			}
		}
	}
}

// TestFaultGELongGap checks that catching a link up costs work per fade,
// not per slot: a first query 2^40 slots in, on a chain that fades about
// once per 10^9 slots, takes a few thousand holding-time draws where a
// per-slot stepper would take 2^40.
func TestFaultGELongGap(t *testing.T) {
	inj := mustInjector(t, Config{GE: GilbertElliott{PGoodBad: 1e-9, PBadGood: 0.25, PERBad: 1}, Seed: 11})
	st := newLink
	inj.advance(&st, linkKey(4, 2), 1<<40)
	// Expected draws: two per fade, 2^40 · 1e-9 ≈ 1100 fades.
	if k := st.k; k < 100 || k > 10000 {
		t.Errorf("holding-time draws = %d for a 2^40-slot gap, want about 2200", k)
	}
}
