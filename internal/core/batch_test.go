package core_test

import (
	"strings"
	"testing"

	"relmac/internal/core"
	"relmac/internal/frames"
	"relmac/internal/geom"
	"relmac/internal/mac"
	"relmac/internal/prototest"
	"relmac/internal/sim"
)

const r = 0.2

func bmmmFactory() prototest.Factory {
	f := core.NewBMMM(mac.DefaultConfig())
	return func(n int, e *sim.Env) sim.MAC { return f(n, e) }
}

func lammFactory() prototest.Factory {
	f := core.NewLAMM(mac.DefaultConfig())
	return func(n int, e *sim.Env) sim.MAC { return f(n, e) }
}

func TestBMMMCleanBatchSequence(t *testing.T) {
	// Three receivers: RTS/CTS ×3, DATA, RAK/ACK ×3 — all in one
	// contention phase (Figure 2, right side).
	pts := prototest.Star(3, r, 0.7)
	run := prototest.New(pts, r, bmmmFactory())
	run.Multicast(5, 0, []int{1, 2, 3}, 100)
	run.Steps(60)
	want := "RTS CTS RTS CTS RTS CTS DATA RAK ACK RAK ACK RAK ACK"
	if got := run.Trace.TxSeq(); got != want {
		t.Fatalf("sequence = %q, want %q", got, want)
	}
	rec := run.Record(1)
	if !rec.Completed || rec.Delivered != 3 {
		t.Fatalf("record = %+v", rec)
	}
	if rec.Contentions != 1 {
		t.Errorf("BMMM must finish a clean batch in ONE contention phase, got %d", rec.Contentions)
	}
}

// txSpan is one transmission as the channel saw it: its airtime and the
// NAV its Duration field announces beyond it.
type txSpan struct {
	start, end sim.Slot
	dur        int
}

// spanTracer records every transmission's span.
type spanTracer struct{ tx []txSpan }

func (s *spanTracer) Kinds() sim.KindSet { return sim.Kinds(sim.EvFrameTx) }

func (s *spanTracer) Observe(ev *sim.Event) {
	s.tx = append(s.tx, txSpan{ev.Start, ev.End, ev.Frame.Duration})
}

func TestBMMMTimingNoIdleGaps(t *testing.T) {
	// Inside the batch the medium must never idle: every slot from the
	// first RTS to the last ACK carries a transmission, and every frame's
	// Duration reserves the medium exactly to the batch's last slot. The
	// MACs take their airtimes from the engine, so a longer data frame
	// moves the RAK/ACK tail and every reservation by the extra slots.
	for _, tm := range []frames.Timing{frames.DefaultTiming(), {Control: 1, Data: 8}} {
		spans := &spanTracer{}
		pts := prototest.Star(2, r, 0.7)
		run := prototest.New(pts, r, bmmmFactory(), prototest.WithTiming(tm),
			func(c *sim.Config) { c.Observers = append(c.Observers, spans) })
		run.Multicast(5, 0, []int{1, 2}, 100)
		run.Steps(40)
		// Expected: RTS@5 CTS@6 RTS@7 CTS@8 DATA@9..8+D RAK@9+D ACK@10+D
		// RAK@11+D ACK@12+D.
		d := sim.Slot(tm.Data)
		want := []sim.Slot{5, 6, 7, 8, 9, 9 + d, 10 + d, 11 + d, 12 + d}
		if len(spans.tx) != len(want) {
			t.Fatalf("timing %+v: %d transmissions %v, want starts %v", tm, len(spans.tx), spans.tx, want)
		}
		last := want[len(want)-1]
		for i, s := range spans.tx {
			if s.start != want[i] {
				t.Fatalf("timing %+v: tx %d starts at %d, want %d (all: %v)", tm, i, s.start, want[i], spans.tx)
			}
			if s.end+sim.Slot(s.dur) != last {
				t.Errorf("timing %+v: tx %d [%d,%d] reserves to %d, want the batch end %d",
					tm, i, s.start, s.end, s.end+sim.Slot(s.dur), last)
			}
		}
		if rec := run.Record(1); !rec.Completed || rec.Delivered != 2 {
			t.Errorf("timing %+v: record = %+v", tm, rec)
		}
	}
}

func TestBMMMDurationFieldsChain(t *testing.T) {
	// The Duration fields chain across the batch (TestBMMMTimingNoIdleGaps
	// checks each reservation's end); here their effect is checked: a
	// fourth station in range must stay silent for the whole batch.
	pts4 := append(prototest.Star(3, r, 0.7), geom.Pt(0.5, 0.55))
	run := prototest.New(pts4, r, bmmmFactory())
	run.Multicast(5, 0, []int{1, 2, 3}, 1000)
	// Station 4 wants to unicast mid-batch; it must wait out the batch
	// (ends at slot 23: RTS@5..CTS@10, DATA@11..15, RAK/ACK@16..21).
	run.Unicast(7, 4, 1, 1000)
	run.Steps(200)
	for _, e := range run.Trace.Events {
		if strings.Contains(e, "TX RTS 4→") {
			v := 0
			for _, c := range e {
				if c < '0' || c > '9' {
					break
				}
				v = v*10 + int(c-'0')
			}
			if v <= 21 {
				t.Fatalf("station 4 transmitted at slot %d inside the batch window", v)
			}
		}
	}
	if !run.Record(1).Completed || !run.Record(2).Completed {
		t.Error("both messages should complete")
	}
}

func TestBMMMRetriesMissingReceiver(t *testing.T) {
	// One receiver's data copy is jammed: it won't ACK; the second round
	// polls only that receiver and delivers.
	pts := []geom.Point{
		geom.Pt(0.5, 0.5),  // 0 sender
		geom.Pt(0.64, 0.5), // 1 receiver east
		geom.Pt(0.36, 0.5), // 2 receiver west
		geom.Pt(0.22, 0.5), // 3 jammer: hears 2 only
	}
	run := prototest.New(pts, r, bmmmFactory())
	// Batch: RTS@5 CTS@6 RTS@7 CTS@8 DATA@9..13 → jam slot 11 at node 2.
	run.Engine.SetMAC(3, prototest.NewJammer().JamAt(11))
	run.Multicast(5, 0, []int{1, 2}, 500)
	run.Steps(500)
	rec := run.Record(1)
	if !rec.Completed || rec.Delivered != 2 {
		t.Fatalf("record = %+v", rec)
	}
	if rec.Contentions != 2 {
		t.Errorf("one retry round expected: contentions = %d", rec.Contentions)
	}
	seq := run.Trace.TxSeq()
	if got := strings.Count(seq, "DATA"); got != 2 {
		t.Errorf("expected a second data transmission for the missed receiver: %q", seq)
	}
}

func TestBMMMZeroCTSBacksOff(t *testing.T) {
	// Both receivers yield to a foreign reservation: no CTS at all, so
	// the sender must back off WITHOUT transmitting the data frame.
	pts := []geom.Point{
		geom.Pt(0.5, 0.5),  // 0 sender
		geom.Pt(0.64, 0.5), // 1 receiver
		geom.Pt(0.66, 0.5), // 2 receiver
		geom.Pt(0.8, 0.5),  // 3 jammer raising their NAV (hidden from 0)
	}
	run := prototest.New(pts, r, bmmmFactory())
	run.Engine.SetMAC(3, prototest.NewJammer().JamFrameAt(2, &frames.Frame{
		Type: frames.CTS, Dst: frames.Addr(3), Duration: 40, MsgID: -9,
	}))
	run.Multicast(5, 0, []int{1, 2}, 600)
	run.Steps(600)
	rec := run.Record(1)
	if !rec.Completed {
		t.Fatal("message should complete after the NAV expires")
	}
	if rec.Contentions < 2 {
		t.Errorf("zero-CTS round must force a new contention phase: %d", rec.Contentions)
	}
	// No DATA before slot 42 (NAV expiry).
	for _, e := range run.Trace.Events {
		if strings.Contains(e, "TX DATA 0→") {
			v := 0
			for _, c := range e {
				if c < '0' || c > '9' {
					break
				}
				v = v*10 + int(c-'0')
			}
			if v <= 42 {
				t.Fatalf("data sent at slot %d despite zero CTS", v)
			}
		}
	}
}

func TestBMMMPartialCTSStillSendsData(t *testing.T) {
	// Figure 3: data goes out if at least ONE CTS arrived. Receiver 2
	// yields (foreign NAV) and never CTSes, but receiver 1 does.
	pts := []geom.Point{
		geom.Pt(0.5, 0.5),  // 0 sender
		geom.Pt(0.64, 0.5), // 1 receiver (responds)
		geom.Pt(0.5, 0.64), // 2 receiver (silenced by jammer)
		geom.Pt(0.5, 0.78), // 3 jammer: hears 2 only
	}
	run := prototest.New(pts, r, bmmmFactory())
	run.Engine.SetMAC(3, prototest.NewJammer().JamFrameAt(2, &frames.Frame{
		Type: frames.CTS, Dst: frames.Addr(3), Duration: 30, MsgID: -9,
	}))
	run.Multicast(5, 0, []int{1, 2}, 600)
	run.Steps(600)
	rec := run.Record(1)
	if !rec.Completed || rec.Delivered != 2 {
		t.Fatalf("record = %+v", rec)
	}
	// Data must have been sent in the FIRST round (receiver 1 CTSed):
	// first DATA at slot 9.
	foundEarlyData := false
	for _, e := range run.Trace.Events {
		if strings.HasPrefix(e, "9 TX DATA") {
			foundEarlyData = true
		}
	}
	if !foundEarlyData {
		t.Errorf("data should go out on the first round with one CTS: %v", run.Trace.Events[:12])
	}
}

func TestBMMMReceiverACKsWithoutCTS(t *testing.T) {
	// A receiver that never managed to CTS but did decode the data frame
	// must still ACK its RAK (receiver's protocol, Figure 3) — same
	// scenario as above; the silenced receiver 2 got the data and the
	// first round's RAK@? — its NAV (40 slots) outlives the batch, but
	// the RAK is addressed to it within the same exchange... its NAV was
	// set by the foreign jam, so it must NOT ACK until that NAV expires;
	// the second round (after expiry) collects it.
	pts := []geom.Point{
		geom.Pt(0.5, 0.5),
		geom.Pt(0.64, 0.5),
		geom.Pt(0.5, 0.64),
		geom.Pt(0.5, 0.78),
	}
	run := prototest.New(pts, r, bmmmFactory())
	run.Engine.SetMAC(3, prototest.NewJammer().JamFrameAt(2, &frames.Frame{
		Type: frames.CTS, Dst: frames.Addr(3), Duration: 300, MsgID: -9,
	}))
	run.Multicast(5, 0, []int{1, 2}, 2000)
	run.Steps(2000)
	rec := run.Record(1)
	if !rec.Completed || rec.Delivered != 2 {
		t.Fatalf("record = %+v", rec)
	}
	if rec.Contentions < 2 {
		t.Errorf("silenced receiver forces extra rounds: %d", rec.Contentions)
	}
}

func TestLAMMCoLocatedReceiversPollOnce(t *testing.T) {
	// Three receivers at the same spot: the minimum cover set is one
	// node; one RTS/CTS and one RAK/ACK serve all three (Theorem 3).
	pts := []geom.Point{
		geom.Pt(0.5, 0.5),
		geom.Pt(0.6, 0.5), geom.Pt(0.6, 0.5), geom.Pt(0.6, 0.5),
	}
	run := prototest.New(pts, r, lammFactory())
	run.Multicast(5, 0, []int{1, 2, 3}, 100)
	run.Steps(60)
	want := "RTS CTS DATA RAK ACK"
	if got := run.Trace.TxSeq(); got != want {
		t.Fatalf("sequence = %q, want %q", got, want)
	}
	rec := run.Record(1)
	if !rec.Completed || rec.Delivered != 3 || rec.Contentions != 1 {
		t.Fatalf("record = %+v", rec)
	}
}

func TestLAMMFewerFramesThanBMMM(t *testing.T) {
	// Three co-located pairs of receivers: the minimum cover set picks
	// one node per location (3 of 6), so LAMM uses strictly fewer
	// control frames than BMMM. (Collinear near-co-located points would
	// NOT work: with equal radii a disk can only be covered by nodes
	// spread around it, never from along a single line.)
	cluster := []geom.Point{
		geom.Pt(0.5, 0.5),
		geom.Pt(0.58, 0.5), geom.Pt(0.58, 0.5),
		geom.Pt(0.5, 0.58), geom.Pt(0.5, 0.58),
		geom.Pt(0.44, 0.44), geom.Pt(0.44, 0.44),
	}
	dests := []int{1, 2, 3, 4, 5, 6}

	runB := prototest.New(cluster, r, bmmmFactory())
	runB.Multicast(5, 0, dests, 1000)
	runB.Steps(300)
	runL := prototest.New(cluster, r, lammFactory())
	runL.Multicast(5, 0, dests, 1000)
	runL.Steps(300)

	if !runB.Record(1).Completed || !runL.Record(1).Completed {
		t.Fatal("both should complete")
	}
	if runB.Record(1).Delivered != 6 || runL.Record(1).Delivered != 6 {
		t.Fatal("both should deliver to all receivers")
	}
	fb := len(runB.Trace.TxTypes())
	fl := len(runL.Trace.TxTypes())
	if fl >= fb {
		t.Errorf("LAMM frames (%d) should be fewer than BMMM (%d)", fl, fb)
	}
	if runL.Record(1).CompletedAt >= runB.Record(1).CompletedAt {
		t.Errorf("LAMM completion (%d) should beat BMMM (%d)",
			runL.Record(1).CompletedAt, runB.Record(1).CompletedAt)
	}
}

func TestLAMMUncoveredReceiverStillPolled(t *testing.T) {
	// Two receivers on opposite sides of the sender, farther than R from
	// each other: neither covers the other, so LAMM must poll both.
	pts := []geom.Point{
		geom.Pt(0.5, 0.5),
		geom.Pt(0.68, 0.5), // east
		geom.Pt(0.32, 0.5), // west; 0.36 apart from east > R
	}
	run := prototest.New(pts, r, lammFactory())
	run.Multicast(5, 0, []int{1, 2}, 200)
	run.Steps(200)
	rec := run.Record(1)
	if !rec.Completed || rec.Delivered != 2 {
		t.Fatalf("record = %+v", rec)
	}
	seq := run.Trace.TxSeq()
	if got := strings.Count(seq, "RTS"); got != 2 {
		t.Errorf("both mutually-distant receivers must be polled: %q", seq)
	}
}

func TestLAMMRetiresCoveredReceiverAfterACK(t *testing.T) {
	// Receiver B sits inside the disk coverage of three helper
	// receivers A, C and D: each is 0.05 from B, 120° apart, so each
	// covers the arc of B's disk within acos(0.05/(2r)) ≈ 83° of its own
	// direction and together they cover all of it. B adds nothing to the
	// receivers' union, so LAMM's minimum covering set is {A, C, D}: B is
	// never polled, and once A, C and D have ACKed, UPDATE retires it
	// (Theorem 3). Every receiver is within the sender's range.
	pts := []geom.Point{
		geom.Pt(0.5, 0.5),      // 0 sender
		geom.Pt(0.575, 0.5433), // 1 A, at 120° from B
		geom.Pt(0.575, 0.4567), // 2 C, at 240° from B
		geom.Pt(0.6, 0.5),      // 3 B
		geom.Pt(0.65, 0.5),     // 4 D, at 0° from B
	}
	helpers := []geom.Point{pts[1], pts[2], pts[4]}
	// The geometry premise: B is disk-covered and all are in range.
	if !geom.DiskCovered(pts[3], helpers, r) {
		t.Fatal("geometry premise not met: the helpers do not disk-cover B")
	}
	for i, p := range pts[1:] {
		if d := pts[0].Dist(p); d >= r {
			t.Fatalf("receiver %d is %.3f from the sender, out of range %.2f", i+1, d, r)
		}
	}
	run := prototest.New(pts, r, lammFactory())
	run.Multicast(5, 0, []int{1, 2, 3, 4}, 1000)
	run.Steps(400)
	rec := run.Record(1)
	if !rec.Completed {
		t.Fatal("LAMM should complete")
	}
	// B (node 3) must never be addressed by an RTS or RAK; the helpers
	// each are.
	events := strings.Join(run.Trace.Events, "\n")
	for _, e := range run.Trace.Events {
		if strings.Contains(e, "TX RTS 0→3") || strings.Contains(e, "TX RAK 0→3") {
			t.Fatalf("covered receiver was polled: %s", e)
		}
	}
	for _, h := range []string{"1", "2", "4"} {
		if !strings.Contains(events, "TX RAK 0→"+h) {
			t.Errorf("helper %s was never polled for its ACK", h)
		}
	}
}

func TestBMMMDeterministic(t *testing.T) {
	runOnce := func() string {
		pts := prototest.Star(4, r, 0.8)
		run := prototest.New(pts, r, bmmmFactory(), prototest.WithSeed(77))
		run.Multicast(5, 0, []int{1, 2, 3, 4}, 200)
		run.Multicast(9, 1, []int{2, 3}, 200)
		run.Steps(300)
		return run.Trace.TxSeq()
	}
	if runOnce() != runOnce() {
		t.Error("same seed must reproduce the identical trace")
	}
}

func TestLAMMNoisyZeroSigmaMatchesLAMM(t *testing.T) {
	pts := []geom.Point{
		geom.Pt(0.5, 0.5),
		geom.Pt(0.58, 0.5), geom.Pt(0.58, 0.5),
		geom.Pt(0.5, 0.58),
	}
	runWith := func(f prototest.Factory) string {
		run := prototest.New(pts, r, f, prototest.WithSeed(3))
		run.Multicast(5, 0, []int{1, 2, 3}, 500)
		run.Steps(200)
		return run.Trace.TxSeq()
	}
	fn := core.NewLAMMNoisy(mac.DefaultConfig(), 0, 9)
	noisy := runWith(func(n int, e *sim.Env) sim.MAC { return fn(n, e) })
	plain := runWith(lammFactory())
	if noisy != plain {
		t.Errorf("sigma=0 must match plain LAMM:\n%s\nvs\n%s", noisy, plain)
	}
}

func TestLAMMNoisyLargeErrorBreaksTheorem3(t *testing.T) {
	// With location error comparable to the radius, LAMM's UPDATE can
	// retire receivers that never got the data: across seeds we should
	// see at least one completed message with missing receivers, and
	// mean delivery must not improve over accurate LAMM.
	over := 0
	for seed := int64(0); seed < 30; seed++ {
		pts := prototest.Star(5, r, 0.8)
		fn := core.NewLAMMNoisy(mac.DefaultConfig(), 0.15, seed)
		run := prototest.New(pts, r, func(n int, e *sim.Env) sim.MAC { return fn(n, e) },
			prototest.WithSeed(seed))
		// Jam one receiver's data so only a retry round could serve it.
		jam := prototest.NewJammer().JamAt(15).JamAt(16).JamAt(17)
		_ = jam
		run.Multicast(5, 0, []int{1, 2, 3, 4, 5}, 400)
		run.Steps(400)
		rec := run.Record(1)
		if rec.Completed && rec.Delivered < len(rec.Dests) {
			over++
		}
	}
	// Note: without jamming, data usually reaches everyone anyway; the
	// interesting failure is "completed while some receiver was retired
	// by a geometrically-wrong UPDATE after ITS copy collided". Absent
	// collisions this is rare, so do not require over > 0 — only check
	// the machinery runs and never panics. The erosion is measured by
	// the gpserr study (cmd/experiments -exp gpserr) under real load.
	t.Logf("completed-with-missing: %d/30", over)
}
