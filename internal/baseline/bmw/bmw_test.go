package bmw_test

import (
	"strings"
	"testing"

	"relmac/internal/baseline/bmw"
	"relmac/internal/geom"
	"relmac/internal/mac"
	"relmac/internal/prototest"
	"relmac/internal/sim"
)

const r = 0.2

func factory() prototest.Factory {
	f := bmw.New(mac.DefaultConfig())
	return func(n int, e *sim.Env) sim.MAC { return f(n, e) }
}

func TestSingleReceiver(t *testing.T) {
	pts := []geom.Point{geom.Pt(0.5, 0.5), geom.Pt(0.6, 0.5)}
	run := prototest.New(pts, r, factory())
	run.Multicast(5, 0, []int{1}, 100)
	run.Steps(60)
	if got := run.Trace.TxSeq(); got != "RTS CTS DATA ACK" {
		t.Fatalf("sequence = %q", got)
	}
	rec := run.Record(1)
	if !rec.Completed || rec.Delivered != 1 || rec.Contentions != 1 {
		t.Errorf("record = %+v", rec)
	}
}

func TestOverhearingSuppressesData(t *testing.T) {
	// Two receivers, both in range of everything. The first round sends
	// the data; the second receiver overheard it and suppresses the
	// retransmission: exactly one DATA frame but two contention phases.
	pts := prototest.Star(2, r, 0.7)
	run := prototest.New(pts, r, factory())
	run.Multicast(5, 0, []int{1, 2}, 200)
	run.Steps(200)
	rec := run.Record(1)
	if !rec.Completed || rec.Delivered != 2 {
		t.Fatalf("record = %+v", rec)
	}
	seq := run.Trace.TxSeq()
	if got := strings.Count(seq, "DATA"); got != 1 {
		t.Errorf("BMW should send the data once, got %d in %q", got, seq)
	}
	if rec.Contentions != 2 {
		t.Errorf("BMW needs one contention phase per receiver: %d", rec.Contentions)
	}
	// Round 2 has no DATA and no ACK: RTS + suppress-CTS only.
	if got := strings.Count(seq, "ACK"); got != 1 {
		t.Errorf("suppressed round must not be ACKed: %d ACKs in %q", got, seq)
	}
}

func TestPerReceiverContentionScalesLinearly(t *testing.T) {
	for _, n := range []int{1, 3, 5} {
		pts := prototest.Star(n, r, 0.7)
		run := prototest.New(pts, r, factory())
		dests := make([]int, n)
		for i := range dests {
			dests[i] = i + 1
		}
		run.Multicast(5, 0, dests, 100000)
		run.Steps(3000)
		rec := run.Record(1)
		if !rec.Completed {
			t.Fatalf("n=%d: not completed", n)
		}
		if rec.Contentions != n {
			t.Errorf("n=%d: contentions = %d, want exactly n on a clean channel", n, rec.Contentions)
		}
	}
}

func TestRetransmitsToJammedReceiver(t *testing.T) {
	// The second receiver's copy of the data is jammed; its own polled
	// round must carry a fresh DATA transmission.
	pts := []geom.Point{
		geom.Pt(0.5, 0.5),  // 0 sender
		geom.Pt(0.62, 0.5), // 1 receiver A
		geom.Pt(0.38, 0.5), // 2 receiver B (west)
		geom.Pt(0.24, 0.5), // 3 jammer: hears B only
	}
	run := prototest.New(pts, r, factory())
	// Round 1 for receiver 1: RTS@5 CTS@6 DATA@7..11. Jam B during it.
	run.Engine.SetMAC(3, prototest.NewJammer().JamAt(9))
	run.Multicast(5, 0, []int{1, 2}, 500)
	run.Steps(500)
	rec := run.Record(1)
	if !rec.Completed || rec.Delivered != 2 {
		t.Fatalf("record = %+v", rec)
	}
	seq := run.Trace.TxSeq()
	if got := strings.Count(seq, "DATA"); got < 2 {
		t.Errorf("jammed receiver requires a data retransmission: %q", seq)
	}
}

func TestReliableUnderHiddenTerminals(t *testing.T) {
	// Chain: sender 0 with receiver 1; hidden station 2 unicasts to 1
	// concurrently. BMW must still deliver (with retries).
	pts := []geom.Point{geom.Pt(0.3, 0.5), geom.Pt(0.44, 0.5), geom.Pt(0.58, 0.5)}
	run := prototest.New(pts, 0.15, factory(), prototest.WithSeed(11))
	run.Multicast(5, 0, []int{1}, 4000)
	run.Unicast(5, 2, 1, 4000)
	run.Steps(4200)
	a, b := run.Record(1), run.Record(2)
	if !a.Completed || a.Delivered != 1 {
		t.Errorf("BMW multicast failed under hidden terminal: %+v", a)
	}
	if !b.Completed {
		t.Errorf("competing unicast failed: %+v", b)
	}
}

func TestSuppressOnRetransmittedPoll(t *testing.T) {
	// Receiver holds the data but its ACK is lost (jammed at the
	// sender): the re-poll must be answered with a suppress CTS and the
	// sender must not send the data again... it advances on suppress.
	pts := []geom.Point{
		geom.Pt(0.5, 0.5),  // 0 sender
		geom.Pt(0.64, 0.5), // 1 receiver
		geom.Pt(0.36, 0.5), // 2 jammer: hears sender only
	}
	run := prototest.New(pts, r, factory())
	// ACK arrives at slot 12 (RTS@5 CTS@6 DATA@7..11 ACK@12): jam the
	// sender at slot 12 so the ACK is lost there.
	run.Engine.SetMAC(2, prototest.NewJammer().JamAt(12))
	run.Multicast(5, 0, []int{1}, 500)
	run.Steps(500)
	rec := run.Record(1)
	if !rec.Completed || rec.Delivered != 1 {
		t.Fatalf("record = %+v", rec)
	}
	seq := run.Trace.TxSeq()
	// Data must have been sent exactly once; the second poll is answered
	// with a suppress CTS (no second DATA).
	if got := strings.Count(seq, "DATA"); got != 1 {
		t.Errorf("expected exactly one DATA (suppress on re-poll): %q", seq)
	}
	if rec.Contentions < 2 {
		t.Errorf("lost ACK must cost an extra contention phase: %d", rec.Contentions)
	}
}
