package kuri_test

import (
	"strings"
	"testing"

	"relmac/internal/baseline/kuri"
	"relmac/internal/geom"
	"relmac/internal/mac"
	"relmac/internal/prototest"
	"relmac/internal/sim"
)

const r = 0.2

func factory() prototest.Factory {
	f := kuri.New(mac.DefaultConfig())
	return func(n int, e *sim.Env) sim.MAC { return f(n, e) }
}

func TestLeaderCleanExchange(t *testing.T) {
	// Three receivers, leader = first: exactly one CTS and one ACK
	// regardless of group size.
	pts := prototest.Star(3, r, 0.7)
	run := prototest.New(pts, r, factory())
	run.Multicast(5, 0, []int{1, 2, 3}, 100)
	run.Steps(60)
	if got := run.Trace.TxSeq(); got != "RTS CTS DATA ACK" {
		t.Fatalf("sequence = %q, want RTS CTS DATA ACK", got)
	}
	rec := run.Record(1)
	if !rec.Completed || rec.Delivered != 3 || rec.Contentions != 1 {
		t.Fatalf("record = %+v", rec)
	}
}

func TestOnlyLeaderSendsCTS(t *testing.T) {
	pts := prototest.Star(4, r, 0.7)
	run := prototest.New(pts, r, factory())
	run.Multicast(5, 0, []int{2, 1, 3, 4}, 100) // leader is station 2
	run.Steps(60)
	for _, e := range run.Trace.Events {
		if strings.Contains(e, "TX CTS") && !strings.Contains(e, "TX CTS 2→0") {
			t.Fatalf("non-leader transmitted a CTS: %s", e)
		}
	}
	if !run.Record(1).Completed {
		t.Error("exchange should complete")
	}
}

func TestNAKJamsLeaderACK(t *testing.T) {
	// A non-leader misses the data (jammed): its NAK collides with the
	// leader's ACK at the sender, forcing a retransmission that finally
	// serves everyone.
	pts := []geom.Point{
		geom.Pt(0.5, 0.5),  // 0 sender
		geom.Pt(0.64, 0.5), // 1 leader
		geom.Pt(0.36, 0.5), // 2 non-leader
		geom.Pt(0.22, 0.5), // 3 jammer: hears 2 only
	}
	run := prototest.New(pts, r, factory())
	// Exchange: RTS@5 CTS@6 DATA@7..11 ACK/NAK@12. Jam node 2's data.
	run.Engine.SetMAC(3, prototest.NewJammer().JamAt(9))
	run.Multicast(5, 0, []int{1, 2}, 400)
	run.Steps(400)
	rec := run.Record(1)
	if !rec.Completed {
		t.Fatal("protocol should recover via NAK-jam retransmission")
	}
	if rec.Delivered != 2 {
		t.Fatalf("delivered = %d, want both after retransmission", rec.Delivered)
	}
	seq := run.Trace.TxSeq()
	if strings.Count(seq, "DATA") < 2 {
		t.Errorf("expected a retransmission: %q", seq)
	}
	if !strings.Contains(seq, "NAK") {
		t.Errorf("expected a NAK jam: %q", seq)
	}
	if rec.Contentions < 2 {
		t.Errorf("retransmission needs a new contention phase: %d", rec.Contentions)
	}
}

func TestSilentReceiverIsLost(t *testing.T) {
	// The protocol's documented weakness: a receiver that misses BOTH
	// the RTS and the data stays silent, and the sender completes
	// without it. Jam node 2 through the whole exchange window.
	pts := []geom.Point{
		geom.Pt(0.5, 0.5),  // 0 sender
		geom.Pt(0.64, 0.5), // 1 leader
		geom.Pt(0.36, 0.5), // 2 non-leader, fully jammed
		geom.Pt(0.22, 0.5), // 3 jammer: hears 2 only
	}
	run := prototest.New(pts, r, factory())
	jam := prototest.NewJammer()
	for s := sim.Slot(5); s <= 13; s++ {
		jam.JamAt(s)
	}
	run.Engine.SetMAC(3, jam)
	run.Multicast(5, 0, []int{1, 2}, 400)
	run.Steps(400)
	rec := run.Record(1)
	if !rec.Completed {
		t.Fatal("sender should complete on the leader's clean ACK")
	}
	if rec.Delivered != 1 {
		t.Fatalf("delivered = %d; the silent receiver must be lost", rec.Delivered)
	}
	if rec.Successful(0.9) {
		t.Error("half-delivered message must fail the 90% threshold")
	}
}

func TestLeaderRetransmitACKForRetry(t *testing.T) {
	// The leader's ACK itself can be lost (jam at the sender): the
	// sender retries, the leader (already holding the data) must ACK
	// the retransmission.
	pts := []geom.Point{
		geom.Pt(0.5, 0.5),  // 0 sender
		geom.Pt(0.64, 0.5), // 1 leader
		geom.Pt(0.36, 0.5), // 2 jammer: hears sender only
	}
	run := prototest.New(pts, r, factory())
	run.Engine.SetMAC(2, prototest.NewJammer().JamAt(12)) // ACK slot
	run.Multicast(5, 0, []int{1}, 400)
	run.Steps(400)
	rec := run.Record(1)
	if !rec.Completed || rec.Delivered != 1 {
		t.Fatalf("record = %+v", rec)
	}
	if rec.Contentions < 2 {
		t.Errorf("lost ACK must cost a retry: %d contentions", rec.Contentions)
	}
}
