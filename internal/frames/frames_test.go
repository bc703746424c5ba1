package frames

import (
	"strings"
	"testing"
)

func TestTypeString(t *testing.T) {
	cases := map[Type]string{
		RTS: "RTS", CTS: "CTS", Data: "DATA", ACK: "ACK",
		RAK: "RAK", NAK: "NAK",
	}
	for ty, want := range cases {
		if got := ty.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", ty, got, want)
		}
	}
	if got := Type(99).String(); !strings.Contains(got, "99") {
		t.Errorf("unknown type string = %q", got)
	}
}

func TestIsControl(t *testing.T) {
	for _, ty := range []Type{RTS, CTS, ACK, RAK, NAK} {
		if !ty.IsControl() {
			t.Errorf("%v should be a control frame", ty)
		}
	}
	if Data.IsControl() {
		t.Error("DATA should not be a control frame")
	}
}

func TestAddrString(t *testing.T) {
	if BroadcastAddr.String() != "*" || NoAddr.String() != "-" || Addr(7).String() != "7" {
		t.Error("Addr rendering wrong")
	}
}

func TestFrameString(t *testing.T) {
	f := &Frame{Type: RTS, Src: 3, Dst: 7, Duration: 12}
	if got := f.String(); got != "RTS 3→7 dur=12" {
		t.Errorf("Frame.String() = %q", got)
	}
}

func TestDefaultTiming(t *testing.T) {
	tm := DefaultTiming()
	if tm.Control != 1 || tm.Data != 5 {
		t.Errorf("default timing = %+v, want paper's Table 2 values", tm)
	}
	if err := tm.Validate(); err != nil {
		t.Errorf("default timing invalid: %v", err)
	}
	if (Timing{Control: 0, Data: 5}).Validate() == nil {
		t.Error("zero control airtime must fail validation")
	}
}

func TestAirtime(t *testing.T) {
	tm := Timing{Control: 2, Data: 9}
	if tm.Airtime(Data) != 9 {
		t.Error("data airtime wrong")
	}
	for _, ty := range []Type{RTS, CTS, ACK, RAK, NAK} {
		if tm.Airtime(ty) != 2 {
			t.Errorf("%v airtime = %d, want 2", ty, tm.Airtime(ty))
		}
	}
}

// The Duration fields must chain correctly: the Duration of RTS_i equals
// the total airtime of everything that follows it in a clean batch.
func TestBatchDurationChains(t *testing.T) {
	tm := DefaultTiming()
	for n := 1; n <= 8; n++ {
		for i := 1; i <= n; i++ {
			want := (n-i)*tm.Control + // remaining RTS frames
				(n-i+1)*tm.Control + // this CTS and remaining CTS frames
				tm.Data +
				n*(tm.Control+tm.Control) // all RAK/ACK pairs
			if got := tm.BatchDuration(n, i); got != want {
				t.Errorf("BatchDuration(%d,%d) = %d, want %d", n, i, got, want)
			}
		}
		// Paper formula at i=n: one CTS + data + n RAK/ACK pairs.
		if got := tm.BatchDuration(n, n); got != tm.Control+tm.Data+2*n*tm.Control {
			t.Errorf("BatchDuration(%d,%d) = %d inconsistent", n, n, got)
		}
	}
}

func TestBatchDurationDecreases(t *testing.T) {
	tm := DefaultTiming()
	const n = 6
	prev := tm.BatchDuration(n, 1)
	for i := 2; i <= n; i++ {
		cur := tm.BatchDuration(n, i)
		if cur >= prev {
			t.Fatalf("duration must shrink along the batch: i=%d %d >= %d", i, cur, prev)
		}
		prev = cur
	}
}

func TestRAKDuration(t *testing.T) {
	tm := DefaultTiming()
	const n = 4
	// Last RAK: only its own ACK remains.
	if got := tm.RAKDuration(n, n); got != tm.Control {
		t.Errorf("RAKDuration(n,n) = %d, want %d", got, tm.Control)
	}
	// First RAK: n-1 further RAK/ACK pairs plus own ACK.
	want := (n-1)*2*tm.Control + tm.Control
	if got := tm.RAKDuration(n, 1); got != want {
		t.Errorf("RAKDuration(n,1) = %d, want %d", got, want)
	}
}

func TestSpacingConstants(t *testing.T) {
	fh := Spacing(FHSS)
	if fh.SIFS != 28 || fh.DIFS != 128 || fh.Slot != 50 || fh.PIFS != 78 {
		t.Errorf("FHSS spacing = %+v, want the paper's §3 values", fh)
	}
	if err := fh.Validate(); err != nil {
		t.Errorf("FHSS identities: %v", err)
	}
	ds := Spacing(DSSS)
	if err := ds.Validate(); err != nil {
		t.Errorf("DSSS identities: %v", err)
	}
	if FHSS.String() != "FHSS" || DSSS.String() != "DSSS" {
		t.Error("PHY names wrong")
	}
	if PHY(9).String() != "PHY(9)" {
		t.Error("unknown PHY name wrong")
	}
	if Spacing(PHY(9)) != Spacing(FHSS) {
		t.Error("unknown PHY must default to FHSS")
	}
}

// The paper's §3 conclusion: for FHSS the defer window is at most 1, and
// 0 once PIFS is honoured.
func TestMaxCTSDeferWindowMatchesPaper(t *testing.T) {
	fh := Spacing(FHSS)
	if got := fh.MaxCTSDeferWindow(false); got != 1 {
		t.Errorf("FHSS defer window = %d, want 1 (paper §3)", got)
	}
	if got := fh.MaxCTSDeferWindow(true); got != 0 {
		t.Errorf("FHSS defer window with PIFS = %d, want 0 (paper footnote 1)", got)
	}
	ds := Spacing(DSSS)
	if got := ds.MaxCTSDeferWindow(false); got != 1 {
		t.Errorf("DSSS defer window = %d, want 1", got)
	}
}

func TestCollisionProbability(t *testing.T) {
	if CollisionProbability(1, 5) != 0 || CollisionProbability(0, 5) != 0 {
		t.Error("fewer than two receivers cannot collide")
	}
	if CollisionProbability(2, -1) != 0 {
		t.Error("negative window must return 0")
	}
	// More receivers than slots: pigeonhole.
	if CollisionProbability(3, 1) != 1 {
		t.Error("3 receivers in 2 slots must collide")
	}
	// Two receivers, window w: collision probability 1/(w+1).
	for _, w := range []int{0, 1, 4, 9} {
		want := 1.0 / float64(w+1)
		if got := CollisionProbability(2, w); got < want-1e-12 || got > want+1e-12 {
			t.Errorf("P(collision | n=2, w=%d) = %v, want %v", w, got, want)
		}
	}
	// With the paper's w=1 window, even 2 receivers collide half the
	// time; 5 receivers are certain to collide.
	if CollisionProbability(5, 1) != 1 {
		t.Error("five receivers in the FHSS window must collide")
	}
	// Probability grows with n at fixed w.
	prev := 0.0
	for n := 2; n < 10; n++ {
		p := CollisionProbability(n, 9)
		if p <= prev {
			t.Fatalf("collision probability must grow with n (n=%d)", n)
		}
		prev = p
	}
}

func TestControlBytes(t *testing.T) {
	if ControlBytes(RTS) != 20 {
		t.Error("RTS is 20 octets")
	}
	for _, ty := range []Type{CTS, ACK, RAK, NAK} {
		if ControlBytes(ty) != 14 {
			t.Errorf("%v should be 14 octets (ACK format, paper Figure 1)", ty)
		}
	}
	if ControlBytes(Data) != CTSBytes {
		t.Error("non-control fallback wrong")
	}
}

func TestAirtimeMicros(t *testing.T) {
	// 20 bytes at 1 Mbps: 96 + 160 = 256 µs.
	if got := AirtimeMicros(20, 1); got != 256 {
		t.Errorf("airtime = %v, want 256", got)
	}
	// Rate halves the payload time but not the PLCP.
	if got := AirtimeMicros(20, 2); got != 96+80 {
		t.Errorf("airtime@2Mbps = %v", got)
	}
	// Degenerate rate clamps to 1 Mbps.
	if AirtimeMicros(20, 0) != AirtimeMicros(20, 1) {
		t.Error("zero rate must clamp")
	}
}

// The paper's Table 2 ratio: a data frame takes ~5 control-frame slots.
// Verify a realistic payload/rate combination lands there.
func TestSlotsPerDataMatchesTable2(t *testing.T) {
	got := SlotsPerData(164, 2)
	if got < 4.5 || got > 5.5 {
		t.Errorf("164-byte payload at 2 Mbps = %.2f slots, want ≈5", got)
	}
	// Ratio grows with payload and shrinks with rate (toward the PLCP
	// floor).
	if SlotsPerData(1000, 2) <= SlotsPerData(100, 2) {
		t.Error("ratio must grow with payload")
	}
	if SlotsPerData(164, 11) >= SlotsPerData(164, 1) {
		t.Error("ratio must shrink as the rate rises")
	}
}

func TestTimingForPayload(t *testing.T) {
	tm := TimingForPayload(164, 2)
	if tm.Control != 1 || tm.Data != 5 {
		t.Errorf("TimingForPayload(164, 2) = %+v, want {1 5}", tm)
	}
	if err := tm.Validate(); err != nil {
		t.Error(err)
	}
	tiny := TimingForPayload(0, 11)
	if tiny.Data < 1 {
		t.Error("data airtime must be at least one slot")
	}
}
