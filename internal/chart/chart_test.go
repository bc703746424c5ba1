package chart

import (
	"strings"
	"testing"

	"relmac/internal/frames"
	"relmac/internal/geom"
	"relmac/internal/mac"
	"relmac/internal/sim"
	"relmac/internal/topo"

	"relmac/internal/baseline/dcf"
	"relmac/internal/traffic"
)

func TestSymbols(t *testing.T) {
	cases := map[frames.Type]rune{
		frames.RTS: 'R', frames.CTS: 'C', frames.Data: 'D',
		frames.ACK: 'a', frames.RAK: 'K', frames.NAK: 'N',
	}
	for ty, want := range cases {
		if got := symbol(ty); got != want {
			t.Errorf("symbol(%v) = %c, want %c", ty, got, want)
		}
	}
	if symbol(frames.Type(99)) != '?' {
		t.Error("unknown type symbol")
	}
}

func TestChartMarksTransmissions(t *testing.T) {
	c := New(2, 0, 9)
	c.Observe(&sim.Event{Kind: sim.EvFrameTx, Frame: &frames.Frame{Type: frames.Data}, Station: 0, Slot: 2, Start: 2, End: 6})
	c.Observe(&sim.Event{Kind: sim.EvFrameTx, Frame: &frames.Frame{Type: frames.ACK}, Station: 1, Slot: 7, Start: 7, End: 7})
	out := c.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[2], "..DDDDD...") {
		t.Errorf("row 0 = %q", lines[2])
	}
	if !strings.Contains(lines[3], ".......a..") {
		t.Errorf("row 1 = %q", lines[3])
	}
}

func TestChartWindowClipping(t *testing.T) {
	c := New(1, 5, 8)
	c.Observe(&sim.Event{Kind: sim.EvFrameTx, Frame: &frames.Frame{Type: frames.Data}, Station: 0, Slot: 3, Start: 3, End: 10})  // overlaps window
	c.Observe(&sim.Event{Kind: sim.EvFrameTx, Frame: &frames.Frame{Type: frames.RTS}, Station: 0, Slot: 20, Start: 20, End: 20}) // outside
	c.Observe(&sim.Event{Kind: sim.EvFrameTx, Frame: &frames.Frame{Type: frames.RTS}, Station: 5, Slot: 6, Start: 6, End: 6})    // bad station
	row := strings.Split(strings.TrimSpace(c.String()), "\n")[2]
	if !strings.HasSuffix(row, "|DDDD") {
		t.Errorf("row = %q", row)
	}
}

func TestChartLossOverlay(t *testing.T) {
	c := New(2, 0, 4)
	c.ShowLosses = true
	c.Observe(&sim.Event{Kind: sim.EvFrameTx, Frame: &frames.Frame{Type: frames.RTS}, Station: 0, Slot: 1, Start: 1, End: 1})
	c.Observe(&sim.Event{Kind: sim.EvRxLost, Frame: &frames.Frame{Type: frames.RTS}, Station: 1, Slot: 1})
	out := c.String()
	if !strings.Contains(out, "×") {
		t.Errorf("loss not marked:\n%s", out)
	}
	// Losses never overwrite a transmission mark.
	c.Observe(&sim.Event{Kind: sim.EvRxLost, Frame: &frames.Frame{Type: frames.RTS}, Station: 0, Slot: 1})
	row0 := strings.Split(strings.TrimSpace(c.String()), "\n")[2]
	if strings.Count(row0, "R") != 1 || strings.Contains(row0, "×") {
		t.Errorf("loss overwrote a transmission: %q", row0)
	}
	// Losses off: no-op.
	d := New(1, 0, 4)
	d.Observe(&sim.Event{Kind: sim.EvRxLost, Frame: &frames.Frame{Type: frames.RTS}, Station: 0, Slot: 2})
	if strings.Contains(d.String(), "×") {
		t.Error("ShowLosses=false must suppress loss marks")
	}
}

func TestDegenerateWindow(t *testing.T) {
	c := New(1, 5, 2) // to < from: clamped to one column
	c.Observe(&sim.Event{Kind: sim.EvFrameTx, Frame: &frames.Frame{Type: frames.CTS}, Station: 0, Slot: 5, Start: 5, End: 5})
	if !strings.Contains(c.String(), "C") {
		t.Error("clamped window lost the mark")
	}
}

func TestLegend(t *testing.T) {
	if !strings.Contains(Legend(), "RAK") {
		t.Error("legend must mention RAK")
	}
}

// End-to-end: chart a real unicast exchange.
func TestChartFromSimulation(t *testing.T) {
	tp := topo.FromPoints([]geom.Point{geom.Pt(0.5, 0.5), geom.Pt(0.6, 0.5)}, 0.2)
	c := New(tp.N(), 0, 20)
	eng := sim.New(sim.Config{Topo: tp, Observers: []sim.Observer{c}})
	eng.AttachMACs(dcf.NewPlain(mac.DefaultConfig()))
	script := traffic.NewScript()
	script.At(5, &sim.Request{Kind: sim.Unicast, Src: 0, Dests: []int{1}, Deadline: 100})
	eng.Run(21, script)
	out := c.String()
	// RTS at 5, DATA 7..11 on row 0; CTS at 6, ACK at 12 on row 1.
	row0 := strings.Split(strings.TrimSpace(out), "\n")[2]
	row1 := strings.Split(strings.TrimSpace(out), "\n")[3]
	if !strings.Contains(row0, "R.DDDDD") {
		t.Errorf("row 0 = %q", row0)
	}
	if !strings.Contains(row1, "C.....a") {
		t.Errorf("row 1 = %q", row1)
	}
}
