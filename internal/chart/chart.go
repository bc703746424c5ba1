// Package chart renders a slotted-channel occupancy diagram: one row per
// station, one column per slot, a letter per transmitted frame type —
// the textual equivalent of the timeline pictures MAC papers draw
// (like the paper's Figure 2). Reception failures can be overlaid so
// collisions are visible at the receivers they damage.
//
//	station |0         1         2
//	        |0123456789012345678901234567
//	      0 |.....R.DDDDD.K.K.K..........
//	      1 |......C......a..............
//	      2 |...............a............
//
// Uppercase letters mark transmissions (R=RTS, C=CTS, D=DATA, a=ACK,
// K=RAK, N=NAK); '×' marks a frame lost at that receiver in that slot.
package chart

import (
	"fmt"
	"io"
	"strings"

	"relmac/internal/frames"
	"relmac/internal/sim"
)

// Chart is a sim.Observer of the transmissions and the lost receptions,
// and accumulates the diagram.
type Chart struct {
	n        int
	from, to sim.Slot // inclusive window
	grid     [][]rune
	// ShowLosses overlays '×' at receivers when a frame ends corrupted.
	ShowLosses bool
}

// New builds a chart for n stations covering slots [from, to].
func New(n int, from, to sim.Slot) *Chart {
	if to < from {
		to = from
	}
	width := int(to-from) + 1
	g := make([][]rune, n)
	for i := range g {
		g[i] = []rune(strings.Repeat(".", width))
	}
	return &Chart{n: n, from: from, to: to, grid: g}
}

// symbol maps frame types to their chart letters.
func symbol(t frames.Type) rune {
	switch t {
	case frames.RTS:
		return 'R'
	case frames.CTS:
		return 'C'
	case frames.Data:
		return 'D'
	case frames.ACK:
		return 'a'
	case frames.RAK:
		return 'K'
	case frames.NAK:
		return 'N'
	default:
		return '?'
	}
}

// Kinds implements sim.Observer: the transmissions and the lost
// receptions.
func (c *Chart) Kinds() sim.KindSet { return sim.Kinds(sim.EvFrameTx, sim.EvRxLost) }

// Observe implements sim.Observer: a transmission fills its sender's
// row over its airtime, a loss marks the receiver's cell.
func (c *Chart) Observe(ev *sim.Event) {
	if ev.Station < 0 || ev.Station >= c.n {
		return
	}
	switch ev.Kind {
	case sim.EvFrameTx:
		sym := symbol(ev.Frame.Type)
		for s := ev.Start; s <= ev.End; s++ {
			if col, ok := c.col(s); ok {
				c.grid[ev.Station][col] = sym
			}
		}
	case sim.EvRxLost:
		if col, ok := c.col(ev.Slot); ok && c.ShowLosses && c.grid[ev.Station][col] == '.' {
			c.grid[ev.Station][col] = '×'
		}
	}
}

func (c *Chart) col(s sim.Slot) (int, bool) {
	if s < c.from || s > c.to {
		return 0, false
	}
	return int(s - c.from), true
}

// Render writes the diagram to w.
func (c *Chart) Render(w io.Writer) error {
	width := int(c.to-c.from) + 1
	// Tens ruler.
	var tens, ones strings.Builder
	for i := 0; i < width; i++ {
		slot := int(c.from) + i
		if slot%10 == 0 {
			tens.WriteString(fmt.Sprintf("%d", (slot/10)%10))
		} else {
			tens.WriteByte(' ')
		}
		ones.WriteString(fmt.Sprintf("%d", slot%10))
	}
	if _, err := fmt.Fprintf(w, "station |%s\n        |%s\n",
		strings.TrimRight(tens.String(), " "), ones.String()); err != nil {
		return err
	}
	for i, row := range c.grid {
		if _, err := fmt.Fprintf(w, "%7d |%s\n", i, string(row)); err != nil {
			return err
		}
	}
	return nil
}

// String renders the chart to a string.
func (c *Chart) String() string {
	var b strings.Builder
	_ = c.Render(&b)
	return b.String()
}

// Legend returns the symbol key for display beneath a chart.
func Legend() string {
	return "R=RTS C=CTS D=DATA a=ACK K=RAK N=NAK ×=frame lost at receiver"
}
