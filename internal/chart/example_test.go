package chart_test

import (
	"os"

	"relmac/internal/baseline/dcf"
	"relmac/internal/chart"
	"relmac/internal/geom"
	"relmac/internal/mac"
	"relmac/internal/sim"
	"relmac/internal/topo"
	"relmac/internal/traffic"
)

// Chart a complete DCF unicast exchange: RTS at 5, CTS at 6, data frames
// at 7–11, ACK at 12.
func Example() {
	tp := topo.FromPoints([]geom.Point{geom.Pt(0.5, 0.5), geom.Pt(0.6, 0.5)}, 0.2)
	c := chart.New(tp.N(), 0, 14)
	eng := sim.New(sim.Config{Topo: tp, Observers: []sim.Observer{c}})
	eng.AttachMACs(dcf.NewPlain(mac.DefaultConfig()))
	script := traffic.NewScript()
	script.At(5, &sim.Request{Kind: sim.Unicast, Src: 0, Dests: []int{1}, Deadline: 100})
	eng.Run(15, script)
	c.Render(os.Stdout)
	// Output:
	// station |0         1
	//         |012345678901234
	//       0 |.....R.DDDDD...
	//       1 |......C.....a..
}
