package obs_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"relmac/internal/core"
	"relmac/internal/frames"
	"relmac/internal/geom"
	"relmac/internal/mac"
	"relmac/internal/obs"
	"relmac/internal/prototest"
	"relmac/internal/sim"
	"relmac/internal/topo"
	"relmac/internal/traffic"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fig2Run executes the deterministic BMMM Figure-2 scenario — one
// multicast from station 0 to stations 1-3 on a clean channel — with the
// given tracer attached as the engine observer.
func fig2Run(t *testing.T, tr *obs.Tracer) {
	t.Helper()
	pts := []geom.Point{
		geom.Pt(0.5, 0.5), geom.Pt(0.6, 0.5), geom.Pt(0.5, 0.6), geom.Pt(0.42, 0.42),
	}
	tp := topo.FromPoints(pts, 0.2)
	eng := sim.New(sim.Config{Topo: tp, Seed: 1, Observers: []sim.Observer{tr}})
	eng.AttachMACs(core.NewBMMM(mac.DefaultConfig()))
	script := traffic.NewScript()
	script.At(0, &sim.Request{Kind: sim.Multicast, Src: 0,
		Dests: []int{1, 2, 3}, Deadline: 1000})
	eng.Run(120, script)
}

func TestTracerGoldenJSONL(t *testing.T) {
	tr := obs.NewTracer(0)
	fig2Run(t, tr)

	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "bmmm_fig2.jsonl")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (run `go test ./internal/obs -update` to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("JSONL trace diverged from golden file %s\ngot:\n%s\nwant:\n%s",
			golden, buf.Bytes(), want)
	}
}

// TestTracerFigure2ExchangeOrder pins the BMMM frame-tx sequence to the
// paper's Figure 2: three RTS/CTS polls, one group DATA, three RAK/ACK
// exchanges — all within a single contention phase.
func TestTracerFigure2ExchangeOrder(t *testing.T) {
	tr := obs.NewTracer(0)
	fig2Run(t, tr)

	var seq []string
	contentions := 0
	for _, ev := range tr.Events() {
		switch ev.Kind {
		case sim.EvFrameTx:
			seq = append(seq, fmt.Sprintf("%s %s>%s", ev.Frame, ev.Src, ev.Dst))
		case sim.EvContention:
			contentions++
		}
	}
	want := []string{
		"RTS 0>1", "CTS 1>0", "RTS 0>2", "CTS 2>0", "RTS 0>3", "CTS 3>0",
		"DATA 0>*",
		"RAK 0>1", "ACK 1>0", "RAK 0>2", "ACK 2>0", "RAK 0>3", "ACK 3>0",
	}
	if got := strings.Join(seq, ", "); got != strings.Join(want, ", ") {
		t.Errorf("frame sequence = %s\nwant %s", got, strings.Join(want, ", "))
	}
	if contentions != 1 {
		t.Errorf("contention phases = %d, want 1 (BMMM batches the whole exchange)", contentions)
	}
}

// chromeEvent mirrors the trace-event fields the test needs.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Dur  int64          `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

func TestTracerChromeTrace(t *testing.T) {
	tr := obs.NewTracer(0)
	fig2Run(t, tr)

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("chrome trace does not unmarshal: %v", err)
	}
	if len(trace.TraceEvents) == 0 {
		t.Fatal("empty trace")
	}
	lastTs := map[int]int64{}
	spans := 0
	for _, ev := range trace.TraceEvents {
		switch ev.Ph {
		case "M":
			continue
		case "X":
			spans++
			if ev.Dur <= 0 {
				t.Errorf("span %q at ts=%d has non-positive dur %d", ev.Name, ev.Ts, ev.Dur)
			}
		case "i":
		default:
			t.Errorf("unexpected phase %q", ev.Ph)
		}
		if prev, ok := lastTs[ev.Tid]; ok && ev.Ts < prev {
			t.Errorf("station %d timestamps regress: %d after %d", ev.Tid, ev.Ts, prev)
		}
		lastTs[ev.Tid] = ev.Ts
	}
	// 13 frame transmissions in the Figure 2 exchange.
	if spans != 13 {
		t.Errorf("span count = %d, want 13", spans)
	}
	// Station 0's DATA span must carry the group address and 5-slot
	// airtime.
	found := false
	for _, ev := range trace.TraceEvents {
		if ev.Ph == "X" && ev.Name == "DATA" && ev.Tid == 0 {
			found = true
			if ev.Dur != 5 {
				t.Errorf("DATA dur = %d, want 5", ev.Dur)
			}
			if dst, _ := ev.Args["dst"].(string); dst != "*" {
				t.Errorf("DATA dst = %v, want *", ev.Args["dst"])
			}
		}
	}
	if !found {
		t.Error("no DATA span on station 0's thread")
	}
}

func TestTracerRingBufferWraps(t *testing.T) {
	tr := obs.NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Observe(&sim.Event{Kind: sim.EvDataRx, Frame: &frames.Frame{Type: frames.Data, MsgID: int64(i)}, Station: i, Slot: sim.Slot(i)})
	}
	if tr.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tr.Len())
	}
	if tr.Dropped() != 6 {
		t.Errorf("Dropped = %d, want 6", tr.Dropped())
	}
	evs := tr.Events()
	for i, ev := range evs {
		if want := int64(6 + i); ev.MsgID != want {
			t.Errorf("event %d MsgID = %d, want %d (oldest-first after wrap)", i, ev.MsgID, want)
		}
	}
}

// TestTracerFrameTxRecordsAirtime runs the Figure 2 BMMM exchange on a
// non-default timing with the tracer and the flight recorder attached:
// every frame-tx Dur in the trace, and the flight record's control and
// data airtime, are the engine's own airtimes.
func TestTracerFrameTxRecordsAirtime(t *testing.T) {
	tm := frames.Timing{Control: 1, Data: 8}
	tr, fl := obs.NewTracer(0), obs.NewFlight(nil, "", 0)
	pts := []geom.Point{
		geom.Pt(0.5, 0.5), geom.Pt(0.6, 0.5), geom.Pt(0.5, 0.6), geom.Pt(0.42, 0.42),
	}
	run := prototest.New(pts, 0.2, core.NewBMMM(mac.DefaultConfig()), prototest.WithTiming(tm),
		func(c *sim.Config) { c.Observers = append(c.Observers, tr, fl) })
	run.Multicast(0, 0, []int{1, 2, 3}, 1000)
	run.Steps(120)

	var control, data int64
	for _, ev := range tr.Events() {
		if ev.Kind != sim.EvFrameTx {
			continue
		}
		if want := tm.Airtime(ev.Frame); ev.Dur != want {
			t.Errorf("%s at slot %d: trace dur %d, engine airtime %d", ev.Frame, ev.Slot, ev.Dur, want)
		}
		if ev.Frame == frames.Data {
			data += int64(ev.Dur)
		} else {
			control += int64(ev.Dur)
		}
	}
	// Three RTS/CTS polls, one DATA, three RAK/ACK polls.
	if control != 12 || data != 8 {
		t.Errorf("trace airtime control %d, data %d; want 12, 8", control, data)
	}
	recs := fl.Records()
	if len(recs) != 1 {
		t.Fatalf("flight records = %d, want 1", len(recs))
	}
	if st := recs[0].Stages; st.Control != control || st.Data != data {
		t.Errorf("flight stages control %d, data %d; want the engine's %d, %d", st.Control, st.Data, control, data)
	}
}
