package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"

	"relmac/internal/frames"
	"relmac/internal/sim"
)

// DefaultFlightCapacity bounds the number of messages a Flight tracks
// when NewFlight is given a non-positive capacity. Messages submitted
// past the cap are counted in Dropped instead of recorded, so a long run
// keeps the earliest window — the one whose spans a drill-down usually
// wants — at bounded memory.
const DefaultFlightCapacity = 1 << 14

// FlightFrame is one frame transmission attributed to a message: the
// airtime span [Start, Start+Airtime) on the sender's radio.
type FlightFrame struct {
	Type    frames.Type `json:"-"`
	Name    string      `json:"frame"`
	Sender  int         `json:"sender"`
	Start   sim.Slot    `json:"start"`
	Airtime int         `json:"airtime"`
}

// FlightRound is one group-protocol round of a message: Round is the
// protocol's 1-based ordinal, Polled the receivers it polls, Start the
// slot the round (and its contention) opened. Closed and Residual are -1
// until the protocol reports the round closed.
type FlightRound struct {
	Round    int      `json:"round"`
	Polled   int      `json:"polled"`
	Start    sim.Slot `json:"start"`
	Closed   sim.Slot `json:"closed"`
	Residual int      `json:"residual"`
}

// FlightRx is one intended-receiver data decode.
type FlightRx struct {
	Receiver int      `json:"receiver"`
	At       sim.Slot `json:"at"`
}

// FlightStages is the latency decomposition of one message, in slots:
// queueing (submit to service start), contention (contention begin to
// the sender's next frame, summed over phases), control airtime
// (RTS/CTS/RAK/ACK/NAK attributed to the message) and data airtime.
type FlightStages struct {
	Queueing   int64 `json:"queueing"`
	Contention int64 `json:"contention"`
	Control    int64 `json:"control"`
	Data       int64 `json:"data"`
}

// FlightRecord is the span tree of one multicast/broadcast message:
// arrival, queueing, per-round contention, every attributed frame
// transmission, intended-receiver decodes, and the terminal outcome.
type FlightRecord struct {
	MsgID    int64         `json:"msg"`
	Kind     string        `json:"kind"`
	Src      int           `json:"src"`
	Dests    []int         `json:"dests"`
	Submit   sim.Slot      `json:"submit"`
	Service  sim.Slot      `json:"service"` // -1 while queued
	End      sim.Slot      `json:"end"`     // -1 while in flight
	Outcome  string        `json:"outcome"` // "", "complete", "abort:deadline", "abort:retries"
	Stages   FlightStages  `json:"stages"`
	Rounds   []FlightRound `json:"rounds,omitempty"`
	Frames   []FlightFrame `json:"frames,omitempty"`
	Rx       []FlightRx    `json:"rx,omitempty"`
	RespDrop int           `json:"resp_drops,omitempty"`

	// openContention is the begin slot of a contention phase not yet
	// closed by a sender frame, or -1.
	openContention sim.Slot
}

// FlightStats is the concurrency-safe summary a live endpoint reads.
type FlightStats struct {
	Tracked   int64 `json:"tracked"`
	Completed int64 `json:"completed"`
	Aborted   int64 `json:"aborted"`
	InFlight  int64 `json:"in_flight"`
	Dropped   int64 `json:"dropped"`
	RespDrops int64 `json:"resp_drops"`
}

// Flight is the per-message lifecycle recorder: from the message events
// and the service detail it assembles, for every multicast/broadcast
// message, the span tree from arrival through
// queueing, per-round contention, control/data airtime and retry to
// delivery or abort. Unicast DCF traffic is out of scope — the paper's
// per-message claims are about the group protocols.
//
// When built over a non-nil Registry, completed messages feed
// stage-decomposed latency histograms (<prefix>.flight.queueing and
// friends), so p50/p95/p99 per stage flow to /metrics and /snapshot with
// no extra wiring. All methods take an internal lock: the engine feeds a
// Flight from its serial loop while HTTP snapshot readers observe it
// concurrently.
type Flight struct {
	capacity int

	mu sync.Mutex
	// recs holds the records at index ID-1, nil for unicast messages.
	recs []*FlightRecord

	tracked, completed, aborted, dropped, respDrops int64

	hQueue, hCont, hCtrl, hData, hTotal *Histogram
}

// NewFlight builds a Flight recorder tracking at most capacity messages
// (capacity <= 0 selects DefaultFlightCapacity). A non-nil reg receives
// the stage latency histograms under "<prefix>.flight.*"; nil keeps the
// recorder registry-free.
func NewFlight(reg *Registry, prefix string, capacity int) *Flight {
	if capacity <= 0 {
		capacity = DefaultFlightCapacity
	}
	f := &Flight{capacity: capacity}
	if reg != nil {
		if prefix != "" {
			prefix += "."
		}
		stage := DefaultStageBounds()
		f.hQueue = reg.Histogram(prefix+"flight.queueing", stage...)
		f.hCont = reg.Histogram(prefix+"flight.contention", stage...)
		f.hCtrl = reg.Histogram(prefix+"flight.control_air", stage...)
		f.hData = reg.Histogram(prefix+"flight.data_air", stage...)
		f.hTotal = reg.Histogram(prefix+"flight.total", DefaultCompletionBounds...)
	}
	return f
}

// DefaultStageBounds is the histogram bucketing for per-stage latencies:
// single-slot resolution through the control-exchange range, then the
// completion-scale tail.
func DefaultStageBounds() []float64 {
	out := make([]float64, 0, 40)
	for v := 1.0; v <= 20; v++ {
		out = append(out, v)
	}
	for v := 25.0; v <= 120; v += 5 {
		out = append(out, v)
	}
	return out
}

// rec returns the open record for the message, nil when untracked or
// already closed (late frames of a finished exchange stay unattributed).
func (f *Flight) rec(msgID int64) *FlightRecord {
	i := msgIndex(len(f.recs), msgID)
	if i < 0 || f.recs[i] == nil || f.recs[i].Outcome != "" {
		return nil
	}
	return f.recs[i]
}

// Kinds implements sim.Observer: the message events and the service
// detail.
func (f *Flight) Kinds() sim.KindSet {
	return sim.MessageKinds | sim.Kinds(sim.EvServiceStart, sim.EvRoundStart, sim.EvResponseDrop)
}

// Observe implements sim.Observer.
func (f *Flight) Observe(ev *sim.Event) {
	if ev.Kind == sim.EvSubmit && ev.Req.Kind == sim.Unicast {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	switch ev.Kind {
	case sim.EvSubmit:
		f.submit(ev.Req, ev.Slot)
		return
	case sim.EvResponseDrop:
		f.respDrops++
	}
	r := f.rec(ev.MsgID())
	if r == nil {
		return
	}
	now := ev.Slot
	switch ev.Kind {
	case sim.EvServiceStart:
		if r.Service < 0 {
			r.Service = now
			r.Stages.Queueing = int64(now - r.Submit)
		}
	case sim.EvRoundStart:
		r.Rounds = append(r.Rounds, FlightRound{
			Round: ev.Round, Polled: ev.Polled, Start: now, Closed: -1, Residual: -1,
		})
	case sim.EvResponseDrop:
		// Attributed to the message the dropped response answers.
		r.RespDrop++
	case sim.EvContention:
		r.openContention = now
	case sim.EvFrameTx:
		f.frameTx(r, ev)
	case sim.EvDataRx:
		if slices.Contains(r.Dests, ev.Station) {
			r.Rx = append(r.Rx, FlightRx{Receiver: ev.Station, At: now})
		}
	case sim.EvRound:
		// Close the most recent open round.
		for i := len(r.Rounds) - 1; i >= 0; i-- {
			if r.Rounds[i].Closed < 0 {
				r.Rounds[i].Closed = now
				r.Rounds[i].Residual = ev.Residual
				break
			}
		}
	case sim.EvComplete:
		// Seal the record and feed the stage histograms.
		r.End = now
		r.Outcome = "complete"
		f.completed++
		if f.hTotal != nil {
			f.hQueue.Observe(float64(r.Stages.Queueing))
			f.hCont.Observe(float64(r.Stages.Contention))
			f.hCtrl.Observe(float64(r.Stages.Control))
			f.hData.Observe(float64(r.Stages.Data))
			f.hTotal.Observe(float64(now - r.Submit))
		}
	case sim.EvAbort:
		// Aborted messages stay out of the latency histograms — a
		// deadline abort's "latency" measures the timeout, not the
		// protocol.
		r.End = now
		r.Outcome = "abort:" + ev.Reason.String()
		f.aborted++
	}
}

func (f *Flight) submit(req *sim.Request, now sim.Slot) {
	if f.tracked >= int64(f.capacity) {
		f.dropped++
		return
	}
	i := growTo(&f.recs, req.ID)
	if i < 0 {
		return
	}
	f.tracked++
	f.recs[i] = &FlightRecord{
		MsgID:  req.ID,
		Kind:   req.Kind.String(),
		Src:    req.Src,
		Dests:  req.Dests,
		Submit: now, Service: -1, End: -1,
		openContention: -1,
	}
}

// frameTx attributes a transmission by message ID — the sender's
// RTS/DATA/RAK and the receivers' CTS/ACK/NAK alike — classified into
// control versus data airtime, the engine's own span for the frame. The
// sender's first frame after a contention begin closes that contention
// span.
func (f *Flight) frameTx(r *FlightRecord, ev *sim.Event) {
	fr, air := ev.Frame, int(ev.End-ev.Start+1)
	r.Frames = append(r.Frames, FlightFrame{
		Type: fr.Type, Name: fr.Type.String(), Sender: ev.Station, Start: ev.Start, Airtime: air,
	})
	if fr.Type == frames.Data {
		r.Stages.Data += int64(air)
	} else {
		r.Stages.Control += int64(air)
	}
	if ev.Station == r.Src && r.openContention >= 0 {
		r.Stages.Contention += int64(ev.Slot - r.openContention)
		r.openContention = -1
	}
}

// Stats returns the live summary counters.
func (f *Flight) Stats() FlightStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return FlightStats{
		Tracked:   f.tracked,
		Completed: f.completed,
		Aborted:   f.aborted,
		InFlight:  f.tracked - f.completed - f.aborted,
		Dropped:   f.dropped,
		RespDrops: f.respDrops,
	}
}

// Records returns deep-enough copies of every record in submit order;
// mutating the result does not disturb the recorder.
func (f *Flight) Records() []FlightRecord {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]FlightRecord, 0, f.tracked)
	for _, r := range f.recs {
		if r == nil {
			continue
		}
		c := *r
		c.Dests = append([]int(nil), r.Dests...)
		c.Rounds = append([]FlightRound(nil), r.Rounds...)
		c.Frames = append([]FlightFrame(nil), r.Frames...)
		c.Rx = append([]FlightRx(nil), r.Rx...)
		out = append(out, c)
	}
	return out
}

// flightMeta is the JSONL header line surfacing capacity overflow; like
// the tracer's, it appears only when messages were dropped, so complete
// span files stay free of volatile counters.
type flightMeta struct {
	Event   string `json:"event"` // always "flight-meta"
	Dropped int64  `json:"dropped"`
	Kept    int    `json:"kept"`
}

// WriteSpansJSONL writes one JSON object per tracked message in submit
// order — the span-tree export behind golden files and the experiments
// -flight-dir dump. When the capacity cap dropped messages, the first
// line is a "flight-meta" record carrying the drop count.
func (f *Flight) WriteSpansJSONL(w io.Writer) error {
	recs := f.Records()
	f.mu.Lock()
	dropped := f.dropped
	f.mu.Unlock()
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if dropped > 0 {
		if err := enc.Encode(flightMeta{Event: "flight-meta", Dropped: dropped, Kept: len(recs)}); err != nil {
			return err
		}
	}
	for i := range recs {
		if err := enc.Encode(&recs[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteChromeTrace writes the span trees as Chrome trace-event JSON:
// per-message async spans ("b"/"e", one track per message under the
// sender's process), "X" spans for every attributed frame transmission
// on the transmitting station's thread, and "s"/"f" flow arrows from
// each DATA transmission to the intended receivers that decoded it —
// the causal view Perfetto renders as arrows across station threads.
func (f *Flight) WriteChromeTrace(w io.Writer) error {
	recs := f.Records()
	stations := map[int]bool{}
	for _, r := range recs {
		stations[r.Src] = true
		for _, fr := range r.Frames {
			stations[fr.Sender] = true
		}
		for _, rx := range r.Rx {
			stations[rx.Receiver] = true
		}
	}
	ids := make([]int, 0, len(stations))
	for id := range stations {
		ids = append(ids, id)
	}
	sort.Ints(ids)

	out := make([]chromeEvent, 0, len(recs)*8)
	out = append(out, chromeEvent{
		Name: "process_name", Ph: "M", Pid: 0,
		Args: map[string]any{"name": "relmac flights"},
	})
	for _, id := range ids {
		out = append(out, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 0, Tid: id,
			Args: map[string]any{"name": fmt.Sprintf("station %d", id)},
		})
	}
	for _, r := range recs {
		end := r.End
		open := end < 0
		if open {
			// Still in flight: close the async span at its last activity.
			end = r.Submit
			for _, fr := range r.Frames {
				if at := fr.Start + sim.Slot(fr.Airtime); at > end {
					end = at
				}
			}
		}
		args := map[string]any{
			"kind": r.Kind, "outcome": r.Outcome, "open": open,
			"queueing": r.Stages.Queueing, "contention": r.Stages.Contention,
			"control_air": r.Stages.Control, "data_air": r.Stages.Data,
		}
		name := fmt.Sprintf("msg %d", r.MsgID)
		out = append(out, chromeEvent{
			Name: name, Ph: "b", Cat: "flight", ID: r.MsgID,
			Ts: int64(r.Submit), Pid: 0, Tid: r.Src, Args: args,
		})
		for _, fr := range r.Frames {
			out = append(out, chromeEvent{
				Name: fr.Name, Ph: "X", Ts: int64(fr.Start), Dur: int64(fr.Airtime),
				Pid: 0, Tid: fr.Sender, Args: map[string]any{"msg": r.MsgID},
			})
			if fr.Type == frames.Data && fr.Sender == r.Src {
				out = append(out, chromeEvent{
					Name: "data", Ph: "s", Cat: "flight-flow", ID: r.MsgID,
					Ts: int64(fr.Start), Pid: 0, Tid: fr.Sender,
				})
			}
		}
		for _, rx := range r.Rx {
			out = append(out, chromeEvent{
				Name: "data", Ph: "f", BP: "e", Cat: "flight-flow", ID: r.MsgID,
				Ts: int64(rx.At), Pid: 0, Tid: rx.Receiver,
			})
		}
		out = append(out, chromeEvent{
			Name: name, Ph: "e", Cat: "flight", ID: r.MsgID,
			Ts: int64(end), Pid: 0, Tid: r.Src,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{TraceEvents: out, DisplayTimeUnit: "ms"})
}
