package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync/atomic"

	"relmac/internal/sim"
)

// DefaultTracerCapacity bounds a Tracer's ring buffer when NewTracer is
// given a non-positive capacity: one million events is roughly a full
// default run (10 000 slots × 100 stations) at moderate load.
const DefaultTracerCapacity = 1 << 20

// Tracer is a sim.Observer of the message events, recording each into a
// bounded ring buffer. When the buffer fills, the oldest events
// are overwritten (and counted in Dropped), so tracing a long run keeps
// the most recent window instead of growing without bound.
//
// A Tracer is not safe for concurrent use; attach one per engine run.
// The exception is the counters behind Stats and Dropped, which are
// atomics so a live /snapshot endpoint can report buffer health while
// the engine is still recording.
type Tracer struct {
	capacity int
	buf      []Event // grows on demand up to capacity, then wraps
	next     int     // ring write position
	wrapped  bool    // buffer has overwritten at least one event
	buffered atomic.Int64
	dropped  atomic.Int64
}

// TracerStats is the concurrency-safe buffer-health summary a live
// endpoint reads: how many events are buffered, how many the ring has
// overwritten, and the configured capacity.
type TracerStats struct {
	Buffered int64 `json:"buffered"`
	Dropped  int64 `json:"dropped"`
	Capacity int   `json:"capacity"`
}

// NewTracer builds a Tracer holding at most capacity events;
// capacity <= 0 selects DefaultTracerCapacity. The buffer grows on
// demand, so short runs never pay for the full ring.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTracerCapacity
	}
	return &Tracer{capacity: capacity}
}

func (t *Tracer) record(ev Event) {
	if len(t.buf) < t.capacity {
		t.buf = append(t.buf, ev)
		t.buffered.Store(int64(len(t.buf)))
		return
	}
	t.buf[t.next] = ev
	t.next++
	if t.next == len(t.buf) {
		t.next = 0
	}
	t.wrapped = true
	t.dropped.Add(1)
}

// Kinds implements sim.Observer: the tracer records the message events.
func (t *Tracer) Kinds() sim.KindSet { return sim.MessageKinds }

// Observe implements sim.Observer. A frame-tx event's Dur is its airtime on the engine's timing.
func (t *Tracer) Observe(ev *sim.Event) {
	rec := Event{Kind: ev.Kind, Slot: ev.Slot, Station: ev.Station, Residual: ev.Residual, Reason: ev.Reason}
	if ev.Req != nil {
		rec.Station, rec.MsgID = ev.Req.Src, ev.Req.ID
	}
	if f := ev.Frame; f != nil {
		rec.MsgID = f.MsgID
		if ev.Kind == sim.EvFrameTx {
			rec.Frame, rec.Src, rec.Dst, rec.Dur = f.Type, f.Src, f.Dst, int(ev.End-ev.Start+1)
		}
	}
	t.record(rec)
}

// Len returns the number of buffered events.
func (t *Tracer) Len() int { return len(t.buf) }

// Dropped returns how many events were overwritten after the ring
// filled. Safe to call while the engine is recording.
func (t *Tracer) Dropped() int64 { return t.dropped.Load() }

// Stats returns the buffer-health counters. Safe to call while the
// engine is recording, unlike Events and the Write* exports.
func (t *Tracer) Stats() TracerStats {
	return TracerStats{
		Buffered: t.buffered.Load(),
		Dropped:  t.dropped.Load(),
		Capacity: t.capacity,
	}
}

// Events returns the buffered events oldest-first. The slice is freshly
// allocated; mutating it does not disturb the tracer.
func (t *Tracer) Events() []Event {
	if !t.wrapped {
		return append([]Event(nil), t.buf...)
	}
	out := make([]Event, 0, len(t.buf))
	out = append(out, t.buf[t.next:]...)
	return append(out, t.buf[:t.next]...)
}

// jsonEvent fixes the JSONL field order; struct order is the schema.
type jsonEvent struct {
	Slot     int64  `json:"slot"`
	Event    string `json:"event"`
	Station  int    `json:"station"`
	Msg      int64  `json:"msg"`
	Frame    string `json:"frame,omitempty"`
	Src      string `json:"src,omitempty"`
	Dst      string `json:"dst,omitempty"`
	Dur      int    `json:"dur,omitempty"`
	Residual *int   `json:"residual,omitempty"`
	Reason   string `json:"reason,omitempty"`
}

// jsonMeta is the JSONL header line surfacing ring-buffer overflow: it
// appears only when events were dropped, so complete traces stay
// byte-identical to the pre-meta schema.
type jsonMeta struct {
	Event    string `json:"event"` // always "tracer-meta"
	Dropped  int64  `json:"dropped"`
	Buffered int    `json:"buffered"`
}

// WriteJSONL writes the buffered events oldest-first, one JSON object
// per line, fields in schema order (slot, event, station, msg, then
// frame/src/dst/dur for frame-tx events, residual for round events and
// reason for abort events). When the ring wrapped, the first line is a
// "tracer-meta" record carrying the drop count, so a reader knows the
// window is truncated before consuming it.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if dropped := t.dropped.Load(); dropped > 0 {
		if err := enc.Encode(jsonMeta{Event: "tracer-meta", Dropped: dropped, Buffered: t.Len()}); err != nil {
			return err
		}
	}
	for _, ev := range t.Events() {
		je := jsonEvent{
			Slot:    int64(ev.Slot),
			Event:   ev.Kind.String(),
			Station: ev.Station,
			Msg:     ev.MsgID,
		}
		switch ev.Kind {
		case sim.EvFrameTx:
			je.Frame = ev.Frame.String()
			je.Src = ev.Src.String()
			je.Dst = ev.Dst.String()
			je.Dur = ev.Dur
		case sim.EvRound:
			residual := ev.Residual
			je.Residual = &residual // pointer so residual 0 still prints
		case sim.EvAbort:
			je.Reason = ev.Reason.String()
		}
		if err := enc.Encode(je); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// chromeEvent is one entry of the Chrome trace-event format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU);
// Perfetto renders "X" complete events as spans and "i" events as
// instants on the thread identified by (pid, tid).
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Cat  string         `json:"cat,omitempty"`
	ID   int64          `json:"id,omitempty"`
	Ts   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	BP   string         `json:"bp,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace writes the buffered events as Chrome trace-event
// JSON: one process ("relmac"), one thread per station, one span per
// frame transmission (named after the frame type) and one instant per
// lifecycle event. Timestamps are in microseconds with one slot mapped
// to one microsecond, so slot numbers read directly off the Perfetto
// timeline.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	events := t.Events()
	stations := map[int]bool{}
	for _, ev := range events {
		stations[ev.Station] = true
	}
	ids := make([]int, 0, len(stations))
	for id := range stations {
		ids = append(ids, id)
	}
	sort.Ints(ids)

	out := make([]chromeEvent, 0, len(events)+len(ids)+1)
	out = append(out, chromeEvent{
		Name: "process_name", Ph: "M", Pid: 0,
		Args: map[string]any{"name": "relmac"},
	})
	for _, id := range ids {
		out = append(out, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 0, Tid: id,
			Args: map[string]any{"name": fmt.Sprintf("station %d", id)},
		})
	}
	if dropped := t.dropped.Load(); dropped > 0 {
		// Metadata event surfacing ring-buffer overflow; absent from
		// complete traces so their goldens stay byte-identical.
		out = append(out, chromeEvent{
			Name: "tracer_dropped", Ph: "M", Pid: 0,
			Args: map[string]any{"dropped": dropped, "buffered": len(events)},
		})
	}
	for _, ev := range events {
		ce := chromeEvent{Ts: int64(ev.Slot), Pid: 0, Tid: ev.Station,
			Args: map[string]any{"msg": ev.MsgID}}
		if ev.Kind == sim.EvFrameTx {
			ce.Name = ev.Frame.String()
			ce.Ph = "X"
			ce.Dur = int64(ev.Dur)
			ce.Args["src"] = ev.Src.String()
			ce.Args["dst"] = ev.Dst.String()
		} else {
			ce.Name = ev.Kind.String()
			ce.Ph = "i"
			ce.S = "t" // thread-scoped instant
			switch ev.Kind {
			case sim.EvRound:
				ce.Args["residual"] = ev.Residual
			case sim.EvAbort:
				ce.Args["reason"] = ev.Reason.String()
			}
		}
		out = append(out, ce)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{TraceEvents: out, DisplayTimeUnit: "ms"})
}
