package obs

import (
	"fmt"

	"relmac/internal/frames"
	"relmac/internal/sim"
)

// Category classifies where one simulated slot went. Every slot lands in
// exactly one category, so per-category counts sum to the total slot
// count — the conservation invariant the ledger tests pin.
type Category uint8

// Slot categories, in classification-priority order (highest first when
// several apply to the same slot): a collided slot is a collision no
// matter which frames overlapped; a clean busy slot belonging entirely
// to retry rounds is retry overhead; otherwise a busy slot takes the
// dominant airing frame's category; an idle-channel slot with at least
// one station mid-backoff is contention; all else is idle.
const (
	CatCollision Category = iota
	CatRetry
	CatData
	CatRAK
	CatACK
	CatRTS
	CatCTS
	CatControl // NAK, the BSMA and KK-Leader negative feedback frame
	CatContention
	CatIdle
	numCategories
)

// NumCategories is the number of distinct slot categories.
const NumCategories = int(numCategories)

// String implements fmt.Stringer; the forms double as registry counter
// suffixes and JSON keys, so they are part of the export schema.
func (c Category) String() string {
	switch c {
	case CatCollision:
		return "collision"
	case CatRetry:
		return "retry"
	case CatData:
		return "data"
	case CatRAK:
		return "rak"
	case CatACK:
		return "ack"
	case CatRTS:
		return "rts"
	case CatCTS:
		return "cts"
	case CatControl:
		return "control"
	case CatContention:
		return "contention"
	case CatIdle:
		return "idle"
	default:
		return fmt.Sprintf("Category(%d)", uint8(c))
	}
}

// Categories returns every category in classification-priority order.
func Categories() [NumCategories]Category {
	var cs [NumCategories]Category
	for i := range cs {
		cs[i] = Category(i)
	}
	return cs
}

// frameCategory maps an airing frame's type to its busy-slot category.
func frameCategory(t frames.Type) Category {
	switch t {
	case frames.RTS:
		return CatRTS
	case frames.CTS:
		return CatCTS
	case frames.Data:
		return CatData
	case frames.ACK:
		return CatACK
	case frames.RAK:
		return CatRAK
	default:
		return CatControl
	}
}

// busyPriority ranks frame categories when several frames share a clean
// slot (spatial reuse): the slot takes the most payload-like category.
func busyPriority(c Category) int {
	switch c {
	case CatData:
		return 5
	case CatRAK:
		return 4
	case CatACK:
		return 3
	case CatRTS:
		return 2
	case CatCTS:
		return 1
	default: // CatControl
		return 0
	}
}

// Ledger is the slot-accurate airtime ledger: it implements both
// sim.Observer (protocol lifecycle — who is contending, which messages
// are in retry rounds) and sim.SlotObserver (channel state — what the
// medium carried each slot), and attributes every simulated slot to
// exactly one Category, counted under "<prefix>.airtime.<category>" in
// the registry alongside "<prefix>.airtime.total".
//
// Attach the same instance on both hooks: append it to
// Config.Observers and to Config.SlotObservers (RunConfig.Observers and
// RunConfig.SlotObservers in experiments).
// Use a fresh Ledger per engine run — message identity maps reset with
// the instance while the shared registry counters accumulate across
// runs, exactly like Stats.
//
// Per-request attribution lands in the "<prefix>.airtime_per_message"
// histogram (busy slots carrying each message, observed at completion
// or abort).
type Ledger struct {
	cats   [NumCategories]*Counter
	total  *Counter
	perMsg *Histogram
	prefix string

	// contending holds messages between an OnContention and their next
	// frame transmission — the "station is mid-backoff" signal that
	// turns an idle-channel slot into CatContention.
	contending map[int64]struct{}
	// retrying marks messages with at least one completed round: their
	// subsequent clean airtime is retry-round overhead.
	retrying map[int64]struct{}
	// msgAir accumulates busy slots per in-flight message.
	msgAir map[int64]int64

	// msgSeen is the per-slot dedupe scratch for msgAir.
	msgSeen []int64
}

// DefaultAirtimeBounds buckets per-message busy-slot totals; one BMMM
// round on the Table 2 timing costs roughly 8+n slots, so the shape
// spans one round up to several retries of a large group.
var DefaultAirtimeBounds = []float64{5, 8, 12, 16, 24, 32, 48, 64, 96, 128}

// NewLedger builds a Ledger registering its instruments under prefix in
// reg.
func NewLedger(reg *Registry, prefix string) *Ledger {
	l := &Ledger{
		total:      reg.Counter(prefix + ".airtime.total"),
		perMsg:     reg.Histogram(prefix+".airtime_per_message", DefaultAirtimeBounds...),
		prefix:     prefix,
		contending: make(map[int64]struct{}),
		retrying:   make(map[int64]struct{}),
		msgAir:     make(map[int64]int64),
	}
	for _, c := range Categories() {
		l.cats[c] = reg.Counter(prefix + ".airtime." + c.String())
	}
	return l
}

// OnSlot implements sim.SlotObserver: classify the slot and charge
// per-message airtime.
func (l *Ledger) OnSlot(now sim.Slot, airing []sim.AiringTx, collided bool) {
	l.total.Inc()
	l.cats[l.classify(airing, collided)].Inc()

	if len(airing) == 0 {
		return
	}
	l.msgSeen = l.msgSeen[:0]
	for _, tx := range airing {
		id := tx.Frame.MsgID
		if id <= 0 {
			continue
		}
		dup := false
		for _, seen := range l.msgSeen {
			if seen == id {
				dup = true
				break
			}
		}
		if !dup {
			l.msgSeen = append(l.msgSeen, id)
			l.msgAir[id]++
		}
	}
}

// OnIdleSpan implements sim.SlotObserver: attribute a skipped idle
// stretch in bulk. Every slot of the span would have arrived as
// OnSlot(t, nil, false), and with no events firing between the calls
// the classification cannot change mid-span, so charging the whole
// span to one classify result is exactly the per-slot sum. (A message
// mid-contention keeps its sender non-quiescent, so spans under a
// skipping engine are always CatIdle in practice; the classify call
// keeps this equivalence structural rather than assumed.)
func (l *Ledger) OnIdleSpan(from, to sim.Slot) {
	n := int64(to - from + 1)
	l.total.Add(n)
	l.cats[l.classify(nil, false)].Add(n)
}

// classify maps one slot's channel state to its exclusive category.
func (l *Ledger) classify(airing []sim.AiringTx, collided bool) Category {
	if collided {
		return CatCollision
	}
	if len(airing) == 0 {
		if len(l.contending) > 0 {
			return CatContention
		}
		return CatIdle
	}
	// Clean busy slot: retry overhead when every message-bearing frame
	// belongs to a message past its first round, else the dominant
	// frame's category.
	allRetry := false
	best := CatControl
	bestPri := -1
	for _, tx := range airing {
		if id := tx.Frame.MsgID; id > 0 {
			if _, ok := l.retrying[id]; ok {
				allRetry = true
			} else {
				allRetry = false
				break
			}
		}
	}
	if allRetry {
		return CatRetry
	}
	for _, tx := range airing {
		if c := frameCategory(tx.Frame.Type); busyPriority(c) > bestPri {
			best, bestPri = c, busyPriority(c)
		}
	}
	return best
}

// OnSubmit implements sim.Observer.
func (l *Ledger) OnSubmit(req *sim.Request, now sim.Slot) {}

// OnContention implements sim.Observer.
func (l *Ledger) OnContention(req *sim.Request, now sim.Slot) {
	l.contending[req.ID] = struct{}{}
}

// OnFrameTx implements sim.Observer: the first frame of an exchange ends
// its sender's backoff, so the message stops counting as contending.
func (l *Ledger) OnFrameTx(f *frames.Frame, sender int, now sim.Slot) {
	if f.MsgID > 0 {
		delete(l.contending, f.MsgID)
	}
}

// OnDataRx implements sim.Observer.
func (l *Ledger) OnDataRx(msgID int64, receiver int, now sim.Slot) {}

// OnRound implements sim.Observer: from the first completed round on,
// further airtime for the message is retry overhead.
func (l *Ledger) OnRound(req *sim.Request, residual int, now sim.Slot) {
	if residual > 0 {
		l.retrying[req.ID] = struct{}{}
	}
}

// OnComplete implements sim.Observer.
func (l *Ledger) OnComplete(req *sim.Request, now sim.Slot) { l.finish(req.ID) }

// OnAbort implements sim.Observer.
func (l *Ledger) OnAbort(req *sim.Request, reason sim.AbortReason, now sim.Slot) {
	l.finish(req.ID)
}

func (l *Ledger) finish(id int64) {
	l.perMsg.Observe(float64(l.msgAir[id]))
	delete(l.msgAir, id)
	delete(l.contending, id)
	delete(l.retrying, id)
}

// LedgerSnapshot is a point-in-time airtime breakdown read back from the
// registry; it is the ledger's JSON export shape.
type LedgerSnapshot struct {
	Prefix     string           `json:"prefix"`
	TotalSlots int64            `json:"total_slots"`
	Categories map[string]int64 `json:"categories"`
}

// Snapshot reads the current per-category counts. Because counters
// accumulate in the shared registry, the snapshot covers every run
// ledgered under this prefix so far.
func (l *Ledger) Snapshot() LedgerSnapshot {
	s := LedgerSnapshot{
		Prefix:     l.prefix,
		TotalSlots: l.total.Value(),
		Categories: make(map[string]int64, NumCategories),
	}
	for _, c := range Categories() {
		s.Categories[c.String()] = l.cats[c].Value()
	}
	return s
}

// Conserved reports whether the per-category counts sum exactly to the
// total slot count — the ledger's defining invariant.
func (s LedgerSnapshot) Conserved() bool {
	var sum int64
	for _, v := range s.Categories {
		sum += v
	}
	return sum == s.TotalSlots
}

// CategoryNames returns the category keys in classification-priority
// order — the canonical column order for tables and docs.
func CategoryNames() []string {
	names := make([]string, 0, NumCategories)
	for _, c := range Categories() {
		names = append(names, c.String())
	}
	return names
}
