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

// Ledger is the slot-accurate airtime ledger: it reads the message
// events (who is contending, which messages are in retry rounds) and the
// channel state (what the medium carried each slot), and attributes
// every simulated slot to exactly one Category, counted under
// "<prefix>.airtime.<category>" in the registry alongside
// "<prefix>.airtime.total".
//
// Use a fresh Ledger per engine run — its per-message state is indexed
// by the run's message numbers, while the shared registry counters
// accumulate across runs, exactly like Stats.
//
// Per-request attribution lands in the "<prefix>.airtime_per_message"
// histogram (busy slots carrying each message, observed at completion
// or abort).
type Ledger struct {
	cats   [NumCategories]*Counter
	total  *Counter
	perMsg *Histogram
	prefix string

	// msgs is each message's attribution state at index ID-1, and
	// contending counts its entries with contending set. slots numbers
	// the slot events, so a message is charged once per slot.
	msgs       []ledgerMsg
	contending int
	slots      int64
}

// ledgerMsg is one message's attribution state, reset by finish:
// contending from a contention event to its next frame (the
// mid-backoff signal behind CatContention), retrying past a round with
// residual receivers (its clean airtime is retry overhead), and air, the
// busy slots carrying it, the last at slot number charged.
type ledgerMsg struct {
	air, charged         int64
	contending, retrying bool
}

// DefaultAirtimeBounds buckets per-message busy-slot totals; one BMMM
// round on the Table 2 timing costs roughly 8+n slots, so the shape
// spans one round up to several retries of a large group.
var DefaultAirtimeBounds = []float64{5, 8, 12, 16, 24, 32, 48, 64, 96, 128}

// NewLedger builds a Ledger registering its instruments under prefix in
// reg.
func NewLedger(reg *Registry, prefix string) *Ledger {
	l := &Ledger{
		total:  reg.Counter(prefix + ".airtime.total"),
		perMsg: reg.Histogram(prefix+".airtime_per_message", DefaultAirtimeBounds...),
		prefix: prefix,
	}
	for _, c := range Categories() {
		l.cats[c] = reg.Counter(prefix + ".airtime." + c.String())
	}
	return l
}

// Kinds implements sim.Observer: the ledger reads the channel state and
// every message event but the DATA receptions.
func (l *Ledger) Kinds() sim.KindSet {
	return sim.MessageKinds&^sim.Kinds(sim.EvDataRx) | sim.Kinds(sim.EvSlot, sim.EvIdleSpan)
}

// Observe implements sim.Observer.
func (l *Ledger) Observe(ev *sim.Event) {
	switch ev.Kind {
	case sim.EvSlot:
		l.slot(ev.Airing, ev.Collided)
	case sim.EvIdleSpan:
		// Every slot of the span stands for an EvSlot with no airing and
		// no collision, and with no events firing in between the
		// classification cannot change mid-span, so charging the whole
		// span to one classify result is exactly the per-slot sum. (A
		// message mid-contention keeps its sender non-quiescent, so
		// spans under a skipping engine are always CatIdle in practice;
		// the classify call keeps this equivalence structural rather
		// than assumed.)
		n := int64(ev.End - ev.Start + 1)
		l.total.Add(n)
		l.cats[l.classify(nil, false)].Add(n)
	case sim.EvSubmit:
		growTo(&l.msgs, ev.Req.ID)
	case sim.EvContention:
		l.setContending(ev.Req.ID, true)
	case sim.EvFrameTx:
		// The first frame of an exchange ends its sender's backoff, so
		// the message stops counting as contending.
		l.setContending(ev.Frame.MsgID, false)
	case sim.EvRound:
		// From the first round with residual receivers on, further
		// airtime for the message is retry overhead.
		if i := msgIndex(len(l.msgs), ev.Req.ID); i >= 0 && ev.Residual > 0 {
			l.msgs[i].retrying = true
		}
	case sim.EvComplete, sim.EvAbort:
		l.finish(ev.Req.ID)
	}
}

// setContending sets or clears the message's contending flag, keeping
// the count of contending messages.
func (l *Ledger) setContending(id int64, on bool) {
	if i := msgIndex(len(l.msgs), id); i >= 0 && l.msgs[i].contending != on {
		l.msgs[i].contending = on
		if on {
			l.contending++
		} else {
			l.contending--
		}
	}
}

// slot classifies one slot and charges per-message airtime.
func (l *Ledger) slot(airing []sim.AiringTx, collided bool) {
	l.total.Inc()
	l.cats[l.classify(airing, collided)].Inc()
	l.slots++
	for _, tx := range airing {
		if i := msgIndex(len(l.msgs), tx.Frame.MsgID); i >= 0 && l.msgs[i].charged != l.slots {
			l.msgs[i].charged = l.slots
			l.msgs[i].air++
		}
	}
}

// classify maps one slot's channel state to its exclusive category.
func (l *Ledger) classify(airing []sim.AiringTx, collided bool) Category {
	if collided {
		return CatCollision
	}
	if len(airing) == 0 {
		if l.contending > 0 {
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
			if i := msgIndex(len(l.msgs), id); i >= 0 && l.msgs[i].retrying {
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

// finish observes a terminal message's airtime and resets its state:
// frames that air after the terminal event count afresh.
func (l *Ledger) finish(id int64) {
	if i := msgIndex(len(l.msgs), id); i >= 0 {
		l.perMsg.Observe(float64(l.msgs[i].air))
		l.setContending(id, false)
		l.msgs[i] = ledgerMsg{}
	}
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
