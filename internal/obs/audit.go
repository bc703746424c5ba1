package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"

	"relmac/internal/frames"
	"relmac/internal/sim"
)

var (
	_ sim.Observer          = (*Auditor)(nil)
	_ sim.LifecycleObserver = (*Auditor)(nil)
)

// AuditProtocol selects which protocol state machine the Auditor checks
// observed frame sequences against.
type AuditProtocol uint8

const (
	// AuditPlain is unreliable 802.11 multicast: one contention, one
	// broadcast DATA, no control frames at all.
	AuditPlain AuditProtocol = iota
	// AuditBSMA is the Tang–Gerla RTS/CTS broadcast with the NAK rule:
	// group RTS, CTS before DATA, NAK-triggered retransmission.
	AuditBSMA
	// AuditBMW is per-receiver unicast rounds, RTS/CTS/DATA/ACK with
	// CTS-suppressed retransmissions; residuals shrink by exactly one.
	AuditBMW
	// AuditBMMM is the paper's batch mode: RTS polls, one DATA, RAK/ACK
	// polls, monotone residual sets.
	AuditBMMM
	// AuditLAMM is BMMM over the minimum cover set; same exchange grammar.
	AuditLAMM
)

// String implements fmt.Stringer.
func (p AuditProtocol) String() string {
	switch p {
	case AuditPlain:
		return "802.11"
	case AuditBSMA:
		return "BSMA"
	case AuditBMW:
		return "BMW"
	case AuditBMMM:
		return "BMMM"
	case AuditLAMM:
		return "LAMM"
	}
	return fmt.Sprintf("AuditProtocol(%d)", uint8(p))
}

// AuditProtocolFor maps an experiments-style protocol name to its audit
// state machine. The boolean is false for protocols the auditor has no
// model for (notably KK-Leader, whose leader ACK and NAK jam it does not
// model).
func AuditProtocolFor(name string) (AuditProtocol, bool) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "802.11", "plain", "dcf":
		return AuditPlain, true
	case "bsma", "tg-bcast", "tgbcast":
		return AuditBSMA, true
	case "bmw":
		return AuditBMW, true
	case "bmmm":
		return AuditBMMM, true
	case "lamm":
		return AuditLAMM, true
	}
	return 0, false
}

// batched reports whether the protocol runs the BMMM/LAMM batch grammar.
func (p AuditProtocol) batched() bool { return p == AuditBMMM || p == AuditLAMM }

// rounds reports whether the protocol reports rounds at all.
func (p AuditProtocol) rounds() bool { return p == AuditBMW || p.batched() }

// reliable reports whether completion asserts an empty residual set.
func (p AuditProtocol) reliable() bool { return p.rounds() }

// senderLegal reports whether the protocol's sender may originate t.
func (p AuditProtocol) senderLegal(t frames.Type) bool {
	switch t {
	case frames.Data:
		return true
	case frames.RTS:
		return p != AuditPlain
	case frames.RAK:
		return p.batched()
	default:
		// CTS/ACK/NAK are receiver frames.
		return false
	}
}

// receiverLegal reports whether a polled receiver may originate t.
func (p AuditProtocol) receiverLegal(t frames.Type) bool {
	switch t {
	case frames.CTS:
		return p != AuditPlain
	case frames.ACK:
		return p == AuditBMW || p.batched()
	case frames.NAK:
		return p == AuditBSMA
	default:
		// RTS/DATA/RAK originate at the sender.
		return false
	}
}

// Finding is one conformance violation: a frame sequence or lifecycle
// transition the protocol's published state machine cannot produce.
type Finding struct {
	MsgID   int64    `json:"msg"`
	Slot    sim.Slot `json:"slot"`
	Station int      `json:"station"`
	Rule    string   `json:"rule"`
	Detail  string   `json:"detail"`
}

// AuditStats is the concurrency-safe summary a live endpoint reads.
type AuditStats struct {
	Protocol   string `json:"protocol"`
	Audited    int64  `json:"audited"`
	Violations int64  `json:"violations"`
}

// auditMsg is the auditor's per-message shadow state machine.
type auditMsg struct {
	src      int
	dests    int
	started  bool
	closed   bool
	dataEver bool

	contentions int
	roundStarts int

	lastResidual int
	roundOpen    bool
	roundPolled  int
	roundData    int // DATA transmissions since the round opened
	roundSupCTS  int // suppress-CTS transmissions since the round opened

	// exchange counters, reset at every contention begin: one exchange is
	// everything between winning the medium and the next contention.
	exRTS, exCTS, exNonSupCTS, exData, exRAK int
}

// Auditor checks every observed multicast/broadcast exchange against the
// selected protocol's state machine: legal frame types and orderings
// (RTS before DATA, CTS before DATA, DATA before RAK, RAK polls before a
// retry round), round accounting (1-based consecutive ordinals, poll
// sizes bounded by the residual, residual-set monotonicity — exactly −1
// per BMW round), retry bounds against the configured limit, and
// terminal conditions (reliable protocols complete only with an empty
// residual; retry aborts only at the retry limit).
//
// The auditor sees transmissions, not receptions. That direction is what
// makes it sound under collisions: a sender acting on a response it
// decoded implies the response was transmitted, so "DATA without any
// CTS transmitted" is a true violation, while a transmitted-but-collided
// CTS never produces a false positive.
//
// It implements sim.Observer and sim.LifecycleObserver; unicast traffic
// is ignored. All methods take an internal lock so HTTP snapshot readers
// can observe a live run.
type Auditor struct {
	proto      AuditProtocol
	retryLimit int

	mu       sync.Mutex
	msgs     map[int64]*auditMsg
	findings []Finding
	total    int64
	audited  int64
}

// maxFindings caps the retained findings per auditor; violations past
// the cap are still counted in Violations.
const maxFindings = 1024

// NewAuditor builds an Auditor for the given protocol grammar.
// retryLimit is the mac.Config.RetryLimit of the run; non-positive
// disables the retry-bound rules.
func NewAuditor(p AuditProtocol, retryLimit int) *Auditor {
	return &Auditor{proto: p, retryLimit: retryLimit, msgs: make(map[int64]*auditMsg)}
}

// Protocol returns the grammar the auditor checks against.
func (a *Auditor) Protocol() AuditProtocol { return a.proto }

// flag records one violation. Callers hold a.mu.
func (a *Auditor) flag(msgID int64, now sim.Slot, station int, rule, format string, args ...any) {
	a.total++
	if len(a.findings) < maxFindings {
		a.findings = append(a.findings, Finding{
			MsgID: msgID, Slot: now, Station: station,
			Rule: rule, Detail: fmt.Sprintf(format, args...),
		})
	}
}

// OnSubmit implements sim.Observer.
func (a *Auditor) OnSubmit(req *sim.Request, now sim.Slot) {
	if req.Kind == sim.Unicast {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.audited++
	a.msgs[req.ID] = &auditMsg{src: req.Src, dests: len(req.Dests), lastResidual: len(req.Dests)}
}

// OnServiceStart implements sim.LifecycleObserver.
func (a *Auditor) OnServiceStart(req *sim.Request, now sim.Slot) {
	if req.Kind == sim.Unicast {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	m := a.msgs[req.ID]
	if m == nil {
		return
	}
	switch {
	case m.closed:
		a.flag(req.ID, now, req.Src, "service-after-close", "message re-entered service after its terminal event")
	case m.started:
		a.flag(req.ID, now, req.Src, "double-service", "second service start for the same message")
	}
	m.started = true
}

// OnContention implements sim.Observer.
func (a *Auditor) OnContention(req *sim.Request, now sim.Slot) {
	if req.Kind == sim.Unicast {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	m := a.msgs[req.ID]
	if m == nil {
		return
	}
	if !m.started {
		a.flag(req.ID, now, req.Src, "contention-before-service", "contention begun before service start")
	}
	m.contentions++
	if a.retryLimit > 0 && m.contentions > a.retryLimit {
		a.flag(req.ID, now, req.Src, "retry-overrun",
			"contention %d exceeds retry limit %d", m.contentions, a.retryLimit)
	}
	m.exRTS, m.exCTS, m.exNonSupCTS, m.exData, m.exRAK = 0, 0, 0, 0, 0
}

// OnRoundStart implements sim.LifecycleObserver.
func (a *Auditor) OnRoundStart(req *sim.Request, round, polled int, now sim.Slot) {
	if req.Kind == sim.Unicast {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	m := a.msgs[req.ID]
	if m == nil {
		return
	}
	switch {
	case !a.proto.rounds():
		a.flag(req.ID, now, req.Src, "illegal-round", "%s has no rounds, round %d reported", a.proto, round)
	case m.closed:
		a.flag(req.ID, now, req.Src, "round-after-close", "round %d opened after the terminal event", round)
	case !m.started:
		a.flag(req.ID, now, req.Src, "round-before-service", "round %d opened before service start", round)
	}
	if round != m.roundStarts+1 {
		a.flag(req.ID, now, req.Src, "round-ordinal",
			"round ordinal %d, expected %d", round, m.roundStarts+1)
	}
	if m.roundOpen {
		if a.proto == AuditBMW {
			// BMW closes every round before opening the next; retries of
			// the current receiver re-contend without a new round.
			a.flag(req.ID, now, req.Src, "round-overlap", "round %d opened while the previous round is open", round)
		} else if m.roundData > 0 {
			// A batch round that transmitted its DATA must run the RAK/ACK
			// polls and close via a round report before any retry round.
			a.flag(req.ID, now, req.Src, "retry-before-rak",
				"round %d opened after DATA but before the RAK polls closed the round", round)
		}
	}
	switch {
	case polled < 1:
		a.flag(req.ID, now, req.Src, "empty-poll", "round %d polls %d receivers", round, polled)
	case polled > m.lastResidual:
		a.flag(req.ID, now, req.Src, "poll-exceeds-residual",
			"round %d polls %d receivers, residual is %d", round, polled, m.lastResidual)
	}
	m.roundStarts++
	m.roundOpen = true
	m.roundPolled = polled
	m.roundData = 0
	m.roundSupCTS = 0
}

// OnFrameTx implements sim.Observer.
func (a *Auditor) OnFrameTx(f *frames.Frame, sender int, now sim.Slot) {
	a.mu.Lock()
	defer a.mu.Unlock()
	m := a.msgs[f.MsgID]
	if m == nil {
		return
	}
	if sender != m.src {
		a.receiverFrame(m, f, sender, now)
		return
	}
	if m.closed {
		a.flag(f.MsgID, now, sender, "tx-after-close", "%s transmitted after the terminal event", f.Type)
		return
	}
	if !m.started {
		a.flag(f.MsgID, now, sender, "frame-before-service", "%s transmitted before service start", f.Type)
	}
	if m.contentions == 0 {
		a.flag(f.MsgID, now, sender, "frame-without-contention", "%s transmitted without any contention phase", f.Type)
	}
	if !a.proto.senderLegal(f.Type) {
		a.flag(f.MsgID, now, sender, "illegal-frame", "%s sender may not transmit %s", a.proto, f.Type)
		return
	}
	switch f.Type {
	case frames.RTS:
		if m.exData > 0 {
			a.flag(f.MsgID, now, sender, "rts-after-data", "RTS after this exchange's DATA")
		}
		m.exRTS++
		if a.proto.batched() && m.roundOpen && m.exRTS > m.roundPolled {
			a.flag(f.MsgID, now, sender, "poll-overrun",
				"RTS poll %d of a %d-receiver round", m.exRTS, m.roundPolled)
		}
	case frames.Data:
		if m.exData > 0 {
			a.flag(f.MsgID, now, sender, "duplicate-data", "second DATA in one exchange")
		}
		switch {
		case a.proto == AuditPlain:
			// No handshake: DATA straight after the contention is the protocol.
		case a.proto == AuditBMW:
			if m.exNonSupCTS == 0 {
				a.flag(f.MsgID, now, sender, "data-without-cts", "DATA with no non-suppress CTS transmitted this exchange")
			}
		default:
			if m.exCTS == 0 {
				a.flag(f.MsgID, now, sender, "data-without-cts", "DATA with no CTS transmitted this exchange")
			}
		}
		if a.proto.batched() && m.roundOpen && m.exRTS != m.roundPolled {
			a.flag(f.MsgID, now, sender, "rts-count-mismatch",
				"DATA after %d RTS polls of a %d-receiver round", m.exRTS, m.roundPolled)
		}
		m.exData++
		m.roundData++
		m.dataEver = true
	case frames.RAK:
		if m.roundData == 0 {
			a.flag(f.MsgID, now, sender, "rak-before-data", "RAK poll before the round's DATA")
		}
		m.exRAK++
		if m.roundOpen && m.exRAK > m.roundPolled {
			a.flag(f.MsgID, now, sender, "poll-overrun",
				"RAK poll %d of a %d-receiver round", m.exRAK, m.roundPolled)
		}
	default:
		// Unreachable: senderLegal admits only RTS/DATA/RAK.
	}
}

// receiverFrame audits a frame originated by a (purported) receiver.
// Stale responses flushed after the sender's terminal event are
// tolerated — the schedule raced the outcome, the grammar did not break.
func (a *Auditor) receiverFrame(m *auditMsg, f *frames.Frame, sender int, now sim.Slot) {
	if !a.proto.receiverLegal(f.Type) {
		a.flag(f.MsgID, now, sender, "illegal-frame", "%s receiver may not transmit %s", a.proto, f.Type)
		return
	}
	if m.closed {
		return
	}
	switch f.Type {
	case frames.CTS:
		m.exCTS++
		if f.Suppress {
			m.roundSupCTS++
		} else {
			m.exNonSupCTS++
		}
	default:
		// ACK/NAK carry no ordering constraints the sender rules don't
		// already cover.
	}
}

// OnDataRx implements sim.Observer; reception carries no grammar.
func (a *Auditor) OnDataRx(msgID int64, receiver int, now sim.Slot) {}

// OnResponseDrop implements sim.LifecycleObserver; a stale response
// silently discarded is lossy but legal.
func (a *Auditor) OnResponseDrop(station int, f *frames.Frame, now sim.Slot) {}

// OnRound implements sim.Observer: one round closed with the residual.
func (a *Auditor) OnRound(req *sim.Request, residual int, now sim.Slot) {
	if req.Kind == sim.Unicast {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	m := a.msgs[req.ID]
	if m == nil {
		return
	}
	if !a.proto.rounds() {
		a.flag(req.ID, now, req.Src, "illegal-round", "%s has no rounds, residual %d reported", a.proto, residual)
		return
	}
	if !m.roundOpen {
		a.flag(req.ID, now, req.Src, "round-close-without-start", "round closed with residual %d but no round is open", residual)
	}
	switch {
	case residual < 0:
		a.flag(req.ID, now, req.Src, "residual-negative", "residual %d", residual)
	case residual > m.lastResidual:
		a.flag(req.ID, now, req.Src, "residual-increase",
			"residual grew %d -> %d", m.lastResidual, residual)
	case a.proto == AuditBMW && residual != m.lastResidual-1:
		a.flag(req.ID, now, req.Src, "bmw-residual-step",
			"residual %d -> %d, BMW rounds serve exactly one receiver", m.lastResidual, residual)
	}
	if m.roundData == 0 {
		if a.proto == AuditBMW {
			// A CTS(suppress) closes a BMW round with no DATA; anything
			// else must have transmitted the frame.
			if m.roundSupCTS == 0 {
				a.flag(req.ID, now, req.Src, "round-close-without-data",
					"round closed with no DATA and no suppress CTS")
			}
		} else {
			a.flag(req.ID, now, req.Src, "round-close-without-data", "batch round closed with no DATA")
		}
	}
	if a.proto.batched() && m.roundData > 0 && m.exRAK != m.roundPolled {
		a.flag(req.ID, now, req.Src, "rak-count-mismatch",
			"round closed after %d RAK polls of a %d-receiver round", m.exRAK, m.roundPolled)
	}
	m.lastResidual = residual
	m.roundOpen = false
}

// OnComplete implements sim.Observer.
func (a *Auditor) OnComplete(req *sim.Request, now sim.Slot) {
	if req.Kind == sim.Unicast {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	m := a.msgs[req.ID]
	if m == nil {
		return
	}
	if m.closed {
		a.flag(req.ID, now, req.Src, "double-terminal", "completion after a terminal event")
	}
	if !m.started {
		a.flag(req.ID, now, req.Src, "complete-before-service", "completion before service start")
	}
	if a.proto.reliable() && m.lastResidual != 0 {
		a.flag(req.ID, now, req.Src, "complete-with-residual",
			"%s completed with residual %d", a.proto, m.lastResidual)
	}
	if m.dests > 0 && !m.dataEver {
		a.flag(req.ID, now, req.Src, "complete-without-data",
			"completed for %d receivers with no DATA transmitted", m.dests)
	}
	m.closed = true
}

// OnAbort implements sim.Observer.
func (a *Auditor) OnAbort(req *sim.Request, reason sim.AbortReason, now sim.Slot) {
	if req.Kind == sim.Unicast {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	m := a.msgs[req.ID]
	if m == nil {
		return
	}
	if m.closed {
		a.flag(req.ID, now, req.Src, "double-terminal", "abort after a terminal event")
	}
	if reason == sim.AbortRetries {
		if !m.started {
			a.flag(req.ID, now, req.Src, "abort-before-service", "retry abort before service start")
		}
		if a.retryLimit > 0 && m.contentions < a.retryLimit {
			a.flag(req.ID, now, req.Src, "premature-retry-abort",
				"retry abort after %d contentions, limit %d", m.contentions, a.retryLimit)
		}
	}
	// Deadline aborts are legal at any point, including while queued.
	m.closed = true
}

// Audited returns the number of group messages the auditor tracked.
func (a *Auditor) Audited() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.audited
}

// Violations returns the total number of violations, including any past
// the retained-findings cap.
func (a *Auditor) Violations() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.total
}

// Findings returns a copy of the retained findings in detection order.
func (a *Auditor) Findings() []Finding {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]Finding(nil), a.findings...)
}

// Stats returns the live summary counters.
func (a *Auditor) Stats() AuditStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return AuditStats{Protocol: a.proto.String(), Audited: a.audited, Violations: a.total}
}

// auditReport is the JSON document WriteReport emits.
type auditReport struct {
	Protocol   string    `json:"protocol"`
	Audited    int64     `json:"audited"`
	Violations int64     `json:"violations"`
	Findings   []Finding `json:"findings"`
}

// WriteReport writes the audit outcome as one indented JSON document.
func (a *Auditor) WriteReport(w io.Writer) error {
	a.mu.Lock()
	rep := auditReport{
		Protocol:   a.proto.String(),
		Audited:    a.audited,
		Violations: a.total,
		Findings:   append([]Finding(nil), a.findings...),
	}
	a.mu.Unlock()
	if rep.Findings == nil {
		rep.Findings = []Finding{}
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return err
	}
	return bw.Flush()
}
