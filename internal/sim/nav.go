package sim

import (
	"relmac/internal/frames"
	"relmac/internal/geom"
)

// navState is a station's virtual carrier sense: the reservations
// announced in the Duration field of the frames it decoded without being
// their receiver. Real 802.11 keeps a single scalar NAV; the paper's
// receiver rule (Figure 3), however, distinguishes "yielding to somebody
// else's exchange" (refuse to answer) from "inside the reservation of the
// exchange that is polling me" (a BMMM batch receiver must answer its
// RTS/RAK even though the batch's own first RTS reserved the medium past
// that point). So reservations are kept per exchange (message ID).
//
// Two entries answer both questions exactly: entry 0 is the reservation
// that reaches furthest, entry 1 the furthest among the other exchanges.
// A raise only ever extends its exchange's reservation (it keeps the
// maximum), so nothing needs pruning: an expired entry simply stops
// counting. end is exclusive — the first slot no longer reserved — so the
// zero value holds no reservation.
type navState struct {
	id  [2]int64
	end [2]Slot
}

// raise records that exchange id reserves the medium up to, not
// including, slot end.
func (n *navState) raise(id int64, end Slot) {
	switch {
	case id == n.id[0]:
		n.end[0] = max(n.end[0], end)
	case end > n.end[0]:
		n.id[1], n.end[1] = n.id[0], n.end[0]
		n.id[0], n.end[0] = id, end
	case end > n.end[1]:
		n.id[1], n.end[1] = id, end
	}
}

// yielding reports whether any reservation covers slot now.
func (n *navState) yielding(now Slot) bool { return n.end[0] > now }

// yieldingToOther reports whether a reservation of an exchange other
// than id covers slot now.
func (n *navState) yieldingToOther(id int64, now Slot) bool {
	return (n.id[0] != id && n.end[0] > now) || (n.id[1] != id && n.end[1] > now)
}

// raisesNAV reports whether f, decoded clean by a station in role rx,
// raises that station's NAV (the receiver's protocol of Figure 3): a
// frame announcing a Duration that is not directed at the station. Being
// addressed, or being named in the group of a DATA frame, is being
// directed at it. Being addressed does not clear an existing foreign
// reservation either: a station yielding to another exchange refuses to
// answer until that reservation expires.
func raisesNAV(f *frames.Frame, rx Rx) bool {
	return f.Duration > 0 && rx&RxAddressed == 0 && !(f.Type == frames.Data && rx&RxMember != 0)
}

// navDuration returns how long f silences station j. Normally that is
// the frame's full Duration. With the location-aware exposed-terminal
// option (Config.ExposedTerminal, the future-work direction of the
// paper's §8), a station that overhears an RTS whose data receivers are
// all beyond its own transmission range knows its transmissions cannot
// corrupt their receptions; it reserves only the CTS turnaround
// (protecting the RTS sender's reception of the CTS) and afterwards
// relies on physical carrier sense. The residual risk — a collision with
// the exchange's closing ACKs at the sender — is the classic
// exposed-terminal trade-off.
func (e *Engine) navDuration(f *frames.Frame, j int) int {
	if !e.exposed || f.Type != frames.RTS {
		return f.Duration
	}
	me := e.topo.Pos(j)
	if f.Group == nil {
		if e.nearReceiver(me, f.Dst) {
			return f.Duration
		}
	} else {
		for _, a := range f.Group {
			if e.nearReceiver(me, a) {
				return f.Duration
			}
		}
	}
	return min(f.Duration, e.timing.Control+1)
}

// nearReceiver reports whether address a names a station within me's
// transmission range; addresses naming no station count as near, so the
// exposed-terminal option stays conservative.
func (e *Engine) nearReceiver(me geom.Point, a frames.Addr) bool {
	if a < 0 || int(a) >= e.topo.N() {
		return true
	}
	return me.InRange(e.topo.Pos(int(a)), e.topo.Radius())
}
