// Package frames defines the MAC frame vocabulary shared by all protocols
// in this repository: the IEEE 802.11 control and data frames (RTS, CTS,
// ACK, DATA), the NAK frame added by BSMA [20], and the RAK (Request for
// ACK) control frame introduced by the paper for BMMM/LAMM. RAK has the
// same format as ACK — frame control, Duration, receiver address and FCS
// (paper, Figure 1) — which is what lets BMMM co-exist with standard
// 802.11 equipment.
//
// Frames carry a Duration field expressed in slots; stations overhearing a
// frame not addressed to them yield (set their NAV) for that long, which
// is the virtual carrier sense that defeats the hidden-terminal problem.
package frames

import "fmt"

// Type enumerates MAC frame types.
type Type uint8

// Frame types. There is no beacon frame: the simulator treats neighbor
// tables (and LAMM's neighbor locations) as already learned, as the
// paper does.
const (
	RTS Type = iota
	CTS
	Data
	ACK
	RAK // Request for ACK — the paper's new control frame (Figure 1)
	NAK // negative ACK used by BSMA [20]
	numTypes
)

// NumTypes is the number of distinct frame types. Size per-type arrays
// with it ([frames.NumTypes]int64) so a newly added frame type can never
// silently fall outside a hand-sized counter array.
const NumTypes = int(numTypes)

// Types returns every frame type in declaration order, for iterating
// per-type counters.
func Types() [NumTypes]Type {
	var ts [NumTypes]Type
	for i := range ts {
		ts[i] = Type(i)
	}
	return ts
}

// String implements fmt.Stringer.
func (t Type) String() string {
	switch t {
	case RTS:
		return "RTS"
	case CTS:
		return "CTS"
	case Data:
		return "DATA"
	case ACK:
		return "ACK"
	case RAK:
		return "RAK"
	case NAK:
		return "NAK"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// IsControl reports whether the frame type is a control frame (everything
// except DATA).
func (t Type) IsControl() bool {
	switch t {
	case RTS, CTS, ACK, RAK, NAK:
		return true
	default:
		return false
	}
}

// Addr identifies a station. The simulator uses small integer station IDs
// in place of 48-bit MAC addresses.
type Addr int

// BroadcastAddr is the group receiver address used by multicast RTS and
// DATA frames (the all-ones MAC address in real 802.11).
const BroadcastAddr Addr = -1

// NoAddr marks an unset address field.
const NoAddr Addr = -2

// String implements fmt.Stringer.
func (a Addr) String() string {
	switch a {
	case BroadcastAddr:
		return "*"
	case NoAddr:
		return "-"
	default:
		return fmt.Sprintf("%d", int(a))
	}
}

// Frame is a MAC frame in flight. All durations are in slots.
type Frame struct {
	Type Type
	// Src is the transmitter address (TA).
	Src Addr
	// Dst is the receiver address (RA); BroadcastAddr for group frames.
	Dst Addr
	// Duration is the NAV value: how many slots the medium will remain
	// occupied after this frame ends. Overhearing stations yield that
	// long (receiver's protocol, Figure 3).
	Duration int
	// Seq is the data sequence number (used by BMW's receive buffers).
	Seq int
	// MsgID ties control frames to the multicast message being served;
	// purely a simulation-level identity, not on the air in real 802.11.
	MsgID int64
	// Group lists the intended receivers of a multicast DATA frame, so
	// the simulator can account delivery. Real frames carry a group
	// address; membership is known from the routing table (paper §2).
	Group []Addr
	// Missing holds the data sequence numbers a BMW CTS asks the sender
	// to (re)transmit; empty with Suppress set means "already have it".
	Missing []int
	// Suppress marks a BMW CTS that tells the sender to skip the data
	// transmission because the receiver already holds every frame.
	Suppress bool
}

// String renders a concise human-readable form for traces, e.g.
// "RTS 3→7 dur=12".
func (f *Frame) String() string {
	return fmt.Sprintf("%s %s→%s dur=%d", f.Type, f.Src, f.Dst, f.Duration)
}

// Timing holds the frame airtime parameters of the slotted simulator.
// The paper's Table 2 uses "Signal Time 1 slot" for every control frame
// and "Data Transmission Time 5 slots".
type Timing struct {
	// Control is the airtime of RTS/CTS/ACK/RAK/NAK frames.
	Control int
	// Data is the airtime of a DATA frame.
	Data int
}

// DefaultTiming matches the paper's simulation parameters (Table 2).
func DefaultTiming() Timing { return Timing{Control: 1, Data: 5} }

// Airtime returns the number of slots a frame of type t occupies.
func (tm Timing) Airtime(t Type) int {
	if t == Data {
		return tm.Data
	}
	return tm.Control
}

// Validate reports an error for non-positive airtimes.
func (tm Timing) Validate() error {
	if tm.Control <= 0 || tm.Data <= 0 {
		return fmt.Errorf("frames: airtimes must be positive (control=%d data=%d)", tm.Control, tm.Data)
	}
	return nil
}

// BatchDuration computes the Duration field of the i-th RTS (1-based) in
// the BMMM Batch Mode Procedure for a batch of size n (paper, Figure 3):
//
//	(n-i)·T_RTS + (n-i+1)·T_CTS + T_DATA + n·(T_RAK + T_ACK)
//
// i.e. the remaining occupancy of the whole batch after this RTS ends.
func (tm Timing) BatchDuration(n, i int) int {
	return (n-i)*tm.Control + (n-i+1)*tm.Control + tm.Data + n*(tm.Control+tm.Control)
}

// RAKDuration computes the Duration field of the i-th RAK (1-based) in a
// batch of size n: the remaining RAK/ACK exchanges plus the pending ACK.
func (tm Timing) RAKDuration(n, i int) int {
	return (n-i)*(tm.Control+tm.Control) + tm.Control
}
