// Package fix exercises the frameswitch check against the real frame
// vocabulary.
package fix

import "relmac/internal/frames"

func missingCases(t frames.Type) int {
	switch t { // want `switch on frames\.Type covers 2 of 6 frame types and has no default`
	case frames.RTS:
		return 1
	case frames.CTS:
		return 2
	}
	return 0
}

// withDefault is sparse but carries a default: the decision to ignore the
// rest is explicit.
func withDefault(t frames.Type) int {
	switch t {
	case frames.RTS:
		return 1
	default:
		return 0
	}
}

// exhaustive enumerates every value of the vocabulary.
func exhaustive(t frames.Type) string {
	switch t {
	case frames.RTS, frames.CTS, frames.Data, frames.ACK:
		return "80211"
	case frames.RAK, frames.NAK:
		return "extended"
	}
	return ""
}

// otherTag switches over a different type entirely.
func otherTag(x int) int {
	switch x {
	case 1:
		return 1
	}
	return 0
}
