//go:build framescribble

package sim

import "relmac/internal/frames"

// Garbage a scribbled frame holds: a type no protocol sends, addresses
// and IDs naming no station or message, a negative duration.
const (
	scribbleType  frames.Type = 0xEE
	scribbleAddr  frames.Addr = -0x5C5C
	scribbleValue             = -0x5C5C5C
)

// scribble overwrites a frame whose lifetime is over, and the entries of
// the Group and Missing lists it names, with garbage, so that a reader
// past the frame's slot sees values no simulation produces. The list
// headers are kept: their storage belongs to the frame's MAC, which
// rewrites it for its next frame.
func scribble(f *frames.Frame) {
	for i := range f.Group {
		f.Group[i] = scribbleAddr
	}
	for i := range f.Missing {
		f.Missing[i] = scribbleValue
	}
	*f = frames.Frame{
		Type: scribbleType, Src: scribbleAddr, Dst: scribbleAddr,
		Duration: scribbleValue, Seq: scribbleValue, MsgID: scribbleValue,
		Group: f.Group, Missing: f.Missing, Suppress: !f.Suppress,
	}
}
