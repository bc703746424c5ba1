//go:build !framescribble

package sim

import "relmac/internal/frames"

// scribble is a no-op in the default build; the framescribble build
// overwrites the frame (scribble_on.go).
func scribble(*frames.Frame) {}
