//go:build race

package fault

// raceBuild reports a -race build: tests that are single-goroutine
// arithmetic, where the race detector checks nothing and only slows the
// run, skip there.
const raceBuild = true
