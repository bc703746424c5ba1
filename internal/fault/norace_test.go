//go:build !race

package fault

// raceBuild reports a -race build (see race_test.go).
const raceBuild = false
