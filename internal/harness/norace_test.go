//go:build !race

package harness

// raceEnabled reports a -race build, whose stack guard is twice the
// default, so stack sizes differ from a normal build's.
const raceEnabled = false
