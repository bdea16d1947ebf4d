// Package sim implements a deterministic discrete-event simulation kernel.
//
// The kernel models virtual time as int64 nanoseconds and runs each
// simulation process's body on a worker, a coroutine from iter.Pull: at any
// instant exactly one body runs. A process that blocks (Sleep, Park,
// resource acquisition) or finishes yields to the one driver loop, which
// dispatches events, running due callbacks and step processes' steps on
// its own stack, and resumes the next process's worker. A switch therefore
// costs two coroutine switches and never enters the Go scheduler, and a
// worker's stack holds only its body's frames. A finished process leaves its
// worker on an idle list, and the next process to start reuses it. Events
// that fire at the same virtual time are ordered by creation sequence, so a
// run with a given seed is bit-for-bit reproducible.
//
// The package also provides the building blocks used by the cluster models
// layered on top of it: FIFO queueing stations (Station), condition
// variables (Cond) and seeded random distributions.
package sim

import "fmt"

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation.
type Time int64

// Duration constants for building Time values.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds returns the time as a floating point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the time with an adaptive unit.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fµs", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// FromSeconds converts a floating point number of seconds into a Time.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }

// Rate is a transfer rate in bytes per second.
type Rate float64

// Common rates.
const (
	KBps Rate = 1e3
	MBps Rate = 1e6
	GBps Rate = 1e9
)

// DurationFor returns the virtual time needed to move n bytes at rate r.
// A non-positive rate yields zero duration.
func (r Rate) DurationFor(n int64) Time {
	if r <= 0 || n <= 0 {
		return 0
	}
	return Time(float64(n) / float64(r) * 1e9)
}
