package sim

import "math/rand"

// Name returns the station name.
func (s *Station) Name() string { return s.name }

// Fired reports whether the timer's callback has run.
func (t *Timer) Fired() bool { return t.fired }

// eventBefore is the queue's total order (keyBefore) on events.
func eventBefore(a, b *event) bool {
	return keyBefore(&eventKey{t: a.t, seq: a.seq}, &eventKey{t: b.t, seq: b.seq})
}

// ID returns the process's unique id within its kernel.
func (p *Proc) ID() int { return p.id }

// Constant is a degenerate distribution that always yields Value.
type Constant float64

// Sample implements Dist.
func (c Constant) Sample(*rand.Rand) float64 { return float64(c) }

// Uniform is a uniform distribution on [Lo, Hi).
type Uniform struct{ Lo, Hi float64 }

// Sample implements Dist.
func (u Uniform) Sample(r *rand.Rand) float64 { return u.Lo + r.Float64()*(u.Hi-u.Lo) }

// Exponential is an exponential distribution with the given mean.
type Exponential struct{ Mean float64 }

// Sample implements Dist.
func (e Exponential) Sample(r *rand.Rand) float64 { return r.ExpFloat64() * e.Mean }
