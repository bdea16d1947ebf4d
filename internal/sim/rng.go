package sim

import (
	"math"
	"math/rand"
)

// Dist is a one-dimensional random distribution.
type Dist interface {
	// Sample draws one value using r.
	Sample(r *rand.Rand) float64
}

// LogNormal is a log-normal distribution parameterised by the mean and
// standard deviation of the underlying normal.
type LogNormal struct{ Mu, Sigma float64 }

// Sample implements Dist.
func (l LogNormal) Sample(r *rand.Rand) float64 {
	return math.Exp(l.Mu + l.Sigma*r.NormFloat64())
}

// UnitLogNormal returns a log-normal jitter distribution with mean exactly 1
// and the given shape parameter sigma. Multiplying service times by samples
// of this distribution injects load-imbalance noise without changing the
// mean service rate.
func UnitLogNormal(sigma float64) LogNormal {
	return LogNormal{Mu: -sigma * sigma / 2, Sigma: sigma}
}

// Jitter scales duration d by a sample of dist, never returning a negative
// duration.
func Jitter(r *rand.Rand, dist Dist, d Time) Time {
	if dist == nil {
		return d
	}
	f := dist.Sample(r)
	if f < 0 {
		f = 0
	}
	return Time(float64(d) * f)
}
