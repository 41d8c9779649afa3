// Package sim provides a deterministic discrete-event simulation engine:
// virtual time in integer nanoseconds, an event heap with stable ordering,
// and a seeded pseudo-random number generator with the distributions the
// kernel model needs. Every run with the same seed is bit-reproducible.
package sim

import "fmt"

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Duration is a span of virtual time in nanoseconds. It is kept distinct
// from time.Duration so that simulated time can never be accidentally mixed
// with wall-clock time.
type Duration int64

// Common durations.
const (
	Nanosecond  Duration = 1
	Microsecond Duration = 1000 * Nanosecond
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
)

// NoTime is the "no instant yet" sentinel. It precedes every valid
// instant.
const NoTime Time = -1

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Micros reports t in fractional microseconds.
func (t Time) Micros() float64 { return float64(t) / 1e3 }

// Millis reports t in fractional milliseconds.
func (t Time) Millis() float64 { return float64(t) / 1e6 }

// Seconds reports t in fractional seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Micros reports d in fractional microseconds.
func (d Duration) Micros() float64 { return float64(d) / 1e3 }

// Millis reports d in fractional milliseconds.
func (d Duration) Millis() float64 { return float64(d) / 1e6 }

// Seconds reports d in fractional seconds.
func (d Duration) Seconds() float64 { return float64(d) / 1e9 }

// String formats a duration with an adaptive unit, e.g. "13.2µs", "92.3ms".
func (d Duration) String() string {
	switch {
	case d < 0:
		return "-" + (-d).String()
	case d < Microsecond:
		return fmt.Sprintf("%dns", int64(d))
	case d < Millisecond:
		return fmt.Sprintf("%.2fµs", d.Micros())
	case d < Second:
		return fmt.Sprintf("%.3fms", d.Millis())
	default:
		return fmt.Sprintf("%.4fs", d.Seconds())
	}
}

// String formats a time point the same way as the equivalent duration.
func (t Time) String() string { return Duration(t).String() }

// Scale multiplies d by factor f, rounding to the nearest nanosecond.
// It is the one sanctioned way to apply slowdown/speedup factors so that
// rounding behaviour is consistent everywhere.
func (d Duration) Scale(f float64) Duration {
	if d <= 0 {
		return 0
	}
	return Duration(float64(d)*f + 0.5)
}

// DurationOf converts fractional seconds to a Duration.
func DurationOf(seconds float64) Duration {
	return Duration(seconds*1e9 + 0.5)
}
