// Package helperlib is an innocent-looking utility package outside the
// protected trees: the intra-package nondeterminism rule never scans
// it, which is exactly the laundering hole the purity analyzer closes.
package helperlib

import (
	"math/rand"
	"os"
	"time"
)

// Stamp launders a wall clock behind a helper call.
func Stamp() int64 {
	return time.Now().UnixNano() // want `time\.Now reachable from sim\.Engine callback \(tick -> Stamp\)`
}

// Rand launders the global math/rand stream.
func Rand() int {
	return rand.Int() // want `call into math/rand reachable from sim\.Engine callback \(func literal -> Rand\)`
}

// Elapsed launders a wall-clock interval.
func Elapsed() time.Duration {
	return time.Since(time.Time{}) // want `time\.Since reachable from sim\.Engine callback \(tagged -> Elapsed\)`
}

// Env launders an environment lookup.
func Env() string {
	return os.Getenv("HZ") // want `os\.Getenv reachable from sim\.Engine callback \(fire -> Env\)`
}

// Waived is impure but explicitly waived at the site, proving the
// escape hatch works for module analyzers too.
func Waived() int64 {
	//simlint:allow purity fixture demonstrates the escape hatch
	return time.Now().UnixNano()
}

// Unreached is impure but never reachable from a callback; purity must
// stay silent here — reachability, not guilt by association.
func Unreached() int64 {
	return time.Now().UnixNano()
}
