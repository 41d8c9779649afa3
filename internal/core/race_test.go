//go:build race

package core

// The race detector changes what escapes and randomly drops sync.Pool
// entries (fmt's printer cache among them), so allocation counts under
// -race measure the instrumentation, not the code.
func init() { raceEnabled = true }
