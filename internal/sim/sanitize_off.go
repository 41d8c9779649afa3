//go:build !simsan

package sim

// sanState is the no-op sanitizer used by default builds. It carries no
// state and its hooks have empty bodies, so they inline to nothing: the
// untagged engine pays zero time and zero bytes for the sanitizer
// (bench_test.go's engine hot-path benchmark guards that).
type sanState struct{}

func (e *Engine) sanOnSchedule(n *eventNode) {}

func (e *Engine) sanOnDisarm(t *Timer) {}

func (e *Engine) sanOnAdvance(at Time) {}

func (e *Engine) sanOnPop(n *eventNode) {}

func (e *Engine) sanOnRestore() {}

// SanitizerEnabled reports whether this binary was built with the
// simsan shadow checker (-tags simsan).
func SanitizerEnabled() bool { return false }
