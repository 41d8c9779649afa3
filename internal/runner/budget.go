package runner

import "fmt"

// BudgetError is the typed refusal CheckBudget returns (the simd
// admission layer is its caller) when a request asks for more work
// than its budget allows. It is always returned before any work
// starts: an oversized request fails fast with a machine-readable
// error instead of hanging a worker pool or running partially.
type BudgetError struct {
	// Requested and Budget are in Unit, which the caller names after
	// its cost model ("virtual-ms" for simd).
	Requested int64
	Budget    int64
	Unit      string
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("runner: budget exceeded: requested %d %s, budget %d", e.Requested, e.Unit, e.Budget)
}

// CheckBudget returns a *BudgetError when requested exceeds budget, nil
// otherwise. A budget <= 0 means unlimited.
func CheckBudget(requested, budget int64, unit string) error {
	if budget > 0 && requested > budget {
		return &BudgetError{Requested: requested, Budget: budget, Unit: unit}
	}
	return nil
}
