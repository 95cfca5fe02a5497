package unified

import (
	"testing"
	"testing/quick"
)

func TestExecutionEvictsAboveProtected(t *testing.T) {
	// 900 cached against a protected 500: execution may evict the 400
	// above the protected region, so a lone task gets the other 500.
	if got := ExecutionShare(1000, 500, 900, 1); got != 500 {
		t.Fatalf("share = %v, want 500", got)
	}
}

func TestExecutionNeverEvictsProtected(t *testing.T) {
	// All 600 cached are protected: only the 400 outside stay for execution.
	if got := ExecutionShare(1000, 600, 600, 1); got != 400 {
		t.Fatalf("share = %v, want only the 400 outside protection", got)
	}
}

func TestExecutionShare(t *testing.T) {
	// Empty storage: the whole pool splits across tasks.
	if s := ExecutionShare(1000, 500, 0, 2); s != 500 {
		t.Fatalf("share = %v", s)
	}
	// Storage beyond the protected region is evictable, so only the
	// protected part is withheld from execution.
	if s := ExecutionShare(1000, 500, 900, 2); s != 250 {
		t.Fatalf("share with evictable storage = %v, want 250", s)
	}
	// Defensive p.
	if s := ExecutionShare(1000, 0, 0, 0); s != 1000 {
		t.Fatalf("share p=0 = %v", s)
	}
}

// Property: the p shares never exceed the pool, and a share is never
// negative, whatever is cached or protected.
func TestInvariantProperty(t *testing.T) {
	f := func(pool, protected, storage uint16, p uint8) bool {
		tasks := int(p%16) + 1
		s := ExecutionShare(float64(pool), float64(protected), float64(storage), tasks)
		return s >= 0 && s*float64(tasks) <= float64(pool)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestZeroPool(t *testing.T) {
	if s := ExecutionShare(0, 0, 10, 2); s != 0 {
		t.Fatalf("zero pool must grant nothing, got %v", s)
	}
}
