package units

import (
	"testing"
	"testing/quick"
)

func TestClamp(t *testing.T) {
	if got := Clamp(5, 0, 1); got != 1 {
		t.Errorf("Clamp above = %v", got)
	}
	if got := Clamp(-5, 0, 1); got != 0 {
		t.Errorf("Clamp below = %v", got)
	}
	if got := Clamp(0.5, 0, 1); got != 0.5 {
		t.Errorf("Clamp inside = %v", got)
	}
}

func TestClampInt(t *testing.T) {
	if got := ClampInt(9, 1, 4); got != 4 {
		t.Errorf("ClampInt above = %d", got)
	}
	if got := ClampInt(0, 1, 4); got != 1 {
		t.Errorf("ClampInt below = %d", got)
	}
	if got := ClampInt(3, 1, 4); got != 3 {
		t.Errorf("ClampInt inside = %d", got)
	}
}

func TestMaxMinF(t *testing.T) {
	if MaxF(2, 3) != 3 || MaxF(3, 2) != 3 {
		t.Error("MaxF wrong")
	}
}

// Property: Clamp output is always within bounds and idempotent.
func TestClampProperty(t *testing.T) {
	f := func(v float64) bool {
		c := Clamp(v, -1, 1)
		return c >= -1 && c <= 1 && Clamp(c, -1, 1) == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: units relate correctly (GB = 1024 MB = 1024² KB).
func TestUnitRelations(t *testing.T) {
	if GB != 1024*MB {
		t.Error("GB != 1024 MB")
	}
	if MB != 1024*KB {
		t.Error("MB != 1024 KB")
	}
}
