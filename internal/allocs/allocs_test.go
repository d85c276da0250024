package allocs

import (
	"fmt"
	"testing"
)

// recorder is a testing.TB that keeps its first failure instead of failing.
type recorder struct {
	testing.TB
	failure string
}

func (r *recorder) Helper() {}
func (r *recorder) Errorf(format string, args ...any) {
	if r.failure == "" {
		r.failure = fmt.Sprintf(format, args...)
	}
}
func (r *recorder) Fatalf(format string, args ...any) { r.Errorf(format, args...) }
func (r *recorder) Fatal(args ...any)                 { r.Errorf("%s", fmt.Sprint(args...)) }

// TestRowsAreWellFormed: every row of the contract has a unique name and an
// exact or ceiling bound, meets its own value, and fails just past it.
func TestRowsAreWellFormed(t *testing.T) {
	if *update {
		t.Skip("rewriting the contract")
	}
	check := func(name string, got float64) string {
		r := &recorder{TB: t}
		Check(r, name, got)
		return r.failure
	}
	if msg := check("no.such.row", 0); msg == "" {
		t.Error("a check of a row the contract lacks passed")
	}
	seen := map[string]bool{}
	for _, r := range rows {
		if seen[r.Name] {
			t.Errorf("%s: two rows", r.Name)
		}
		seen[r.Name] = true
		if r.Bound != "exact" && r.Bound != "ceiling" {
			t.Errorf("%s: bound %q, want exact or ceiling", r.Name, r.Bound)
		}
		if msg := check(r.Name, r.Value); msg != "" {
			t.Errorf("a row fails its own value: %s", msg)
		}
		if msg := check(r.Name, r.Value+r.Within+1); msg == "" {
			t.Errorf("%s: %v passes a %s bound of %v", r.Name, r.Value+r.Within+1, r.Bound, r.Value)
		}
	}
	if len(rows) == 0 {
		t.Error("the contract has no rows")
	}
}
