// Package allocs is the allocation contract: BENCH_allocs.json at the module
// root holds one row per measured operation, and every allocation check in
// the tests, the only importers, reads its row through Check. With
// -update-allocs (`make allocs`) an exact row takes the value its check
// measures; ceilings are edited by hand.
package allocs

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update-allocs", false, "rewrite the exact rows of BENCH_allocs.json from what their checks measure")

// Row is one operation's bound: "exact" (a measurement equals Value, give or
// take Within) or "ceiling" (it does not exceed Value).
type Row struct {
	Name   string  `json:"name"`
	Value  float64 `json:"value"`
	Bound  string  `json:"bound"`
	Within float64 `json:"within,omitempty"`
}

var (
	mu            sync.Mutex
	rows          []Row // loaded by the first Check
	_, self, _, _ = runtime.Caller(0)
	path          = filepath.Join(filepath.Dir(self), "..", "..", "BENCH_allocs.json")
)

// Check fails t unless got meets the bound of the row called name.
func Check(t testing.TB, name string, got float64) {
	t.Helper()
	mu.Lock()
	defer mu.Unlock()
	if rows == nil {
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, &rows)
		}
		if err != nil {
			t.Fatal(err)
			return
		}
	}
	i := slices.IndexFunc(rows, func(r Row) bool { return r.Name == name })
	if i < 0 {
		t.Fatalf("%s: no row in %s", name, path)
		return
	}
	switch r := &rows[i]; {
	case r.Bound == "exact" && *update: // rewrite the file, one row to a line
		r.Value = got
		lines := make([]string, len(rows))
		for i, r := range rows {
			b, _ := json.Marshal(r) // a Row always marshals
			lines[i] = "  " + string(b)
		}
		if err := os.WriteFile(path, []byte("[\n"+strings.Join(lines, ",\n")+"\n]\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	case r.Bound == "exact" && math.Abs(got-r.Value) > r.Within:
		t.Errorf("%s: measured %v, want exactly %v (±%v) as in %s; `make allocs` rewrites exact rows", name, got, r.Value, r.Within, path)
	case r.Bound != "exact" && got > r.Value:
		t.Errorf("%s: measured %v, over its ceiling of %v in %s", name, got, r.Value, path)
	}
}
