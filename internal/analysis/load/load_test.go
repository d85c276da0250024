package load_test

import (
	"path/filepath"
	"strings"
	"testing"

	"sprite/internal/analysis/callgraph"
	"sprite/internal/analysis/load"
)

// TestGraphDumpDeterministic loads four packages that spawn confined
// activities and builds their call graph again and again: the dump, whose
// roots are ordered by source position, must be byte-identical every time.
// Positions follow parse order, so a loader that parses packages in map
// order reorders the roots between runs.
func TestGraphDumpDeterministic(t *testing.T) {
	root, err := filepath.Abs("../../..")
	if err != nil {
		t.Fatal(err)
	}
	dump := func() string {
		pkgs, err := load.Packages(root, "./internal/sim", "./internal/rpc", "./internal/workload", "./internal/core")
		if err != nil {
			t.Fatal(err)
		}
		return callgraph.Build(pkgs).Dump()
	}
	first := dump()
	confinedIn := make(map[string]bool)
	for _, line := range strings.Split(first, "\n") {
		if strings.HasPrefix(line, "root confined ") {
			confinedIn[filepath.Dir(line[strings.LastIndex(line, " at ")+4:])] = true
		}
	}
	if len(confinedIn) < 2 {
		t.Fatalf("confined roots in %d package directories, want at least 2: %v", len(confinedIn), confinedIn)
	}
	for i := 1; i < 8; i++ {
		if got := dump(); got != first {
			t.Fatalf("load %d dumped a different graph than load 0", i)
		}
	}
}
