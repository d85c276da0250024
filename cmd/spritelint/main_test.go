package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func spritelint(t *testing.T, dir string, args ...string) (int, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(dir, args, &stdout, &stderr)
	if code == 2 {
		t.Fatalf("spritelint %v could not run: %s", args, stderr.String())
	}
	return code, stdout.String()
}

func TestListNamesTheThreeAnalyzers(t *testing.T) {
	code, out := spritelint(t, ".", "-list")
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		names = append(names, strings.Fields(line)[0])
	}
	if got, want := strings.Join(names, " "), "simtaint confine sharded"; code != 0 || got != want {
		t.Errorf("-list = exit %d, analyzers %q; want exit 0, %q", code, got, want)
	}
}

// TestExitCodesAndStableOutput drives the one loop end to end over a
// two-file module: a violation and a stale allow each fail the run under
// -deadallow, the report is byte-identical across runs, and fixing both
// files makes it pass.
func TestExitCodesAndStableOutput(t *testing.T) {
	dir := t.TempDir()
	write := func(name, src string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module fixture\n\ngo 1.22\n")
	write("clock.go", "package fixture\n\nimport \"time\"\n\nfunc Stamp() int64 { return time.Now().UnixNano() }\n")
	write("keys.go", "package fixture\n\nfunc Count(m map[string]int) int {\n\tn := 0\n\tfor range m {\n\t\tn++ //spritelint:allow simtaint a numeric fold needs no allow\n\t}\n\treturn n\n}\n")

	code, first := spritelint(t, dir, "-deadallow", ".")
	if code != 1 || strings.Count(first, "\n") != 2 ||
		!strings.Contains(first, "clock.go:5:34: wall-clock time.Now in simulated code") ||
		!strings.Contains(first, "keys.go:6:7: stale //spritelint:allow simtaint") {
		t.Fatalf("exit %d, want 1 with one violation and one stale allow:\n%s", code, first)
	}
	if _, second := spritelint(t, dir, "-deadallow", "."); second != first {
		t.Errorf("two runs over the same tree differ:\n%s\nvs\n%s", first, second)
	}

	write("clock.go", "package fixture\n\nfunc Stamp() int64 { return 0 }\n")
	write("keys.go", "package fixture\n\nfunc Count(m map[string]int) int { return len(m) }\n")
	if code, out := spritelint(t, dir, "-deadallow", "."); code != 0 || out != "spritelint: 1 packages clean under 3 analyzers\n" {
		t.Errorf("after fixing both files: exit %d, output %q", code, out)
	}
}
