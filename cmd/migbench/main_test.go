package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestBenchJSONHasPhaseBreakdown: the emitted BENCH_migration.json carries
// the negotiate / VM / stream-handoff / resume decomposition for all four
// strategies, and the phases tile the total.
func TestBenchJSONHasPhaseBreakdown(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_migration.json")
	var buf bytes.Buffer
	if err := run([]string{"-dirty-mb", "2", "-out", out}, &buf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep benchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 4 {
		t.Fatalf("results = %d, want all 4 strategies", len(rep.Results))
	}
	seen := map[string]bool{}
	for _, r := range rep.Results {
		seen[r.Strategy] = true
		// StreamsMS may be zero: the stream transfer overlaps the VM
		// transfer and its span covers only the tail.
		if r.TotalMS <= 0 || r.NegotiateMS <= 0 || r.StreamsMS < 0 || r.PCBMS <= 0 || r.ResumeMS < 0 {
			t.Fatalf("%s: non-positive phase fields: %+v", r.Strategy, r)
		}
		sum := r.NegotiateMS + r.VMMS + r.StreamsMS + r.PCBMS + r.ResumeMS
		if diff := sum - r.TotalMS; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("%s: phases sum to %.6f, total %.6f", r.Strategy, sum, r.TotalMS)
		}
		if r.Strategy != "copy-on-reference" && r.BatchFragments <= 0 {
			t.Fatalf("%s: run reports no fragments: %+v", r.Strategy, r)
		}
	}
	for _, s := range []string{"sprite-flush", "full-copy", "copy-on-reference", "pre-copy"} {
		if !seen[s] {
			t.Fatalf("%s missing from report", s)
		}
	}
}

// TestBaselineGate: an identical baseline passes, a tightened one trips the
// >20% regression check — on the total and on any individual phase — a
// missing baseline only prints a note, and under -strategy all a baseline row
// with no counterpart in the run fails the gate while a run row with no
// baseline is reported as new.
func TestBaselineGate(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "cur.json")
	var buf bytes.Buffer
	if err := run([]string{"-dirty-mb", "1", "-strategy", "sprite-flush", "-out", out}, &buf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep benchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}

	writeBaseline := func(mutate func(*benchResult)) string {
		b := rep
		b.Results = append([]benchResult(nil), rep.Results...)
		for i := range b.Results {
			mutate(&b.Results[i])
		}
		p := filepath.Join(dir, "baseline.json")
		enc, _ := json.Marshal(b)
		if err := os.WriteFile(p, enc, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	// Same numbers: identical run, deterministic simulation — must pass.
	p := writeBaseline(func(r *benchResult) {})
	if err := run([]string{"-dirty-mb", "1", "-strategy", "sprite-flush", "-baseline", p}, &buf); err != nil {
		t.Fatalf("identical baseline failed the gate: %v", err)
	}
	// Baseline total 40% faster than reality: the gate must trip.
	p = writeBaseline(func(r *benchResult) { r.TotalMS /= 1.4 })
	err = run([]string{"-dirty-mb", "1", "-strategy", "sprite-flush", "-baseline", p}, &buf)
	if err == nil || !strings.Contains(err.Error(), "regressed") {
		t.Fatalf("gate did not trip on a 40%% total regression: %v", err)
	}
	// Only the VM phase regresses (total left alone): the per-phase gate
	// must trip on its own.
	p = writeBaseline(func(r *benchResult) { r.VMMS /= 1.4 })
	err = run([]string{"-dirty-mb", "1", "-strategy", "sprite-flush", "-baseline", p}, &buf)
	if err == nil || !strings.Contains(err.Error(), "phase vm") {
		t.Fatalf("gate did not trip on a 40%% vm-phase regression: %v", err)
	}
	// A near-zero baseline phase (overlapped streams) is reported but not
	// gated, even if the current value is larger.
	p = writeBaseline(func(r *benchResult) { r.StreamsMS = 0 })
	buf.Reset()
	if err := run([]string{"-dirty-mb", "1", "-strategy", "sprite-flush", "-baseline", p}, &buf); err != nil {
		t.Fatalf("zero-baseline streams phase tripped the gate: %v", err)
	}
	if !strings.Contains(buf.String(), "too small to gate") {
		t.Fatalf("ungated-phase note absent:\n%s", buf.String())
	}
	// Missing baseline: disarmed, not an error.
	buf.Reset()
	if err := run([]string{"-dirty-mb", "1", "-strategy", "sprite-flush", "-baseline", filepath.Join(dir, "nope.json")}, &buf); err != nil {
		t.Fatalf("missing baseline errored: %v", err)
	}
	if !strings.Contains(buf.String(), "disarmed") {
		t.Fatalf("missing baseline note absent:\n%s", buf.String())
	}
	// -strategy all against the one-row baseline: the three strategies it
	// lacks are new, not failures.
	p = writeBaseline(func(r *benchResult) {})
	buf.Reset()
	if err := run([]string{"-dirty-mb", "1", "-baseline", p}, &buf); err != nil {
		t.Fatalf("run rows without a baseline tripped the gate: %v", err)
	}
	if got := strings.Count(buf.String(), "new (ungated)"); got != 3 {
		t.Fatalf("new (ungated) lines = %d, want 3:\n%s", got, buf.String())
	}
	// A baseline row the run no longer produces (a renamed or dropped
	// strategy) must fail the gate by name, not pass vacuously.
	p = writeBaseline(func(r *benchResult) { r.Strategy = "sprite-flush/legacy" })
	err = run([]string{"-dirty-mb", "1", "-baseline", p}, &buf)
	if err == nil || !strings.Contains(err.Error(), "sprite-flush/legacy: baseline row has no counterpart") {
		t.Fatalf("gate did not trip on an unmatched baseline row: %v", err)
	}
}
