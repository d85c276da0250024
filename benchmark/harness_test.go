package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

const specPath = "../BENCHMARK.json"

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// toyLadder runs every rung once at one fixture each, shared by the tests.
var toyLadder = sync.OnceValue(func() []rungResult { return runLadder(0) })

func toyRun(t *testing.T, w *workloadDef) *workloadResult {
	t.Helper()
	// Two iterations: one untraced, one traced.
	m := measure(w, w.toy, 42, measureOpts{iters: 2, trace: true})
	res := m.result()
	res.addLadder(toyLadder())
	if res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s: %d of %d units failed: %v", w.name, res.Failed, res.Attempted, res.Why)
	}
	return res
}

// TestSpecMatchesHarness holds BENCHMARK.json and the harness's own metric
// tables together: same workloads, same metrics, same units, same order.
func TestSpecMatchesHarness(t *testing.T) {
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("spec has %d workloads, harness %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := spec.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: spec has %q (%q), harness %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.name)
		}
		if w.toy.hosts > 4 {
			t.Errorf("%s: toy shape has %d hosts, want at most 4", w.name, w.toy.hosts)
		}
	}
	check := func(kind string, got []specMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: spec lists %d metrics, harness %d", kind, len(got), len(want))
		}
		seen := map[string]bool{}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: spec {%s %s %s}, harness {%s %s %s}", kind, i, g.Name, g.Unit, g.Better, d.name, d.unit, d.better)
			}
			if !nameRE.MatchString(d.name) {
				t.Errorf("%s: name %q is outside [A-Za-z0-9_.-]", kind, d.name)
			}
			if seen[d.name] {
				t.Errorf("%s: name %q is used twice", kind, d.name)
			}
			seen[d.name] = true
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndDefs)
	check("per_layer", spec.PerLayer, perLayerDefs())
	var setupBound, maxBound float64
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
		maxBound = math.Max(maxBound, m.Bound)
	}
	if setupBound != maxBound {
		t.Errorf("setup_s has bound %v, the largest is %v", setupBound, maxBound)
	}
}

// TestToyRunsEmitEveryMetric runs each workload at its toy shape and checks
// that every metric BENCHMARK.json names comes out, with its unit, in the
// line the driver reads; that the spans tile the process span; and that a
// second run reproduces every virtual metric and count exactly.
func TestToyRunsEmitEveryMetric(t *testing.T) {
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			res := toyRun(t, w)
			for traced, want := range map[bool][]specMetric{false: spec.EndToEnd, true: spec.PerLayer} {
				var buf bytes.Buffer
				if err := res.writeDriverLine(&buf, traced); err != nil {
					t.Fatal(err)
				}
				var line map[string]json.RawMessage
				if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
					t.Fatalf("driver line is not JSON: %v", err)
				}
				if len(line) != 4 {
					t.Errorf("driver line has keys %v, want exactly correct/attempted/failed/metrics", line)
				}
				var metrics map[string]metric
				if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
					t.Fatal(err)
				}
				if len(metrics) != len(want) {
					t.Errorf("traced=%v: %d metrics emitted, spec lists %d", traced, len(metrics), len(want))
				}
				for _, m := range want {
					got, ok := metrics[m.Name]
					if !ok {
						t.Errorf("traced=%v: metric %s not emitted", traced, m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("%s: unit %q, spec says %q", m.Name, got.Unit, m.Unit)
					}
					if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
						t.Errorf("%s: value %v", m.Name, got.Value)
					}
					if !traced && got.Value == 0 {
						t.Errorf("%s: end-to-end metrics must never be 0", m.Name)
					}
				}
			}

			pl := res.PerLayer
			children := 0.0
			for k := spanMigrate; k <= spanCompute; k++ {
				children += pl["span."+spanNames[k]+".virt_ms"].Value
			}
			proc, self := pl["span.proc.virt_ms"].Value, pl["span.proc.self_virt_ms"].Value
			if proc <= 0 || math.Abs(children+self-proc) > 1e-6*proc {
				t.Errorf("spans do not tile: children %v + self %v != proc %v", children, self, proc)
			}
			var phases float64
			for _, p := range []string{"negotiate", "vm", "streams", "pcb", "resume"} {
				phases += pl["core.mig."+p+"_virt_ms"].Value
			}
			if phases <= 0 {
				t.Errorf("no migration phase time recorded")
			}

			again := toyRun(t, w)
			if again.Fingerprint != res.Fingerprint {
				t.Errorf("fingerprint %s on the second run, %s on the first", again.Fingerprint, res.Fingerprint)
			}
			for _, d := range endToEndDefs {
				if strings.HasPrefix(d.name, "virt_") && again.EndToEnd[d.name] != res.EndToEnd[d.name] {
					t.Errorf("%s: %v then %v", d.name, res.EndToEnd[d.name], again.EndToEnd[d.name])
				}
			}
			for _, d := range countDefs {
				if again.PerLayer[d.name] != pl[d.name] {
					t.Errorf("%s: %v then %v", d.name, pl[d.name], again.PerLayer[d.name])
				}
			}
		})
	}
}

// TestLadderRungsMeasureWhatTheyClaim: every rung runs, and a rung that
// drives an attribution counter really performs that operation once per op.
func TestLadderRungsMeasureWhatTheyClaim(t *testing.T) {
	for _, r := range toyLadder() {
		if r.Err != "" {
			t.Errorf("%s: %s", r.Name, r.Err)
		}
		if r.NsPerOp <= 0 {
			t.Errorf("%s: ns/op %v", r.Name, r.NsPerOp)
		}
	}
}

// TestUntracedRunAllocatesNothingForSpans: with tracing off the wrappers
// are nil checks.
func TestUntracedRunAllocatesNothingForSpans(t *testing.T) {
	var tr *tracer
	allocs := testing.AllocsPerRun(100, func() {
		tb := tr.proc(3)
		s := tb.beginAt(spanTouch, 0)
		tb.endAt(s, 0)
		ob := tr.outer()
		ob.endAt(ob.beginAt(spanRun, 0), 0)
	})
	if allocs != 0 {
		t.Errorf("untraced span wrappers allocate %v times per call", allocs)
	}
}

func TestJudge(t *testing.T) {
	steady := []float64{100, 100.5, 101, 101.5, 102}
	noisy := []float64{80, 90, 100, 110, 120}
	cases := []struct {
		name         string
		a, b         []float64
		higherBetter bool
		bound        float64
		want         string
	}{
		{"same", steady, []float64{103}, false, 0.1, "same"},
		{"worse", steady, []float64{120}, false, 0.1, "worse"},
		{"better", steady, []float64{80}, false, 0.1, "better"},
		{"higher is better, lower is worse", steady, []float64{80}, true, 0.1, "worse"},
		{"spread wider than the bound", noisy, []float64{115}, false, 0.1, "unresolved"},
		{"every run beats every run", noisy, []float64{70, 75}, false, 0.1, "better"},
		{"zero bound, equal", []float64{0}, []float64{0}, false, 0, "same"},
		{"zero bound, any failure", []float64{0}, []float64{0.01}, false, 0, "worse"},
	}
	for _, c := range cases {
		if got, _, _ := judge(c.a, c.b, c.higherBetter, c.bound); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// TestCompareFiles drives -compare end to end: a run against itself is
// clean, and against a copy with a slower median it exits non-zero.
func TestCompareFiles(t *testing.T) {
	res := toyRun(t, workloads[0])
	dir := t.TempDir()
	write := func(name string, scale float64) string {
		r := *res
		r.EndToEnd = map[string]metric{}
		for k, v := range res.EndToEnd {
			r.EndToEnd[k] = v
		}
		wall := r.EndToEnd["wall_ms_p50"]
		wall.Value *= scale
		r.EndToEnd["wall_ms_p50"] = wall
		doc := &resultDoc{Format: resultFormat, Seed: 42, Results: []*workloadResult{&r}}
		path := filepath.Join(dir, name)
		if err := doc.write(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, slow := write("a.json", 1), write("slow.json", 2)
	var out bytes.Buffer
	if code, err := run([]string{"-spec", specPath, "-compare", a, a}, &out, os.Stderr); code != 0 || err != nil {
		t.Errorf("A/A compare: exit %d, %v\n%s", code, err, out.String())
	}
	for _, row := range strings.Split(strings.TrimSpace(out.String()), "\n")[1:] {
		if verdict := strings.Fields(row)[2]; verdict != "same" {
			t.Errorf("A/A compare reports %s:\n%s", verdict, row)
		}
	}
	out.Reset()
	if code, _ := run([]string{"-spec", specPath, "-compare", a, slow}, &out, os.Stderr); code == 0 {
		t.Errorf("compare against a 2x slower run exited 0:\n%s", out.String())
	}
}
