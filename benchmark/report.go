package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

const resultFormat = "sprite-benchmark/1"

// endToEndDefs are the end-to-end metrics in BENCHMARK.json's order.
// failed_frac is the tenth: it is printed and written to -out, but it is
// always 0 on a healthy run, and the driver's contract wants listed metrics
// never 0 and takes the failure count from the result line instead.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_ms_p50", "ms", "lower"},
	{"work_per_s", "1/s", "higher"},
	{"allocs_per_iter", "count", "lower"},
	{"alloc_mb_per_iter", "MB", "lower"},
	{"virt_makespan_ms", "virt_ms", "lower"},
	{"virt_mig_ms_mean", "virt_ms", "lower"},
	{"virt_mig_ms_tail", "virt_ms", "lower"},
	{"virt_freeze_ms_mean", "virt_ms", "lower"},
}

// spanDefs is family 3's span rows: wall time on the two outer calls, and
// virtual time per process (mean over the processes the harness started)
// on the process span and each kind of call it wraps.
var spanDefs = []metricDef{
	{"span.build.wall_ms", "ms", "lower"},
	{"span.run.wall_ms", "ms", "lower"},
	{"span.proc.virt_ms", "virt_ms", "lower"},
	{"span.migrate.virt_ms", "virt_ms", "lower"},
	{"span.touch.virt_ms", "virt_ms", "lower"},
	{"span.read.virt_ms", "virt_ms", "lower"},
	{"span.write.virt_ms", "virt_ms", "lower"},
	{"span.open_close.virt_ms", "virt_ms", "lower"},
	{"span.compute.virt_ms", "virt_ms", "lower"},
	{"span.proc.self_virt_ms", "virt_ms", "lower"},
}

// derivedDefs is family 3's derived rows: the attribution of the untraced
// wall_ms_p50 to layers, the tracing overhead, and ungated diagnostics.
var derivedDefs = []metricDef{
	{"attrib.sim_frac", "ratio", "lower"},
	{"attrib.netsim_frac", "ratio", "lower"},
	{"attrib.rpc_frac", "ratio", "lower"},
	{"attrib.fs_frac", "ratio", "lower"},
	{"attrib.vm_frac", "ratio", "lower"},
	{"attrib.core_frac", "ratio", "lower"},
	{"attrib.unexplained_frac", "ratio", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
	{"virt_mig_ms_p50", "virt_ms", "lower"},
	{"virt_mig_ms_p90", "virt_ms", "lower"},
	{"virt_freeze_ms_p50", "virt_ms", "lower"},
	{"wall_ms_p90", "ms", "lower"},
	{"wall_ms_min", "ms", "lower"},
	{"gc.cycles_per_iter", "count", "lower"},
	{"gc.pause_ms_per_iter", "ms", "lower"},
}

// perLayerDefs is every per-layer metric in BENCHMARK.json's order.
func perLayerDefs() []metricDef {
	var defs []metricDef
	defs = append(defs, countDefs...)
	defs = append(defs, ladderDefs()...)
	defs = append(defs, spanDefs...)
	defs = append(defs, derivedDefs...)
	return defs
}

// attribLayers are the layers the attribution splits wall_ms_p50 across.
var attribLayers = []string{"sim", "netsim", "rpc", "fs", "vm", "core"}

// unresolvedAbove marks an attribution unresolved: the linear model (counts
// times isolated self costs) explains too little, or far too much.
const unresolvedAbove = 0.35

// workloadResult is one workload's reported outcome.
type workloadResult struct {
	Workload    string            `json:"workload"`
	Unit        string            `json:"unit_of_work"`
	Iters       int               `json:"iters"`
	Attempted   int               `json:"attempted"`
	Failed      int               `json:"failed"`
	FailedFrac  float64           `json:"failed_frac"`
	Why         []string          `json:"why,omitempty"`
	Fingerprint string            `json:"fingerprint"`
	MigSamples  int               `json:"migration_samples"`
	EndToEnd    map[string]metric `json:"end_to_end"`
	PerLayer    map[string]metric `json:"per_layer,omitempty"`
	Attribution string            `json:"attribution,omitempty"`

	par, confined bool
}

// resultDoc is the -out document: one run of the harness.
type resultDoc struct {
	Format     string            `json:"format"`
	Seed       int64             `json:"seed"`
	GoMaxProcs int               `json:"gomaxprocs"`
	Results    []*workloadResult `json:"results"`
	Ladder     []rungResult      `json:"ladder,omitempty"`
}

func (d *resultDoc) write(path string) error {
	data, err := json.MarshalIndent(d, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// result reduces the raw measurements to the reported metrics.
func (m *measured) result() *workloadResult {
	res := &workloadResult{
		Workload: m.w.name, Unit: m.w.unit,
		Attempted: m.attempted, Failed: m.failed, FailedFrac: m.failedFrac(),
		Why: m.why, Fingerprint: m.fingerprint(),
		EndToEnd: make(map[string]metric, len(endToEndDefs)),
		par:      m.w.par, confined: m.w.confined,
	}
	values := m.endToEnd()
	for _, d := range endToEndDefs {
		res.EndToEnd[d.name] = metric{values[d.name], d.unit}
	}
	for _, it := range m.iters {
		if !it.traced {
			res.Iters++
		}
	}
	if m.ref != nil {
		res.MigSamples = len(m.ref.totals)
	}
	if m.traced == 0 {
		return res
	}

	pl := make(map[string]metric)
	units := map[string]string{}
	for _, d := range perLayerDefs() {
		units[d.name] = d.unit
	}
	set := func(name string, v float64) { pl[name] = metric{v, units[name]} }
	for _, d := range countDefs {
		set(d.name, m.ref.counts[d.name])
	}
	traced := float64(m.traced)
	set("span.build.wall_ms", float64(m.spans.wall[spanBuild])/traced/1e6)
	set("span.run.wall_ms", float64(m.spans.wall[spanRun])/traced/1e6)
	procs := float64(m.spans.n[spanProc])
	perProc := func(k spanKind) float64 {
		if procs == 0 {
			return 0
		}
		return ms(m.spans.virt[k]) / procs
	}
	for k := spanProc; k <= spanCompute; k++ {
		set("span."+spanNames[k]+".virt_ms", perProc(k))
	}
	if procs > 0 {
		set("span.proc.self_virt_ms", ms(m.spans.procSelf)/procs)
	} else {
		set("span.proc.self_virt_ms", 0)
	}

	plain, withTrace := m.runNs(false), m.runNs(true)
	p50 := quantile(plain, 0.5)
	set("trace.overhead_frac", (quantile(withTrace, 0.5)-p50)/p50)
	set("virt_mig_ms_p50", ms(durQuantile(m.ref.totals, 0.5)))
	set("virt_mig_ms_p90", ms(durQuantile(m.ref.totals, 0.9)))
	set("virt_freeze_ms_p50", ms(durQuantile(m.ref.freezes, 0.5)))
	set("wall_ms_p90", quantile(plain, 0.9)/1e6)
	set("wall_ms_min", plain[0]/1e6)
	var cycles, pause float64
	for _, it := range m.iters {
		if !it.traced {
			cycles += float64(it.gcCycles)
			pause += float64(it.gcPauseNs)
		}
	}
	set("gc.cycles_per_iter", cycles/float64(len(plain)))
	set("gc.pause_ms_per_iter", pause/float64(len(plain))/1e6)
	res.PerLayer = pl
	return res
}

// addLadder folds the ladder into a traced result: the rungs' own numbers,
// and the attribution — each layer's share of wall_ms_p50 predicted as this
// workload's family-1 counts times the unit self costs of the rungs those
// counters drive. It is a linear model of isolated costs: cache effects,
// GC and the workload's own compute all land in unexplained_frac.
func (r *workloadResult) addLadder(ladder []rungResult) {
	if r.PerLayer == nil {
		return
	}
	for _, rung := range ladder {
		r.PerLayer["ladder."+rung.Name+".ns_per_op"] = metric{rung.NsPerOp, "ns"}
		r.PerLayer["ladder."+rung.Name+".allocs_per_op"] = metric{rung.AllocsPerOp, "count"}
	}
	wallNs := r.EndToEnd["wall_ms_p50"].Value * 1e6
	unit := unitCosts(ladder, r.par, r.confined)
	// Every driver counter belongs to one layer; count it once however
	// many rungs share it.
	layerNs, counted := map[string]float64{}, map[string]bool{}
	for i := range rungs {
		d := rungs[i].driver
		if u, ok := unit[d]; ok && !counted[d] {
			counted[d] = true
			layerNs[rungs[i].layer()] += r.PerLayer[d].Value * u
		}
	}
	explained := 0.0
	for _, layer := range attribLayers {
		r.PerLayer["attrib."+layer+"_frac"] = metric{layerNs[layer] / wallNs, "ratio"}
		explained += layerNs[layer] / wallNs
	}
	r.PerLayer["attrib.unexplained_frac"] = metric{1 - explained, "ratio"}
	r.Attribution = "ok"
	if math.Abs(1-explained) > unresolvedAbove {
		r.Attribution = "unresolved"
	}
}

// driverLine is the last line of standard output the driver reads.
type driverLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *workloadResult) writeDriverLine(w io.Writer, traced bool) error {
	line := driverLine{Correct: r.Failed == 0 && r.Attempted > 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: r.EndToEnd}
	defs := endToEndDefs
	if traced {
		line.Metrics, defs = r.PerLayer, perLayerDefs()
	}
	for _, d := range defs {
		if _, ok := line.Metrics[d.name]; !ok {
			return fmt.Errorf("%s: metric %s was not measured", r.Workload, d.name)
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// printDoc prints every metric by name and unit.
func printDoc(w io.Writer, d *resultDoc) {
	fmt.Fprintf(w, "benchmark: seed %d, GOMAXPROCS %d\n", d.Seed, d.GoMaxProcs)
	for _, r := range d.Results {
		fmt.Fprintf(w, "\n== %s: %d iterations, %d/%d %s failed, %d migration records, fingerprint %s\n",
			r.Workload, r.Iters, r.Failed, r.Attempted, r.Unit, r.MigSamples, r.Fingerprint)
		for _, why := range r.Why {
			fmt.Fprintf(w, "   FAILED: %s\n", why)
		}
		for _, def := range endToEndDefs {
			printMetric(w, def.name, r.EndToEnd[def.name])
		}
		printMetric(w, "failed_frac", metric{r.FailedFrac, "ratio"})
		if r.PerLayer == nil {
			continue
		}
		fmt.Fprintf(w, "  -- per layer (traced run; attribution %s)\n", r.Attribution)
		for _, def := range perLayerDefs() {
			if m, ok := r.PerLayer[def.name]; ok {
				printMetric(w, def.name, m)
			}
		}
	}
	if len(d.Ladder) == 0 {
		return
	}
	fmt.Fprintf(w, "\n== ladder: ns/op, allocs/op, self ns/op, lower-layer operations per op\n")
	for _, rung := range d.Ladder {
		if rung.Err != "" {
			fmt.Fprintf(w, "  %-34s FAILED: %s\n", rung.Name, rung.Err)
			continue
		}
		fmt.Fprintf(w, "  %-34s %12.1f ns %9.2f allocs %12.1f self ", rung.Name, rung.NsPerOp, rung.AllocsPerOp, rung.SelfNsPerOp)
		for _, k := range sortedKeys(rung.Children) {
			if v := rung.Children[k]; v != 0 {
				fmt.Fprintf(w, " %s=%.3g", k, v)
			}
		}
		fmt.Fprintln(w)
	}
}

func printMetric(w io.Writer, name string, m metric) {
	fmt.Fprintf(w, "  %-44s %16.6g %s\n", name, m.Value, m.Unit)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
