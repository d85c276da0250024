package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"strconv"
	"time"

	"sprite/internal/core"
)

const (
	// warmupsPerSetup warm-up iterations run in each of setupReps timed
	// set-ups; their median is setup_s. Nine discarded iterations in all.
	warmupsPerSetup = 3
	setupReps       = 3
	// minIters is the fewest measured iterations a -seconds run accepts.
	minIters = 10
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// iterOut is everything one iteration yields.
type iterOut struct {
	traced           bool
	runNs            int64
	mallocs, bytes   uint64
	gcCycles         uint32
	gcPauseNs        uint64
	digest           uint64
	makespan         time.Duration
	attempted, fails int
	why              []string
}

// reference is what the first measured iteration establishes and every
// later one must reproduce: the virtual results and the family-1 counts.
type reference struct {
	digest   uint64
	makespan time.Duration
	totals   []time.Duration // sorted MigrationRecord.Total
	freezes  []time.Duration // sorted MigrationRecord.Freeze
	counts   map[string]float64
}

// runIteration simulates one fresh cluster: build, run, verify. Only
// Cluster.Run is inside the timed region; construction is its own span and
// verification is outside both. ref is nil on warm-ups; the first measured
// iteration fills *ref and every later one is checked against it.
func runIteration(w *workloadDef, sh shape, in *inputs, parallel bool, tr *tracer, iter int, ref **reference) iterOut {
	out := iterOut{traced: tr != nil, attempted: w.units(sh)}
	if tr != nil {
		tr.reset(fmt.Sprintf("iter-%d", iter))
	}
	ob := tr.outer()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)

	s := ob.beginAt(spanBuild, 0)
	inst, err := w.build(sh, in, parallel, tr)
	ob.endAt(s, 0)
	if err != nil {
		out.fails, out.why = out.attempted, []string{"build: " + err.Error()}
		return out
	}
	s = ob.beginAt(spanRun, 0)
	runNs, runErr := timeCall(func() error { return inst.c.Run(0) })
	ob.endAt(s, inst.c.Sim().Now())
	out.runNs = runNs

	runtime.ReadMemStats(&m1)
	out.mallocs, out.bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	out.gcCycles, out.gcPauseNs = m1.NumGC-m0.NumGC, m1.PauseTotalNs-m0.PauseTotalNs

	c := inst.c
	out.digest, out.makespan = c.Sim().OrderDigest(), c.Sim().Now()
	recs := c.MigrationRecords()
	out.fails, out.why = verify(inst, recs, runErr, out.attempted)
	if ref == nil {
		return out
	}
	if first := *ref; first == nil {
		r := &reference{digest: out.digest, makespan: out.makespan, counts: collectCounts(inst, recs)}
		for _, rec := range recs {
			r.totals = append(r.totals, rec.Total)
			r.freezes = append(r.freezes, rec.Freeze)
		}
		sortDurations(r.totals)
		sortDurations(r.freezes)
		*ref = r
	} else if out.digest != first.digest || out.makespan != first.makespan || len(recs) != len(first.totals) {
		out.fails = out.attempted
		out.why = append(out.why, fmt.Sprintf("iteration %d diverged: digest %#x makespan %v records %d, first iteration had %#x %v %d",
			iter, out.digest, out.makespan, len(recs), first.digest, first.makespan, len(first.totals)))
	}
	return out
}

// verify checks one finished iteration's outputs and returns how many of
// its units of work failed. A failed process fails the units it carried;
// anything wrong with the cluster as a whole fails the iteration.
func verify(inst *instance, recs []core.MigrationRecord, runErr error, attempted int) (int, []string) {
	var why []string
	whole := false
	if runErr != nil {
		whole = true
		why = append(why, "run: "+runErr.Error())
	}
	failed := 0
	for i := range inst.procs {
		p := &inst.procs[i]
		switch {
		case !p.started:
			why = append(why, fmt.Sprintf("process slot %d never started: %v", i, p.err))
		case p.err != nil:
			why = append(why, fmt.Sprintf("process slot %d: wait: %v", i, p.err))
		case p.status != 0:
			why = append(why, fmt.Sprintf("process slot %d exited with status %d", i, p.status))
		default:
			continue
		}
		failed += p.units
	}
	if v := inst.c.CheckInvariants(true); len(v) > 0 {
		whole = true
		why = append(why, fmt.Sprintf("%d invariant violations, first: %s", len(v), v[0]))
	}
	for _, r := range recs {
		if sum := r.NegotiateTime + r.VMTime + r.FileTime + r.PCBTime + r.ResumeTime; sum != r.Total {
			whole = true
			why = append(why, fmt.Sprintf("migration of %v %v->%v: phases sum to %v, total %v", r.PID, r.From, r.To, sum, r.Total))
			break
		}
	}
	if inst.check != nil {
		n, msgs := inst.check()
		failed += n
		why = append(why, msgs...)
	}
	if whole || failed > attempted {
		failed = attempted
	}
	return failed, why
}

// setupOnce is one timed set-up: generate the inputs, run the warm-ups,
// and for a parallel-kernel workload simulate the same program once on the
// serial kernel for the digest the measured iterations must reproduce.
func setupOnce(w *workloadDef, sh shape, seed int64) (in *inputs, serialDigest uint64, failed []string) {
	in = w.inputs(seed, sh)
	for i := 0; i < warmupsPerSetup; i++ {
		out := runIteration(w, sh, in, true, nil, -1, nil)
		failed = append(failed, out.why...)
	}
	if w.par {
		out := runIteration(w, sh, in, false, nil, -1, nil)
		failed = append(failed, out.why...)
		serialDigest = out.digest
	}
	return in, serialDigest, failed
}

// measureOpts selects how long and in which mode to measure.
type measureOpts struct {
	iters   int     // measured iterations when seconds == 0
	seconds float64 // measure for this long instead (at least minIters)
	trace   bool    // alternate untraced and traced iterations
}

// measured is the raw outcome of one workload's closed loop.
type measured struct {
	w         *workloadDef
	sh        shape
	setupNs   []int64
	ref       *reference
	iters     []iterOut
	spans     spanTotals // summed over the traced iterations
	traced    int
	lastTrace []spanJSON
	attempted int
	failed    int
	why       []string
}

// measure runs one workload as a closed loop with one client: each
// iteration simulates a fresh cluster running the identical program, and
// the next starts when the previous has finished and been verified.
func measure(w *workloadDef, sh shape, seed int64, opt measureOpts) *measured {
	m := &measured{w: w, sh: sh}
	var in *inputs
	var serialDigest uint64
	for r := 0; r < setupReps; r++ {
		ns, _ := timeCall(func() error {
			var why []string
			in, serialDigest, why = setupOnce(w, sh, seed)
			m.why = append(m.why, why...)
			return nil
		})
		m.setupNs = append(m.setupNs, ns)
	}
	if len(m.why) > 0 {
		// A warm-up that fails would fail every measured iteration too;
		// book one iteration's worth so the result cannot read as clean.
		m.attempted, m.failed = w.units(sh), w.units(sh)
	}

	var tr *tracer
	if opt.trace {
		tr = newTracer(w.slots(sh))
	}
	start := wallNow()
	for i := 0; ; i++ {
		// A traced run stops on an even count: as many untraced iterations
		// as traced ones.
		if opt.seconds > 0 {
			if i >= minIters && (!opt.trace || i%2 == 0) && float64(wallNow()-start) >= opt.seconds*1e9 {
				break
			}
		} else if i >= opt.iters {
			break
		}
		var iterTr *tracer
		if opt.trace && i%2 == 1 {
			iterTr = tr
		}
		//spritelint:allow simtaint the tracer's wall-clock spans share this call with the cluster whose gauges collectCounts folds; span data never enters the simulation
		it := runIteration(w, sh, in, true, iterTr, i, &m.ref)
		if iterTr != nil {
			m.spans.add(tr.totals())
			m.traced++
		}
		if w.par && it.digest != serialDigest && it.fails == 0 {
			it.fails = it.attempted
			it.why = append(it.why, fmt.Sprintf("parallel kernel committed digest %#x, the serial kernel %#x", it.digest, serialDigest))
		}
		m.iters = append(m.iters, it)
		m.attempted += it.attempted
		m.failed += it.fails
		if len(m.why) < 8 {
			m.why = append(m.why, it.why...)
		}
	}
	if tr != nil {
		m.lastTrace = tr.export()
	}
	return m
}

func (st *spanTotals) add(o spanTotals) {
	for k := range st.virt {
		st.virt[k] += o.virt[k]
		st.wall[k] += o.wall[k]
		st.n[k] += o.n[k]
	}
	st.procSelf += o.procSelf
}

// runNs returns the timed regions of the iterations with the given tracing
// state, sorted.
func (m *measured) runNs(traced bool) []float64 {
	var out []float64
	for _, it := range m.iters {
		if it.traced == traced {
			out = append(out, float64(it.runNs))
		}
	}
	sort.Float64s(out)
	return out
}

// endToEnd computes the end-to-end metrics, by name, from the untraced
// iterations.
func (m *measured) endToEnd() map[string]float64 {
	run := m.runNs(false)
	var sumRun float64
	var mallocs, bytes uint64
	for _, it := range m.iters {
		if !it.traced {
			sumRun += float64(it.runNs)
			mallocs += it.mallocs
			bytes += it.bytes
		}
	}
	n := float64(len(run))
	setup := make([]float64, len(m.setupNs))
	for i, ns := range m.setupNs {
		setup[i] = float64(ns)
	}
	sort.Float64s(setup)
	out := map[string]float64{
		"setup_s":           quantile(setup, 0.5) / 1e9,
		"wall_ms_p50":       quantile(run, 0.5) / 1e6,
		"work_per_s":        n * float64(m.w.units(m.sh)) / (sumRun / 1e9),
		"allocs_per_iter":   float64(mallocs) / n,
		"alloc_mb_per_iter": float64(bytes) / n / (1 << 20),
	}
	if r := m.ref; r != nil {
		out["virt_makespan_ms"] = ms(r.makespan)
		out["virt_mig_ms_mean"] = ms(durMean(r.totals))
		out["virt_mig_ms_tail"] = ms(durMean(r.totals[len(r.totals)-(len(r.totals)+9)/10:]))
		out["virt_freeze_ms_mean"] = ms(durMean(r.freezes))
	}
	return out
}

// failedFrac is failed over attempted units of work, the tenth end-to-end
// number: printed and written to -out, and carried to the driver by the
// result line's own failed/attempted keys.
func (m *measured) failedFrac() float64 {
	if m.attempted == 0 {
		return 1
	}
	return float64(m.failed) / float64(m.attempted)
}

// fingerprint hashes the virtual results and the family-1 counts, the part
// of a result that a simulator-only change must leave identical.
func (m *measured) fingerprint() string {
	if m.ref == nil {
		return "none"
	}
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(m.ref.digest)
	put(uint64(m.ref.makespan))
	for _, d := range m.ref.totals {
		put(uint64(d))
	}
	for _, d := range m.ref.freezes {
		put(uint64(d))
	}
	for _, def := range countDefs {
		put(math.Float64bits(m.ref.counts[def.name]))
	}
	return strconv.FormatUint(h.Sum64(), 16)
}

func sortDurations(d []time.Duration) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}

// quantile returns the q-quantile of sorted values: the median averages the
// two middle values, any other quantile is the nearest rank from below.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if q == 0.5 && n%2 == 0 {
		return (sorted[n/2-1] + sorted[n/2]) / 2
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx]
}

func durMean(d []time.Duration) time.Duration {
	if len(d) == 0 {
		return 0
	}
	var sum time.Duration
	for _, v := range d {
		sum += v
	}
	return sum / time.Duration(len(d))
}

func durQuantile(sorted []time.Duration, q float64) time.Duration {
	f := make([]float64, len(sorted))
	for i, d := range sorted {
		f[i] = float64(d)
	}
	return time.Duration(quantile(f, q))
}
