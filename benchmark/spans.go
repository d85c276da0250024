package main

import (
	"encoding/json"
	"os"
	"time"

	"sprite/internal/core"
)

// Spans are recorded by the benchmark's own wrappers around the calls a
// workload makes into the system — never from inside the system. A span
// carries both clocks. Virtual time is meaningful on every span. Wall time is
// meaningful only on "build" and "run": a blocked activity's wall interval
// contains whatever other activities the kernel dispatched meanwhile.

type spanKind uint8

const (
	spanProc spanKind = iota
	spanMigrate
	spanTouch
	spanRead
	spanWrite
	spanOpenClose
	spanCompute
	spanBuild
	spanRun
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"proc", "migrate", "touch", "read", "write", "open_close", "compute", "build", "run",
}

type span struct {
	kind               spanKind
	parent             int32 // index in the same trace, -1 for a root
	virtStart, virtEnd time.Duration
	wallStart, wallEnd int64
}

// traceBuf holds the spans of one trace: one process (id = its PID) or one
// iteration's outer calls (id = "iter-N"). A nil *traceBuf is tracing
// switched off: begin and end return at once and allocate nothing, so the
// untraced run executes the same program minus two nil checks per call.
type traceBuf struct {
	id    string
	spans []span
	cur   int32 // innermost open span, -1 at the root
}

// begin opens a span at ctx's virtual time under the innermost open span.
func (t *traceBuf) begin(ctx *core.Ctx, kind spanKind) int32 {
	if t == nil {
		return -1
	}
	return t.beginAt(kind, ctx.Now())
}

func (t *traceBuf) beginAt(kind spanKind, virt time.Duration) int32 {
	if t == nil {
		return -1
	}
	idx := int32(len(t.spans))
	t.spans = append(t.spans, span{kind: kind, parent: t.cur, virtStart: virt, wallStart: wallNow()})
	t.cur = idx
	return idx
}

// end closes span idx (as returned by begin) at ctx's virtual time.
func (t *traceBuf) end(ctx *core.Ctx, idx int32) {
	if t == nil {
		return
	}
	t.endAt(idx, ctx.Now())
}

func (t *traceBuf) endAt(idx int32, virt time.Duration) {
	if t == nil {
		return
	}
	s := &t.spans[idx]
	s.virtEnd, s.wallEnd = virt, wallNow()
	t.cur = s.parent
}

// tracer owns every trace of the current iteration. Process traces are
// preallocated by slot in exclusive set-up, so processes running on
// different kernel workers never share a buffer.
type tracer struct {
	iter  traceBuf
	procs []traceBuf
}

func newTracer(procSlots int) *tracer {
	t := &tracer{procs: make([]traceBuf, procSlots)}
	t.reset("")
	return t
}

// proc returns process slot i's trace, nil when tracing is off.
func (t *tracer) proc(i int) *traceBuf {
	if t == nil {
		return nil
	}
	return &t.procs[i]
}

// outer returns the iteration-level trace, nil when tracing is off.
func (t *tracer) outer() *traceBuf {
	if t == nil {
		return nil
	}
	return &t.iter
}

// reset empties every trace for the next iteration, keeping the buffers.
func (t *tracer) reset(iterID string) {
	t.iter = traceBuf{id: iterID, spans: t.iter.spans[:0], cur: -1}
	for i := range t.procs {
		t.procs[i] = traceBuf{spans: t.procs[i].spans[:0], cur: -1}
	}
}

// spanTotals accumulates one iteration's (or many iterations') spans by
// kind: summed durations on both clocks, span counts, and the proc spans'
// self time — their duration minus what their direct children cover.
type spanTotals struct {
	virt     [numSpanKinds]time.Duration
	wall     [numSpanKinds]int64
	n        [numSpanKinds]int
	procSelf time.Duration
}

func (st *spanTotals) addTrace(t *traceBuf) {
	for i := range t.spans {
		s := &t.spans[i]
		d := s.virtEnd - s.virtStart
		st.virt[s.kind] += d
		st.wall[s.kind] += s.wallEnd - s.wallStart
		st.n[s.kind]++
		if s.kind == spanProc {
			st.procSelf += d
		} else if s.parent >= 0 && t.spans[s.parent].kind == spanProc {
			st.procSelf -= d
		}
	}
}

// totals folds every trace of the current iteration.
func (t *tracer) totals() spanTotals {
	var st spanTotals
	st.addTrace(&t.iter)
	for i := range t.procs {
		st.addTrace(&t.procs[i])
	}
	return st
}

// spanJSON is the exported form of one span.
type spanJSON struct {
	Trace       string  `json:"trace"`
	ID          int     `json:"id"`
	Parent      int     `json:"parent"`
	Name        string  `json:"name"`
	VirtStartMs float64 `json:"virt_start_ms"`
	VirtEndMs   float64 `json:"virt_end_ms"`
	WallStartNs int64   `json:"wall_start_ns"`
	WallEndNs   int64   `json:"wall_end_ns"`
}

// export renders the current iteration's spans.
func (t *tracer) export() []spanJSON {
	var out []spanJSON
	add := func(tb *traceBuf) {
		for i, s := range tb.spans {
			out = append(out, spanJSON{
				Trace: tb.id, ID: i, Parent: int(s.parent), Name: spanNames[s.kind],
				VirtStartMs: ms(s.virtStart), VirtEndMs: ms(s.virtEnd),
				WallStartNs: s.wallStart, WallEndNs: s.wallEnd,
			})
		}
	}
	add(&t.iter)
	for i := range t.procs {
		add(&t.procs[i])
	}
	return out
}

// traceFile is the -trace-out document: the last traced iteration's spans
// in full; the per-kind aggregates over every traced iteration are in the
// result's span.* metrics.
type traceFile struct {
	Workload string     `json:"workload"`
	Seed     int64      `json:"seed"`
	Note     string     `json:"note"`
	Spans    []spanJSON `json:"spans"`
}

func writeTraceFile(path string, files []traceFile) error {
	data, err := json.MarshalIndent(files, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
