package main

import (
	"time"

	"sprite/internal/core"
)

// metricDef names one per-layer metric with its unit and which direction
// is better. The tables in this file, ladder.go and report.go are, in
// order, BENCHMARK.json's per_layer list; harness_test.go holds the two
// together.
type metricDef struct {
	name, unit, better string
}

// countDefs is family 1: what each layer did in one iteration, read after
// Run through the layers' public accessors. Every value is exact for a
// seed and identical on both kernels.
var countDefs = []metricDef{
	{"sim.events", "count", "lower"},
	{"sim.ctx_switches", "count", "lower"},
	{"sim.spawned", "count", "lower"},
	{"sim.max_queue_depth", "count", "lower"},
	{"netsim.messages", "count", "lower"},
	{"netsim.bytes", "bytes", "lower"},
	{"rpc.calls", "count", "lower"},
	{"rpc.bytes", "bytes", "lower"},
	{"rpc.retries", "count", "lower"},
	{"rpc.timeouts", "count", "lower"},
	{"rpc.errs", "count", "lower"},
	{"rpc.bulk.calls", "count", "lower"},
	{"rpc.bulk.fragments", "count", "lower"},
	{"rpc.bulk.retransmits", "count", "lower"},
	{"fs.cache.hits", "count", "higher"},
	{"fs.cache.misses", "count", "lower"},
	{"fs.cache.hit_ratio", "ratio", "higher"},
	{"fs.cache.recalls", "count", "lower"},
	{"fs.cache.flushes", "count", "lower"},
	{"fs.bytes.read", "bytes", "lower"},
	{"fs.bytes.written", "bytes", "lower"},
	{"fs.server.lookups", "count", "lower"},
	{"fs.server.cpu_busy_virt_ms", "virt_ms", "lower"},
	{"fs.server.cpu_wait_virt_ms", "virt_ms", "lower"},
	{"fs.stream.moves", "count", "lower"},
	{"vm.faults", "count", "lower"},
	{"vm.pageins", "count", "lower"},
	{"vm.prefetched", "count", "higher"},
	{"vm.pages_flushed", "count", "lower"},
	{"vm.pages_copied", "count", "lower"},
	{"vm.bytes_moved", "bytes", "lower"},
	{"core.mig.started", "count", "lower"},
	{"core.mig.completed", "count", "higher"},
	{"core.mig.aborted", "count", "lower"},
	{"core.mig.negotiate_virt_ms", "virt_ms", "lower"},
	{"core.mig.vm_virt_ms", "virt_ms", "lower"},
	{"core.mig.streams_virt_ms", "virt_ms", "lower"},
	{"core.mig.pcb_virt_ms", "virt_ms", "lower"},
	{"core.mig.resume_virt_ms", "virt_ms", "lower"},
	{"core.forwarded_calls", "count", "lower"},
	{"core.remote_execs", "count", "lower"},
}

// collectCounts reads family 1 off a finished cluster. The vm.* fault
// counts cover the processes the harness started itself (an address space
// is discarded at exit, so each program samples its own just before
// returning); pmake's children are out of reach, and vm is idle there.
func collectCounts(inst *instance, recs []core.MigrationRecord) map[string]float64 {
	c := inst.c
	out := make(map[string]float64, len(countDefs))

	ss := c.Sim().Stats()
	out["sim.events"] = float64(ss.EventsDispatched)
	out["sim.ctx_switches"] = float64(ss.ContextSwitches)
	out["sim.spawned"] = float64(ss.Spawned)
	out["sim.max_queue_depth"] = float64(ss.MaxQueueDepth)

	out["netsim.messages"] = float64(c.Network().Messages())
	out["netsim.bytes"] = float64(c.Network().Bytes())

	for _, st := range c.Transport().Stats() {
		out["rpc.calls"] += float64(st.Calls)
		out["rpc.bytes"] += float64(st.Bytes)
		out["rpc.errs"] += float64(st.Errs)
	}
	out["rpc.retries"] = float64(c.Transport().Retries())
	out["rpc.timeouts"] = float64(c.Transport().Timeouts())

	snap := c.MetricsSnapshot()
	for _, name := range []string{
		"rpc.bulk.calls", "rpc.bulk.fragments", "rpc.bulk.retransmits",
		"fs.cache.hits", "fs.cache.misses", "fs.cache.recalls", "fs.cache.flushes",
		"fs.bytes.read", "fs.bytes.written", "fs.stream.moves",
	} {
		out[name] = float64(snap.Counters[name])
	}
	if lookups := out["fs.cache.hits"] + out["fs.cache.misses"]; lookups > 0 {
		out["fs.cache.hit_ratio"] = out["fs.cache.hits"] / lookups
	}
	for _, name := range []string{"started", "completed", "aborted"} {
		out["core.mig."+name] = float64(snap.Counters["mig."+name])
	}

	var busy, wait time.Duration
	for _, srv := range c.Servers() {
		out["fs.server.lookups"] += float64(srv.Stats().Lookups)
		busy += srv.CPUBusy()
		wait += srv.CPUWait()
	}
	out["fs.server.cpu_busy_virt_ms"] = ms(busy)
	out["fs.server.cpu_wait_virt_ms"] = ms(wait)

	for i := range inst.procs {
		st := inst.procs[i].vm
		out["vm.faults"] += float64(st.Faults)
		out["vm.pageins"] += float64(st.PageIns)
		out["vm.prefetched"] += float64(st.Prefetched)
	}
	var neg, vmT, strm, pcb, res time.Duration
	for _, r := range recs {
		out["vm.pages_flushed"] += float64(r.PagesFlushed)
		out["vm.pages_copied"] += float64(r.PagesCopied)
		out["vm.bytes_moved"] += float64(r.VMBytes)
		neg += r.NegotiateTime
		vmT += r.VMTime
		strm += r.FileTime
		pcb += r.PCBTime
		res += r.ResumeTime
	}
	out["core.mig.negotiate_virt_ms"] = ms(neg)
	out["core.mig.vm_virt_ms"] = ms(vmT)
	out["core.mig.streams_virt_ms"] = ms(strm)
	out["core.mig.pcb_virt_ms"] = ms(pcb)
	out["core.mig.resume_virt_ms"] = ms(res)

	for _, k := range c.Workstations() {
		out["core.forwarded_calls"] += float64(k.Stats().ForwardedCalls)
		out["core.remote_execs"] += float64(k.Stats().RemoteExecs)
	}
	return out
}
