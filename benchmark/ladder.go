package main

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"sprite/internal/core"
	"sprite/internal/fs"
	"sprite/internal/metrics"
	"sprite/internal/netsim"
	"sprite/internal/rpc"
	"sprite/internal/sim"
	"sprite/internal/vm"
)

// The layer ladder: one isolated rung per public entry point of a layer,
// each built from the layers' exported constructors only (sim.New →
// netsim.New → rpc.NewTransport → fs.New → vm.New, or core.NewCluster for
// the core rungs) and measured from outside, by timing the simulation that
// performs the operations. A rung reports ns and allocations per operation
// and how many lower-layer operations one of its own performs, counted by
// the same names as family 1 — so a rung's self cost is its ns/op minus its
// children's, and a workload's counts times the self costs say where its
// host time should have gone (report.go's attribution).

// fixture is one prepared rung run: body is the timed region, counts reads
// the lower-layer work it did, afterwards.
type fixture struct {
	body   func() error
	counts func() map[string]float64
}

type rungDef struct {
	name string
	// driver is the family-1 counter that counts this rung's operations in
	// a workload, and perOp how many of it one operation produces; "" keeps
	// the rung out of the attribution (it is still reported).
	driver string
	perOp  float64
	// mode restricts which workloads' attribution the rung feeds: "" = all
	// three serial-kernel workloads, "confined" = mig_churn_par, "par" =
	// both parallel-kernel workloads.
	mode string
	// ops is the number of operations one fixture performs.
	ops     int
	prepare func(ops int) (*fixture, error)
}

func (r *rungDef) layer() string { return r.name[:strings.IndexByte(r.name, '.')] }

// rungResult is one measured rung.
type rungResult struct {
	Name        string  `json:"name"`
	Ops         int     `json:"ops"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	// Children is lower-layer operations per operation, by family-1 name.
	Children map[string]float64 `json:"children_per_op,omitempty"`
	// SelfNsPerOp is NsPerOp minus the children's unit costs.
	SelfNsPerOp float64 `json:"self_ns_per_op"`
	Err         string  `json:"err,omitempty"`
}

// ladderDefs lists the rungs' two metrics each, in rung order.
func ladderDefs() []metricDef {
	var defs []metricDef
	for _, r := range rungs {
		defs = append(defs,
			metricDef{"ladder." + r.name + ".ns_per_op", "ns", "lower"},
			metricDef{"ladder." + r.name + ".allocs_per_op", "count", "lower"})
	}
	return defs
}

// runLadder measures every rung for about seconds of timed region each and
// derives the self costs bottom-up.
func runLadder(seconds float64) []rungResult {
	defer capProcs()()
	out := make([]rungResult, len(rungs))
	for i := range rungs {
		out[i] = measureRung(&rungs[i], seconds)
	}
	deriveSelfCosts(out)
	return out
}

func measureRung(r *rungDef, seconds float64) rungResult {
	res := rungResult{Name: r.name, Children: map[string]float64{}}
	var ns int64
	var mallocs, bytes uint64
	var m0, m1 runtime.MemStats
	for rep := 0; rep == 0 || float64(ns) < seconds*1e9; rep++ {
		fx, err := r.prepare(r.ops)
		if err != nil {
			res.Err = err.Error()
			return res
		}
		runtime.GC()
		runtime.ReadMemStats(&m0)
		d, err := timeCall(fx.body)
		runtime.ReadMemStats(&m1)
		if err != nil {
			res.Err = err.Error()
			return res
		}
		ns += d
		mallocs += m1.Mallocs - m0.Mallocs
		bytes += m1.TotalAlloc - m0.TotalAlloc
		res.Ops += r.ops
		if fx.counts != nil {
			for k, v := range fx.counts() {
				res.Children[k] += v
			}
		}
	}
	ops := float64(res.Ops)
	res.NsPerOp = float64(ns) / ops
	res.AllocsPerOp = float64(mallocs) / ops
	res.BytesPerOp = float64(bytes) / ops
	for k := range res.Children {
		res.Children[k] /= ops
	}
	if r.driver != "" && res.Children[r.driver] < r.perOp*0.99 {
		res.Err = fmt.Sprintf("rung did %.3f %s per op, expected %.3f: it is not measuring what it claims", res.Children[r.driver], r.driver, r.perOp)
	}
	return res
}

// unitCosts maps a driver counter to the self cost of one count of it for a
// workload on the given kernel mode: the serial-mode rungs, with a parallel
// or confined rung replacing the serial one that drives the same counter.
func unitCosts(ladder []rungResult, par, confined bool) map[string]float64 {
	var serial, special []int
	for i, res := range ladder {
		r := &rungs[i]
		switch {
		case r.driver == "" || res.Err != "":
		case r.mode == "":
			serial = append(serial, i)
		case r.mode == "par" && par, r.mode == "confined" && confined:
			special = append(special, i)
		}
	}
	unit := meanUnit(ladder, serial)
	for d, u := range meanUnit(ladder, special) {
		unit[d] = u
	}
	return unit
}

// meanUnit returns, per driver counter, the self cost of one count of it,
// averaged over the listed rungs that drive it (the four migrate rungs
// share core.mig.completed; the workloads rotate the strategies evenly).
func meanUnit(ladder []rungResult, idx []int) map[string]float64 {
	sum, n := map[string]float64{}, map[string]float64{}
	for _, i := range idx {
		d := rungs[i].driver
		sum[d] += ladder[i].SelfNsPerOp / rungs[i].perOp
		n[d]++
	}
	for d := range sum {
		sum[d] /= n[d]
	}
	return sum
}

// deriveSelfCosts fills SelfNsPerOp bottom-up. The rungs are listed lowest
// layer first, so each rung subtracts, for every driver counter an earlier
// serial-mode rung established, its own count of it per op times that
// counter's self cost. The parallel and confined rungs subtract the same
// serial children, so their self cost carries the whole kernel-mode
// difference; rungs sharing a driver (the four migrations) average.
func deriveSelfCosts(ladder []rungResult) {
	sum, n := map[string]float64{}, map[string]float64{}
	for i := range ladder {
		r, res := &rungs[i], &ladder[i]
		self := res.NsPerOp
		for _, d := range sortedKeys(sum) {
			if d != r.driver {
				self -= res.Children[d] * sum[d] / n[d]
			}
		}
		res.SelfNsPerOp = math.Max(self, 0)
		if r.driver != "" && r.mode == "" && res.Err == "" {
			sum[r.driver] += res.SelfNsPerOp / r.perOp
			n[r.driver]++
		}
	}
}

// --- fabrics -----------------------------------------------------------

// fabric is the bare layer stack below core, with its own metrics registry
// so the fs and bulk counters read the same way they do off a cluster.
type fabric struct {
	s      *sim.Simulation
	net    *netsim.Network
	tr     *rpc.Transport
	fsys   *fs.FS
	reg    *metrics.Registry
	spaces []*vm.AddressSpace
}

var ladderNet = netsim.Params{Latency: 500 * time.Microsecond, BandwidthBytesPerSec: 10 << 20}

// newFabric builds sim → netsim → rpc with hosts registered endpoints.
func newFabric(hosts int) *fabric {
	s := sim.New(1)
	f := &fabric{s: s, net: netsim.New(s, ladderNet), reg: metrics.New()}
	f.tr = rpc.NewTransport(s, f.net, rpc.DefaultParams())
	f.tr.SetMetrics(f.reg)
	for i := 1; i <= hosts; i++ {
		f.tr.Register(rpc.HostID(i))
	}
	return f
}

// newFSFabric adds fs on top: a server on host 1, clients on hosts 2 and 3.
func newFSFabric(params fs.Params) *fabric {
	f := newFabric(0)
	f.fsys = fs.New(f.s, f.tr, params)
	f.fsys.SetMetrics(f.reg)
	f.fsys.AddServer(1, "/")
	f.fsys.AddClient(2)
	f.fsys.AddClient(3)
	return f
}

// counts reads the fabric's work by family-1 names.
func (f *fabric) counts() map[string]float64 {
	ss := f.s.Stats()
	out := map[string]float64{
		"sim.events":       float64(ss.EventsDispatched),
		"sim.ctx_switches": float64(ss.ContextSwitches),
		"sim.spawned":      float64(ss.Spawned),
	}
	if f.net != nil {
		out["netsim.messages"] = float64(f.net.Messages())
	}
	if f.tr != nil {
		for _, st := range f.tr.Stats() {
			out["rpc.calls"] += float64(st.Calls)
		}
		out["rpc.bulk.fragments"] = float64(f.reg.Counter("rpc.bulk.fragments").Value())
	}
	if f.fsys != nil {
		out["fs.cache.hits"] = float64(f.reg.Counter("fs.cache.hits").Value())
		out["fs.cache.misses"] = float64(f.reg.Counter("fs.cache.misses").Value())
		out["fs.cache.recalls"] = float64(f.reg.Counter("fs.cache.recalls").Value())
		out["fs.bytes.written"] = float64(f.reg.Counter("fs.bytes.written").Value())
		for _, srv := range f.fsys.Servers() {
			out["fs.server.lookups"] += float64(srv.Stats().Lookups)
		}
	}
	for _, as := range f.spaces {
		out["vm.faults"] += float64(as.Stats().Faults)
		out["vm.pages_flushed"] += float64(as.Stats().PageOuts)
	}
	return out
}

// fixture times s.Run over whatever activities were spawned on f.
func (f *fabric) fixture() *fixture {
	return &fixture{body: func() error { return f.s.Run(0) }, counts: f.counts}
}

// spawnLoop spawns one activity on the fabric that calls op ops times.
func (f *fabric) spawnLoop(ops int, op func(env *sim.Env, i int) error) {
	f.s.Spawn("rung", func(env *sim.Env) error {
		for i := 0; i < ops; i++ {
			if err := op(env, i); err != nil {
				return err
			}
		}
		return nil
	})
}

// clusterFixture times c.Run and reads the same counters off the cluster.
func clusterFixture(inst *instance) *fixture {
	return &fixture{
		body: func() error {
			if err := inst.c.Run(0); err != nil {
				return err
			}
			for i := range inst.procs {
				if p := &inst.procs[i]; !p.started || p.err != nil || p.status != 0 {
					return fmt.Errorf("rung process %d failed: started=%v status=%d err=%v", i, p.started, p.status, p.err)
				}
			}
			return nil
		},
		counts: func() map[string]float64 {
			all := collectCounts(inst, inst.c.MigrationRecords())
			out := make(map[string]float64, len(childCounters))
			for _, k := range childCounters {
				out[k] = all[k]
			}
			return out
		},
	}
}

// childCounters are the family-1 counters a rung's children are counted
// in: the ones fabric.counts reads, plus completed migrations.
var childCounters = []string{
	"sim.events", "sim.ctx_switches", "sim.spawned", "netsim.messages", "rpc.calls", "rpc.bulk.fragments",
	"fs.cache.hits", "fs.cache.misses", "fs.cache.recalls", "fs.bytes.written", "fs.server.lookups",
	"vm.faults", "vm.pages_flushed", "core.mig.completed",
}

// --- rungs -------------------------------------------------------------

const ladderBlock = 4096

var rungs = []rungDef{
	// sim: the event loop and the activity handoff.
	{name: "sim.sleep", driver: "sim.events", perOp: 1, ops: 40000, prepare: func(ops int) (*fixture, error) {
		f := &fabric{s: sim.New(1)}
		const acts = 8
		for a := 0; a < acts; a++ {
			f.s.Spawn("sleeper", func(env *sim.Env) error {
				for i := 0; i < ops/acts; i++ {
					if err := env.Sleep(time.Microsecond); err != nil {
						return err
					}
				}
				return nil
			})
		}
		return f.fixture(), nil
	}},
	{name: "sim.queue_handoff", ops: 20000, prepare: func(ops int) (*fixture, error) {
		f := &fabric{s: sim.New(1)}
		ping, pong := sim.NewQueue(f.s), sim.NewQueue(f.s)
		f.s.Spawn("ping", func(env *sim.Env) error {
			for i := 0; i < ops/2; i++ {
				ping.Send(i)
				if _, err := pong.Recv(env); err != nil {
					return err
				}
			}
			return nil
		})
		f.s.Spawn("pong", func(env *sim.Env) error {
			for i := 0; i < ops/2; i++ {
				if _, err := ping.Recv(env); err != nil {
					return err
				}
				pong.Send(i)
			}
			return nil
		})
		return f.fixture(), nil
	}},
	{name: "sim.spawn_exit", driver: "sim.spawned", perOp: 1, ops: 5000, prepare: func(ops int) (*fixture, error) {
		f := &fabric{s: sim.New(1)}
		f.s.Spawn("parent", func(env *sim.Env) error {
			for i := 0; i < ops; i++ {
				env.Spawn("child", func(*sim.Env) error { return nil })
				if err := env.Yield(); err != nil {
					return err
				}
			}
			return nil
		})
		return f.fixture(), nil
	}},
	{name: "sim.window_par2", driver: "sim.events", perOp: 1, mode: "par", ops: 32000, prepare: func(ops int) (*fixture, error) {
		f := &fabric{s: sim.New(1)}
		f.s.SetLookahead(time.Millisecond)
		f.s.ConfigureParallel(parWorkers)
		const shards = 64
		for sh := 1; sh <= shards; sh++ {
			f.s.SpawnOn(sh, "sleeper", func(env *sim.Env) error {
				for i := 0; i < ops/shards; i++ {
					if err := env.Sleep(10 * time.Microsecond); err != nil {
						return err
					}
				}
				return nil
			})
		}
		return f.fixture(), nil
	}},
	{name: "sim.mailbox_par2", ops: 8000, prepare: func(ops int) (*fixture, error) {
		f := &fabric{s: sim.New(1)}
		const look = time.Millisecond
		f.s.SetLookahead(look)
		f.s.ConfigureParallel(parWorkers)
		const pairs = 16
		for p := 0; p < pairs; p++ {
			a, b := 2*p+1, 2*p+2
			toA, toB := sim.NewMailboxOn(f.s, a, look), sim.NewMailboxOn(f.s, b, look)
			f.s.SpawnOn(a, "ping", func(env *sim.Env) error {
				for i := 0; i < ops/pairs/2; i++ {
					toB.Send(env, i)
					if _, err := toA.Recv(env); err != nil {
						return err
					}
				}
				return nil
			})
			f.s.SpawnOn(b, "pong", func(env *sim.Env) error {
				for i := 0; i < ops/pairs/2; i++ {
					if _, err := toB.Recv(env); err != nil {
						return err
					}
					toA.Send(env, i)
				}
				return nil
			})
		}
		return f.fixture(), nil
	}},

	// netsim: one message, latency-charged and pipelined.
	{name: "netsim.send", driver: "netsim.messages", perOp: 1, ops: 20000, prepare: func(ops int) (*fixture, error) {
		f := &fabric{s: sim.New(1)}
		f.net = netsim.New(f.s, ladderNet)
		f.spawnLoop(ops, func(env *sim.Env, _ int) error { return f.net.Send(env, 1024) })
		return f.fixture(), nil
	}},
	{name: "netsim.send_pipelined", ops: 20000, prepare: func(ops int) (*fixture, error) {
		f := &fabric{s: sim.New(1)}
		f.net = netsim.New(f.s, ladderNet)
		f.spawnLoop(ops, func(env *sim.Env, _ int) error { return f.net.SendPipelined(env, 16<<10) })
		return f.fixture(), nil
	}},

	// rpc: a small call on the direct path, on the mailbox path, and one
	// fragment of a bulk transfer.
	{name: "rpc.call", driver: "rpc.calls", perOp: 1, ops: 10000, prepare: func(ops int) (*fixture, error) {
		f := newFabric(2)
		f.tr.Endpoint(2).Handle("unit", unitHandler)
		f.spawnLoop(ops, func(env *sim.Env, _ int) error {
			_, err := f.tr.Endpoint(1).Call(env, 2, "unit", nil, 64)
			return err
		})
		return f.fixture(), nil
	}},
	{name: "rpc.call_confined", driver: "rpc.calls", perOp: 1, mode: "confined", ops: 5000, prepare: func(ops int) (*fixture, error) {
		f := newFabric(2)
		f.s.SetLookahead(ladderNet.Latency)
		f.tr.Endpoint(2).Handle("unit", unitHandler)
		f.tr.ConfineHosts(func(h rpc.HostID) int { return int(h) })
		f.s.SpawnOn(1, "rung", func(env *sim.Env) error {
			for i := 0; i < ops; i++ {
				if _, err := f.tr.Endpoint(1).Call(env, 2, "unit", nil, 64); err != nil {
					return err
				}
			}
			return nil
		})
		return f.fixture(), nil
	}},
	{name: "rpc.call_bulk_frag", driver: "rpc.bulk.fragments", perOp: 1, ops: 8000, prepare: func(ops int) (*fixture, error) {
		f := newFabric(2)
		f.tr.Endpoint(2).Handle("blob", unitHandler)
		const frags = 16 // 256 KiB at the default 16 KiB fragment
		f.spawnLoop(ops/frags, func(env *sim.Env, _ int) error {
			_, _, err := f.tr.Endpoint(1).CallBulk(env, 2, "blob", nil, 64, frags*(16<<10), rpc.BulkOut)
			return err
		})
		return f.fixture(), nil
	}},

	// fs: the client cache and the server, operation by operation.
	{name: "fs.open_close", driver: "fs.server.lookups", perOp: 1, ops: 4000, prepare: func(ops int) (*fixture, error) {
		f := newFSFabric(fs.DefaultParams())
		if _, err := f.fsys.SeedSized("/d/file", 8*ladderBlock, false); err != nil {
			return nil, err
		}
		c := f.fsys.Client(2)
		f.spawnLoop(ops, func(env *sim.Env, _ int) error {
			st, err := c.Open(env, "/d/file", fs.ReadMode, fs.OpenOptions{})
			if err != nil {
				return err
			}
			return c.Close(env, st)
		})
		return f.fixture(), nil
	}},
	{name: "fs.read_hit", driver: "fs.cache.hits", perOp: 1, ops: 20000, prepare: func(ops int) (*fixture, error) {
		f := newFSFabric(fs.DefaultParams())
		if _, err := f.fsys.SeedSized("/d/file", 8*ladderBlock, false); err != nil {
			return nil, err
		}
		c := f.fsys.Client(2)
		f.s.Spawn("rung", func(env *sim.Env) error {
			st, err := c.Open(env, "/d/file", fs.ReadMode, fs.OpenOptions{})
			if err != nil {
				return err
			}
			for i := 0; i <= ops; i++ { // the first read misses and fills the cache
				if _, err := c.ReadAt(env, st, 0, ladderBlock); err != nil {
					return err
				}
			}
			return c.Close(env, st)
		})
		return f.fixture(), nil
	}},
	{name: "fs.read_miss", driver: "fs.cache.misses", perOp: 1, ops: 2048, prepare: func(ops int) (*fixture, error) {
		params := fs.DefaultParams()
		params.ClientCacheBlocks = 64 // far smaller than the file: every block read misses
		f := newFSFabric(params)
		if _, err := f.fsys.SeedSized("/d/big", ops*ladderBlock, false); err != nil {
			return nil, err
		}
		c := f.fsys.Client(2)
		f.s.Spawn("rung", func(env *sim.Env) error {
			st, err := c.Open(env, "/d/big", fs.ReadMode, fs.OpenOptions{})
			if err != nil {
				return err
			}
			for i := 0; i < ops; i++ {
				if _, err := c.ReadAt(env, st, int64(i)*ladderBlock, ladderBlock); err != nil {
					return err
				}
			}
			return c.Close(env, st)
		})
		return f.fixture(), nil
	}},
	{name: "fs.write", driver: "fs.bytes.written", perOp: ladderBlock, ops: 8000, prepare: func(ops int) (*fixture, error) {
		f := newFSFabric(fs.DefaultParams())
		c := f.fsys.Client(2)
		block := make([]byte, ladderBlock)
		f.s.Spawn("rung", func(env *sim.Env) error {
			st, err := c.Open(env, "/d/out", fs.WriteMode, fs.OpenOptions{Create: true})
			if err != nil {
				return err
			}
			for i := 0; i < ops; i++ { // delayed write-back: 512 cached blocks rewritten in turn
				if err := c.WriteAt(env, st, int64(i%512)*ladderBlock, block); err != nil {
					return err
				}
			}
			return c.Close(env, st)
		})
		return f.fixture(), nil
	}},
	{name: "fs.write_batch_block", ops: 8192, prepare: func(ops int) (*fixture, error) {
		f := newFSFabric(fs.DefaultParams())
		c := f.fsys.Client(2)
		const perBatch = 64 // blocks per vectored write: one 256 KiB bulk transfer
		runs := make([]fs.PageRun, perBatch)
		for i := range runs {
			runs[i] = fs.PageRun{Off: int64(i) * ladderBlock, Data: make([]byte, ladderBlock)}
		}
		f.s.Spawn("rung", func(env *sim.Env) error {
			st, err := c.Open(env, "/swap/rung", fs.ReadWriteMode, fs.OpenOptions{Create: true, Uncacheable: true})
			if err != nil {
				return err
			}
			for i := 0; i < ops/perBatch; i++ {
				if _, err := c.WriteAtBatch(env, st, runs, 0); err != nil {
					return err
				}
			}
			return c.Close(env, st)
		})
		return f.fixture(), nil
	}},
	{name: "fs.recall", driver: "fs.cache.recalls", perOp: 1, ops: 1000, prepare: func(ops int) (*fixture, error) {
		f := newFSFabric(fs.DefaultParams())
		writer, reader := f.fsys.Client(2), f.fsys.Client(3)
		block := make([]byte, ladderBlock)
		// One op: host 2 writes a block and closes with it still dirty in
		// its cache; host 3's open makes the server recall it.
		f.spawnLoop(ops, func(env *sim.Env, _ int) error {
			st, err := writer.Open(env, "/d/shared", fs.WriteMode, fs.OpenOptions{Create: true})
			if err != nil {
				return err
			}
			if err := writer.WriteAt(env, st, 0, block); err != nil {
				return err
			}
			if err := writer.Close(env, st); err != nil {
				return err
			}
			rs, err := reader.Open(env, "/d/shared", fs.ReadMode, fs.OpenOptions{})
			if err != nil {
				return err
			}
			return reader.Close(env, rs)
		})
		return f.fixture(), nil
	}},

	// vm: a fault served through the file pager, and the bulk flush.
	// fault_pagein stays out of the attribution: a workload's vm.faults mix
	// zero-fill faults, readahead runs and copy-on-reference fetches, and
	// only this one kind costs what the rung measures.
	{name: "vm.fault_pagein", ops: 4096, prepare: func(ops int) (*fixture, error) {
		const heap = 256
		return vmFixture(heap, func(env *sim.Env, f *fabric, as *vm.AddressSpace) error {
			for done := 0; done < ops; done += heap {
				as.Heap.InvalidateAll()
				if err := as.TouchRange(env, as.Heap, 0, heap, false); err != nil {
					return err
				}
			}
			return nil
		})
	}},
	{name: "vm.flush_bulk_page", driver: "vm.pages_flushed", perOp: 1, ops: 4096, prepare: func(ops int) (*fixture, error) {
		const heap = 256
		return vmFixture(heap, func(env *sim.Env, f *fabric, as *vm.AddressSpace) error {
			for done := 0; done < ops; done += heap {
				for p := 0; p < heap; p++ {
					as.Heap.MarkResident(p, true)
				}
				if _, _, err := as.FlushDirtyBulk(env, f.fsys.Client(2), heap); err != nil {
					return err
				}
			}
			return nil
		})
	}},

	// core: one migration per VM strategy, a process's life, a host's
	// share of cluster construction.
	migrateRung(core.SpriteFlushStrategy{}),
	migrateRung(core.FullCopyStrategy{}),
	migrateRung(core.CopyOnReferenceStrategy{}),
	migrateRung(core.PreCopyStrategy{RedirtyPagesPerSec: 100}),
	{name: "core.proc_start_exit", ops: 500, prepare: func(ops int) (*fixture, error) {
		c, err := core.NewCluster(core.Options{Workstations: 1, FileServers: 1, Seed: 1})
		if err != nil {
			return nil, err
		}
		if err := seedFiles(c, 0); err != nil {
			return nil, err
		}
		inst := &instance{c: c, procs: make([]procResult, 1)}
		c.Boot("driver", func(env *sim.Env) error {
			res := &inst.procs[0]
			for i := 0; i < ops; i++ {
				p := startProc(env, c.Workstation(0), "p", core.ProcConfig{Binary: "/bin/prog", CodePages: 2, HeapPages: 16, StackPages: 1},
					nil, res, func(*core.Ctx) error { return nil })
				if p == nil {
					break
				}
				if joinProc(env, p, res); res.err != nil || res.status != 0 {
					break
				}
			}
			return nil
		})
		return clusterFixture(inst), nil
	}},
	{name: "core.cluster_build_host", ops: 34, prepare: func(int) (*fixture, error) {
		return &fixture{body: func() error {
			_, err := core.NewCluster(core.Options{Workstations: 32, FileServers: 2, Seed: 1})
			return err
		}}, nil
	}},

	// metrics: the slot-sharded cells the confined hot paths bump.
	{name: "metrics.counter_inc_slot", ops: 2000000, prepare: func(ops int) (*fixture, error) {
		reg := metrics.New()
		reg.EnableSharding(parWorkers)
		c := reg.Counter("ladder.rung.count")
		return &fixture{body: func() error {
			for i := 0; i < ops; i++ {
				c.IncSlot(1)
			}
			return nil
		}}, nil
	}},
	{name: "metrics.timing_observe_slot", ops: 1000000, prepare: func(ops int) (*fixture, error) {
		reg := metrics.New()
		reg.EnableSharding(parWorkers)
		t := reg.Timing("ladder.rung.gap")
		return &fixture{body: func() error {
			for i := 0; i < ops; i++ {
				t.ObserveSlot(1, time.Duration(i&1023)*time.Microsecond)
			}
			return nil
		}}, nil
	}},
}

func unitHandler(*sim.Env, rpc.HostID, any) (any, int, error) { return nil, 16, nil }

// vmFixture builds the fs fabric plus one address space on host 2 and runs
// body in an activity.
func vmFixture(heap int, body func(env *sim.Env, f *fabric, as *vm.AddressSpace) error) (*fixture, error) {
	f := newFSFabric(fs.DefaultParams())
	if _, err := f.fsys.SeedSized("/bin/prog", 64<<10, false); err != nil {
		return nil, err
	}
	// The heap's backing file already holds every page, as after a flush:
	// a fault on an invalidated page is then a real read from the server.
	if _, err := f.fsys.SeedSized("/swap/rung.heap", heap*vm.DefaultParams().PageSize, true); err != nil {
		return nil, err
	}
	f.s.Spawn("rung", func(env *sim.Env) error {
		as, err := vm.New(env, f.fsys.Client(2), "rung", vm.Config{
			CodePages: 2, HeapPages: heap, StackPages: 1, BinaryPath: "/bin/prog",
		}, vm.DefaultParams())
		if err != nil {
			return err
		}
		f.spaces = append(f.spaces, as)
		return body(env, f, as)
	})
	return f.fixture(), nil
}

// migrateRung measures one strategy: a 16-page process bouncing between
// two workstations, dirtying its heap before every hop. One op is one
// migration including that touch, which is what arms the strategy's work.
func migrateRung(s core.TransferStrategy) rungDef {
	return rungDef{
		name: "core.migrate." + s.Name(), driver: "core.mig.completed", perOp: 1, ops: 200,
		prepare: func(ops int) (*fixture, error) {
			c, err := core.NewCluster(core.Options{Workstations: 2, FileServers: 1, Seed: 1})
			if err != nil {
				return nil, err
			}
			if err := seedFiles(c, 0); err != nil {
				return nil, err
			}
			c.SetStrategyAll(s)
			inst := &instance{c: c, procs: make([]procResult, 1)}
			ws := c.Workstations()
			bootOne(c, ws[0], "hop", core.ProcConfig{Binary: "/bin/prog", CodePages: 2, HeapPages: 16, StackPages: 1},
				nil, &inst.procs[0], func(ctx *core.Ctx) error {
					for i := 0; i < ops; i++ {
						if err := ctx.TouchHeap(0, 16, true); err != nil {
							return err
						}
						if err := ctx.Migrate(ws[(i+1)%2].Host()); err != nil {
							return err
						}
					}
					return nil
				})
			return clusterFixture(inst), nil
		},
	}
}
