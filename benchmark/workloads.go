package main

import (
	"fmt"
	"math/rand"
	"time"

	"sprite/internal/core"
	"sprite/internal/fs"
	"sprite/internal/pmake"
	"sprite/internal/rpc"
	"sprite/internal/sim"
	"sprite/internal/vm"
	"sprite/internal/workload"
)

// shape sizes one workload. The full shapes were tuned so one iteration
// takes 150-250 ms of host time on the 2-core reference box; the toy shapes
// keep harness_test.go under a few seconds.
type shape struct {
	hosts   int // workstations
	servers int // file servers
	procs   int // processes started per workstation
	rounds  int // touch/read/compute/migrate rounds per process
	heap    int // heap pages per process, all dirtied every round
	files   int // open files each process carries across its migrations
	write   bool
	units   int // pmake compilation units
	daemons int // background-load daemons
	ticks   int // ticks per daemon
}

// workloadDef is one named workload: how to build a fresh cluster running
// it, what a unit of work is, and why it is in the set (README.md has the
// long form of why).
type workloadDef struct {
	name string
	unit string
	why  string
	// par workloads run on the parallel kernel with two workers and are
	// cross-checked against one serial-kernel run of the same program.
	par bool
	// confined workloads home every host on its own shard (mailbox RPC).
	confined  bool
	full, toy shape
	// slots is the number of processes the harness itself starts.
	slots func(sh shape) int
	// units is the number of units of work one iteration attempts.
	units func(sh shape) int
	// inputs generates what the programs receive, from the seed alone.
	inputs func(seed int64, sh shape) *inputs
	build  func(sh shape, in *inputs, parallel bool, tr *tracer) (*instance, error)
}

var workloads = []*workloadDef{
	{
		name: "mig_churn", unit: "migrations",
		why:   "small-heap processes hopping a 32-host ring on the serial kernel: control-plane RPCs dominate, bulk data is idle",
		full:  shape{hosts: 32, servers: 2, procs: 4, rounds: 6, heap: 16, files: 1},
		toy:   shape{hosts: 4, servers: 1, procs: 2, rounds: 2, heap: 16, files: 1},
		slots: migSlots, units: migUnits, inputs: migInputs,
		build: func(sh shape, in *inputs, _ bool, tr *tracer) (*instance, error) {
			return buildMig(sh, in, core.SimParams{}, tr)
		},
	},
	{
		name: "mig_churn_par", unit: "migrations", par: true, confined: true,
		why:   "the same program with hosts confined to shards on the 2-worker parallel kernel: mailbox RPC, rehoming, windows and barriers",
		full:  shape{hosts: 16, servers: 2, procs: 4, rounds: 6, heap: 16, files: 1},
		toy:   shape{hosts: 4, servers: 1, procs: 2, rounds: 2, heap: 16, files: 1},
		slots: migSlots, units: migUnits, inputs: migInputs,
		build: func(sh shape, in *inputs, parallel bool, tr *tracer) (*instance, error) {
			return buildMig(sh, in, core.SimParams{ConfineHosts: true, Parallel: parallel, Workers: parWorkers}, tr)
		},
	},
	{
		name: "mig_bulk", unit: "migrations",
		why:   "4 MB fully dirty heaps and four open files per migration: bulk fragments, pipelined sends, batched writes and pagers dominate",
		full:  shape{hosts: 8, servers: 2, procs: 2, rounds: 4, heap: 512, files: 4, write: true},
		toy:   shape{hosts: 3, servers: 1, procs: 1, rounds: 2, heap: 64, files: 4, write: true},
		slots: migSlots, units: migUnits, inputs: migInputs,
		build: func(sh shape, in *inputs, _ bool, tr *tracer) (*instance, error) {
			return buildMig(sh, in, core.SimParams{}, tr)
		},
	},
	{
		name: "pmake_fs", unit: "targets",
		why:    "a 192-unit parallel make over 16 hosts: name lookups, cached reads beside writes, write-back, recalls and file-server queueing; VM idle",
		full:   shape{hosts: 16, servers: 1, units: 192},
		toy:    shape{hosts: 4, servers: 1, units: 8},
		slots:  func(shape) int { return 1 },
		units:  func(sh shape) int { return sh.units + 1 },
		inputs: func(seed int64, _ shape) *inputs { return &inputs{seed: seed} },
		build: func(sh shape, in *inputs, _ bool, tr *tracer) (*instance, error) {
			return buildPmake(sh, in, tr)
		},
	},
	{
		name: "fleet_par", unit: "ticks", par: true,
		why:   "200 confined load daemons plus one hopping process on the parallel kernel: event heap, handoff, mailbox, barrier and metrics cells; RPC/FS/VM idle",
		full:  shape{hosts: 4, servers: 1, daemons: 200, ticks: 150},
		toy:   shape{hosts: 4, servers: 1, daemons: 8, ticks: 20},
		slots: func(shape) int { return 1 },
		units: func(sh shape) int { return sh.daemons * sh.ticks },
		// The hopper dirties 31 to 33 of its 64 pages before each hop, so
		// its migrations do not all cost the same virtual time; its compute
		// bursts barely jitter, because it is the hopper that ends the run.
		inputs: func(seed int64, sh shape) *inputs {
			return genInputs(seed, 1, hopperRounds(sh), 500*time.Millisecond, 0.02, 31, 33)
		},
		build: func(sh shape, in *inputs, parallel bool, tr *tracer) (*instance, error) {
			return buildFleet(sh, in, core.SimParams{Parallel: parallel, Workers: parWorkers}, tr)
		},
	},
}

// parWorkers is the worker count of every parallel-kernel workload and rung.
const parWorkers = 2

func migSlots(sh shape) int { return sh.hosts * sh.procs }
func migUnits(sh shape) int { return sh.hosts * sh.procs * sh.rounds }

func findWorkload(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// inputs is everything a workload's program receives besides its shape. It
// is generated from the seed alone, before any cluster exists: per process
// slot and round, how long to compute, how much to read and how many heap
// pages to dirty. The seed also goes to core.Options.Seed and, for pmake_fs,
// to the project generator.
type inputs struct {
	seed    int64
	compute [][]time.Duration // [slot][round]
	read    [][]int           // [slot][round] bytes
	touch   [][]int           // [slot][round] heap pages dirtied
}

// genInputs draws the inputs for a workload shape. Compute bursts jitter
// +/-jitter around base, reads +/-25% around 2 KiB and dirtied pages
// uniformly over [touchLo, touchHi], so two seeds run the same program
// shape on slightly different schedules.
func genInputs(seed int64, slots, rounds int, base time.Duration, jitter float64, touchLo, touchHi int) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{seed: seed}
	for s := 0; s < slots; s++ {
		compute, read, touch := make([]time.Duration, rounds), make([]int, rounds), make([]int, rounds)
		for r := 0; r < rounds; r++ {
			compute[r] = time.Duration(float64(base) * (1 + jitter*(2*rng.Float64()-1)))
			read[r] = 1536 + rng.Intn(1025)
			touch[r] = touchLo + rng.Intn(touchHi-touchLo+1)
		}
		in.compute, in.read, in.touch = append(in.compute, compute), append(in.read, read), append(in.touch, touch)
	}
	return in
}

// migInputs: 25 ms bursts +/-10%, the whole heap dirtied every round.
func migInputs(seed int64, sh shape) *inputs {
	return genInputs(seed, migSlots(sh), sh.rounds, 25*time.Millisecond, 0.1, sh.heap, sh.heap)
}

// procResult is what the harness learns about one process it started.
type procResult struct {
	started bool
	status  int
	err     error
	units   int      // units of work this process carries
	vm      vm.Stats // sampled by the program just before it returns
}

// instance is one built, not yet run cluster.
type instance struct {
	c     *core.Cluster
	procs []procResult
	// check runs after Cluster.Run and returns the units of work that
	// failed beyond what procs already says, with reasons.
	check func() (failed int, why []string)
}

// seedFiles seeds the program binary and the data files the programs open.
func seedFiles(c *core.Cluster, files int) error {
	if err := c.SeedBinary("/bin/prog", 32<<10); err != nil {
		return err
	}
	for f := 0; f < files; f++ {
		if _, err := c.FS().SeedSized(fmt.Sprintf("/data/f%d", f), 64<<10, false); err != nil {
			return err
		}
	}
	return nil
}

var migStrategies = []core.TransferStrategy{
	core.SpriteFlushStrategy{},
	core.FullCopyStrategy{},
	core.CopyOnReferenceStrategy{},
	core.PreCopyStrategy{RedirtyPagesPerSec: 100},
}

// buildMig builds the migration workloads: per-host drivers start procs
// processes each; every process opens its files, then for each round
// dirties its whole heap, reads, computes and migrates one host further
// round the ring. The four VM strategies rotate per source host.
func buildMig(sh shape, in *inputs, simp core.SimParams, tr *tracer) (*instance, error) {
	params := core.DefaultParams()
	params.Sim = simp
	c, err := core.NewCluster(core.Options{Workstations: sh.hosts, FileServers: sh.servers, Seed: in.seed, Params: &params})
	if err != nil {
		return nil, err
	}
	readFiles := sh.files
	if sh.write {
		readFiles--
	}
	if err := seedFiles(c, readFiles); err != nil {
		return nil, err
	}
	inst := &instance{c: c, procs: make([]procResult, migSlots(sh))}
	ws := c.Workstations()
	for i := range ws {
		i, k := i, ws[i]
		k.SetStrategy(migStrategies[i%len(migStrategies)])
		c.BootOn(k.Host(), fmt.Sprintf("driver-%d", i), func(env *sim.Env) error {
			started := make([]*core.Process, sh.procs)
			for j := range started {
				slot := i*sh.procs + j
				res := &inst.procs[slot]
				res.units = sh.rounds
				started[j] = startProc(env, k, fmt.Sprintf("m-%d-%d", i, j),
					core.ProcConfig{Binary: "/bin/prog", CodePages: 2, HeapPages: sh.heap, StackPages: 1},
					tr.proc(slot), res, func(ctx *core.Ctx) error {
						return migBody(ctx, sh, ws, i, j, readFiles, in.compute[slot], in.read[slot], in.touch[slot], tr.proc(slot))
					})
			}
			for j, p := range started {
				if p != nil {
					joinProc(env, p, &inst.procs[i*sh.procs+j])
				}
			}
			return nil
		})
	}
	return inst, nil
}

// startProc starts body as a process on k, wrapped in its process span, and
// books the outcome in res; the trace takes the PID as its id. It returns nil
// when the process could not be started.
func startProc(env *sim.Env, k *core.Kernel, name string, cfg core.ProcConfig, tb *traceBuf, res *procResult, body core.Program) *core.Process {
	p, err := k.StartProcess(env, name, func(ctx *core.Ctx) error {
		root := tb.begin(ctx, spanProc)
		err := body(ctx)
		// The address space is discarded at exit; sample it while it exists.
		if sp := ctx.Process().Space(); sp != nil {
			res.vm = sp.Stats()
		}
		tb.end(ctx, root)
		return err
	}, cfg)
	if err != nil {
		res.err = err
		return nil
	}
	res.started = true
	if tb != nil {
		tb.id = p.PID().String()
	}
	return p
}

// joinProc waits for p and books its exit status.
func joinProc(env *sim.Env, p *core.Process, res *procResult) {
	v, err := p.Exited().Wait(env)
	if err != nil {
		res.err = err
		return
	}
	res.status, _ = v.(int)
}

// bootOne boots a driver on k's shard that runs one process to completion.
func bootOne(c *core.Cluster, k *core.Kernel, name string, cfg core.ProcConfig, tb *traceBuf, res *procResult, body core.Program) {
	c.BootOn(k.Host(), name+"-driver", func(env *sim.Env) error {
		if p := startProc(env, k, name, cfg, tb, res, body); p != nil {
			joinProc(env, p, res)
		}
		return nil
	})
}

func migBody(ctx *core.Ctx, sh shape, ws []*core.Kernel, i, j, readFiles int, compute []time.Duration, read, touch []int, tb *traceBuf) error {
	fds := make([]int, 0, sh.files)
	s := tb.begin(ctx, spanOpenClose)
	for f := 0; f < readFiles; f++ {
		fd, err := ctx.Open(fmt.Sprintf("/data/f%d", f), fs.ReadMode, fs.OpenOptions{})
		if err != nil {
			return err
		}
		fds = append(fds, fd)
	}
	wfd := -1
	if sh.write {
		fd, err := ctx.Open(fmt.Sprintf("/data/out-%d-%d", i, j), fs.WriteMode, fs.OpenOptions{Create: true})
		if err != nil {
			return err
		}
		wfd = fd
		fds = append(fds, fd)
	}
	tb.end(ctx, s)
	block := make([]byte, 4096)
	for r := 0; r < sh.rounds; r++ {
		s = tb.begin(ctx, spanTouch)
		err := ctx.TouchHeap(0, touch[r], true)
		tb.end(ctx, s)
		if err != nil {
			return err
		}
		s = tb.begin(ctx, spanRead)
		_, err = ctx.Read(fds[0], read[r])
		tb.end(ctx, s)
		if err != nil {
			return err
		}
		if wfd >= 0 {
			s = tb.begin(ctx, spanWrite)
			_, err = ctx.Write(wfd, block)
			tb.end(ctx, s)
			if err != nil {
				return err
			}
		}
		s = tb.begin(ctx, spanCompute)
		err = ctx.Compute(compute[r])
		tb.end(ctx, s)
		if err != nil {
			return err
		}
		s = tb.begin(ctx, spanMigrate)
		err = ctx.Migrate(ws[(i+j+r+1)%len(ws)].Host())
		tb.end(ctx, s)
		if err != nil {
			return err
		}
	}
	s = tb.begin(ctx, spanOpenClose)
	defer tb.end(ctx, s)
	for _, fd := range fds {
		if err := ctx.Close(fd); err != nil {
			return err
		}
	}
	return nil
}

// buildPmake builds pmake_fs: one pmake process on workstation 0 farming a
// synthetic project's compilations out to every other workstation by
// exec-time migration. The harness starts (and can wrap) only that process.
func buildPmake(sh shape, in *inputs, tr *tracer) (*instance, error) {
	c, err := core.NewCluster(core.Options{Workstations: sh.hosts, FileServers: sh.servers, Seed: in.seed})
	if err != nil {
		return nil, err
	}
	for _, bin := range []string{"/bin/cc", "/bin/pmake"} {
		if err := c.SeedBinary(bin, 256<<10); err != nil {
			return nil, err
		}
	}
	proj := pmake.DefaultProjectParams()
	proj.Units = sh.units
	proj.CPUJitter = 0.05
	mf, err := pmake.SyntheticProject(c, rand.New(rand.NewSource(in.seed)), proj)
	if err != nil {
		return nil, err
	}
	var remote []rpc.HostID
	for _, k := range c.Workstations()[1:] {
		remote = append(remote, k.Host())
	}
	want := sh.units + 1
	inst := &instance{c: c, procs: []procResult{{units: want}}}
	var made *pmake.Result
	bootOne(c, c.Workstation(0), "pmake", core.ProcConfig{Binary: "/bin/pmake", CodePages: 8, HeapPages: 16, StackPages: 2},
		tr.proc(0), &inst.procs[0], func(ctx *core.Ctx) (err error) {
			made, err = pmake.Run(ctx, mf, pmake.Options{Force: true, Hosts: remote, LocalJobs: 1})
			return err
		})
	inst.check = func() (int, []string) {
		if made == nil {
			return want, []string{"pmake returned no result"}
		}
		if made.Jobs != want {
			return want - made.Jobs, []string{fmt.Sprintf("pmake ran %d of %d jobs", made.Jobs, want)}
		}
		return 0, nil
	}
	return inst, nil
}

// hopperRounds is how many touch+compute+migrate rounds the fleet_par
// hopper makes: enough to outlast the daemons by a little (their mean tick
// is 75 ms; one hopper round takes about 1.1 s of virtual time), so the run
// carries exclusive-shard work for the daemons' whole lifetime.
func hopperRounds(sh shape) int { return sh.ticks*75/1100 + 2 }

// buildFleet builds fleet_par: the background-load plane (one confined
// daemon per shard) plus one process hopping round four workstations on the
// exclusive shard, so the run carries the serial fraction a real experiment
// would.
func buildFleet(sh shape, in *inputs, simp core.SimParams, tr *tracer) (*instance, error) {
	params := core.DefaultParams()
	params.Sim = simp
	c, err := core.NewCluster(core.Options{Workstations: sh.hosts, FileServers: sh.servers, Seed: in.seed, Params: &params})
	if err != nil {
		return nil, err
	}
	if err := seedFiles(c, 0); err != nil {
		return nil, err
	}
	workload.StartBgLoad(c.Sim(), c.Metrics(), workload.BgLoadConfig{
		Hosts: sh.daemons, Ticks: sh.ticks, ReportEvery: 10,
	})
	want := int64(sh.daemons * sh.ticks)
	// The hopper carries every unit: a run whose exclusive plane broke does
	// not count as 30,000 good ticks.
	inst := &instance{c: c, procs: []procResult{{units: int(want)}}}
	tb := tr.proc(0)
	ws := c.Workstations()
	compute, touch := in.compute[0], in.touch[0]
	bootOne(c, ws[0], "hop", core.ProcConfig{Binary: "/bin/prog", CodePages: 2, HeapPages: 64, StackPages: 1},
		tb, &inst.procs[0], func(ctx *core.Ctx) error {
			for r := range compute {
				s := tb.begin(ctx, spanTouch)
				err := ctx.TouchHeap(0, touch[r], true)
				tb.end(ctx, s)
				if err != nil {
					return err
				}
				s = tb.begin(ctx, spanCompute)
				err = ctx.Compute(compute[r])
				tb.end(ctx, s)
				if err != nil {
					return err
				}
				s = tb.begin(ctx, spanMigrate)
				err = ctx.Migrate(ws[(r+1)%len(ws)].Host())
				tb.end(ctx, s)
				if err != nil {
					return err
				}
			}
			return nil
		})
	inst.check = func() (int, []string) {
		if got := c.Metrics().Counter("bgload.ticks").Value(); got != want {
			return int(want - got), []string{fmt.Sprintf("daemons ticked %d of %d times", got, want)}
		}
		return 0, nil
	}
	return inst, nil
}
