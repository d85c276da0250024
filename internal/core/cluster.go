package core

import (
	"fmt"
	"maps"
	"os"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"

	"sprite/internal/fs"
	"sprite/internal/metrics"
	"sprite/internal/netsim"
	"sprite/internal/rpc"
	"sprite/internal/sim"
	"sprite/internal/trace"
)

// applyEnvParallel lets CI suites opt whole test binaries into the parallel
// kernel without touching scenario code: SPRITE_SIM_PARALLEL=1 (or =true)
// enables it with GOMAXPROCS workers, SPRITE_SIM_PARALLEL=N (N>1) pins the
// worker count, unset/0/false leaves the configured kernel alone. Because
// the parallel kernel commits the serial order bit-for-bit, this is safe to
// set across any suite — it is how `make race` audits the worker handoffs.
func applyEnvParallel(p *SimParams) {
	v := os.Getenv("SPRITE_SIM_PARALLEL")
	if v != "" && v != "0" && v != "false" {
		p.Parallel = true
		if n, err := strconv.Atoi(v); err == nil && n > 1 {
			p.Workers = n
		}
	}
}

// Options configures a simulated Sprite cluster.
type Options struct {
	// Workstations is the number of diskless workstations (minimum 1).
	Workstations int
	// FileServers is the number of file servers (minimum 1). The first
	// serves "/"; additional servers serve "/vol2", "/vol3", ...
	FileServers int
	// Params carries every calibration constant (DefaultParams if zero).
	Params *Params
	// Seed seeds the simulation's deterministic random stream.
	Seed int64
}

// Cluster is a simulated Sprite installation: a set of workstations and
// file servers joined by one network, one RPC fabric, and one shared file
// system.
type Cluster struct {
	sim       *sim.Simulation
	params    Params
	net       *netsim.Network
	transport *rpc.Transport
	fs        *fs.FS

	kernels      map[rpc.HostID]*Kernel
	workstations []*Kernel
	servers      []*fs.Server

	// metrics is the cluster-wide metrics plane. It is always present —
	// every instrument is an atomic add or a mutex-guarded histogram
	// insert, and none of them touches virtual time, so carrying it
	// unconditionally cannot perturb an experiment.
	metrics *metrics.Registry

	// failpoint, when set, is consulted at every Failpoint (fault
	// injection; see SetFailpoint).
	failpoint FailpointFunc

	// The process ledger backs the exactly-once accounting invariant:
	// every started pid must exit (or be reported crashed) exactly once.
	// The mutex covers confined clusters, where starts and exits on
	// different host shards book concurrently inside a window; the counts
	// are commutative sums and the invariant checker only reads them from
	// exclusive context, after every window has committed.
	ledgerMu      sync.Mutex
	ledgerStarted map[PID]int
	ledgerEnded   map[PID]int

	// reapedEpochs records, per host, the highest boot epoch whose death has
	// been reaped cluster-wide (ReapDeadHost idempotence + invariant checks).
	reapedEpochs map[rpc.HostID]rpc.Epoch
	// downAt records when each host last crashed, for detection-latency
	// metrics in the recovery plane.
	downAt map[rpc.HostID]time.Duration

	// extraChecks are invariant contributions registered by subsystems
	// layered on the cluster (the host-selection claim ledger, for one);
	// CheckInvariants runs them after its own checks.
	extraChecks []func(endOfRun bool) []string

	// reapHooks run at the end of ReapDeadHost, once per reaped (host,
	// epoch): subsystems holding per-host soft state keyed by the dead
	// incarnation (leased claims in hostsel, drain bookkeeping in fleet)
	// scrub it here, epoch-guarded, instead of leaking it until the
	// end-of-run audit.
	reapHooks []func(env *sim.Env, host rpc.HostID, epoch rpc.Epoch)
}

// AddInvariantCheck registers an additional cluster-wide invariant checker
// consulted by CheckInvariants. Checkers must be read-only and
// deterministic: they run at quiesce points and their messages land in
// fuzzer digests and test assertions.
func (c *Cluster) AddInvariantCheck(fn func(endOfRun bool) []string) {
	c.extraChecks = append(c.extraChecks, fn)
}

// AddReapHook registers a callback run at the end of every effective
// ReapDeadHost (after the cluster-wide crash-recovery matrix has settled,
// skipped for the idempotent re-reap of an already-reaped epoch). Hooks run
// in registration order in the reaping activity's context.
func (c *Cluster) AddReapHook(fn func(env *sim.Env, host rpc.HostID, epoch rpc.Epoch)) {
	c.reapHooks = append(c.reapHooks, fn)
}

// SetTrace installs the cluster's one event sink (nil disables tracing):
// the simulation's. It receives cluster events (migrations, evictions,
// process lifecycle, crashes) as they happen in virtual time; a
// trace.Log's Append is a ready-made ring-buffer sink. Every layer emits
// through Env.Emit, which delivers exclusive-context events at once and
// buffers in-window ones to the barrier, so the sink observes the serial
// sequence under either kernel and any worker count.
func (c *Cluster) SetTrace(fn func(trace.Event)) {
	c.sim.SetTraceSink(fn)
}

// NewCluster builds a cluster per the options.
func NewCluster(opts Options) (*Cluster, error) {
	if opts.Workstations < 1 {
		return nil, fmt.Errorf("core: need at least one workstation, got %d", opts.Workstations)
	}
	if opts.FileServers < 1 {
		opts.FileServers = 1
	}
	params := DefaultParams()
	if opts.Params != nil {
		params = *opts.Params
	}
	applyEnvParallel(&params.Sim)
	s := sim.New(opts.Seed)
	s.SetLookahead(params.Net.Latency)
	net := netsim.New(s, params.Net)
	transport := rpc.NewTransport(s, net, params.RPC)
	fsys := fs.New(s, transport, params.FS)
	reg := metrics.New()
	if params.Sim.Parallel {
		w := params.Sim.Workers
		if w <= 0 {
			w = runtime.GOMAXPROCS(0)
		}
		s.ConfigureParallel(w)
		reg.EnableSharding(w)
	}
	transport.SetMetrics(reg)
	fsys.SetMetrics(reg)

	c := &Cluster{
		sim:           s,
		params:        params,
		net:           net,
		transport:     transport,
		fs:            fsys,
		metrics:       reg,
		kernels:       make(map[rpc.HostID]*Kernel),
		ledgerStarted: make(map[PID]int),
		ledgerEnded:   make(map[PID]int),
		reapedEpochs:  make(map[rpc.HostID]rpc.Epoch),
		downAt:        make(map[rpc.HostID]time.Duration),
	}
	for i := 0; i < opts.FileServers; i++ {
		host := rpc.HostID(1 + i)
		prefix := "/"
		if i > 0 {
			prefix = fmt.Sprintf("/vol%d", i+1)
		}
		c.servers = append(c.servers, fsys.AddServer(host, prefix))
	}
	for i := 0; i < opts.Workstations; i++ {
		host := rpc.HostID(1 + opts.FileServers + i)
		k := newKernel(c, host)
		c.kernels[host] = k
		c.workstations = append(c.workstations, k)
	}
	if params.Sim.ConfineHosts {
		// Confinement must switch on only after every endpoint has
		// registered its handlers: ConfineHosts spawns the per-host
		// dispatcher daemons and freezes the handler tables.
		if err := c.transport.ConfineHosts(func(h rpc.HostID) int { return int(h) }); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Sim returns the underlying simulation.
func (c *Cluster) Sim() *sim.Simulation { return c.sim }

// Params returns the cluster's calibration constants.
func (c *Cluster) Params() Params { return c.params }

// FS returns the shared file system.
func (c *Cluster) FS() *fs.FS { return c.fs }

// Network returns the network model.
func (c *Cluster) Network() *netsim.Network { return c.net }

// Transport returns the RPC fabric.
func (c *Cluster) Transport() *rpc.Transport { return c.transport }

// Metrics returns the cluster-wide metrics registry. Subsystems (rpc, fs,
// migration) feed it continuously; derived statistics kept elsewhere are
// folded in by MetricsSnapshot.
func (c *Cluster) Metrics() *metrics.Registry { return c.metrics }

// MetricsSnapshot folds every derived statistic the cluster keeps outside
// the registry — scheduler counters, per-kernel migration tallies, per-file-
// server activity, per-RPC-service traffic — into gauges, one per
// metric-tagged stats field (Registry.SetGauges), then returns a
// deterministic point-in-time snapshot. Two same-seed runs produce
// byte-identical renderings: the snapshot sorts every name, whatever order
// the gauges were set in.
func (c *Cluster) MetricsSnapshot() metrics.Snapshot {
	r := c.metrics
	r.SetGauges("sim.", c.sim.Stats())
	// mig.inflight is derived, not tracked live: the migration hot path runs
	// confined, where a shared gauge's high-water mark would depend on the
	// cross-shard interleaving. The identity started == completed + aborted
	// + inflight (migmeter.go) makes the level recoverable from the sharded
	// counters at any exclusive point.
	r.Gauge("mig.inflight").Set(r.Counter("mig.started").Value() -
		r.Counter("mig.completed").Value() - r.Counter("mig.aborted").Value())
	// The folds visit hosts and services in sorted order, though the
	// snapshot sorts names anyway and the order gauges are set in reaches no
	// rendering: simtaint cannot tell a map-ordered gauge write that
	// commutes from one that does not.
	for _, k := range c.workstations {
		r.SetGauges(fmt.Sprintf("kernel.%v.", k.host), k.Stats())
	}
	servers := c.fs.Servers()
	for _, host := range slices.Sorted(maps.Keys(servers)) {
		r.SetGauges(fmt.Sprintf("fsserver.%v.", host), servers[host].Stats())
	}
	svcs := c.transport.Stats()
	for _, svc := range slices.Sorted(maps.Keys(svcs)) {
		r.SetGauges("rpc.service."+svc+".", svcs[svc])
	}
	return r.Snapshot()
}

// Workstations returns the workstation kernels in host order.
func (c *Cluster) Workstations() []*Kernel {
	out := make([]*Kernel, len(c.workstations))
	copy(out, c.workstations)
	return out
}

// Servers returns the file servers in host order.
func (c *Cluster) Servers() []*fs.Server {
	out := make([]*fs.Server, len(c.servers))
	copy(out, c.servers)
	return out
}

// Workstation returns the i-th workstation kernel (0-based).
func (c *Cluster) Workstation(i int) *Kernel { return c.workstations[i] }

// KernelOn returns the kernel running on the given host, or nil.
func (c *Cluster) KernelOn(host rpc.HostID) *Kernel { return c.kernels[host] }

// Run executes the simulation until no events remain or the time limit is
// reached (limit <= 0 means unlimited). A cluster runs in phases: a run that
// quiesces unwinds a confined cluster's RPC dispatchers, and Run rearms them
// before the next.
func (c *Cluster) Run(limit time.Duration) error {
	c.transport.Rearm()
	return c.sim.Run(limit)
}

// Stop aborts the simulation, unwinding every activity.
func (c *Cluster) Stop() { c.sim.Stop() }

// Boot spawns a driver activity at time zero on the exclusive shard. It is
// the usual way to inject scenario code into the cluster, and works on any
// cluster shape: on a confined one, a process's exit, a migration's result
// and a signal's effects settle on the hosts' shards, and reach the driver
// one lookahead later, as the messages they are.
func (c *Cluster) Boot(name string, fn func(env *sim.Env) error) {
	c.sim.Spawn(name, fn)
}

// BootOn spawns a driver activity on the given host's shard. It is
// placement, for parallelism: on a confined cluster the driver shares the
// host kernel's shard, so it runs concurrently with other hosts and hears
// from its own host's processes at once. On other clusters every host maps
// to the exclusive shard, so BootOn is Boot.
func (c *Cluster) BootOn(host rpc.HostID, name string, fn func(env *sim.Env) error) {
	c.sim.SpawnOn(c.shardOf(host), name, fn)
}

// shardOf is the shard host's activities run on: the host's own on a
// confined cluster (Params.Sim.ConfineHosts), the exclusive shard 0
// otherwise.
func (c *Cluster) shardOf(host rpc.HostID) int {
	if c.transport.Confined() {
		return int(host)
	}
	return 0
}

// Seed creates a file in the shared FS without charging virtual time
// (scenario setup).
func (c *Cluster) Seed(path string, data []byte) error {
	_, err := c.fs.Seed(path, data, false)
	return err
}

// SeedBinary seeds a program binary of the given size.
func (c *Cluster) SeedBinary(path string, size int) error {
	_, err := c.fs.SeedSized(path, size, false)
	return err
}

// SetStrategyAll installs one VM transfer strategy on every workstation.
func (c *Cluster) SetStrategyAll(s TransferStrategy) {
	for _, k := range c.workstations {
		k.SetStrategy(s)
	}
}

// MigrationRecords gathers the migration records of every kernel.
func (c *Cluster) MigrationRecords() []MigrationRecord {
	var out []MigrationRecord
	for _, k := range c.workstations {
		out = append(out, k.MigrationRecords()...)
	}
	return out
}

// Kill routes a kill of target through its home machine, issued from via's
// endpoint — the daemon-context counterpart of Ctx.Kill. The fleet drain
// path uses it to evacuate a resident no host will accept alive.
func (c *Cluster) Kill(env *sim.Env, via *Kernel, target PID) error {
	return c.signalPID(env, via, target, SigKill)
}
