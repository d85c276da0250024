package fault

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"sprite/internal/core"
	"sprite/internal/fs"
	"sprite/internal/hostsel"
	"sprite/internal/metrics"
	"sprite/internal/recovery"
	"sprite/internal/rpc"
	"sprite/internal/sim"
	"sprite/internal/trace"
	"sprite/internal/workload"
)

// This file is the seed-driven scenario fuzzer: it composes a random process
// workload (migrations, evictions, files, pipes, forks, remote execs) with a
// random fault schedule (crashes, drops, delays, partitions, migration
// aborts), runs the cluster to quiescence, and checks every cluster-wide
// invariant. A scenario is a pure function of its seed, so any failure
// replays bit for bit from the seed alone.

// Kind enumerates the fault classes the fuzzer schedules.
type Kind int

// Fault classes.
const (
	KindCrash     Kind = iota // crash a workstation; maybe restart later
	KindDrop                  // probabilistic message loss window
	KindDelay                 // probabilistic message latency window
	KindPartition             // isolate one workstation for a window
	KindMigFail               // arm a migration failpoint for a window
	KindReboot                // instantaneous crash-restart: state lost, epoch bumped
)

func (k Kind) String() string {
	switch k {
	case KindCrash:
		return "crash"
	case KindDrop:
		return "drop"
	case KindDelay:
		return "delay"
	case KindPartition:
		return "partition"
	case KindMigFail:
		return "mig-fail"
	case KindReboot:
		return "reboot"
	default:
		return "?"
	}
}

// Event is one scheduled fault. Host is a workstation index (0-based);
// servers are never faulted — Sprite's availability argument assumes file
// servers recover on their own terms, and every invariant we check would be
// vacuous with the shared FS gone.
type Event struct {
	Kind  Kind
	Host  int
	At    time.Duration
	Dur   time.Duration // crash: 0 = never restarts
	Prob  float64
	Point core.Failpoint // migration failpoint for KindMigFail
}

// Scenario is a complete, self-describing fuzz case.
type Scenario struct {
	Seed         int64
	Workstations int
	Procs        int
	// Gossip runs the gossip host selector (daemons plus a claim/release
	// requester, audited by the claim ledger) alongside the process
	// workload, so selector soft state is fuzzed under the same faults.
	Gossip bool
	Events []Event
}

// String renders the scenario compactly for failure reports.
func (sc Scenario) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d ws=%d procs=%d gossip=%t", sc.Seed, sc.Workstations, sc.Procs, sc.Gossip)
	for _, e := range sc.Events {
		fmt.Fprintf(&b, " [%v w%d at=%v dur=%v p=%.2f %s]", e.Kind, e.Host, e.At, e.Dur, e.Prob, e.Point)
	}
	return b.String()
}

// migPoints is the fault-kind pool for KindMigFail. Its order is
// replay-significant: the scenario generator indexes into this slice with a
// seeded draw.
var migPoints = []core.Failpoint{core.FailMigInit, core.FailMigVM, core.FailMigStreams, core.FailMigPCB}

// draws is the source of a scenario's random choices: a seeded
// *rand.Rand for GenScenario, fuzz input bytes for FuzzProcesses.
type draws interface {
	Intn(n int) int
	Float64() float64
}

// GenScenario derives a scenario from a seed. Same seed, same scenario.
func GenScenario(seed int64) Scenario {
	return decodeScenario(seed, rand.New(rand.NewSource(seed)))
}

// decodeScenario builds the scenario that seed and the choices rng makes
// describe. The seed also drives the workload and the fault plane's own
// draws at run time.
func decodeScenario(seed int64, rng draws) Scenario {
	sc := Scenario{
		Seed:         seed,
		Workstations: 3 + rng.Intn(3),
		Procs:        4 + rng.Intn(6),
		Gossip:       rng.Intn(2) == 0,
	}
	n := 1 + rng.Intn(4)
	crashed := make(map[int]bool)
	for i := 0; i < n; i++ {
		e := Event{
			Kind: Kind(rng.Intn(6)),
			Host: rng.Intn(sc.Workstations),
			At:   time.Duration(50+rng.Intn(1500)) * time.Millisecond,
			Dur:  time.Duration(200+rng.Intn(1000)) * time.Millisecond,
			Prob: 0.15 + 0.45*rng.Float64(),
		}
		switch e.Kind {
		case KindCrash:
			// One crash per host keeps the up/down timeline unambiguous.
			if crashed[e.Host] {
				continue
			}
			crashed[e.Host] = true
			if rng.Intn(4) == 0 {
				e.Dur = 0 // never comes back
			}
		case KindMigFail:
			e.Point = migPoints[rng.Intn(len(migPoints))]
		case KindReboot:
			// Reboots share the one-fault-per-host budget with crashes so the
			// epoch timeline of any host stays a single, unambiguous step.
			if crashed[e.Host] {
				continue
			}
			crashed[e.Host] = true
			e.Dur = 0 // instantaneous: the host is back before the next event
		}
		sc.Events = append(sc.Events, e)
	}
	return sc
}

// Result is the outcome of one scenario run, of either family.
type Result struct {
	Scenario   fmt.Stringer  // the Scenario or FleetScenario that ran
	Digest     string        // replay fingerprint: equal digests = identical runs
	Violations []string      // empty = clean run
	Tail       []trace.Event // last cluster events before the run settled; set on failure
	// Consulted holds every failpoint the run's code reached.
	Consulted map[core.Failpoint]bool
}

// Failed reports whether the run violated any invariant.
func (r *Result) Failed() bool { return len(r.Violations) > 0 }

// Report renders the run for a test log.
func (r *Result) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %v\n", r.Scenario)
	if r.Digest != "" {
		fmt.Fprintf(&b, "  digest: %s\n", r.Digest)
	}
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "  violation: %s\n", v)
	}
	for _, e := range r.Tail {
		fmt.Fprintf(&b, "  trace: %s\n", e)
	}
	return b.String()
}

// fuzzMaxSim bounds one scenario's virtual time; a run that still has live
// activities at this horizon is reported as a hang.
const fuzzMaxSim = 10 * time.Minute

// fuzzParams widens the RPC retry budget so that every bounded fault window
// (max ~2.5 s) is survivable: the retransmission span must exceed the window,
// or lost messages would turn into spurious state divergence instead of
// exercising recovery.
func fuzzParams() core.Params {
	p := core.DefaultParams()
	p.RPC.MaxRetries = 12
	return p
}

// downDuring reports whether workstation index w is down at time t under the
// scenario's crash schedule.
func (sc Scenario) downDuring(w int, t time.Duration) bool {
	for _, e := range sc.Events {
		if e.Kind != KindCrash || e.Host != w {
			continue
		}
		if t >= e.At && (e.Dur == 0 || t < e.At+e.Dur) {
			return true
		}
	}
	return false
}

// procPlan is one workload process, fully decided before the run starts.
type procPlan struct {
	kind    int // 0 hopper, 1 filer, 2 piper, 3 remote-exec
	startAt time.Duration
	home    int   // workstation index
	targets []int // migration / remote-exec destinations (may be down: abort path)
	pages   int
	shared  bool // filer uses the contended path
	skip    bool // every workstation is down at startAt
}

// harness is the run both scenario families share: a cluster on the fuzz
// parameters under the chosen kernel, traced, watched by the liveness
// monitor, run to the horizon and audited.
type harness struct {
	res  *Result
	obs  *KernelObservation // non-nil on equivalence runs
	c    *core.Cluster      // nil when the build failed; res says why
	mon  *recovery.Monitor  // how survivors learn of a crash; each family starts and stops it
	ring *trace.Log
}

// hook installs fn (nil: no point fails) as the cluster's failpoint hook,
// recording each point the run consults.
func (h *harness) hook(fn core.FailpointFunc) {
	h.res.Consulted = make(map[core.Failpoint]bool)
	h.c.SetFailpoint(func(env *sim.Env, fp core.Failpoint, pid core.PID) error {
		h.res.Consulted[fp] = true
		if fn == nil {
			return nil
		}
		return fn(env, fp, pid)
	})
}

func (h *harness) fail(format string, args ...any) {
	h.res.Violations = append(h.res.Violations, fmt.Sprintf(format, args...))
}

// newHarness builds the cluster sc runs on, with binary seeded.
func newHarness(sc fmt.Stringer, seed int64, workstations int, binary string, kc kernelCfg) *harness {
	h := &harness{res: &Result{Scenario: sc}, obs: kc.capture, ring: trace.New(512)}
	params := fuzzParams()
	if kc.workers > 0 {
		params.Sim.Parallel = true
		params.Sim.Workers = kc.workers
	}
	c, err := core.NewCluster(core.Options{
		Workstations: workstations,
		FileServers:  1,
		Params:       &params,
		Seed:         seed,
	})
	if err != nil {
		h.fail("cluster: %v", err)
		return h
	}
	if err := c.SeedBinary(binary, 64<<10); err != nil {
		h.fail("seed: %v", err)
		return h
	}
	// Tracing costs no simulated time, so recording unconditionally keeps
	// the run identical to an untraced one while giving failure reports the
	// last events before things went wrong.
	sink := h.ring.Append
	if obs := kc.capture; obs != nil {
		// Equivalence runs additionally keep the complete event stream:
		// every field of every event is the strongest cross-kernel
		// comparison.
		sink = func(ev trace.Event) {
			obs.Trace = append(obs.Trace, ev)
			h.ring.Append(ev)
		}
	}
	c.SetTrace(sink)
	h.c = c
	h.mon = recovery.NewMonitor(c, recovery.Params{
		Interval:      10 * time.Millisecond,
		FailThreshold: 2,
	})
	return h
}

// finish runs the cluster to the horizon and audits it: run error, hang,
// whatever digest itself fails, then every cluster invariant. digest
// renders the family's replay fingerprint from the settled cluster.
func (h *harness) finish(digest func(metrics.Snapshot) string) *Result {
	c, res := h.c, h.res
	rerr := c.Run(fuzzMaxSim)
	if rerr != nil {
		h.fail("run: %v", rerr)
	}
	if n := c.Sim().LiveActivities(); n > 0 {
		h.fail("hang: %d activities still live at the %v horizon", n, fuzzMaxSim)
	}
	snap := c.MetricsSnapshot()
	res.Digest = digest(snap)
	res.Violations = append(res.Violations, c.CheckInvariants(true)...)
	if res.Failed() {
		res.Tail = h.ring.Tail(20)
	}
	if obs := h.obs; obs != nil {
		if rerr != nil {
			obs.RunErr = rerr.Error()
		}
		obs.Order = c.Sim().OrderDigest()
		obs.Digest = res.Digest
		obs.Metrics = snap.Text()
		obs.Violations = append([]string(nil), res.Violations...)
	}
	return res
}

// equivBgHosts is how many confined background-load daemons (internal/
// workload) ride along with the process workload on equivalence runs, so
// cross-kernel comparisons cover worker-committed events, sharded metrics,
// and mailbox traffic.
const equivBgHosts = 6

// runScenario executes one process scenario and checks every invariant. It
// is a pure function of the scenario and the kernel configuration.
func runScenario(sc Scenario, kc kernelCfg) *Result {
	h := newHarness(sc, sc.Seed, sc.Workstations, "/bin/prog", kc)
	c := h.c
	if c == nil {
		return h.res
	}

	// Confined background load on equivalence runs: one daemon per host on
	// its own shard, bounded so the run still quiesces.
	var bg *workload.BgLoad
	if kc.capture != nil {
		bg = workload.StartBgLoad(c.Sim(), c.Metrics(), workload.BgLoadConfig{
			Hosts:       equivBgHosts,
			Tick:        5 * time.Millisecond,
			WorkPerTick: 300,
			ReportEvery: 4,
			Ticks:       120,
		})
	}

	// The plane's private stream is derived from the scenario seed so the
	// whole run replays from one number.
	plane := NewPlane(c, sc.Seed^0x5eedfa17)
	h.hook(plane.failpoint)
	var lastCrash time.Duration
	for _, e := range sc.Events {
		host := c.Workstation(e.Host).Host()
		if e.Kind == KindCrash || e.Kind == KindReboot {
			lastCrash = max(lastCrash, e.At)
		}
		switch e.Kind {
		case KindCrash:
			plane.ScheduleCrash(host, e.At, e.Dur)
		case KindDrop:
			plane.DropMessages(e.At, e.At+e.Dur, e.Prob, host)
		case KindDelay:
			plane.DelayMessages(e.At, e.At+e.Dur, 2*time.Millisecond, e.Prob, host)
		case KindPartition:
			plane.Partition(e.At, e.At+e.Dur, host)
		case KindMigFail:
			plane.FailMigration(e.Point, core.PID{}, e.At, e.At+e.Dur, e.Prob, -1)
		case KindReboot:
			plane.ScheduleReboot(host, e.At)
		}
	}

	// Optionally run the gossip host selector under the same fault
	// schedule: per-host gossip daemons, one claim/release requester, and
	// the claim ledger's audit wired into CheckInvariants. Selector soft
	// state (views, claims, hints) then gets fuzzed by exactly the crash /
	// drop / partition / reboot events the kernel sees.
	var gossip *hostsel.Probabilistic
	if sc.Gossip {
		gp := hostsel.DefaultProbabilisticParams()
		gossip = hostsel.NewProbabilistic(c, gp)
		ledger := hostsel.NewClaimLedger(gossip, c, gp.ClaimLease)
		ledger.Register(c)
		c.Boot("fuzz-hostsel", func(env *sim.Env) error {
			defer gossip.Stop()
			gossip.StartDaemons(env)
			client := c.Workstation(0).Host()
			// Phase one runs inside the fault windows (mostly denials: no
			// host is idle-aged yet, and the faults are live); phase two
			// runs after the idle threshold so grants and releases happen
			// on post-fault state — rebooted hosts, healed partitions.
			for _, startAt := range []time.Duration{500 * time.Millisecond, 70 * time.Second} {
				if wait := startAt - env.Now(); wait > 0 {
					if err := env.Sleep(wait); err != nil {
						return err
					}
				}
				for i := 0; i < 6; i++ {
					got, err := ledger.RequestHosts(env, client, 1)
					if err != nil {
						return err
					}
					if err := env.Sleep(200 * time.Millisecond); err != nil {
						return err
					}
					if len(got) > 0 {
						if err := ledger.Release(env, client, got); err != nil {
							return err
						}
					}
					if err := env.Sleep(100 * time.Millisecond); err != nil {
						return err
					}
				}
			}
			return nil
		})
	}

	// Pre-decide the whole workload from a second derived stream: the sim's
	// own rng is left to the kernel.
	wrng := rand.New(rand.NewSource(sc.Seed ^ 0x740ad))
	plans := make([]procPlan, sc.Procs)
	for i := range plans {
		pl := procPlan{
			kind:    wrng.Intn(4),
			startAt: time.Duration(wrng.Intn(1800)) * time.Millisecond,
			home:    wrng.Intn(sc.Workstations),
			pages:   2 + wrng.Intn(8),
			shared:  wrng.Intn(3) == 0,
		}
		// Start on the first workstation from home on that is up; with
		// none up, skip the process as the driver does for drift.
		for tries := 0; sc.downDuring(pl.home, pl.startAt); tries++ {
			if tries == sc.Workstations {
				pl.skip = true
				break
			}
			pl.home = (pl.home + 1) % sc.Workstations
		}
		nt := 1 + wrng.Intn(2)
		for j := 0; j < nt; j++ {
			pl.targets = append(pl.targets, wrng.Intn(sc.Workstations))
		}
		plans[i] = pl
	}

	h.mon.Start()
	c.Boot("fuzz-driver", func(env *sim.Env) error {
		var procs []*core.Process
		for i, pl := range plans {
			if wait := pl.startAt - env.Now(); wait > 0 {
				if err := env.Sleep(wait); err != nil {
					return err
				}
			}
			if pl.skip || sc.downDuring(pl.home, env.Now()) {
				continue // no host up, or start-time drift landed in a down window
			}
			k := c.Workstation(pl.home)
			p, err := k.StartProcess(env, fmt.Sprintf("fuzz%d", i), fuzzProgram(c, i, pl), core.ProcConfig{
				Binary: "/bin/prog", CodePages: 2, HeapPages: pl.pages, StackPages: 1,
			})
			if err != nil {
				return fmt.Errorf("start fuzz%d: %w", i, err)
			}
			procs = append(procs, p)
		}
		for _, p := range procs {
			if _, err := p.Exited().Wait(env); err != nil {
				return fmt.Errorf("join %v: %w", p.PID(), err)
			}
		}
		// Keep the detector up until the last crash or reboot is four
		// intervals old, so every one of them is detected and reaped.
		if wait := lastCrash + 4*h.mon.Params().Interval - env.Now(); wait > 0 {
			if err := env.Sleep(wait); err != nil {
				return err
			}
		}
		h.mon.Stop()
		return nil
	})

	res := h.finish(func(metrics.Snapshot) string {
		var started, exited, crashed uint64
		for _, k := range c.Workstations() {
			st := k.Stats()
			started += st.ProcsStarted
			exited += st.ProcsExited
			crashed += st.ProcsCrashed
		}
		digest := fmt.Sprintf("t=%v calls=%d retries=%d timeouts=%d injected=%d started=%d exited=%d crashed=%d",
			c.Sim().Now(), c.Transport().Totals().Calls, c.Transport().Retries(), c.Transport().Timeouts(),
			plane.Injected(), started, exited, crashed)
		if gossip != nil {
			st := gossip.Stats()
			digest += fmt.Sprintf(" hostsel: req=%d granted=%d conflicts=%d msgs=%d",
				st.Requests, st.Granted, st.Conflicts, st.Messages)
		}
		return digest
	})
	if bg != nil {
		kc.capture.BgReports = bg.Received()
	}
	return res
}

// fuzzProgram builds one workload process. Fault-induced errors (crashes,
// kills, aborted migrations, severed pipes) are expected outcomes, so every
// step tolerates failure and falls through to a normal exit — the invariant
// checker, not the program, decides whether the kernel misbehaved.
func fuzzProgram(c *core.Cluster, i int, pl procPlan) core.Program {
	target := func(j int) rpc.HostID {
		return c.Workstation(pl.targets[j%len(pl.targets)]).Host()
	}
	switch pl.kind {
	case 0: // hopper: compute and hop between hosts
		return func(ctx *core.Ctx) error {
			if err := ctx.TouchHeap(0, pl.pages, true); err != nil {
				return nil
			}
			for j := 0; j < len(pl.targets); j++ {
				if err := ctx.Compute(40 * time.Millisecond); err != nil {
					return nil
				}
				_ = ctx.Migrate(target(j)) // may abort; life goes on here
			}
			if err := ctx.Compute(40 * time.Millisecond); err != nil {
				return nil
			}
			return nil
		}
	case 1: // filer: file I/O across a migration, sometimes contended
		return func(ctx *core.Ctx) error {
			path := fmt.Sprintf("/data/f%d", i)
			if pl.shared {
				path = "/data/shared"
			}
			fd, err := ctx.Open(path, fs.ReadWriteMode, fs.OpenOptions{Create: true})
			if err != nil {
				return nil
			}
			if _, err := ctx.Write(fd, make([]byte, 2048)); err != nil {
				return nil
			}
			_ = ctx.Migrate(target(0))
			if _, err := ctx.Write(fd, make([]byte, 1024)); err != nil {
				return nil
			}
			if err := ctx.Seek(fd, 0); err != nil {
				return nil
			}
			if _, err := ctx.Read(fd, 1024); err != nil {
				return nil
			}
			_ = ctx.Close(fd)
			return nil
		}
	case 2: // piper: parent writes, forked child reads across a migration
		return func(ctx *core.Ctx) error {
			rfd, wfd, err := ctx.Pipe()
			if err != nil {
				return nil
			}
			_, err = ctx.Fork(fmt.Sprintf("fuzz%d-rd", i), func(cc *core.Ctx) error {
				_ = cc.Close(wfd)
				_ = cc.Migrate(target(0))
				for {
					data, err := cc.Read(rfd, 512)
					if err != nil || len(data) == 0 {
						break // EOF, severed pipe, or kill
					}
				}
				_ = cc.Close(rfd)
				return nil
			}, core.ProcConfig{Binary: "/bin/prog", CodePages: 1, HeapPages: 1, StackPages: 1})
			if err != nil {
				return nil
			}
			_ = ctx.Close(rfd)
			for j := 0; j < 4; j++ {
				if _, err := ctx.Write(wfd, make([]byte, 256)); err != nil {
					break
				}
				if err := ctx.Compute(10 * time.Millisecond); err != nil {
					break
				}
			}
			_ = ctx.Close(wfd)
			_, _, _ = ctx.Wait()
			return nil
		}
	default: // remote exec: the pmake path, exec-time migration
		return func(ctx *core.Ctx) error {
			_, err := ctx.ForkRemoteExec(fmt.Sprintf("fuzz%d-rx", i), func(cc *core.Ctx) error {
				if err := cc.TouchHeap(0, 2, true); err != nil {
					return nil
				}
				if err := cc.Compute(30 * time.Millisecond); err != nil {
					return nil
				}
				return nil
			}, core.ProcConfig{Binary: "/bin/prog", CodePages: 1, HeapPages: 2, StackPages: 1}, target(0))
			if err != nil {
				return nil
			}
			_, _, _ = ctx.Wait()
			return nil
		}
	}
}
