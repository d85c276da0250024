package experiments

import (
	"fmt"
	"runtime"
	"time"

	"sprite/internal/core"
	"sprite/internal/fs"
	"sprite/internal/sim"
	"sprite/internal/workload"
)

// E17 is the repo's only wallclock experiment: it measures how fast the
// simulator itself runs, not what the simulated cluster does. The workload
// is fixed — a migration-driving cluster plane plus a fleet of confined
// per-host load daemons — and is executed under the serial oracle and the
// conservative parallel kernel at increasing worker counts. Because the
// parallel kernel commits the identical event order, every run must produce
// the same order digest; the only thing allowed to vary is the wallclock,
// which is the point. This file is exempt from the walltime lint for
// exactly that reason.

// e17Row is one kernel configuration's measurement; the rows are the
// table's Data.
type e17Row struct {
	// Workload names the measured plane: "daemons" is the original fleet of
	// confined per-host load daemons around an exclusive cluster plane;
	// "migration" is the migration-heavy confined-hosts workload, where the
	// whole RPC/FS/migration plane runs shard-confined (DESIGN.md §14).
	Workload string  `json:"workload"`
	Kernel   string  `json:"kernel"` // "serial" or "parallel"
	Workers  int     `json:"workers"`
	Hosts    int     `json:"hosts"`
	Cores    int     `json:"cores"` // runtime.NumCPU() — speedup is bounded by this
	Reps     int     `json:"reps"`
	WallMs   float64 `json:"wall_ms"` // best of Reps
	Speedup  float64 `json:"speedup_vs_serial"`
	Digest   string  `json:"order_digest"`
}

// e17Shape fixes the workload dimensions for one scale.
type e17Shape struct {
	hosts int // confined load daemons, one shard each
	ticks int // bounded daemon lifetime so the run quiesces
}

// e17Measure runs the fixed workload once under the given kernel
// (workers == 0 selects the serial oracle) and returns the wallclock and
// the committed-order digest.
func e17Measure(cfg Config, workers int, shape e17Shape) (time.Duration, uint64, error) {
	c, err := cfg.cluster(cfg.Seed, 4, 1, func(p *core.Params) {
		if workers > 0 {
			p.Sim = core.SimParams{Parallel: true, Workers: workers}
		}
	}, binary{"/bin/prog", 64 << 10})
	if err != nil {
		return 0, 0, err
	}
	workload.StartBgLoad(c.Sim(), c.Metrics(), workload.BgLoadConfig{
		Hosts:       shape.hosts,
		Ticks:       shape.ticks,
		ReportEvery: 10,
	})
	// The exclusive plane stays busy too: a hopper migrating around the
	// cluster for the daemons' whole lifetime, so the measurement includes
	// the serial fraction a real experiment would carry.
	c.Boot("hopper", func(env *sim.Env) error {
		p, err := c.Workstation(0).StartProcess(env, "hop", func(ctx *core.Ctx) error {
			for i := 0; ; i++ {
				if err := ctx.Compute(500 * time.Millisecond); err != nil {
					return nil
				}
				if err := ctx.Migrate(c.Workstation((i + 1) % 4).Host()); err != nil {
					return nil
				}
				if ctx.Now() > time.Duration(shape.ticks)*75*time.Millisecond {
					return nil
				}
			}
		}, core.ProcConfig{Binary: "/bin/prog", CodePages: 2, HeapPages: 8, StackPages: 1})
		if err != nil {
			return err
		}
		_, err = p.Exited().Wait(env)
		return err
	})
	start := time.Now()
	if err := c.Run(0); err != nil {
		return 0, 0, err
	}
	return time.Since(start), c.Sim().OrderDigest(), nil
}

// e17MigShape fixes the migration-heavy confined workload's dimensions.
type e17MigShape struct {
	hosts  int // confined workstations, one shard each
	procs  int // migrating processes started per host
	rounds int // touch + compute + migrate rounds per process
}

// e17MigMeasure runs the migration-heavy workload once with every host
// confined to its own shard (DESIGN.md §14): per-host drivers boot on their
// host's shard and start processes that fault pages, compute, and hop
// around the ring, so RPC dispatch, fs traffic, page transfer, and the
// migrations themselves all execute inside lookahead windows. The VM
// strategies round-robin across hosts so each one's source- and target-side
// work is part of the measurement.
func e17MigMeasure(cfg Config, workers int, shape e17MigShape) (time.Duration, uint64, error) {
	c, err := cfg.cluster(cfg.Seed, shape.hosts, 2, func(p *core.Params) {
		p.Sim.ConfineHosts = true
		if workers > 0 {
			p.Sim.Parallel = true
			p.Sim.Workers = workers
		}
	}, binary{"/bin/prog", 32 << 10})
	if err != nil {
		return 0, 0, err
	}
	if _, err := c.FS().SeedSized("/data/shared", 64<<10, false); err != nil {
		return 0, 0, err
	}
	ws := c.Workstations()
	strategies := []core.TransferStrategy{
		core.SpriteFlushStrategy{},
		core.FullCopyStrategy{},
		core.CopyOnReferenceStrategy{},
		core.PreCopyStrategy{RedirtyPagesPerSec: 100},
	}
	for i := range ws {
		i := i
		k := ws[i]
		k.SetStrategy(strategies[i%len(strategies)])
		c.BootOn(k.Host(), fmt.Sprintf("mig-driver-%d", i), func(env *sim.Env) error {
			procs := make([]*core.Process, 0, shape.procs)
			for j := 0; j < shape.procs; j++ {
				j := j
				p, err := k.StartProcess(env, fmt.Sprintf("m-%d-%d", i, j), func(ctx *core.Ctx) error {
					fd, err := ctx.Open("/data/shared", fs.ReadMode, fs.OpenOptions{})
					if err != nil {
						return err
					}
					for r := 0; r < shape.rounds; r++ {
						if err := ctx.TouchHeap(0, 16, true); err != nil {
							return err
						}
						if _, err := ctx.ReadCount(fd, 2048); err != nil {
							return err
						}
						if err := ctx.Compute(25 * time.Millisecond); err != nil {
							return err
						}
						if err := ctx.Migrate(ws[(i+j+r+1)%len(ws)].Host()); err != nil {
							return err
						}
					}
					return ctx.Close(fd)
				}, core.ProcConfig{Binary: "/bin/prog", CodePages: 2, HeapPages: 16, StackPages: 1})
				if err != nil {
					return err
				}
				procs = append(procs, p)
			}
			for _, p := range procs {
				if _, err := p.Exited().Wait(env); err != nil {
					return err
				}
			}
			return nil
		})
	}
	start := time.Now()
	if err := c.Run(0); err != nil {
		return 0, 0, err
	}
	return time.Since(start), c.Sim().OrderDigest(), nil
}

// e17Best returns the best-of-reps wallclock (the standard way to strip
// scheduler noise from a throughput measurement) plus the digest, which
// must not vary across reps. measure abstracts over the two workloads.
func e17Best(reps int, measure func() (time.Duration, uint64, error)) (time.Duration, uint64, error) {
	var best time.Duration
	var digest uint64
	for r := 0; r < reps; r++ {
		wall, d, err := measure()
		if err != nil {
			return 0, 0, err
		}
		if r == 0 {
			best, digest = wall, d
			continue
		}
		if d != digest {
			return 0, 0, fmt.Errorf("E17: digest changed across reps: %#x vs %#x", d, digest)
		}
		if wall < best {
			best = wall
		}
	}
	return best, digest, nil
}

// e17Sweep runs one workload's serial oracle plus a parallel worker sweep,
// enforcing digest equality across every kernel, and returns the rows.
func e17Sweep(workload string, hosts, reps int, workerCounts []int,
	measure func(workers int) (time.Duration, uint64, error)) ([]*e17Row, error) {
	serialWall, serialDigest, err := e17Best(reps, func() (time.Duration, uint64, error) { return measure(0) })
	if err != nil {
		return nil, err
	}
	cores := runtime.NumCPU()
	rows := []*e17Row{{
		Workload: workload, Kernel: "serial", Hosts: hosts, Cores: cores, Reps: reps,
		WallMs: float64(serialWall) / 1e6, Speedup: 1.0,
		Digest: fmt.Sprintf("%#x", serialDigest),
	}}
	for _, w := range workerCounts {
		w := w
		wall, digest, err := e17Best(reps, func() (time.Duration, uint64, error) { return measure(w) })
		if err != nil {
			return nil, err
		}
		if digest != serialDigest {
			return nil, fmt.Errorf("E17 %s: workers=%d committed a different order (%#x) than serial (%#x) — kernel bug", workload, w, digest, serialDigest)
		}
		rows = append(rows, &e17Row{
			Workload: workload, Kernel: "parallel", Workers: w, Hosts: hosts, Cores: cores, Reps: reps,
			WallMs: float64(wall) / 1e6, Speedup: float64(serialWall) / float64(wall),
			Digest: fmt.Sprintf("%#x", digest),
		})
	}
	return rows, nil
}

// E17ParallelWallclock measures the conservative parallel kernel's
// multi-core speedup and proves, in the same run, that worker count never
// changes the committed event order. Two workloads run back to back: the
// original cluster + per-host-daemon fleet ("daemons"), and the
// migration-heavy confined-hosts plane ("migration"), where RPC service,
// fs/vm traffic, and the migrations themselves dispatch concurrently
// because every host kernel lives on its own shard. Quick shrinks both;
// Config.Hosts overrides the daemon fleet.
func E17ParallelWallclock(cfg Config) (*Table, error) {
	t := &Table{
		ID:       "E17",
		Title:    "Parallel kernel wallclock speedup (fixed workload, varying kernel)",
		PaperRef: "conservative parallel DES over the Sprite cluster model; order is a pure function of (program, seed)",
		Columns:  []string{"workload", "kernel", "workers", "hosts", "wall ms", "speedup", "digest"},
	}
	shape := e17Shape{hosts: 1000, ticks: 300}
	migShape := e17MigShape{hosts: 32, procs: 4, rounds: 6}
	reps := 3
	if cfg.Quick {
		shape, migShape, reps = e17Shape{hosts: 64, ticks: 100}, e17MigShape{hosts: 8, procs: 2, rounds: 3}, 1
	}
	if cfg.Hosts > 0 {
		shape.hosts = cfg.Hosts
	}
	workerCounts := []int{1, 2, 4}
	if runtime.NumCPU() >= 8 {
		workerCounts = append(workerCounts, 8)
	}

	rows, err := e17Sweep("daemons", shape.hosts, reps, workerCounts,
		func(workers int) (time.Duration, uint64, error) { return e17Measure(cfg, workers, shape) })
	if err != nil {
		return nil, err
	}
	migRows, err := e17Sweep("migration", migShape.hosts, reps, workerCounts,
		func(workers int) (time.Duration, uint64, error) { return e17MigMeasure(cfg, workers, migShape) })
	if err != nil {
		return nil, err
	}
	rows = append(rows, migRows...)
	for _, r := range rows {
		t.AddRow(r.Workload, r.Kernel, fmt.Sprintf("%d", r.Workers), fmt.Sprintf("%d", r.Hosts),
			fmt.Sprintf("%.1f", r.WallMs), fmt.Sprintf("%.2fx", r.Speedup), r.Digest)
	}
	t.AddNote("identical digests within each workload: worker count is not an input to the simulation")
	t.AddNote("migration rows run with ConfineHosts: host kernels, RPC loops, and migrations are shard-confined")
	t.AddNote("measured on %d cores; speedup is meaningful only when cores >= workers", runtime.NumCPU())
	t.Data = rows
	return t, nil
}

// E17ConfinedScale is the nightly fleet-scale tier of the confined-hosts
// plane: the migration-heavy workload at 10,000 hosts (Config.Hosts
// overrides), run once under the serial oracle and once under the parallel
// kernel at 4 workers. The run FAILS — not merely notes — if the two
// kernels commit different order digests at this scale, which is the
// regression the small equivalence suites could miss. The table's Data is
// the serial-vs-parallel comparison (the SCALE_confined.json artifact).
func E17ConfinedScale(cfg Config) (*Table, error) {
	t := &Table{
		ID:       "E17s",
		Title:    "Confined-hosts scale tier: serial vs parallel at fleet scale",
		PaperRef: "per-host shards over the Sprite cluster model (DESIGN.md §14); digests must agree at any scale",
		Columns:  []string{"workload", "kernel", "workers", "hosts", "wall ms", "speedup", "digest"},
	}
	hosts := 10000
	if cfg.Hosts > 0 {
		hosts = cfg.Hosts
	}
	if cfg.Quick && cfg.Hosts == 0 {
		hosts = 200
	}
	shape := e17MigShape{hosts: hosts, procs: 2, rounds: 3}
	serialWall, serialDigest, err := e17MigMeasure(cfg, 0, shape)
	if err != nil {
		return nil, err
	}
	const workers = 4
	parWall, parDigest, err := e17MigMeasure(cfg, workers, shape)
	if err != nil {
		return nil, err
	}
	if parDigest != serialDigest {
		return nil, fmt.Errorf("E17 scale: %d-host confined tier diverged: serial digest %#x, parallel(%d) %#x — kernel bug", hosts, serialDigest, workers, parDigest)
	}
	cores := runtime.NumCPU()
	rows := []*e17Row{
		{
			Workload: "migration-scale", Kernel: "serial", Hosts: hosts, Cores: cores, Reps: 1,
			WallMs: float64(serialWall) / 1e6, Speedup: 1.0,
			Digest: fmt.Sprintf("%#x", serialDigest),
		},
		{
			Workload: "migration-scale", Kernel: "parallel", Workers: workers, Hosts: hosts, Cores: cores, Reps: 1,
			WallMs: float64(parWall) / 1e6, Speedup: float64(serialWall) / float64(parWall),
			Digest: fmt.Sprintf("%#x", parDigest),
		},
	}
	for _, r := range rows {
		t.AddRow(r.Workload, r.Kernel, fmt.Sprintf("%d", r.Workers), fmt.Sprintf("%d", r.Hosts),
			fmt.Sprintf("%.1f", r.WallMs), fmt.Sprintf("%.2fx", r.Speedup), r.Digest)
	}
	t.AddNote("digests agree at %d hosts: the confined plane commits the serial order at fleet scale", hosts)
	t.AddNote("measured on %d cores; speedup is meaningful only when cores >= workers", cores)
	t.Data = rows
	return t, nil
}
