package experiments

import (
	"fmt"
	"time"

	"sprite/internal/core"
	"sprite/internal/pmake"
	"sprite/internal/sim"
)

// E19Ablations varies one design choice at a time (DESIGN.md §5) and
// reports the outcome each arm produces. Every row group carries a claimed
// direction, asserted by TestE19EveryAblationSeparates: a choice whose arms
// read the same ablates nothing and does not belong in the table.
func E19Ablations(cfg Config) (*Table, error) {
	t := &Table{
		ID:       "E19",
		Title:    "Design-choice ablations",
		PaperRef: "thesis Ch. 5-8: server name lookups, delayed write-back, a shared Ethernet, evict-home, migration at quantum boundaries",
		Columns:  []string{"design choice", "measure", "arm", "value"},
	}

	// A small build keeps the pmake arms cheap: 12 units, 2 s each.
	proj := pmake.DefaultProjectParams()
	proj.Units = 12
	proj.CompileCPU = 2 * time.Second
	proj.LinkCPU = 2 * time.Second
	makespan := func(label string, hosts int, tune func(*core.Params)) (time.Duration, error) {
		res, _, err := runPmakeOn(cfg, t, label, hosts, proj, tune)
		if err != nil {
			return 0, err
		}
		return res.Makespan, nil
	}

	lookups := []time.Duration{500 * time.Microsecond, 2 * time.Millisecond, 8 * time.Millisecond}
	if cfg.Quick {
		lookups = []time.Duration{500 * time.Microsecond, 8 * time.Millisecond}
	}
	for _, lookup := range lookups {
		tune := func(p *core.Params) { p.FS.NameLookupCPU = lookup }
		seq, err := makespan(fmt.Sprintf("lookup=%v hosts=1", lookup), 1, tune)
		if err != nil {
			return nil, err
		}
		par, err := makespan(fmt.Sprintf("lookup=%v hosts=8", lookup), 8, tune)
		if err != nil {
			return nil, err
		}
		t.AddRow("name-lookup cost", "pmake speedup at 8 hosts", lookup.String(), fmt.Sprintf("%.2f", float64(seq)/float64(par)))
	}

	// Two-arm choices list Sprite's own arm first, the alternative second.
	for i, arm := range []string{"delayed write-back", "write-through"} {
		d, err := makespan(arm, 4, func(p *core.Params) { p.FS.WriteThrough = i == 1 })
		if err != nil {
			return nil, err
		}
		t.AddRow("client caching", "pmake makespan s at 4 hosts", arm, secs(d))
	}

	for i, arm := range []string{"dedicated paths", "shared medium"} {
		d, err := migrateUnderTraffic(cfg, t, arm, i == 1)
		if err != nil {
			return nil, err
		}
		t.AddRow("network", "4 MB migration ms beside bulk traffic", arm, ms(d))
	}

	for i, arm := range []string{"evict home", "evict to an idle host"} {
		d, err := evictedGuestCompletion(cfg, t, arm, i == 1)
		if err != nil {
			return nil, err
		}
		t.AddRow("eviction destination", "evicted guest done at s", arm, secs(d))
	}

	// A compute-bound process reaches a migration point once per quantum,
	// so a request waits out the rest of the current one. One probe instant
	// can sit the same distance from a boundary of every quantum; eight
	// offsets spanning the longest quantum cannot.
	const offsets = 8
	quanta := []time.Duration{5 * time.Millisecond, 20 * time.Millisecond, 100 * time.Millisecond}
	for _, q := range quanta {
		var sum, worst time.Duration
		for k := 0; k < offsets; k++ {
			offset := time.Duration(k) * quanta[len(quanta)-1] / offsets
			d, err := requestToDone(cfg, t, fmt.Sprintf("quantum=%v offset=%v", q, offset), q, offset)
			if err != nil {
				return nil, err
			}
			sum += d
			if d > worst {
				worst = d
			}
		}
		t.AddRow("cpu quantum", "request-to-done ms, mean of 8 offsets", q.String(), ms(sum/offsets))
		t.AddRow("cpu quantum", "request-to-done ms, worst of 8 offsets", q.String(), ms(worst))
	}

	t.AddNote("paper shape: costlier server name lookups cap build speedup (client name caching would lift it); write-through costs a build more than delayed write-back; a shared medium slows a migration that competes with other traffic; an evicted process finishes sooner on a fresh idle host than back on its busy home; a longer quantum delays a requested migration")
	return t, nil
}

// migrateUnderTraffic migrates one process with 4 MB of dirty heap while a
// third host keeps re-reading a large uncached file, and returns the
// migration total.
func migrateUnderTraffic(cfg Config, t *Table, label string, contended bool) (time.Duration, error) {
	c, err := cfg.cluster(cfg.Seed, 3, 1, func(p *core.Params) { p.Net.Contended = contended }, progBinary)
	if err != nil {
		return 0, err
	}
	if err := c.SeedBinary("/bulk", 2*mb); err != nil {
		return 0, err
	}
	dst := c.Workstation(1)
	dirtyPages := 4 * mb / c.Params().VM.PageSize
	moved := false
	c.Boot("bulk", func(env *sim.Env) error {
		cl := c.FS().Client(c.Workstation(2).Host())
		for !moved {
			if _, err := cl.ReadFile(env, "/bulk"); err != nil {
				return err
			}
			cl.DropCaches()
		}
		return nil
	})
	if err := runProgram(cfg, t, label, c, "subject", func(ctx *core.Ctx) error {
		defer func() { moved = true }()
		if err := ctx.TouchHeap(0, dirtyPages, true); err != nil {
			return err
		}
		return ctx.Migrate(dst.Host())
	}, workerCfg(dirtyPages)); err != nil {
		return 0, err
	}
	return c.MigrationRecords()[0].Total, nil
}

// evictedGuestCompletion lends a host to a 20 s guest whose home stays busy
// with its owner's work, evicts the guest after 5 s — home as Sprite does,
// or to a spare idle host — and returns when the guest finished.
func evictedGuestCompletion(cfg Config, t *Table, label string, reselect bool) (time.Duration, error) {
	c, err := cfg.cluster(cfg.Seed, 3, 1, nil, progBinary)
	if err != nil {
		return 0, err
	}
	home, lent, spare := c.Workstation(0), c.Workstation(1), c.Workstation(2)
	if reselect {
		// In a full system a Selector would pick the spare.
		lent.SetEvictionTarget(func(*sim.Env, *core.Process) *core.Kernel { return spare })
	}
	var done time.Duration
	c.Boot("boot", func(env *sim.Env) error {
		if _, err := home.StartProcess(env, "owner-work", func(ctx *core.Ctx) error {
			return ctx.Compute(60 * time.Second)
		}, workerCfg(8)); err != nil {
			return err
		}
		guest, err := home.StartProcess(env, "guest", func(ctx *core.Ctx) error {
			if err := ctx.Migrate(lent.Host()); err != nil {
				return err
			}
			return ctx.Compute(20 * time.Second)
		}, workerCfg(8))
		if err != nil {
			return err
		}
		if err := env.Sleep(5 * time.Second); err != nil {
			return err
		}
		lent.NoteInput(env.Now())
		if err := lent.EvictAll(env); err != nil {
			return err
		}
		_, err = guest.Exited().Wait(env)
		done = env.Now()
		return err
	})
	if err := c.Run(0); err != nil {
		return 0, err
	}
	t.CaptureMetrics(cfg, label, c)
	return done, nil
}

// requestToDone asks a compute-bound process to migrate one second plus
// offset into its run, on hosts scheduling with the given quantum, and
// returns the time from the request to the completed migration.
func requestToDone(cfg Config, t *Table, label string, quantum, offset time.Duration) (time.Duration, error) {
	c, err := cfg.cluster(cfg.Seed, 2, 1, func(p *core.Params) { p.CPUQuantum = quantum }, progBinary)
	if err != nil {
		return 0, err
	}
	src, dst := c.Workstation(0), c.Workstation(1)
	var wait time.Duration
	c.Boot("boot", func(env *sim.Env) error {
		p, err := src.StartProcess(env, "busy", func(ctx *core.Ctx) error {
			return ctx.Compute(2 * time.Second)
		}, workerCfg(8))
		if err != nil {
			return err
		}
		if err := env.Sleep(time.Second + offset); err != nil {
			return err
		}
		t0 := env.Now()
		if _, err := src.RequestMigration(p, dst, "ablation").Wait(env); err != nil {
			return err
		}
		wait = env.Now() - t0
		_, err = p.Exited().Wait(env)
		return err
	})
	if err := c.Run(0); err != nil {
		return 0, err
	}
	t.CaptureMetrics(cfg, label, c)
	return wait, nil
}
