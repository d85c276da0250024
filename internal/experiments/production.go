package experiments

import (
	"fmt"
	"sort"
	"time"

	"sprite/internal/core"
	"sprite/internal/metrics"
	"sprite/internal/sim"
	"sprite/internal/workload"
)

// E9Eviction reproduces the workstation-reclaiming measurement: the delay
// between an owner returning and the host being free of foreign processes,
// as a function of the foreign process's dirty memory.
func E9Eviction(cfg Config) (*Table, error) {
	t := &Table{
		ID:       "E9",
		Title:    "Eviction: time to reclaim a workstation vs foreign dirty VM",
		PaperRef: "thesis Ch. 8: process eviction when a user returns",
		Columns:  []string{"dirty MB", "reclaim ms", "migration total ms", "vm ms"},
	}
	pageSize := cfg.params().VM.PageSize
	sizes := []int{0, 1, 2, 4, 8, 16}
	if cfg.Quick {
		sizes = []int{0, 4}
	}
	for _, m := range sizes {
		c, err := cfg.cluster(cfg.Seed, 2, 1, nil, progBinary)
		if err != nil {
			return nil, err
		}
		sel := newMigd(c)
		home, lent := c.Workstation(0), c.Workstation(1)
		dirtyPages := m * mb / pageSize
		heap := dirtyPages
		if heap < 8 {
			heap = 8
		}
		var reclaim time.Duration
		c.Boot("boot", func(env *sim.Env) error {
			if err := env.Sleep(time.Minute); err != nil {
				return err
			}
			for _, k := range c.Workstations() {
				if err := sel.NotifyAvailability(env, k.Host(), k.Available(env.Now())); err != nil {
					return err
				}
			}
			if _, err := sel.RequestHosts(env, home.Host(), 1); err != nil {
				return err
			}
			p, err := home.StartProcess(env, "guest", func(ctx *core.Ctx) error {
				if err := ctx.Migrate(lent.Host()); err != nil {
					return err
				}
				if dirtyPages > 0 {
					if err := ctx.TouchHeap(0, dirtyPages, true); err != nil {
						return err
					}
				}
				return ctx.Compute(10 * time.Minute)
			}, workerCfg(heap))
			if err != nil {
				return err
			}
			if err := env.Sleep(5 * time.Second); err != nil {
				return err
			}
			// The owner returns: measure until the host is clean.
			lent.NoteInput(env.Now())
			t0 := env.Now()
			if err := sel.NotifyAvailability(env, lent.Host(), false); err != nil {
				return err
			}
			reclaim = env.Now() - t0
			if len(lent.ForeignProcesses()) != 0 {
				return fmt.Errorf("eviction left foreign processes")
			}
			// Put the guest out of its misery so the run ends.
			killer, err := home.StartProcess(env, "killer", func(ctx *core.Ctx) error {
				return ctx.Kill(p.PID())
			}, workerCfg(8))
			if err != nil {
				return err
			}
			if _, err := killer.Exited().Wait(env); err != nil {
				return err
			}
			_, err = p.Exited().Wait(env)
			return err
		})
		if err := c.Run(0); err != nil {
			return nil, err
		}
		var mig core.MigrationRecord
		for _, r := range c.MigrationRecords() {
			if r.Reason == "eviction" {
				mig = r
			}
		}
		t.CaptureMetrics(cfg, fmt.Sprintf("dirtyMB=%d", m), c)
		t.AddRow(fmt.Sprintf("%d", m), ms(reclaim), ms(mig.Total), ms(mig.VMTime))
	}
	t.AddNote("paper shape: reclaim delay grows linearly with the foreign process's dirty memory; small for typical processes")
	return t, nil
}

// E10IdleFraction reproduces the availability measurements: the fraction of
// workstations idle through a simulated day, and the (low) total processor
// utilization.
func E10IdleFraction(cfg Config) (*Table, error) {
	t := &Table{
		ID:       "E10",
		Title:    "Idle hosts through a simulated day",
		PaperRef: "thesis Ch. 8: 65-70% of hosts idle during the day, ~80% at night; total utilization a few percent",
		Columns:  []string{"period", "mean idle %", "min idle %", "max idle %"},
	}
	hosts := 32
	if cfg.Quick {
		hosts = 12
	}
	c, err := cfg.cluster(cfg.Seed, hosts, 1, nil, binary{"/bin/sh", 64 << 10})
	if err != nil {
		return nil, err
	}
	users := workload.NewUserPool(c, workload.DefaultDayProfile(), nil)
	lifetimes := workload.ZhouLifetimes()

	// Light interactive process load: while a user is active, short
	// commands run per Zhou's lifetime distribution.
	spawnersStopped := false
	startSpawners := func(env *sim.Env) {
		for _, k := range c.Workstations() {
			kernel := k
			env.Spawn(fmt.Sprintf("spawner-%v", kernel.Host()), func(senv *sim.Env) error {
				rng := senv.Rand()
				for !spawnersStopped {
					gap := time.Duration(rng.ExpFloat64() * float64(15*time.Second))
					if err := senv.Sleep(gap); err != nil {
						return err
					}
					if spawnersStopped {
						return nil
					}
					if senv.Now()-kernel.LastInput() > 30*time.Second {
						continue // user away: no commands
					}
					life := lifetimes.Sample(rng)
					if life > 5*time.Minute {
						life = 5 * time.Minute
					}
					if _, err := kernel.StartProcess(senv, "cmd", func(ctx *core.Ctx) error {
						return ctx.Compute(life)
					}, core.ProcConfig{Binary: "/bin/sh", CodePages: 2, HeapPages: 2, StackPages: 1}); err != nil {
						return err
					}
				}
				return nil
			})
		}
	}

	var daySamples, nightSamples []float64
	c.Boot("boot", func(env *sim.Env) error {
		users.Start(env)
		startSpawners(env)
		// Night window: 02:00-06:00.
		if err := env.Sleep(2 * time.Hour); err != nil {
			return err
		}
		var err error
		nightSamples, err = workload.SampleAvailability(env, c, 5*time.Minute, 4*time.Hour)
		if err != nil {
			return err
		}
		// Day window: 10:00-16:00.
		if err := env.Sleep(4 * time.Hour); err != nil {
			return err
		}
		daySamples, err = workload.SampleAvailability(env, c, 5*time.Minute, 6*time.Hour)
		if err != nil {
			return err
		}
		users.Stop()
		spawnersStopped = true
		return nil
	})
	if err := c.Run(18 * time.Hour); err != nil {
		return nil, err
	}
	elapsed := c.Sim().Now()
	var busy time.Duration
	for _, k := range c.Workstations() {
		busy += k.CPU().BusyTime(elapsed)
	}
	util := float64(busy) / (float64(elapsed) * float64(hosts)) * 100
	c.Stop()
	_ = c.Run(0)
	t.CaptureMetrics(cfg, "day", c)

	summarize := func(name string, vals []float64) {
		var s metrics.Sample
		for _, v := range vals {
			s.Add(v)
		}
		t.AddRow(name,
			fmt.Sprintf("%.0f", s.Mean()*100),
			fmt.Sprintf("%.0f", s.Min()*100),
			fmt.Sprintf("%.0f", s.Max()*100))
	}
	summarize("day (10:00-16:00)", daySamples)
	summarize("night (02:00-06:00)", nightSamples)
	t.AddNote("total processor utilization over the run: %.1f%% (thesis: 2.3%%)", util)
	t.AddNote("paper shape: a large majority of hosts are idle at all times, more at night than during the day")
	return t, nil
}

// E11PlacementVsMigration reproduces the Eager-et-al. versus Krueger-Livny
// comparison: how much completion-time improvement comes from initial
// placement alone, and how much more from migrating active processes.
func E11PlacementVsMigration(cfg Config) (*Table, error) {
	t := &Table{
		ID:       "E11",
		Title:    "Load-sharing policy: none vs initial placement vs placement+migration",
		PaperRef: "thesis Ch. 2/8: the ELZ88 vs KL88 debate, under Zhou-like lifetimes",
		Columns:  []string{"policy", "jobs", "mean completion s", "p95 s", "makespan s", "migrations"},
	}
	jobs := 160
	burst := 16
	gap := 10 * time.Second
	if cfg.Quick {
		jobs = 48
	}
	lifetimes := workload.ZhouLifetimes()

	type policy int
	const (
		policyNone policy = iota
		policyPlacement
		policyBoth
	)
	runPolicy := func(pol policy, label string) (*metrics.Sample, time.Duration, int, error) {
		c, err := cfg.cluster(cfg.Seed, 8, 1, nil, binary{"/bin/job", 64 << 10})
		if err != nil {
			return nil, 0, 0, err
		}
		submit := c.Workstation(0)
		var sample metrics.Sample
		var makespan time.Duration
		done := sim.NewWaitGroup()
		done.Add(jobs)
		rebalStop := false

		c.Boot("boot", func(env *sim.Env) error {
			rng := env.Rand()
			// Pre-sample lifetimes so every policy sees the same stream.
			lives := make([]time.Duration, jobs)
			for i := range lives {
				lives[i] = lifetimes.Sample(rng)
				if lives[i] > 4*time.Minute {
					lives[i] = 4 * time.Minute
				}
			}
			if pol == policyBoth {
				env.Spawn("rebalancer", func(renv *sim.Env) error {
					for !rebalStop {
						if err := renv.Sleep(time.Second); err != nil {
							return err
						}
						if rebalStop {
							return nil
						}
						var loaded, idle *core.Kernel
						for _, k := range c.Workstations() {
							switch {
							case k.CPU().Runnable() >= 2 && (loaded == nil || k.CPU().Runnable() > loaded.CPU().Runnable()):
								loaded = k
							case k.CPU().Runnable() == 0 && idle == nil:
								idle = k
							}
						}
						if loaded == nil || idle == nil {
							continue
						}
						// Move the longest-running process (Cabrera's
						// criterion: it is the one expected to keep
						// running), freeing the host for the queue
						// behind it.
						var victim *core.Process
						for _, p := range loaded.Processes() {
							if p.State() != core.StateRunning {
								continue
							}
							if victim == nil || p.CPUUsed() > victim.CPUUsed() {
								victim = p
							}
						}
						if victim == nil {
							continue
						}
						loaded.RequestMigration(victim, idle, "rebalance")
					}
					return nil
				})
			}
			cfgP := core.ProcConfig{Binary: "/bin/job", CodePages: 2, HeapPages: 4, StackPages: 1}
			next := 1 // round-robin placement cursor
			t0 := env.Now()
			for i := 0; i < jobs; i++ {
				if i > 0 && i%burst == 0 {
					if err := env.Sleep(gap); err != nil {
						return err
					}
				}
				life := lives[i]
				submitted := env.Now()
				prog := func(ctx *core.Ctx) error { return ctx.Compute(life) }
				var target *core.Kernel
				if pol != policyNone {
					// Initial placement: pick the least-loaded host.
					ws := c.Workstations()
					target = ws[next%len(ws)]
					for _, k := range ws {
						if k.CPU().Runnable() < target.CPU().Runnable() {
							target = k
						}
					}
					next++
				}
				var p *core.Process
				var err error
				if target == nil || target == submit {
					p, err = submit.StartProcess(env, fmt.Sprintf("job%d", i), prog, cfgP)
				} else {
					trampoline := func(ctx *core.Ctx) error {
						return ctx.Exec("job", prog, cfgP)
					}
					p, err = submit.StartProcess(env, fmt.Sprintf("job%d", i), trampoline, core.ProcConfig{})
					if err == nil {
						submit.RequestExecMigration(p, target, "placement")
					}
				}
				if err != nil {
					return err
				}
				env.Spawn(fmt.Sprintf("join%d", i), func(jenv *sim.Env) error {
					defer done.Done()
					if _, err := p.Exited().Wait(jenv); err != nil {
						return err
					}
					sample.AddDuration(jenv.Now() - submitted)
					return nil
				})
			}
			if err := done.Wait(env); err != nil {
				return err
			}
			makespan = env.Now() - t0
			rebalStop = true
			return nil
		})
		if err := c.Run(0); err != nil {
			return nil, 0, 0, err
		}
		migrations := 0
		for _, r := range c.MigrationRecords() {
			if r.Reason == "rebalance" || r.Reason == "placement" || r.Reason == "remote-exec" {
				migrations++
			}
		}
		t.CaptureMetrics(cfg, label, c)
		return &sample, makespan, migrations, nil
	}

	names := []string{"no load sharing", "initial placement", "placement + migration"}
	for pol, name := range names {
		sample, makespan, migs, err := runPolicy(policy(pol), name)
		if err != nil {
			return nil, err
		}
		t.AddRow(name,
			fmt.Sprintf("%d", sample.N()),
			fmt.Sprintf("%.2f", sample.Mean()),
			fmt.Sprintf("%.2f", sample.Percentile(95)),
			secs(makespan),
			fmt.Sprintf("%d", migs))
	}
	t.AddNote("paper shape: initial placement captures most of the benefit (Eager et al.); migrating active processes adds a further, smaller improvement for the long-lived tail (Krueger & Livny)")
	return t, nil
}

// E12SyscallTable reproduces Appendix A as a census: every 4.3BSD-style
// call classified by how Sprite keeps it transparent for migrated
// processes.
func E12SyscallTable(cfg Config) (*Table, error) {
	t := &Table{
		ID:       "E12",
		Title:    "Kernel-call handling for migrated processes (Appendix A census)",
		PaperRef: "thesis Appendix A",
		Columns:  []string{"policy", "calls", "examples"},
	}
	byPolicy := make(map[core.HandlingPolicy][]string)
	for call, pol := range core.SyscallTable {
		byPolicy[pol] = append(byPolicy[pol], call)
	}
	order := []core.HandlingPolicy{
		core.PolicyLocal, core.PolicyFile, core.PolicyHome,
		core.PolicyTransfer, core.PolicyDenied,
	}
	for _, pol := range order {
		calls := byPolicy[pol]
		sort.Strings(calls)
		examples := calls
		if len(examples) > 4 {
			examples = examples[:4]
		}
		t.AddRow(pol.String(), fmt.Sprintf("%d", len(calls)), fmt.Sprintf("%v", examples))
	}
	t.AddNote("total calls classified: %d; the conformance tests exercise each modeled call before and after migration", len(core.SyscallTable))
	return t, nil
}
