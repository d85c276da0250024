package experiments

import (
	"fmt"
	"time"

	"sprite/internal/core"
	"sprite/internal/fs"
	"sprite/internal/rpc"
	"sprite/internal/sim"
	"sprite/internal/workload"
)

// E13RemotePenalty reproduces the remote-execution overhead measurement:
// the slowdown a process suffers from running away from home, broken down
// by workload mix. Compute-bound processes pay almost nothing; kernel-call
// heavy processes pay for every forwarded call (Ch. 7 reports a few
// percent for typical workloads).
func E13RemotePenalty(cfg Config) (*Table, error) {
	t := &Table{
		ID:       "E13",
		Title:    "Remote execution penalty by workload mix",
		PaperRef: "thesis Ch. 7: overhead of running a process away from home",
		Columns:  []string{"workload", "home s", "away s", "slowdown %"},
	}
	type mix struct {
		name string
		prog func(ctx *core.Ctx, scale int) error
	}
	mixes := []mix{
		{"compute-bound", func(ctx *core.Ctx, scale int) error {
			return ctx.Compute(time.Duration(scale) * time.Second)
		}},
		{"file I/O heavy", func(ctx *core.Ctx, scale int) error {
			for i := 0; i < scale*20; i++ {
				fd, err := ctx.Open("/data/in", fs.ReadMode, fs.OpenOptions{})
				if err != nil {
					return err
				}
				if _, err := ctx.ReadCount(fd, 8192); err != nil {
					return err
				}
				if err := ctx.Close(fd); err != nil {
					return err
				}
				if err := ctx.Compute(20 * time.Millisecond); err != nil {
					return err
				}
			}
			return nil
		}},
		{"home-call heavy", func(ctx *core.Ctx, scale int) error {
			for i := 0; i < scale*50; i++ {
				if _, err := ctx.GetTimeOfDay(); err != nil {
					return err
				}
				if err := ctx.Compute(10 * time.Millisecond); err != nil {
					return err
				}
			}
			return nil
		}},
	}
	scale := 4
	if cfg.Quick {
		scale = 1
	}
	for _, m := range mixes {
		var times [2]time.Duration
		for variant, where := range []string{"home", "away"} {
			remote := variant == 1
			c, err := cfg.cluster(cfg.Seed, 2, 1, nil, progBinary)
			if err != nil {
				return nil, err
			}
			if err := c.Seed("/data/in", make([]byte, 64*1024)); err != nil {
				return nil, err
			}
			dst := c.Workstation(1)
			var elapsed time.Duration
			if err := runProgram(cfg, t, m.name+" "+where, c, m.name, func(ctx *core.Ctx) error {
				if remote {
					if err := ctx.Migrate(dst.Host()); err != nil {
						return err
					}
				}
				t0 := ctx.Now()
				if err := m.prog(ctx, scale); err != nil {
					return err
				}
				elapsed = ctx.Now() - t0
				return nil
			}, workerCfg(16)); err != nil {
				return nil, err
			}
			times[variant] = elapsed
		}
		slowdown := (float64(times[1])/float64(times[0]) - 1) * 100
		t.AddRow(m.name, secs(times[0]), secs(times[1]), fmt.Sprintf("%.1f", slowdown))
	}
	t.AddNote("paper shape: compute- and file-bound processes pay ~0%% away from home (the FS is location transparent); only home-forwarded calls cost, so typical processes see a few percent at most")
	return t, nil
}

// E14DayInTheLife reproduces the Ch. 8 production statistics: a working
// day on a shared cluster with users coming and going and a batch of
// migration-using jobs, reporting migrations, evictions, remote execution
// share, and host availability.
func E14DayInTheLife(cfg Config) (*Table, error) {
	t := &Table{
		ID:       "E14",
		Title:    "A day of load sharing in production",
		PaperRef: "thesis Ch. 8: migration in daily use",
		Columns:  []string{"metric", "value"},
	}
	hosts := 16
	jobs := 40
	jobCPU := 3 * time.Minute
	dayLen := 10 * time.Hour
	if cfg.Quick {
		hosts = 8
		jobs = 10
		jobCPU = time.Minute
		dayLen = 3 * time.Hour
	}
	c, err := cfg.cluster(cfg.Seed, hosts, 1, nil, binary{"/bin/sim", 256 << 10})
	if err != nil {
		return nil, err
	}
	migd := newMigd(c)
	users := workload.NewUserPool(c, workload.DefaultDayProfile(), migd.NotifyAvailability)
	submit := c.Workstation(0)

	var remoteCPU, totalCPU time.Duration
	var batchSpan time.Duration
	c.Boot("boot", func(env *sim.Env) error {
		users.Start(env)
		if err := env.Sleep(2 * time.Hour); err != nil { // morning
			return err
		}
		t0 := env.Now()
		done := sim.NewWaitGroup()
		done.Add(jobs)
		launched := 0
		for launched < jobs {
			if env.Now()-t0 > dayLen {
				return fmt.Errorf("day ended with %d jobs unlaunched", jobs-launched)
			}
			hostsGot, err := migd.RequestHosts(env, submit.Host(), jobs-launched)
			if err != nil {
				return err
			}
			if len(hostsGot) == 0 {
				if err := env.Sleep(time.Minute); err != nil {
					return err
				}
				continue
			}
			for _, h := range hostsGot {
				target := c.KernelOn(h)
				p, err := submit.StartProcess(env, fmt.Sprintf("sim%d", launched),
					func(ctx *core.Ctx) error {
						return ctx.Exec("sim", func(cc *core.Ctx) error {
							if err := cc.TouchHeap(0, 64, true); err != nil {
								return err
							}
							return cc.Compute(jobCPU)
						}, core.ProcConfig{Binary: "/bin/sim", CodePages: 8, HeapPages: 64, StackPages: 2})
					}, core.ProcConfig{})
				if err != nil {
					return err
				}
				submit.RequestExecMigration(p, target, "load-sharing")
				host := h
				env.Spawn("join", func(je *sim.Env) error {
					defer done.Done()
					if _, err := p.Exited().Wait(je); err != nil {
						return err
					}
					return migd.Release(je, submit.Host(), []rpc.HostID{host})
				})
				launched++
			}
		}
		if err := done.Wait(env); err != nil {
			return err
		}
		batchSpan = env.Now() - t0
		users.Stop()
		return nil
	})
	if err := c.Run(14 * time.Hour); err != nil {
		return nil, err
	}
	elapsed := c.Sim().Now()
	var evictions, migrations int
	for _, rec := range c.MigrationRecords() {
		migrations++
		if rec.Reason == "eviction" {
			evictions++
		}
	}
	for _, k := range c.Workstations() {
		busy := k.CPU().BusyTime(elapsed)
		totalCPU += busy
		if k != submit {
			remoteCPU += busy
		}
	}
	c.Stop()
	if err := c.Run(0); err != nil {
		return nil, err
	}
	t.CaptureMetrics(cfg, "day", c)
	idle := 0
	for _, k := range c.Workstations() {
		if k.Available(elapsed) {
			idle++
		}
	}
	t.AddRow("jobs completed", fmt.Sprintf("%d", jobs))
	t.AddRow("batch makespan (s)", secs(batchSpan))
	t.AddRow("total migrations", fmt.Sprintf("%d", migrations))
	t.AddRow("evictions (owner returned)", fmt.Sprintf("%d", evictions))
	t.AddRow("remote share of batch CPU (%)", fmt.Sprintf("%.0f", float64(remoteCPU)/float64(totalCPU)*100))
	t.AddRow("migd host grants", fmt.Sprintf("%d", migd.Stats().Granted))
	t.AddRow("migd denied requests", fmt.Sprintf("%d", migd.Stats().Denied))
	t.AddNote("paper shape: migration-using batches run almost entirely on borrowed hosts; eviction happens but is rare relative to grants; users keep their machines")
	return t, nil
}
