package experiments

import (
	"fmt"
	"time"

	"sprite/internal/checkpoint"
	"sprite/internal/core"
	"sprite/internal/sim"
)

// E20Baselines prices Sprite migration against the two mechanisms the
// thesis positions it against: checkpoint/restart (Condor-style) for moving
// a running computation, and forward-everything (Remote UNIX-style) for
// remote transparency. Cost only — that a restart yields a new pid and
// loses descriptors is internal/checkpoint's test.
func E20Baselines(cfg Config) (*Table, error) {
	t := &Table{
		ID:       "E20",
		Title:    "Baselines the thesis argues against",
		PaperRef: "thesis Ch. 2/4: checkpoint/restart (Condor) and forward-everything remote execution (Remote UNIX)",
		Columns:  []string{"comparison", "measure", "mechanism", "value"},
	}

	// A mostly clean working set, the common case: code and warmed
	// read-only data dominate. Migration flushes the dirty pages and
	// demand-pages the rest; checkpoint/restart writes and re-reads it all.
	resident, dirty := 256, 32
	calls := 200
	if cfg.Quick {
		resident, dirty, calls = 64, 8, 50
	}
	pageKB := cfg.params().VM.PageSize >> 10
	move := fmt.Sprintf("move ms, %d KB resident of which %d KB dirty", resident*pageKB, dirty*pageKB)
	rec, resume, err := measureMigration(cfg, t, "sprite-migration", core.SpriteFlushStrategy{}, 0, resident, dirty)
	if err != nil {
		return nil, err
	}
	viaCheckpoint, err := moveViaCheckpoint(cfg, t, resident, dirty)
	if err != nil {
		return nil, err
	}
	t.AddRow("moving a running job", move, "sprite migration", ms(rec.Total+resume))
	t.AddRow("moving a running job", move, "checkpoint/restart", ms(viaCheckpoint))

	syscalls := fmt.Sprintf("%d getpid calls away from home, ms", calls)
	var getpid [2]time.Duration
	for i, mechanism := range []string{"selective forwarding", "forward everything"} {
		if getpid[i], err = remoteGetPIDs(cfg, t, mechanism, i == 1, calls); err != nil {
			return nil, err
		}
		t.AddRow("remote transparency", syscalls, mechanism, ms(getpid[i]))
	}

	t.AddNote("checkpoint/restart costs %.1fx a migration; forwarding every call costs %.1fx forwarding only the location-dependent ones",
		float64(viaCheckpoint)/float64(rec.Total+resume), float64(getpid[1])/float64(getpid[0]))
	t.AddNote("paper shape: migration beats checkpoint/restart whenever the working set is mostly clean, and keeps pid and descriptors; location-independent calls run at local speed only under selective forwarding")
	return t, nil
}

// moveViaCheckpoint makes measureMigration's move with a checkpoint file:
// save the image, exit, start afresh on the target, restore, touch the
// resident set back in. Returns the time from the save to full speed.
func moveViaCheckpoint(cfg Config, t *Table, resident, dirty int) (time.Duration, error) {
	c, err := cfg.cluster(cfg.Seed, 2, 1, nil, progBinary)
	if err != nil {
		return 0, err
	}
	const image = "/ckpt/job.img"
	var t0, cost time.Duration
	c.Boot("boot", func(env *sim.Env) error {
		for i, prog := range []core.Program{
			func(ctx *core.Ctx) error {
				if err := ctx.TouchHeap(0, resident, false); err != nil {
					return err
				}
				if err := ctx.TouchHeap(0, dirty, true); err != nil {
					return err
				}
				t0 = ctx.Now()
				if _, err := checkpoint.Save(ctx, image); err != nil {
					return err
				}
				return ctx.Exit(0)
			},
			func(ctx *core.Ctx) error {
				if _, err := checkpoint.Restore(ctx, image); err != nil {
					return err
				}
				err := ctx.TouchHeap(0, resident, false)
				cost = ctx.Now() - t0
				return err
			},
		} {
			p, err := c.Workstation(i).StartProcess(env, "job", prog, workerCfg(resident))
			if err != nil {
				return err
			}
			if _, err := p.Exited().Wait(env); err != nil {
				return err
			}
		}
		return nil
	})
	if err := c.Run(0); err != nil {
		return 0, err
	}
	t.CaptureMetrics(cfg, "checkpoint-restart", c)
	return cost, nil
}

// remoteGetPIDs migrates a process away from home and times n getpid calls
// there — a call Sprite runs locally and Remote UNIX forwards home.
func remoteGetPIDs(cfg Config, t *Table, label string, forwardAll bool, n int) (time.Duration, error) {
	c, err := cfg.cluster(cfg.Seed, 2, 1, nil, progBinary)
	if err != nil {
		return 0, err
	}
	dst := c.Workstation(1)
	dst.SetForwardAll(forwardAll)
	var elapsed time.Duration
	if err := runProgram(cfg, t, label, c, "sysheavy", func(ctx *core.Ctx) error {
		if err := ctx.Migrate(dst.Host()); err != nil {
			return err
		}
		t0 := ctx.Now()
		for i := 0; i < n; i++ {
			if _, err := ctx.GetPID(); err != nil {
				return err
			}
		}
		elapsed = ctx.Now() - t0
		return nil
	}, workerCfg(8)); err != nil {
		return 0, err
	}
	return elapsed, nil
}
