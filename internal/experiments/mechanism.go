package experiments

import (
	"fmt"
	"time"

	"sprite/internal/core"
	"sprite/internal/fs"
	"sprite/internal/sim"
)

// mb is one megabyte.
const mb = 1 << 20

// workerCfg is the standard test process image.
func workerCfg(heapPages int) core.ProcConfig {
	return core.ProcConfig{
		Binary:     "/bin/prog",
		CodePages:  8,
		HeapPages:  heapPages,
		StackPages: 2,
	}
}

// runProgram boots prog as one process on c's first workstation, runs the
// cluster until it drains, and captures its metrics in t under label.
func runProgram(cfg Config, t *Table, label string, c *core.Cluster, name string, prog core.Program, pc core.ProcConfig) error {
	c.Boot("boot", func(env *sim.Env) error {
		p, err := c.Workstation(0).StartProcess(env, name, prog, pc)
		if err != nil {
			return err
		}
		_, err = p.Exited().Wait(env)
		return err
	})
	if err := c.Run(0); err != nil {
		return err
	}
	t.CaptureMetrics(cfg, label, c)
	return nil
}

// measureMigration runs one migration with the given open files and a heap
// of residentPages, the first dirtyPages of them written, and returns its
// record and the time to touch the resident set back in on the target. When
// cfg.Metrics is set the cluster's snapshot lands in t under the given label.
func measureMigration(cfg Config, t *Table, label string, strategy core.TransferStrategy, files, residentPages, dirtyPages int) (core.MigrationRecord, time.Duration, error) {
	c, err := cfg.cluster(cfg.Seed, 2, 1, nil, progBinary)
	if err != nil {
		return core.MigrationRecord{}, 0, err
	}
	c.SetStrategyAll(strategy)
	heapPages := residentPages
	if heapPages < 8 {
		heapPages = 8
	}
	for i := 0; i < files; i++ {
		if err := c.Seed(fmt.Sprintf("/data/f%d", i), []byte("file contents")); err != nil {
			return core.MigrationRecord{}, 0, err
		}
	}
	dst := c.Workstation(1)
	var resume time.Duration
	if err := runProgram(cfg, t, label, c, "subject", func(ctx *core.Ctx) error {
		for i := 0; i < files; i++ {
			path := fmt.Sprintf("/data/f%d", i)
			if _, err := ctx.Open(path, fs.ReadMode, fs.OpenOptions{}); err != nil {
				return err
			}
		}
		if residentPages > dirtyPages {
			if err := ctx.TouchHeap(0, residentPages, false); err != nil {
				return err
			}
		}
		if dirtyPages > 0 {
			if err := ctx.TouchHeap(0, dirtyPages, true); err != nil {
				return err
			}
		}
		if err := ctx.Migrate(dst.Host()); err != nil {
			return err
		}
		// Resume cost: touch the working set back in on the target.
		t0 := ctx.Now()
		if residentPages > 0 {
			if err := ctx.TouchHeap(0, residentPages, false); err != nil {
				return err
			}
		}
		resume = ctx.Now() - t0
		return nil
	}, workerCfg(heapPages)); err != nil {
		return core.MigrationRecord{}, 0, err
	}
	recs := c.MigrationRecords()
	if len(recs) != 1 {
		return core.MigrationRecord{}, 0, fmt.Errorf("expected 1 migration, got %d", len(recs))
	}
	return recs[0], resume, nil
}

// E1MigrationBreakdown reproduces the migration-time component breakdown:
// a fixed base (handshake + PCB), a per-open-file cost, and a per-megabyte
// dirty-VM cost.
func E1MigrationBreakdown(cfg Config) (*Table, error) {
	t := &Table{
		ID:       "E1",
		Title:    "Migration time by component (Sprite flush strategy)",
		PaperRef: "thesis Ch. 7: cost of migration vs open files and dirty VM",
		Columns:  []string{"open files", "dirty MB", "total ms", "vm ms", "files ms", "pcb ms"},
	}
	pageSize := cfg.params().VM.PageSize
	fileSweep := []int{0, 2, 4, 8}
	vmSweep := []int{0, 1, 2, 4, 8}
	if cfg.Quick {
		fileSweep = []int{0, 4}
		vmSweep = []int{0, 4}
	}
	type key struct{ f, m int }
	totals := make(map[key]time.Duration)
	for _, f := range fileSweep {
		for _, m := range vmSweep {
			rec, _, err := measureMigration(cfg, t, fmt.Sprintf("files=%d dirtyMB=%d", f, m),
				core.SpriteFlushStrategy{}, f, m*mb/pageSize, m*mb/pageSize)
			if err != nil {
				return nil, err
			}
			totals[key{f, m}] = rec.Total
			t.AddRow(
				fmt.Sprintf("%d", f),
				fmt.Sprintf("%d", m),
				ms(rec.Total), ms(rec.VMTime), ms(rec.FileTime), ms(rec.PCBTime),
			)
		}
	}
	base := totals[key{fileSweep[0], vmSweep[0]}]
	fMax, mMax := fileSweep[len(fileSweep)-1], vmSweep[len(vmSweep)-1]
	perFile := (totals[key{fMax, vmSweep[0]}] - base) / time.Duration(fMax)
	perMB := (totals[key{fileSweep[0], mMax}] - base) / time.Duration(mMax)
	t.AddNote("base (no files, no dirty VM): %s ms; per open file: %s ms; per dirty MB: %s ms",
		ms(base), ms(perFile), ms(perMB))
	t.AddNote("paper shape: total = base + k1*files + k2*dirtyMB; migration cost dominated by dirty VM for large processes")
	return t, nil
}

// E2RemoteExec reproduces the exec-time migration comparison: remote exec
// moves no VM, so its cost is close to a local fork+exec plus the transfer
// of the PCB and arguments.
func E2RemoteExec(cfg Config) (*Table, error) {
	t := &Table{
		ID:       "E2",
		Title:    "Remote exec (exec-time migration) vs local fork+exec",
		PaperRef: "thesis Ch. 4/7: migration at exec time avoids VM transfer",
		Columns:  []string{"variant", "arg KB", "time ms"},
	}
	argSweep := []int{0, 4, 16, 64}
	if cfg.Quick {
		argSweep = []int{0, 16}
	}
	measure := func(remote bool, argKB int) (time.Duration, error) {
		c, err := cfg.cluster(cfg.Seed, 2, 1, nil, progBinary)
		if err != nil {
			return 0, err
		}
		variant := "local"
		if remote {
			variant = "remote"
		}
		dst := c.Workstation(1)
		var elapsed time.Duration
		args := []string{string(make([]byte, argKB*1024))}
		if err := runProgram(cfg, t, fmt.Sprintf("%s argKB=%d", variant, argKB), c, "sh", func(ctx *core.Ctx) error {
			cfgP := workerCfg(8)
			cfgP.Args = args
			prog := func(cc *core.Ctx) error { return cc.Exit(0) }
			t0 := ctx.Now()
			var child *core.Process
			var err error
			if remote {
				child, err = ctx.ForkRemoteExec("job", prog, cfgP, dst.Host())
			} else {
				child, err = ctx.Fork("job", func(cc *core.Ctx) error {
					return cc.Exec("job", prog, cfgP)
				}, core.ProcConfig{})
			}
			if err != nil {
				return err
			}
			if _, err := child.Exited().Wait(ctx.Env()); err != nil {
				return err
			}
			elapsed = ctx.Now() - t0
			return nil
		}, workerCfg(8)); err != nil {
			return 0, err
		}
		return elapsed, nil
	}
	for _, kb := range argSweep {
		local, err := measure(false, kb)
		if err != nil {
			return nil, err
		}
		remote, err := measure(true, kb)
		if err != nil {
			return nil, err
		}
		t.AddRow("local fork+exec", fmt.Sprintf("%d", kb), ms(local))
		t.AddRow("remote exec", fmt.Sprintf("%d", kb), ms(remote))
	}
	t.AddNote("paper shape: remote exec costs a small constant more than local exec (PCB + args over the wire), independent of address-space size")
	return t, nil
}

// E3VMStrategies reproduces the strategy comparison figure: total time,
// freeze time, and time to touch the working set back in after migration,
// as the dirty address space grows.
func E3VMStrategies(cfg Config) (*Table, error) {
	t := &Table{
		ID:       "E3",
		Title:    "VM transfer strategies vs address-space size",
		PaperRef: "thesis Ch. 2/4: Sprite flush vs full copy (LOCUS/Charlotte), copy-on-reference (Accent), pre-copy (V)",
		Columns:  []string{"strategy", "dirty MB", "total ms", "freeze ms", "resume ms", "residual"},
	}
	pageSize := cfg.params().VM.PageSize
	sizes := []int{1, 2, 4, 8, 16}
	if cfg.Quick {
		sizes = []int{1, 4}
	}
	strategies := []core.TransferStrategy{
		core.SpriteFlushStrategy{},
		core.FullCopyStrategy{},
		core.CopyOnReferenceStrategy{},
		core.PreCopyStrategy{RedirtyPagesPerSec: 50},
	}
	for _, s := range strategies {
		for _, m := range sizes {
			rec, resume, err := measureMigration(cfg, t, fmt.Sprintf("%s dirtyMB=%d", s.Name(), m),
				s, 1, m*mb/pageSize, m*mb/pageSize)
			if err != nil {
				return nil, err
			}
			t.AddRow(
				s.Name(),
				fmt.Sprintf("%d", m),
				ms(rec.Total), ms(rec.Freeze), ms(resume),
				fmt.Sprintf("%v", rec.Residual),
			)
		}
	}
	t.AddNote("paper shape: copy-on-reference migrates almost instantly but pays on every later fault and leaves a residual dependency; pre-copy shortens freeze at the cost of extra copying; Sprite's flush bounds work by dirty pages and depends only on the file server")
	return t, nil
}

// E4Forwarding reproduces the kernel-call handling comparison: calls that
// execute locally cost the same at home and away; calls forwarded home pay
// a network round trip.
func E4Forwarding(cfg Config) (*Table, error) {
	t := &Table{
		ID:       "E4",
		Title:    "Kernel-call cost at home vs migrated (forwarding)",
		PaperRef: "thesis Ch. 4 + Appendix A: location-dependent calls are forwarded to the home machine",
		Columns:  []string{"call", "policy", "home us", "away us", "ratio"},
	}
	c, err := cfg.cluster(cfg.Seed, 2, 1, nil, progBinary)
	if err != nil {
		return nil, err
	}
	if err := c.Seed("/data/f", []byte("0123456789abcdef")); err != nil {
		return nil, err
	}
	dst := c.Workstation(1)
	type probe struct {
		name   string
		policy core.HandlingPolicy
		run    func(ctx *core.Ctx) error
	}
	probes := []probe{
		{"getpid", core.PolicyLocal, func(ctx *core.Ctx) error {
			_, err := ctx.GetPID()
			return err
		}},
		{"gettimeofday", core.PolicyHome, func(ctx *core.Ctx) error {
			_, err := ctx.GetTimeOfDay()
			return err
		}},
		{"gethostname", core.PolicyHome, func(ctx *core.Ctx) error {
			_, err := ctx.GetHostname()
			return err
		}},
		{"open+close", core.PolicyFile, func(ctx *core.Ctx) error {
			fd, err := ctx.Open("/data/f", fs.ReadMode, fs.OpenOptions{})
			if err != nil {
				return err
			}
			return ctx.Close(fd)
		}},
	}
	iters := 20
	if cfg.Quick {
		iters = 5
	}
	home := make([]time.Duration, len(probes))
	away := make([]time.Duration, len(probes))
	if err := runProgram(cfg, t, "pair", c, "probe", func(ctx *core.Ctx) error {
		for i, pr := range probes {
			t0 := ctx.Now()
			for n := 0; n < iters; n++ {
				if err := pr.run(ctx); err != nil {
					return err
				}
			}
			home[i] = (ctx.Now() - t0) / time.Duration(iters)
		}
		if err := ctx.Migrate(dst.Host()); err != nil {
			return err
		}
		for i, pr := range probes {
			t0 := ctx.Now()
			for n := 0; n < iters; n++ {
				if err := pr.run(ctx); err != nil {
					return err
				}
			}
			away[i] = (ctx.Now() - t0) / time.Duration(iters)
		}
		return nil
	}, workerCfg(8)); err != nil {
		return nil, err
	}
	for i, pr := range probes {
		ratio := float64(away[i]) / float64(home[i])
		t.AddRow(
			pr.name,
			pr.policy.String(),
			fmt.Sprintf("%.0f", float64(home[i])/float64(time.Microsecond)),
			fmt.Sprintf("%.0f", float64(away[i])/float64(time.Microsecond)),
			fmt.Sprintf("%.1fx", ratio),
		)
	}
	t.AddNote("paper shape: local and file-system calls are location independent; home-forwarded calls pay roughly an RPC round trip (~ms-scale vs us-scale)")
	return t, nil
}
