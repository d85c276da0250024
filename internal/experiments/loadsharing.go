package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"sprite/internal/core"
	"sprite/internal/hostsel"
	"sprite/internal/metrics"
	"sprite/internal/pmake"
	"sprite/internal/rpc"
	"sprite/internal/sim"
	"sprite/internal/workload"
)

// runPmakeOn builds a fresh cluster with the given number of usable hosts
// (its calibration adjusted by tune when non-nil) and runs one synthetic
// project across them, capturing metrics into t when enabled.
func runPmakeOn(cfg Config, t *Table, label string, hosts int, proj pmake.ProjectParams, tune func(*core.Params)) (*pmake.Result, time.Duration, error) {
	c, err := cfg.cluster(cfg.Seed, hosts, 1, tune, binary{"/bin/cc", 256 << 10}, binary{"/bin/pmake", 256 << 10})
	if err != nil {
		return nil, 0, err
	}
	mf, err := pmake.SyntheticProject(c, rand.New(rand.NewSource(cfg.Seed)), proj)
	if err != nil {
		return nil, 0, err
	}
	var remote []rpc.HostID
	for _, k := range c.Workstations()[1:] {
		remote = append(remote, k.Host())
	}
	var res *pmake.Result
	if err := runProgram(cfg, t, label, c, "pmake", func(ctx *core.Ctx) error {
		r, err := pmake.Run(ctx, mf, pmake.Options{Force: true, Hosts: remote, LocalJobs: 1})
		res = r
		return err
	}, core.ProcConfig{Binary: "/bin/pmake", CodePages: 8, HeapPages: 16, StackPages: 2}); err != nil {
		return nil, 0, err
	}
	return res, c.Servers()[0].CPUBusy(), nil
}

// E5PmakeSpeedup reproduces the pmake speedup curve: speedup grows with
// hosts but flattens as the file server saturates and the sequential link
// dominates (Amdahl).
func E5PmakeSpeedup(cfg Config) (*Table, error) {
	t := &Table{
		ID:       "E5",
		Title:    "pmake speedup vs number of hosts",
		PaperRef: "thesis Ch. 7: 12-way parallel compilation; speedups of 3.5-12 in related systems, limited by server load",
		Columns:  []string{"hosts", "makespan s", "speedup", "server busy s"},
	}
	proj := pmake.DefaultProjectParams()
	sweep := []int{1, 2, 4, 8, 12, 16}
	if cfg.Quick {
		sweep = []int{1, 4, 8}
		proj.Units = 12
		proj.CompileCPU = 2 * time.Second
		proj.LinkCPU = 3 * time.Second
	}
	var base time.Duration
	for _, h := range sweep {
		res, serverBusy, err := runPmakeOn(cfg, t, fmt.Sprintf("hosts=%d", h), h, proj, nil)
		if err != nil {
			return nil, err
		}
		if base == 0 {
			base = res.Makespan
		}
		t.AddRow(
			fmt.Sprintf("%d", h),
			secs(res.Makespan),
			fmt.Sprintf("%.2f", float64(base)/float64(res.Makespan)),
			secs(serverBusy),
		)
	}
	t.AddNote("paper shape: near-linear speedup for few hosts, flattening near 10-16 hosts as the sequential link and file-server name lookups dominate")
	return t, nil
}

// E6Utilization reproduces the effective-utilization comparison: a batch
// of independent simulations keeps many processors busy (~800%), while a
// 12-way pmake is capped (~300%) by its sequential phase and server
// contention.
func E6Utilization(cfg Config) (*Table, error) {
	t := &Table{
		ID:       "E6",
		Title:    "Effective processor utilization by workload",
		PaperRef: "thesis Ch. 7: 100 independent simulations >800% vs ~300% for 12-way pmake",
		Columns:  []string{"workload", "jobs", "hosts", "cpu-time s", "makespan s", "utilization %"},
	}
	hosts := 13
	simJobs := 60
	simCPU := 30 * time.Second
	proj := pmake.DefaultProjectParams()
	if cfg.Quick {
		simJobs = 12
		simCPU = 5 * time.Second
		proj.Units = 12
		proj.CompileCPU = 2 * time.Second
	}

	// Independent simulations fanned out over idle hosts.
	c, err := cfg.cluster(cfg.Seed, hosts, 1, nil, binary{"/bin/sim", 256 << 10})
	if err != nil {
		return nil, err
	}
	var makespan time.Duration
	if err := runProgram(cfg, t, "independent-simulations", c, "driver", func(ctx *core.Ctx) error {
		ws := c.Workstations()
		t0 := ctx.Now()
		started := 0
		running := 0
		for started < simJobs || running > 0 {
			for started < simJobs && running < len(ws) {
				target := ws[started%len(ws)]
				cfgP := core.ProcConfig{Binary: "/bin/sim", CodePages: 8, HeapPages: 64, StackPages: 2}
				prog := func(cc *core.Ctx) error {
					if err := cc.TouchHeap(0, 64, true); err != nil {
						return err
					}
					return cc.Compute(simCPU)
				}
				var err error
				if target == ctx.Process().Current() {
					_, err = ctx.Fork("sim", prog, cfgP)
				} else {
					_, err = ctx.ForkRemoteExec("sim", prog, cfgP, target.Host())
				}
				if err != nil {
					return err
				}
				started++
				running++
			}
			if _, _, err := ctx.Wait(); err != nil {
				return err
			}
			running--
		}
		makespan = ctx.Now() - t0
		return nil
	}, core.ProcConfig{Binary: "/bin/sim", CodePages: 4, HeapPages: 8, StackPages: 2}); err != nil {
		return nil, err
	}
	simTotalCPU := time.Duration(simJobs) * simCPU
	simUtil := float64(simTotalCPU) / float64(makespan) * 100
	t.AddRow("independent simulations", fmt.Sprintf("%d", simJobs), fmt.Sprintf("%d", hosts),
		secs(simTotalCPU), secs(makespan), fmt.Sprintf("%.0f", simUtil))

	// 12-way pmake on the same cluster size.
	res, _, err := runPmakeOn(cfg, t, "parallel-compilation", hosts, proj, nil)
	if err != nil {
		return nil, err
	}
	pmakeUtil := float64(res.TotalJobCPU) / float64(res.Makespan) * 100
	t.AddRow("parallel compilation", fmt.Sprintf("%d", res.Jobs), fmt.Sprintf("%d", hosts),
		secs(res.TotalJobCPU), secs(res.Makespan), fmt.Sprintf("%.0f", pmakeUtil))
	t.AddNote("paper shape: independent long jobs achieve several times the effective utilization of a dependency-limited build")
	return t, nil
}

// newMigd is the central host-selection server, migd, on the first file
// server at its default CPU cost.
func newMigd(c *core.Cluster) *hostsel.Central {
	return hostsel.NewCentral(c, rpc.HostID(1), hostsel.DefaultCentralParams())
}

// selectors builds all four host-selection architectures on c (central,
// shared file, gossip, multicast) and returns them with the claim lease
// the gossip selector was built with.
func selectors(c *core.Cluster) ([]hostsel.Selector, time.Duration, error) {
	sf, err := hostsel.NewSharedFile(c, "")
	if err != nil {
		return nil, 0, err
	}
	probParams := hostsel.DefaultProbabilisticParams()
	sels := []hostsel.Selector{
		newMigd(c),
		sf,
		hostsel.NewProbabilistic(c, probParams),
		hostsel.NewMulticast(c),
	}
	return sels, probParams.ClaimLease, nil
}

// E7SelectionLatency reproduces the select+release latency measurement
// (56 ms for migd on DECstations) across the four architectures.
func E7SelectionLatency(cfg Config) (*Table, error) {
	t := &Table{
		ID:       "E7",
		Title:    "Host selection: request+release latency on an idle cluster",
		PaperRef: "thesis Ch. 6: migd select+release measured at 56 ms [DO91]",
		Columns:  []string{"architecture", "mean ms", "p95 ms", "messages/op"},
	}
	hosts := 16
	iters := 20
	if cfg.Quick {
		hosts = 8
		iters = 5
	}
	c, err := cfg.cluster(cfg.Seed, hosts, 1, nil)
	if err != nil {
		return nil, err
	}
	sels, _, err := selectors(c)
	if err != nil {
		return nil, err
	}
	type row struct {
		name   string
		sample metrics.Sample
		msgs   uint64
	}
	rows := make([]*row, len(sels))
	c.Boot("boot", func(env *sim.Env) error {
		if err := env.Sleep(time.Minute); err != nil { // all hosts go idle
			return err
		}
		client := c.Workstation(0).Host()
		for i, sel := range sels {
			if p, ok := sel.(*hostsel.Probabilistic); ok {
				p.StartDaemons(env)
				if err := env.Sleep(15 * time.Second); err != nil {
					return err
				}
			}
			for _, k := range c.Workstations() {
				if err := sel.NotifyAvailability(env, k.Host(), k.Available(env.Now())); err != nil {
					return err
				}
			}
			r := &row{name: sel.Name()}
			before := sel.Stats().Messages
			for n := 0; n < iters; n++ {
				t0 := env.Now()
				got, err := sel.RequestHosts(env, client, 1)
				if err != nil {
					return err
				}
				if err := sel.Release(env, client, got); err != nil {
					return err
				}
				r.sample.AddDuration(env.Now() - t0)
			}
			r.msgs = (sel.Stats().Messages - before) / uint64(iters)
			rows[i] = r
			if p, ok := sel.(*hostsel.Probabilistic); ok {
				p.Stop()
			}
		}
		return nil
	})
	if err := c.Run(30 * time.Minute); err != nil {
		return nil, err
	}
	c.Stop()
	_ = c.Run(0)
	t.CaptureMetrics(cfg, "idle-cluster", c)
	for _, r := range rows {
		if r == nil {
			continue
		}
		t.AddRow(r.name,
			fmt.Sprintf("%.1f", r.sample.Mean()*1000),
			fmt.Sprintf("%.1f", r.sample.Percentile(95)*1000),
			fmt.Sprintf("%d", r.msgs))
	}
	t.AddNote("paper shape: selection latency is tens of ms for the central server — negligible against the work exported; multicast disturbs every host per request")
	return t, nil
}

// E8SelectionArchitectures reproduces the Table 6.2 comparison under churn:
// messages generated, conflicts from stale state, and grant latency as the
// cluster scales.
func E8SelectionArchitectures(cfg Config) (*Table, error) {
	t := &Table{
		ID:       "E8",
		Title:    "Selection architectures under availability churn",
		PaperRef: "thesis Table 6.2: centralized vs shared-file vs distributed vs multicast",
		Columns:  []string{"architecture", "hosts", "msgs/min", "conflicts", "granted", "mean latency ms"},
	}
	sizes := []int{8, 16, 32}
	duration := 10 * time.Minute
	if cfg.Quick {
		sizes = []int{8}
		duration = 3 * time.Minute
	}
	for _, n := range sizes {
		for which := 0; which < 4; which++ {
			c, err := cfg.cluster(cfg.Seed+int64(which), n, 1, nil)
			if err != nil {
				return nil, err
			}
			sels, _, err := selectors(c)
			if err != nil {
				return nil, err
			}
			sel := sels[which]
			profile := workload.DefaultDayProfile()
			profile.SessionMean = 2 * time.Minute // brisk churn
			users := workload.NewUserPool(c, profile, sel.NotifyAvailability)
			var sample metrics.Sample
			c.Boot("boot", func(env *sim.Env) error {
				users.Start(env)
				if p, ok := sel.(*hostsel.Probabilistic); ok {
					p.StartDaemons(env)
				}
				if err := env.Sleep(time.Minute); err != nil {
					return err
				}
				// Three clients compete for hosts: races between them are
				// what exposes stale distributed state as conflicts.
				requesters := 3
				wg := sim.NewWaitGroup()
				wg.Add(requesters)
				for r := 0; r < requesters; r++ {
					client := c.Workstation(r).Host()
					env.Spawn(fmt.Sprintf("requester-%d", r), func(renv *sim.Env) error {
						defer wg.Done()
						end := renv.Now() + duration
						for renv.Now() < end {
							t0 := renv.Now()
							got, err := sel.RequestHosts(renv, client, 2)
							if err != nil {
								return err
							}
							sample.AddDuration(renv.Now() - t0)
							if err := renv.Sleep(2 * time.Second); err != nil {
								return err
							}
							if err := sel.Release(renv, client, got); err != nil {
								return err
							}
							if err := renv.Sleep(2 * time.Second); err != nil {
								return err
							}
						}
						return nil
					})
				}
				if err := wg.Wait(env); err != nil {
					return err
				}
				users.Stop()
				if p, ok := sel.(*hostsel.Probabilistic); ok {
					p.Stop()
				}
				return nil
			})
			if err := c.Run(duration + 5*time.Minute); err != nil {
				return nil, err
			}
			c.Stop()
			_ = c.Run(0)
			t.CaptureMetrics(cfg, fmt.Sprintf("%s hosts=%d", sel.Name(), n), c)
			st := sel.Stats()
			t.AddRow(sel.Name(), fmt.Sprintf("%d", n),
				fmt.Sprintf("%.0f", float64(st.Messages)/duration.Minutes()),
				fmt.Sprintf("%d", st.Conflicts),
				fmt.Sprintf("%d", st.Granted),
				fmt.Sprintf("%.1f", sample.Mean()*1000))
		}
	}
	t.AddNote("paper shape: central keeps message load modest with zero conflicts; shared-file pays file-server traffic per update; gossip trades messages for staleness (conflicts); multicast's per-request cost grows with cluster size")
	return t, nil
}
