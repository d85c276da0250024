package experiments

import (
	"fmt"
	"time"

	"sprite/internal/core"
	"sprite/internal/fleet"
	"sprite/internal/hostsel"
	"sprite/internal/recovery"
	"sprite/internal/sim"
)

// E18 measures the fleet-management plane (internal/fleet, DESIGN.md §15)
// as an economy: checkpointed jobs harvest idle hosts while eviction
// storms, flapping hosts, correlated rack failures, and operator cordons
// hit the pool, and the controller cordons, drains, remediates, and
// readmits around them. The claim of the plane is that storms cost
// goodput latency, never jobs — every host comes back, so a lost job is a
// control-plane bug, not weather.

// e18Storm is one storm intensity, scaled to the fleet size at run time.
type e18Storm struct {
	name    string
	bursts  int // eviction waves (owners return on a band of hosts)
	flaps   int // single-host power cycles
	racks   int // correlated band failures (crash together, restart together)
	cordons int // operator cordons: full drain/remediate/readmit cycles
}

// e18Intensities orders the sweep from calm to hurricane. Calm still
// drains one host so drain latency is measured at every point.
var e18Intensities = []e18Storm{
	{name: "calm", cordons: 1},
	{name: "squall", bursts: 2, flaps: 1, cordons: 2},
	{name: "storm", bursts: 4, flaps: 2, racks: 1, cordons: 3},
	{name: "hurricane", bursts: 6, flaps: 4, racks: 2, cordons: 4},
}

// e18Row is one (intensity, fleet size) measurement; the rows are the
// table's Data (the FLEET_storms.json CI artifact), gated by
// TestFleetEconomyGate.
type e18Row struct {
	Intensity       string  `json:"intensity"`
	Hosts           int     `json:"hosts"`
	Jobs            int     `json:"jobs"`
	JobsDone        int     `json:"jobs_done"`
	JobsLost        int     `json:"jobs_lost"`
	Goodput         float64 `json:"goodput"` // done / submitted
	MeanJobMs       float64 `json:"mean_job_ms"`
	Cordons         int64   `json:"cordons"`
	DrainsStarted   int64   `json:"drains_started"`
	DrainsCompleted int64   `json:"drains_completed"`
	Remediations    int64   `json:"remediations"`
	Readmissions    int64   `json:"readmissions"`
	Migrated        int64   `json:"migrated"`
	Evacuated       int64   `json:"evacuated"`
	DrainMeanMs     float64 `json:"drain_mean_ms"`
	DrainMaxMs      float64 `json:"drain_max_ms"`
}

// e18Point runs one storm intensity over one fleet size.
func e18Point(cfg Config, t *Table, storm e18Storm, n, jobs int) (*e18Row, error) {
	// A compressed idle threshold keeps the harvesting loop inside a short
	// virtual horizon: hosts advertise as idle after 150ms without input,
	// so placement spreads jobs across the pool before the storms land.
	c, err := cfg.cluster(cfg.Seed+int64(n), n, 1, func(p *core.Params) { p.IdleInputAge = 150 * time.Millisecond }, binary{"/bin/job", 64 << 10})
	if err != nil {
		return nil, err
	}

	mon := recovery.NewMonitor(c, recovery.Params{
		Interval:      50 * time.Millisecond,
		FailThreshold: 2,
	})
	sup := recovery.NewSupervisor(c, mon, recovery.SupervisorParams{
		MaxRestarts:     12,
		CheckpointEvery: 20 * time.Millisecond,
		Dir:             "/ckpt",
	})
	m := fleet.New(c, fleet.Params{
		Tick:             25 * time.Millisecond,
		CordonThreshold:  55,
		CordonGrace:      50 * time.Millisecond,
		DrainPassTimeout: 50 * time.Millisecond,
		CleanProbes:      2,
		HalfLife:         100 * time.Millisecond,
	})
	m.SetMonitor(mon)
	m.SetSupervisor(sup)

	// The gossip selector is both drain-target source and health input:
	// its eviction hints feed the manager's per-host signals, and the
	// wrapped selector keeps placement off hosts that are not Active.
	gp := hostsel.DefaultProbabilisticParams()
	gp.Interval = 100 * time.Millisecond
	// The supervisor holds a placement claim for each incarnation and never
	// releases it; a short lease lets those claims expire instead of
	// leaking, while still spreading placements (a claimed host refuses
	// further claims until the lease runs out).
	gp.ClaimLease = 1500 * time.Millisecond
	gossip := hostsel.NewProbabilistic(c, gp)
	ledger := hostsel.NewClaimLedger(gossip, c, gp.ClaimLease)
	ledger.Register(c)
	sel := m.WrapSelector(ledger)
	m.SetSelector(sel)
	m.WatchGossip(gossip)
	sup.SetSelector(sel)
	c.Boot("gossipd", func(env *sim.Env) error {
		gossip.StartDaemons(env)
		return nil
	})

	mon.Start()
	m.Start()

	// Storm scheduler. Host 0 is the safety band — the jobs' home and the
	// submit origin stay up so a lost job is always a control-plane bug;
	// bands rotate through the rest of the fleet.
	const safety = 1
	burstSpan := max(2, n/10)
	rackSpan := max(2, n/20)
	bandAt := func(i, span int) []int {
		base := safety + (i*span)%(n-safety)
		out := make([]int, 0, span)
		for j := 0; j < span; j++ {
			out = append(out, safety+(base-safety+j)%(n-safety))
		}
		return out
	}
	c.Boot("storm", func(env *sim.Env) error {
		// Jobs are submitted at 700ms; the storm starts once they are
		// spread across the pool.
		if err := env.Sleep(time.Second); err != nil {
			return err
		}
		// Operators cordon the busiest hosts first: the machines owners
		// want back are exactly the ones running guest work, so drains
		// have residents to migrate or evacuate.
		var busy []int
		for w := safety; w < n; w++ {
			k := c.Workstation(w)
			if c.HostDown(k.Host()) {
				continue
			}
			for _, p := range k.Processes() {
				if p.State() != core.StateExited {
					busy = append(busy, w)
					break
				}
			}
		}
		for i := 0; i < storm.cordons; i++ {
			w := safety + (i*5)%(n-safety)
			if i < len(busy) {
				w = busy[i]
			}
			m.Cordon(env, c.Workstation(w).Host(), "operator")
		}
		for i := 0; i < storm.bursts; i++ {
			if err := env.Sleep(80 * time.Millisecond); err != nil {
				return err
			}
			for _, w := range bandAt(i, burstSpan) {
				k := c.Workstation(w)
				if c.HostDown(k.Host()) {
					continue
				}
				k.NoteInput(env.Now())
				_ = k.EvictAll(env)
			}
		}
		for i := 0; i < storm.flaps; i++ {
			if err := env.Sleep(60 * time.Millisecond); err != nil {
				return err
			}
			h := c.Workstation(safety + (i*11)%(n-safety)).Host()
			if !c.HostDown(h) {
				c.Reboot(env, h)
			}
		}
		for i := 0; i < storm.racks; i++ {
			if err := env.Sleep(80 * time.Millisecond); err != nil {
				return err
			}
			band := bandAt(i+1, rackSpan)
			for _, w := range band {
				if h := c.Workstation(w).Host(); !c.HostDown(h) {
					c.CrashHost(env, h)
				}
			}
			if err := env.Sleep(120 * time.Millisecond); err != nil {
				return err
			}
			for _, w := range band {
				if h := c.Workstation(w).Host(); c.HostDown(h) {
					c.RestartHost(env, h)
				}
			}
		}
		return nil
	})

	jobCfg := core.ProcConfig{Binary: "/bin/job", CodePages: 8, HeapPages: 16, StackPages: 2}
	done := 0
	var jobLatency time.Duration
	c.Boot("jobs", func(env *sim.Env) error {
		type sub struct {
			h  *recovery.Handle
			at time.Duration
		}
		var subs []sub
		// Wait out the idle threshold plus a few gossip rounds so the
		// selector already knows the idle pool at submit time — otherwise
		// every job dogpiles the supervisor's fallback host.
		if err := env.Sleep(700 * time.Millisecond); err != nil {
			return err
		}
		for i := 0; i < jobs; i++ {
			h, err := sup.Submit(env, fmt.Sprintf("job%d", i), jobCfg,
				recovery.ComputeJob(600*time.Millisecond, 10*time.Millisecond))
			if err != nil {
				return fmt.Errorf("submit job%d: %w", i, err)
			}
			subs = append(subs, sub{h, env.Now()})
			if err := env.Sleep(10 * time.Millisecond); err != nil {
				return err
			}
		}
		for _, s := range subs {
			if _, err := s.h.Done().Wait(env); err != nil {
				if err != recovery.ErrJobLost {
					return fmt.Errorf("join %s: %w", s.h.Name(), err)
				}
				continue
			}
			done++
			jobLatency += env.Now() - s.at
		}
		// Let in-flight drains, remediations, and readmissions settle, and
		// outlive the claim lease so the last incarnation's placement claim
		// expires, before unwinding the planes.
		if err := env.Sleep(2 * time.Second); err != nil {
			return err
		}
		gossip.Stop()
		mon.Stop()
		sup.Stop()
		m.Stop()
		return nil
	})

	if err := c.Run(10 * time.Minute); err != nil {
		return nil, fmt.Errorf("E18 %s hosts=%d: %w", storm.name, n, err)
	}
	if live := c.Sim().LiveActivities(); live > 0 {
		return nil, fmt.Errorf("E18 %s hosts=%d: %d activities still live", storm.name, n, live)
	}
	if viol := c.CheckInvariants(true); len(viol) > 0 {
		return nil, fmt.Errorf("E18 %s hosts=%d: invariants violated: %v", storm.name, n, viol)
	}
	t.CaptureMetrics(cfg, fmt.Sprintf("%s hosts=%d", storm.name, n), c)

	snap := c.MetricsSnapshot()
	row := &e18Row{
		Intensity:       storm.name,
		Hosts:           n,
		Jobs:            jobs,
		JobsDone:        done,
		JobsLost:        len(sup.Lost()),
		Goodput:         float64(done) / float64(jobs),
		Cordons:         snap.Counters["fleet.cordons"],
		DrainsStarted:   snap.Counters["fleet.drains.started"],
		DrainsCompleted: snap.Counters["fleet.drains.completed"],
		Remediations:    snap.Counters["fleet.remediations"],
		Readmissions:    snap.Counters["fleet.readmissions"],
		Migrated:        snap.Counters["fleet.procs.migrated"],
		Evacuated:       snap.Counters["fleet.procs.evacuated"],
	}
	if done > 0 {
		row.MeanJobMs = float64(jobLatency/time.Duration(done)) / float64(time.Millisecond)
	}
	if dt, ok := snap.Timings["fleet.drain_latency"]; ok && dt.N > 0 {
		row.DrainMeanMs = float64(dt.Sum/time.Duration(dt.N)) / float64(time.Millisecond)
		row.DrainMaxMs = float64(dt.Max) / float64(time.Millisecond)
	}
	return row, nil
}

// E18FleetEconomy sweeps storm intensity over the fleet sizes and scores
// the pool manager on goodput (jobs completed over jobs submitted), jobs
// lost, and drain latency. The paper's harvesting story (Ch. 5: evict on
// owner return) becomes an economy here: the health plane scores each
// host, placement skips cordoned and draining hosts, and drains convert
// owner pressure into migrations and checkpoint relaunches instead of
// lost work.
func E18FleetEconomy(cfg Config) (*Table, error) {
	t := &Table{
		ID:       "E18",
		Title:    "Fleet economy under eviction storms: goodput, jobs lost, drain latency",
		PaperRef: "thesis Ch. 5 harvesting revisited: cordon/drain/remediate/readmit around storms",
		Columns:  []string{"intensity", "hosts", "jobs", "done", "lost", "goodput", "mean job ms", "drains", "remediated", "readmitted", "moved", "evac", "drain mean ms"},
	}
	sizes := []int{100, 1000}
	if cfg.Quick {
		sizes = []int{24}
	}
	if cfg.Hosts > 0 {
		sizes = []int{cfg.Hosts}
	}
	var rows []*e18Row
	for _, n := range sizes {
		jobs := max(6, n/50)
		for _, storm := range e18Intensities {
			row, err := e18Point(cfg, t, storm, n, jobs)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
			t.AddRow(row.Intensity, fmt.Sprintf("%d", row.Hosts),
				fmt.Sprintf("%d", row.Jobs), fmt.Sprintf("%d", row.JobsDone),
				fmt.Sprintf("%d", row.JobsLost),
				fmt.Sprintf("%.2f", row.Goodput),
				fmt.Sprintf("%.1f", row.MeanJobMs),
				fmt.Sprintf("%d/%d", row.DrainsCompleted, row.DrainsStarted),
				fmt.Sprintf("%d", row.Remediations),
				fmt.Sprintf("%d", row.Readmissions),
				fmt.Sprintf("%d", row.Migrated),
				fmt.Sprintf("%d", row.Evacuated),
				fmt.Sprintf("%.1f", row.DrainMeanMs))
		}
	}
	t.AddNote("every host comes back in this schedule, so goodput stays 1.00 at every intensity: storms cost job latency (checkpoint relaunches, migrations), never jobs")
	t.Data = rows
	return t, nil
}
