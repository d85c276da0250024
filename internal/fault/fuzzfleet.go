package fault

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"sprite/internal/core"
	"sprite/internal/fleet"
	"sprite/internal/hostsel"
	"sprite/internal/metrics"
	"sprite/internal/recovery"
	"sprite/internal/rpc"
	"sprite/internal/sim"
)

// This file is the fleet-plane scenario family: seed-derived storms of
// owner returns (eviction bursts), flapping hosts (short reboots),
// correlated rack failures, and manual cordons, all mutating the fleet
// manager's drain schedule while checkpointed jobs run under it. The
// drain-safety audit (no resident lost, none double-placed, drained hosts
// end empty), the claim ledger when gossip rides along, and the
// zero-jobs-lost requirement are checked on every run. Like the base
// fuzzer, a scenario is a pure function of its seed.

// FleetEventKind enumerates the storm mutations.
type FleetEventKind int

// Storm mutation kinds.
const (
	// FleetEvictStorm: owners return on a band of hosts at once — input
	// notes, EvictAll, and pricer eviction observations.
	FleetEvictStorm FleetEventKind = iota
	// FleetFlap: one host power-cycles with no warning.
	FleetFlap
	// FleetRackFail: a contiguous band of hosts crashes together and
	// restarts together after Dur — the correlated-failure case gossip and
	// health scoring must survive.
	FleetRackFail
	// FleetCordon: an operator cordons a host by hand mid-storm.
	FleetCordon
)

func (k FleetEventKind) String() string {
	switch k {
	case FleetEvictStorm:
		return "evict-storm"
	case FleetFlap:
		return "flap"
	case FleetRackFail:
		return "rack-fail"
	case FleetCordon:
		return "cordon"
	default:
		return "?"
	}
}

// FleetEvent is one scheduled storm mutation. Host is a workstation index;
// Span widens storms and rack failures to a band [Host, Host+Span).
type FleetEvent struct {
	Kind FleetEventKind
	Host int
	Span int
	At   time.Duration
	Dur  time.Duration // rack-fail: restart delay
}

// FleetScenario is a complete, self-describing fleet fuzz case.
type FleetScenario struct {
	Seed  int64
	Hosts int
	Jobs  int
	// Gossip runs the real gossip selector (with the claim-ledger audit)
	// as the drain-target source and wires its eviction hints into the
	// manager's health plane; off, a deterministic harness selector stands
	// in so the drain machinery itself is isolated.
	Gossip bool
	Events []FleetEvent
}

// String renders the scenario compactly for failure reports.
func (sc FleetScenario) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fleet seed=%d hosts=%d jobs=%d gossip=%t", sc.Seed, sc.Hosts, sc.Jobs, sc.Gossip)
	for _, e := range sc.Events {
		fmt.Fprintf(&b, " [%v w%d+%d at=%v dur=%v]", e.Kind, e.Host, e.Span, e.At, e.Dur)
	}
	return b.String()
}

// GenFleetScenario derives a fleet scenario from a seed.
func GenFleetScenario(seed int64) FleetScenario {
	rng := rand.New(rand.NewSource(seed))
	sc := FleetScenario{
		Seed:   seed,
		Hosts:  4 + rng.Intn(5),
		Jobs:   2 + rng.Intn(3),
		Gossip: rng.Intn(3) == 0,
	}
	n := 2 + rng.Intn(4)
	for i := 0; i < n; i++ {
		e := FleetEvent{
			Kind: FleetEventKind(rng.Intn(4)),
			Host: rng.Intn(sc.Hosts),
			Span: 1,
			At:   time.Duration(30+rng.Intn(400)) * time.Millisecond,
			Dur:  time.Duration(40+rng.Intn(120)) * time.Millisecond,
		}
		switch e.Kind {
		case FleetEvictStorm:
			e.Span = 1 + rng.Intn(sc.Hosts/2+1)
		case FleetRackFail:
			// A rack is a contiguous band; keep at least one host out of it
			// so the monitor always has a live vantage.
			e.Span = 1 + rng.Intn(sc.Hosts/2)
			if e.Host+e.Span >= sc.Hosts {
				e.Host = sc.Hosts - e.Span - 1
				if e.Host < 0 {
					e.Host, e.Span = 0, sc.Hosts-1
				}
			}
		}
		sc.Events = append(sc.Events, e)
	}
	return sc
}

// fleetHarnessSel is the deterministic stand-in selector for non-gossip
// scenarios: live, non-withdrawn hosts in sorted host order.
type fleetHarnessSel struct {
	c     *core.Cluster
	avail map[int]bool // workstation index -> available
	order []int
	stats hostsel.Stats
}

var _ hostsel.Selector = (*fleetHarnessSel)(nil)

func newFleetHarnessSel(c *core.Cluster) *fleetHarnessSel {
	s := &fleetHarnessSel{c: c, avail: make(map[int]bool)}
	for i := range c.Workstations() {
		s.avail[i] = true
		s.order = append(s.order, i)
	}
	return s
}

func (s *fleetHarnessSel) Name() string { return "fleet-harness" }

func (s *fleetHarnessSel) RequestHosts(env *sim.Env, client rpc.HostID, n int) ([]rpc.HostID, error) {
	s.stats.Requests++
	var out []rpc.HostID
	for _, i := range s.order {
		h := s.c.Workstation(i).Host()
		if h == client || !s.avail[i] || s.c.HostDown(h) {
			continue
		}
		out = append(out, h)
		if len(out) == n {
			break
		}
	}
	if len(out) == 0 {
		s.stats.Denied++
		return nil, hostsel.ErrNoHosts
	}
	s.stats.Granted += uint64(len(out))
	return out, nil
}

func (s *fleetHarnessSel) Release(env *sim.Env, client rpc.HostID, hosts []rpc.HostID) error {
	return nil
}

func (s *fleetHarnessSel) NotifyAvailability(env *sim.Env, host rpc.HostID, available bool) error {
	for _, i := range s.order {
		if s.c.Workstation(i).Host() == host {
			s.avail[i] = available
		}
	}
	return nil
}

func (s *fleetHarnessSel) Stats() hostsel.Stats { return s.stats }

// runFleetScenario executes one fleet scenario under the chosen kernel and
// audits drain safety, lost jobs and every cluster invariant.
func runFleetScenario(sc FleetScenario, kc kernelCfg) *Result {
	h := newHarness(sc, sc.Seed, sc.Hosts, "/bin/job", kc)
	c := h.c
	if c == nil {
		return h.res
	}
	h.hook(nil)
	mon := h.mon
	sup := recovery.NewSupervisor(c, mon, recovery.SupervisorParams{
		MaxRestarts:     6,
		CheckpointEvery: 20 * time.Millisecond,
		Dir:             "/ckpt",
	})
	m := fleet.New(c, fleet.Params{
		Tick:             5 * time.Millisecond,
		CordonThreshold:  55,
		CordonGrace:      15 * time.Millisecond,
		DrainPassTimeout: 25 * time.Millisecond,
		CleanProbes:      2,
		HalfLife:         40 * time.Millisecond,
	})
	m.SetMonitor(mon)
	m.SetSupervisor(sup)

	var gossip *hostsel.Probabilistic
	if sc.Gossip {
		gp := hostsel.DefaultProbabilisticParams()
		gp.Interval = 50 * time.Millisecond
		gossip = hostsel.NewProbabilistic(c, gp)
		ledger := hostsel.NewClaimLedger(gossip, c, gp.ClaimLease)
		ledger.Register(c)
		m.SetSelector(ledger)
		m.WatchGossip(gossip)
		c.Boot("fleet-gossip", func(env *sim.Env) error {
			gossip.StartDaemons(env)
			return nil
		})
	} else {
		m.SetSelector(newFleetHarnessSel(c))
	}

	mon.Start()
	m.Start()

	// The storm scheduler: one activity replays the event list in time
	// order, so mutations interleave with the controller deterministically.
	events := append([]FleetEvent(nil), sc.Events...)
	for i := 1; i < len(events); i++ {
		for j := i; j > 0 && events[j].At < events[j-1].At; j-- {
			events[j], events[j-1] = events[j-1], events[j]
		}
	}
	c.Boot("storm-scheduler", func(env *sim.Env) error {
		for _, e := range events {
			if wait := e.At - env.Now(); wait > 0 {
				if err := env.Sleep(wait); err != nil {
					return err
				}
			}
			switch e.Kind {
			case FleetEvictStorm:
				for i := e.Host; i < e.Host+e.Span && i < sc.Hosts; i++ {
					k := c.Workstation(i)
					if c.HostDown(k.Host()) {
						continue
					}
					k.NoteInput(env.Now())
					m.NoteEviction(k.Host(), env.Now())
					_ = k.EvictAll(env)
				}
			case FleetFlap:
				h := c.Workstation(e.Host).Host()
				c.Reboot(env, h)
			case FleetRackFail:
				for i := e.Host; i < e.Host+e.Span && i < sc.Hosts; i++ {
					h := c.Workstation(i).Host()
					if !c.HostDown(h) {
						c.CrashHost(env, h)
					}
				}
				if err := env.Sleep(e.Dur); err != nil {
					return err
				}
				for i := e.Host; i < e.Host+e.Span && i < sc.Hosts; i++ {
					h := c.Workstation(i).Host()
					if c.HostDown(h) {
						c.RestartHost(env, h)
					}
				}
			case FleetCordon:
				m.Cordon(env, c.Workstation(e.Host).Host(), "storm")
			}
		}
		return nil
	})

	jobCfg := core.ProcConfig{Binary: "/bin/job", CodePages: 8, HeapPages: 16, StackPages: 2}
	c.Boot("fleet-jobs", func(env *sim.Env) error {
		var handles []*recovery.Handle
		for i := 0; i < sc.Jobs; i++ {
			h, err := sup.Submit(env, fmt.Sprintf("job%d", i), jobCfg,
				recovery.ComputeJob(150*time.Millisecond, 10*time.Millisecond))
			if err != nil {
				return fmt.Errorf("submit job%d: %w", i, err)
			}
			handles = append(handles, h)
			if err := env.Sleep(15 * time.Millisecond); err != nil {
				return err
			}
		}
		for _, h := range handles {
			if _, err := h.Done().Wait(env); err != nil && err != recovery.ErrJobLost {
				return fmt.Errorf("join %s: %w", h.Name(), err)
			}
		}
		// Let in-flight drains and readmissions settle, then unwind the
		// planes so the run quiesces.
		if err := env.Sleep(500 * time.Millisecond); err != nil {
			return err
		}
		if gossip != nil {
			gossip.Stop()
		}
		mon.Stop()
		sup.Stop()
		m.Stop()
		return nil
	})

	return h.finish(func(snap metrics.Snapshot) string {
		// Every host always comes back in this family, so a lost job means
		// the fleet/recovery planes dropped work — the storm never
		// justifies it.
		lost := sup.Lost()
		if len(lost) > 0 {
			h.fail("jobs lost: %v", lost)
		}
		return fmt.Sprintf("t=%v cordons=%d drains=%d/%d remediations=%d readmissions=%d moved=%d evac=%d exited=%d lost=%d",
			c.Sim().Now(),
			snap.Counters["fleet.cordons"],
			snap.Counters["fleet.drains.started"], snap.Counters["fleet.drains.completed"],
			snap.Counters["fleet.remediations"], snap.Counters["fleet.readmissions"],
			snap.Counters["fleet.procs.migrated"], snap.Counters["fleet.procs.evacuated"],
			snap.Counters["fleet.procs.exited"], len(lost))
	})
}
