package fleet

import (
	"errors"
	"fmt"
	"sort"
	"testing"
	"time"

	"sprite/internal/core"
	"sprite/internal/hostsel"
	"sprite/internal/recovery"
	"sprite/internal/rpc"
	"sprite/internal/sim"
)

var smallProc = core.ProcConfig{Binary: "/bin/prog", CodePages: 4, HeapPages: 8, StackPages: 2}

// fastParams compresses every fleet timescale so a full
// cordon→drain→remediate→readmit lifecycle fits in tens of simulated
// milliseconds.
func fastParams() Params {
	return Params{
		Tick:             5 * time.Millisecond,
		CordonThreshold:  55,
		CordonGrace:      20 * time.Millisecond,
		DrainPassTimeout: 30 * time.Millisecond,
		CleanProbes:      2,
		HalfLife:         40 * time.Millisecond,
	}
}

// fakeSelector is a deterministic stand-in for the gossip selector: it
// grants live, available hosts in sorted order, excluding the requester.
type fakeSelector struct {
	c     *core.Cluster
	avail map[rpc.HostID]bool
	stats hostsel.Stats
}

var _ hostsel.Selector = (*fakeSelector)(nil)

func newFakeSelector(c *core.Cluster) *fakeSelector {
	s := &fakeSelector{c: c, avail: make(map[rpc.HostID]bool)}
	for _, k := range c.Workstations() {
		s.avail[k.Host()] = true
	}
	return s
}

func (s *fakeSelector) Name() string { return "fake" }

func (s *fakeSelector) RequestHosts(env *sim.Env, client rpc.HostID, n int) ([]rpc.HostID, error) {
	s.stats.Requests++
	var cands []rpc.HostID
	for h, ok := range s.avail {
		if ok && h != client && !s.c.HostDown(h) {
			cands = append(cands, h)
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i] < cands[j] })
	if len(cands) > n {
		cands = cands[:n]
	}
	if len(cands) == 0 {
		s.stats.Denied++
		return nil, hostsel.ErrNoHosts
	}
	s.stats.Granted += uint64(len(cands))
	return cands, nil
}

func (s *fakeSelector) Release(env *sim.Env, client rpc.HostID, hosts []rpc.HostID) error {
	return nil
}

func (s *fakeSelector) NotifyAvailability(env *sim.Env, host rpc.HostID, available bool) error {
	s.avail[host] = available
	return nil
}

func (s *fakeSelector) Stats() hostsel.Stats { return s.stats }

// fix bundles one cluster + manager + fake selector test rig.
type fix struct {
	t   *testing.T
	c   *core.Cluster
	m   *Manager
	sel *fakeSelector
}

func newFix(t *testing.T, ws int, p Params) *fix {
	t.Helper()
	c, err := core.NewCluster(core.Options{Workstations: ws, FileServers: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SeedBinary("/bin/prog", 128<<10); err != nil {
		t.Fatal(err)
	}
	sel := newFakeSelector(c)
	m := New(c, p)
	m.SetSelector(sel)
	return &fix{t: t, c: c, m: m, sel: sel}
}

// run boots the manager and the driver, runs the cluster dry, and sweeps
// the invariants (which include the drain-safety audit).
func (f *fix) run(fn func(env *sim.Env) error) {
	f.t.Helper()
	f.m.Start()
	f.c.Boot("driver", func(env *sim.Env) error {
		err := fn(env)
		f.m.Stop()
		return err
	})
	if err := f.c.Run(time.Minute); err != nil {
		f.t.Fatalf("cluster run: %v", err)
	}
	if v := f.c.CheckInvariants(true); len(v) != 0 {
		f.t.Errorf("invariants: %v", v)
	}
}

// waitState polls until host reaches want or the deadline passes.
func (f *fix) waitState(env *sim.Env, host rpc.HostID, want HostState, deadline time.Duration) error {
	start := env.Now()
	for f.m.State(host) != want {
		if env.Now()-start > deadline {
			return fmt.Errorf("host %v stuck in %v at %v, want %v",
				host, f.m.State(host), env.Now(), want)
		}
		if err := env.Sleep(f.m.Params().Tick); err != nil {
			return err
		}
	}
	return nil
}

// probeOK/probeFail feed synthetic liveness-probe results.
func (f *fix) probeOK(env *sim.Env, host rpc.HostID)   { f.m.ObserveProbe(host, true, env.Now()) }
func (f *fix) probeFail(env *sim.Env, host rpc.HostID) { f.m.ObserveProbe(host, false, env.Now()) }

// readmit drives a host sitting in Readmitting back to Active with clean
// probes.
func (f *fix) readmit(env *sim.Env, host rpc.HostID) error {
	if err := f.waitState(env, host, Readmitting, 200*time.Millisecond); err != nil {
		return err
	}
	for i := 0; i < f.m.Params().CleanProbes; i++ {
		f.probeOK(env, host)
	}
	return f.waitState(env, host, Active, 200*time.Millisecond)
}

func (f *fix) counter(name string) int64 { return f.c.Metrics().Counter(name).Value() }

// spinProc starts a compute-then-exit process on the given kernel.
func spinProc(env *sim.Env, k *core.Kernel, name string, d time.Duration) (*core.Process, error) {
	return k.StartProcess(env, name, func(ctx *core.Ctx) error {
		if err := ctx.Compute(d); err != nil {
			return err
		}
		return ctx.Exit(0)
	}, smallProc)
}

// TestDrainStateMachine is the S3 table: every transition of the
// cordon/drain machine, each case one scenario against a live cluster.
func TestDrainStateMachine(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{name: "health-cordon", run: func(t *testing.T) {
			// Active → Cordoned on a health-score collapse from missed probes.
			f := newFix(t, 3, fastParams())
			victim := f.c.Workstation(1).Host()
			f.run(func(env *sim.Env) error {
				for i := 0; i < 4; i++ {
					f.probeFail(env, victim)
				}
				if err := f.waitState(env, victim, Cordoned, 100*time.Millisecond); err != nil {
					return err
				}
				if f.sel.avail[victim] {
					t.Error("cordoned host still advertised to the selector")
				}
				return nil
			})
			if got := f.counter("fleet.cordons"); got != 1 {
				t.Errorf("fleet.cordons = %d, want 1", got)
			}
		}},
		{name: "cordon-recovers-before-grace", run: func(t *testing.T) {
			// Cordoned → Active when the signals decay inside the grace
			// period: a transient dip never drains.
			p := fastParams()
			p.CordonGrace = 300 * time.Millisecond
			f := newFix(t, 3, p)
			victim := f.c.Workstation(1).Host()
			f.run(func(env *sim.Env) error {
				for i := 0; i < 4; i++ {
					f.probeFail(env, victim)
				}
				if err := f.waitState(env, victim, Cordoned, 100*time.Millisecond); err != nil {
					return err
				}
				if err := f.waitState(env, victim, Active, 400*time.Millisecond); err != nil {
					return err
				}
				if !f.sel.avail[victim] {
					t.Error("readmitted host not offered back to the selector")
				}
				return nil
			})
			if got := f.counter("fleet.uncordons"); got != 1 {
				t.Errorf("fleet.uncordons = %d, want 1", got)
			}
			if got := f.counter("fleet.drains.started"); got != 0 {
				t.Errorf("fleet.drains.started = %d, want 0", got)
			}
		}},
		{name: "full-lifecycle-foreign-resident-goes-home", run: func(t *testing.T) {
			// Manual cordon → grace → drain (foreign resident returns home,
			// the paper's eviction path) → remediation reboot → probation →
			// Active. The resident survives and finishes.
			f := newFix(t, 3, fastParams())
			home := f.c.Workstation(0)
			victim := f.c.Workstation(1)
			f.run(func(env *sim.Env) error {
				p, err := spinProc(env, home, "guest", 300*time.Millisecond)
				if err != nil {
					return err
				}
				if _, err := home.RequestMigration(p, victim, "setup").Wait(env); err != nil {
					return err
				}
				epochBefore := f.c.HostEpoch(victim.Host())
				f.m.Cordon(env, victim.Host(), "test")
				if err := f.readmit(env, victim.Host()); err != nil {
					return err
				}
				if cur := p.Current(); cur != home {
					t.Errorf("resident on %v after drain, want home %v", cur.Host(), home.Host())
				}
				if ep := f.c.HostEpoch(victim.Host()); ep != epochBefore+1 {
					t.Errorf("victim epoch = %d, want %d (one reboot)", ep, epochBefore+1)
				}
				status, err := p.Exited().Wait(env)
				if err != nil {
					return err
				}
				if status != 0 {
					t.Errorf("resident exit status = %v, want 0", status)
				}
				return nil
			})
			for name, want := range map[string]int64{
				"fleet.cordons":          1,
				"fleet.drains.started":   1,
				"fleet.drains.completed": 1,
				"fleet.procs.migrated":   1,
				"fleet.remediations":     1,
				"fleet.readmissions":     1,
			} {
				if got := f.counter(name); got != want {
					t.Errorf("%s = %d, want %d", name, got, want)
				}
			}
		}},
		{name: "drain-selector-target", run: func(t *testing.T) {
			// A home-resident process has no home to flee to; the drain asks
			// the selector for a destination.
			f := newFix(t, 3, fastParams())
			victim := f.c.Workstation(1)
			spare := f.c.Workstation(2).Host()
			f.run(func(env *sim.Env) error {
				// Keep the first workstation out of the pool so the grant is
				// forced to the spare and the assertion is exact.
				f.sel.avail[f.c.Workstation(0).Host()] = false
				p, err := spinProc(env, victim, "local", 400*time.Millisecond)
				if err != nil {
					return err
				}
				f.m.Cordon(env, victim.Host(), "test")
				if err := f.waitState(env, victim.Host(), Remediating, 300*time.Millisecond); err != nil {
					// Remediation may already have passed; Readmitting is fine.
					if err2 := f.waitState(env, victim.Host(), Readmitting, 50*time.Millisecond); err2 != nil {
						return err
					}
				}
				if cur := p.Current().Host(); cur != spare {
					t.Errorf("resident on %v after drain, want %v", cur, spare)
				}
				return f.readmit(env, victim.Host())
			})
			if got := f.counter("fleet.procs.migrated"); got != 1 {
				t.Errorf("fleet.procs.migrated = %d, want 1", got)
			}
		}},
		{name: "drain-interrupted-by-target-crash", run: func(t *testing.T) {
			// The only viable target is down when the drain starts: the
			// drain stalls without losing the resident, then finishes once
			// the target comes back.
			f := newFix(t, 3, fastParams())
			victim := f.c.Workstation(1)
			spare := f.c.Workstation(2).Host()
			f.run(func(env *sim.Env) error {
				f.sel.avail[f.c.Workstation(0).Host()] = false
				p, err := spinProc(env, victim, "stranded", 600*time.Millisecond)
				if err != nil {
					return err
				}
				f.c.CrashHost(env, spare)
				f.m.Cordon(env, victim.Host(), "test")
				if err := f.waitState(env, victim.Host(), Draining, 100*time.Millisecond); err != nil {
					return err
				}
				// A few passes with the target dead: still draining, resident
				// still alive on the victim.
				if err := env.Sleep(30 * time.Millisecond); err != nil {
					return err
				}
				if st := f.m.State(victim.Host()); st != Draining {
					t.Errorf("state with dead target = %v, want draining", st)
				}
				if p.State() == core.StateExited {
					t.Error("resident died while the drain was stalled")
				}
				f.c.RestartHost(env, spare)
				if err := f.readmit(env, victim.Host()); err != nil {
					return err
				}
				if cur := p.Current().Host(); cur != spare {
					t.Errorf("resident on %v, want %v after target restart", cur, spare)
				}
				return nil
			})
		}},
		{name: "drain-failpoint-stalls", run: func(t *testing.T) {
			// An injected fleet.drain fault stalls the pass (counted) but
			// loses nothing; clearing it lets the drain finish.
			f := newFix(t, 3, fastParams())
			victim := f.c.Workstation(1)
			armed := true
			f.c.SetFailpoint(func(env *sim.Env, fp core.Failpoint, pid core.PID) error {
				if armed && fp == core.FailFleetDrain {
					return errors.New("injected drain stall")
				}
				return nil
			})
			f.run(func(env *sim.Env) error {
				p, err := spinProc(env, victim, "patient", 500*time.Millisecond)
				if err != nil {
					return err
				}
				f.m.Cordon(env, victim.Host(), "test")
				if err := f.waitState(env, victim.Host(), Draining, 100*time.Millisecond); err != nil {
					return err
				}
				if err := env.Sleep(40 * time.Millisecond); err != nil {
					return err
				}
				if st := f.m.State(victim.Host()); st != Draining {
					t.Errorf("state under drain failpoint = %v, want draining", st)
				}
				if p.State() == core.StateExited {
					t.Error("resident lost during stalled drain")
				}
				armed = false
				return f.readmit(env, victim.Host())
			})
			if got := f.counter("fleet.drain.stalls"); got == 0 {
				t.Error("fleet.drain.stalls = 0, want > 0")
			}
			if got := f.counter("fleet.drains.completed"); got != 1 {
				t.Errorf("fleet.drains.completed = %d, want 1", got)
			}
		}},
		{name: "remediate-failpoint-retries", run: func(t *testing.T) {
			// An injected fleet.remediate fault keeps the host parked in
			// Remediating; the reboot happens once the fault clears.
			f := newFix(t, 3, fastParams())
			victim := f.c.Workstation(1)
			armed := true
			f.c.SetFailpoint(func(env *sim.Env, fp core.Failpoint, pid core.PID) error {
				if armed && fp == core.FailFleetRemediate {
					return errors.New("injected remediation failure")
				}
				return nil
			})
			f.run(func(env *sim.Env) error {
				f.m.Cordon(env, victim.Host(), "test")
				if err := f.waitState(env, victim.Host(), Remediating, 200*time.Millisecond); err != nil {
					return err
				}
				if err := env.Sleep(30 * time.Millisecond); err != nil {
					return err
				}
				if st := f.m.State(victim.Host()); st != Remediating {
					t.Errorf("state under remediate failpoint = %v, want remediating", st)
				}
				if got := f.counter("fleet.remediations"); got != 0 {
					t.Errorf("fleet.remediations = %d before fault cleared, want 0", got)
				}
				armed = false
				return f.readmit(env, victim.Host())
			})
			if got := f.counter("fleet.remediations"); got != 1 {
				t.Errorf("fleet.remediations = %d, want 1", got)
			}
		}},
		{name: "readmit-failpoint-resets-probation", run: func(t *testing.T) {
			// An injected fleet.readmit fault resets the clean-probe count:
			// probation starts over until the fault clears.
			f := newFix(t, 3, fastParams())
			victim := f.c.Workstation(1)
			armed := true
			f.c.SetFailpoint(func(env *sim.Env, fp core.Failpoint, pid core.PID) error {
				if armed && fp == core.FailFleetReadmit {
					return errors.New("injected readmission failure")
				}
				return nil
			})
			f.run(func(env *sim.Env) error {
				f.m.Cordon(env, victim.Host(), "test")
				if err := f.waitState(env, victim.Host(), Readmitting, 200*time.Millisecond); err != nil {
					return err
				}
				for i := 0; i < 6; i++ {
					f.probeOK(env, victim.Host())
					if err := env.Sleep(f.m.Params().Tick); err != nil {
						return err
					}
				}
				if st := f.m.State(victim.Host()); st != Readmitting {
					t.Errorf("state under readmit failpoint = %v, want readmitting", st)
				}
				armed = false
				return f.readmit(env, victim.Host())
			})
			if got := f.counter("fleet.probation.resets"); got == 0 {
				t.Error("fleet.probation.resets = 0, want > 0")
			}
			if got := f.counter("fleet.readmissions"); got != 1 {
				t.Errorf("fleet.readmissions = %d, want 1", got)
			}
		}},
		{name: "readmit-probe-failure-resets-probation", run: func(t *testing.T) {
			// A failed probe during probation wipes the clean streak.
			f := newFix(t, 3, fastParams())
			victim := f.c.Workstation(1)
			f.run(func(env *sim.Env) error {
				f.m.Cordon(env, victim.Host(), "test")
				if err := f.waitState(env, victim.Host(), Readmitting, 200*time.Millisecond); err != nil {
					return err
				}
				f.probeOK(env, victim.Host())
				f.probeFail(env, victim.Host()) // streak of 1, wiped
				if err := env.Sleep(2 * f.m.Params().Tick); err != nil {
					return err
				}
				if st := f.m.State(victim.Host()); st != Readmitting {
					t.Errorf("state after probe failure = %v, want readmitting", st)
				}
				return f.readmit(env, victim.Host())
			})
			if got := f.counter("fleet.probation.resets"); got != 1 {
				t.Errorf("fleet.probation.resets = %d, want 1", got)
			}
		}},
		{name: "cordoned-host-crashes", run: func(t *testing.T) {
			// Cordoned → Remediating directly when the host dies during the
			// grace period: there is nothing left to drain.
			p := fastParams()
			p.CordonGrace = 200 * time.Millisecond
			f := newFix(t, 3, p)
			victim := f.c.Workstation(1).Host()
			f.run(func(env *sim.Env) error {
				f.m.Cordon(env, victim, "test")
				if err := f.waitState(env, victim, Cordoned, 100*time.Millisecond); err != nil {
					return err
				}
				f.c.CrashHost(env, victim)
				return f.readmit(env, victim)
			})
			if got := f.counter("fleet.drains.started"); got != 0 {
				t.Errorf("fleet.drains.started = %d, want 0 (host died cordoned)", got)
			}
			if got := f.counter("fleet.remediations"); got != 1 {
				t.Errorf("fleet.remediations = %d, want 1", got)
			}
		}},
		{name: "draining-host-crashes", run: func(t *testing.T) {
			// The host dies mid-drain: remaining residents are the recovery
			// plane's problem, the drain closes as crashed and remediation
			// restarts the machine.
			f := newFix(t, 3, fastParams())
			victim := f.c.Workstation(1)
			f.run(func(env *sim.Env) error {
				// No targets anywhere: the drain must stall until the crash.
				for _, k := range f.c.Workstations() {
					if k != victim {
						f.sel.avail[k.Host()] = false
					}
				}
				if _, err := spinProc(env, victim, "doomed", 600*time.Millisecond); err != nil {
					return err
				}
				f.m.Cordon(env, victim.Host(), "test")
				if err := f.waitState(env, victim.Host(), Draining, 100*time.Millisecond); err != nil {
					return err
				}
				f.c.CrashHost(env, victim.Host())
				return f.readmit(env, victim.Host())
			})
			if got := f.counter("fleet.drains.completed"); got != 1 {
				t.Errorf("fleet.drains.completed = %d, want 1", got)
			}
		}},
		{name: "supervised-home-resident-evacuates", run: func(t *testing.T) {
			// A supervised job resident at its home cannot shed the home
			// dependency by live migration: the drain falls back to the
			// supervisor's checkpoint/restart evacuation and the work
			// survives the reboot.
			f := newFix(t, 3, fastParams())
			victim := f.c.Workstation(1)
			mon := recovery.NewMonitor(f.c, recovery.Params{
				Interval: 10 * time.Millisecond, FailThreshold: 2,
			})
			sup := recovery.NewSupervisor(f.c, mon, recovery.SupervisorParams{
				MaxRestarts:     3,
				CheckpointEvery: 20 * time.Millisecond,
				Dir:             "/ckpt",
				Home:            victim,
			})
			f.m.SetMonitor(mon)
			f.m.SetSupervisor(sup)
			mon.Start()
			var status any
			f.run(func(env *sim.Env) error {
				h, err := sup.Submit(env, "precious", smallProc,
					recovery.ComputeJob(200*time.Millisecond, 10*time.Millisecond))
				if err != nil {
					return err
				}
				if err := env.Sleep(30 * time.Millisecond); err != nil {
					return err
				}
				// Bring the job to its home host so the drain sees a
				// home-resident supervised process.
				pid := h.PID()
				var proc *core.Process
				for _, k := range f.c.Workstations() {
					for _, p := range k.Processes() {
						if p.PID() == pid {
							proc = p
						}
					}
				}
				if proc == nil {
					return fmt.Errorf("job process %v not found", pid)
				}
				if proc.Current() != victim {
					if _, err := proc.Current().RequestMigration(proc, victim, "setup").Wait(env); err != nil {
						return err
					}
				}
				f.m.Cordon(env, victim.Host(), "test")
				// The monitor's live probes drive probation here; no
				// synthetic probes needed.
				if err := f.waitState(env, victim.Host(), Active, time.Second); err != nil {
					return err
				}
				status, err = h.Done().Wait(env)
				if err != nil {
					return err
				}
				mon.Stop()
				sup.Stop()
				return nil
			})
			if status != 0 {
				t.Errorf("evacuated job status = %v, want 0", status)
			}
			if got := f.counter("fleet.procs.evacuated"); got != 1 {
				t.Errorf("fleet.procs.evacuated = %d, want 1", got)
			}
			if got := f.counter("recovery.evacuations"); got == 0 {
				t.Error("recovery.evacuations = 0, want > 0")
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { tc.run(t) })
	}
}
