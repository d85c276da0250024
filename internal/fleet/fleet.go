// Package fleet is the pool-management plane layered over host selection,
// recovery, and migration: idle harvesting run as an economy rather than a
// per-host courtesy (DESIGN.md §15).
//
// The Sprite paper's eviction story ends at "the owner came back, migrate
// everything home". At fleet scale hosts also get sick, flap, and vanish
// in correlated bursts, so this package adds the three planes a real pool
// manager needs:
//
//   - A health plane: per-host signals — missed liveness probes (from the
//     recovery Monitor), eviction-hint rate (from the gossip selector),
//     and migration-abort counts (from kernel stats) — folded into one
//     deterministic health score with exponential decay.
//   - A cordon/drain state machine per host: Active → Cordoned → Draining
//     → Remediating → Readmitting → Active. Draining migrates every
//     resident process off (targets through hostsel, checkpoint/restart
//     through the recovery Supervisor when no host accepts), remediation
//     reboots the host, and readmission requires N consecutive clean
//     probes.
//   - A placement filter: a wrapper over any hostsel selector that keeps
//     only Active hosts, in the selector's order, and hands cordoned ones
//     straight back.
//
// Every decision the manager takes is driven by virtual time and sorted
// host order, so runs are bit-for-bit reproducible; the drain-safety
// audit (no resident lost, none double-placed, drained host ends empty)
// registers into Cluster.CheckInvariants like the hostsel claim ledger.
//
// The plane drives Cluster.Reboot, so it requires a non-confined cluster
// (the confined contract excludes the crash/restart plane, DESIGN.md §14).
package fleet

import (
	"sort"
	"sync"
	"time"

	"sprite/internal/core"
	"sprite/internal/hostsel"
	"sprite/internal/metrics"
	"sprite/internal/recovery"
	"sprite/internal/rpc"
	"sprite/internal/sim"
)

// HostState is a managed host's position in the cordon/drain machine.
type HostState int

// The cordon/drain states.
const (
	// Active: healthy, placeable, harvesting idle cycles.
	Active HostState = iota
	// Cordoned: withdrawn from placement; residents keep running during
	// the grace period in case the health dip is transient.
	Cordoned
	// Draining: every resident is being moved off — live migration first,
	// checkpoint/restart evacuation when no host accepts.
	Draining
	// Remediating: the host is empty and being power-cycled.
	Remediating
	// Readmitting: rebooted, on probation until enough clean probes.
	Readmitting
)

func (s HostState) String() string {
	switch s {
	case Active:
		return "active"
	case Cordoned:
		return "cordoned"
	case Draining:
		return "draining"
	case Remediating:
		return "remediating"
	case Readmitting:
		return "readmitting"
	default:
		return "?"
	}
}

// Params configures the fleet manager.
type Params struct {
	// Tick is the controller cadence.
	Tick time.Duration
	// CordonThreshold is the health score below which an Active host is
	// cordoned (scores live in [0,100]; 100 = pristine).
	CordonThreshold float64
	// CordonGrace is how long a cordoned host may recover before the
	// drain starts. A host whose score climbs back above the threshold
	// during the grace period is readmitted without draining.
	CordonGrace time.Duration
	// DrainPassTimeout bounds how long one drain pass waits for one
	// resident's migration before moving on (the request stays pending).
	DrainPassTimeout time.Duration
	// CleanProbes is how many consecutive successful liveness probes a
	// remediated host needs to be readmitted.
	CleanProbes int
	// HalfLife is the health signals' exponential-decay half-life.
	HalfLife time.Duration
	// PlacementSlack is how many extra candidates each filtered selection
	// requests so vetoes do not starve the caller.
	PlacementSlack int
}

// probeWeight, hintWeight and abortWeight scale the three health signals
// into score penalties.
const (
	probeWeight = 18
	hintWeight  = 3
	abortWeight = 12
)

// DefaultParams returns a configuration matched to the default monitor
// cadence (20 ms probes).
func DefaultParams() Params {
	return Params{
		Tick:             25 * time.Millisecond,
		CordonThreshold:  55,
		CordonGrace:      50 * time.Millisecond,
		DrainPassTimeout: 100 * time.Millisecond,
		CleanProbes:      3,
		HalfLife:         250 * time.Millisecond,
		PlacementSlack:   2,
	}
}

// hostRec is the manager's per-host record.
type hostRec struct {
	host  rpc.HostID
	state HostState
	since time.Duration // when the current state was entered

	probes signal // missed liveness probes
	hints  signal // eviction hints retracting this host
	aborts signal // outbound migration aborts

	lastAborts  uint64 // last KernelStats.MigrationsAborted reading
	cleanProbes int    // consecutive ok probes while Readmitting
	reason      string // why the host was cordoned
	drain       *drainRec
}

// Manager runs the fleet plane: one controller activity folding health
// signals and stepping every managed host's state machine in sorted host
// order each tick.
type Manager struct {
	c *core.Cluster
	p Params

	mon *recovery.Monitor
	sel hostsel.Selector
	sup *recovery.Supervisor

	audit *drainAudit

	hosts []rpc.HostID
	recs  map[rpc.HostID]*hostRec

	// hintMu guards hintPending: the gossip hint sink runs in RPC handler
	// activities, which may execute on confined shards under the parallel
	// kernel; counts are commutative, so folding them at the controller's
	// (exclusive, barrier-ordered) tick stays deterministic.
	hintMu      sync.Mutex
	hintPending map[rpc.HostID]int

	stopped bool

	cordons         *metrics.Counter
	uncordons       *metrics.Counter
	drainsStarted   *metrics.Counter
	drainsCompleted *metrics.Counter
	remediations    *metrics.Counter
	readmissions    *metrics.Counter
	probationResets *metrics.Counter
	migratedC       *metrics.Counter
	evacuatedC      *metrics.Counter
	exitedC         *metrics.Counter
	stallsC         *metrics.Counter
	drainLatency    *metrics.Timing
}

// New builds a fleet manager over the cluster's workstations. Wire the
// signal sources with SetMonitor / SetSelector / SetSupervisor before
// Start; the drain-safety audit registers into CheckInvariants immediately.
func New(c *core.Cluster, p Params) *Manager {
	def := DefaultParams()
	if p.Tick <= 0 {
		p.Tick = def.Tick
	}
	if p.CordonThreshold <= 0 {
		p.CordonThreshold = def.CordonThreshold
	}
	if p.CordonGrace <= 0 {
		p.CordonGrace = def.CordonGrace
	}
	if p.DrainPassTimeout <= 0 {
		p.DrainPassTimeout = def.DrainPassTimeout
	}
	if p.CleanProbes <= 0 {
		p.CleanProbes = def.CleanProbes
	}
	if p.HalfLife <= 0 {
		p.HalfLife = def.HalfLife
	}
	if p.PlacementSlack < 0 {
		p.PlacementSlack = def.PlacementSlack
	}
	reg := c.Metrics()
	m := &Manager{
		c:           c,
		p:           p,
		audit:       newDrainAudit(),
		recs:        make(map[rpc.HostID]*hostRec),
		hintPending: make(map[rpc.HostID]int),

		cordons:         reg.Counter("fleet.cordons"),
		uncordons:       reg.Counter("fleet.uncordons"),
		drainsStarted:   reg.Counter("fleet.drains.started"),
		drainsCompleted: reg.Counter("fleet.drains.completed"),
		remediations:    reg.Counter("fleet.remediations"),
		readmissions:    reg.Counter("fleet.readmissions"),
		probationResets: reg.Counter("fleet.probation.resets"),
		migratedC:       reg.Counter("fleet.procs.migrated"),
		evacuatedC:      reg.Counter("fleet.procs.evacuated"),
		exitedC:         reg.Counter("fleet.procs.exited"),
		stallsC:         reg.Counter("fleet.drain.stalls"),
		drainLatency:    reg.Timing("fleet.drain_latency"),
	}
	for _, k := range c.Workstations() {
		h := k.Host()
		m.hosts = append(m.hosts, h)
		m.recs[h] = &hostRec{host: h, state: Active}
	}
	sort.Slice(m.hosts, func(i, j int) bool { return m.hosts[i] < m.hosts[j] })
	m.audit.register(c, m)
	return m
}

// Params returns the manager's configuration.
func (m *Manager) Params() Params { return m.p }

// SetMonitor attaches the liveness monitor: its per-probe results feed the
// missed-probe health signal and readmission probation.
func (m *Manager) SetMonitor(mon *recovery.Monitor) {
	m.mon = mon
	mon.SetProbeObserver(m.ObserveProbe)
}

// SetSelector attaches the host-selection architecture drains pick targets
// through. Pass the raw selector; wrap the one placement goes through with
// WrapSelector so cordoned hosts stay out of the pool.
func (m *Manager) SetSelector(sel hostsel.Selector) { m.sel = sel }

// SetSupervisor attaches the checkpoint/restart supervisor used as the
// drain fallback when no host accepts a live migration.
func (m *Manager) SetSupervisor(sup *recovery.Supervisor) { m.sup = sup }

// WatchGossip wires the gossip selector's eviction-hint stream into the
// hint-rate health signal.
func (m *Manager) WatchGossip(p *hostsel.Probabilistic) {
	p.SetHintSink(func(subject rpc.HostID) {
		m.hintMu.Lock()
		m.hintPending[subject]++
		m.hintMu.Unlock()
	})
}

// State returns host's current position in the cordon/drain machine.
func (m *Manager) State(host rpc.HostID) HostState {
	if rec := m.recs[host]; rec != nil {
		return rec.state
	}
	return Active
}

// Score returns host's current health score in [0,100] at time now.
func (m *Manager) Score(host rpc.HostID, now time.Duration) float64 {
	rec := m.recs[host]
	if rec == nil {
		return 100
	}
	score := 100 -
		probeWeight*rec.probes.at(now, m.p.HalfLife) -
		hintWeight*rec.hints.at(now, m.p.HalfLife) -
		abortWeight*rec.aborts.at(now, m.p.HalfLife)
	if score < 0 {
		return 0
	}
	return score
}

// ObserveProbe feeds one liveness-probe result into the health plane. The
// monitor calls it for every ping when attached through SetMonitor; tests
// may call it directly.
func (m *Manager) ObserveProbe(host rpc.HostID, ok bool, at time.Duration) {
	rec := m.recs[host]
	if rec == nil {
		return
	}
	if !ok {
		rec.probes.bump(at, m.p.HalfLife, 1)
		if rec.state == Readmitting && rec.cleanProbes > 0 {
			rec.cleanProbes = 0
			m.probationResets.Inc()
		}
		return
	}
	if rec.state == Readmitting {
		rec.cleanProbes++
	}
}

// Start boots the controller activity. Call before the cluster runs.
func (m *Manager) Start() {
	m.c.Boot("fleet-controller", m.run)
}

// Stop makes the controller exit at its next tick.
func (m *Manager) Stop() { m.stopped = true }

func (m *Manager) run(env *sim.Env) error {
	for {
		if err := env.Sleep(m.p.Tick); err != nil {
			return nil // the simulation is unwinding
		}
		if m.stopped {
			return nil
		}
		m.tick(env)
	}
}

// tick folds pending signals and steps every host's state machine, in
// sorted host order for determinism.
func (m *Manager) tick(env *sim.Env) {
	now := env.Now()
	m.hintMu.Lock()
	pending := m.hintPending
	m.hintPending = make(map[rpc.HostID]int)
	m.hintMu.Unlock()
	for _, host := range m.hosts {
		rec := m.recs[host]
		if n := pending[host]; n > 0 {
			rec.hints.bump(now, m.p.HalfLife, float64(n))
		}
		if k := m.c.KernelOn(host); k != nil {
			if ab := k.Stats().MigrationsAborted; ab > rec.lastAborts {
				rec.aborts.bump(now, m.p.HalfLife, float64(ab-rec.lastAborts))
				rec.lastAborts = ab
			}
		}
	}
	for _, host := range m.hosts {
		m.step(env, m.recs[host])
	}
}

// step advances one host through the state machine.
func (m *Manager) step(env *sim.Env, rec *hostRec) {
	now := env.Now()
	switch rec.state {
	case Active:
		if m.Score(rec.host, now) < m.p.CordonThreshold {
			m.cordon(env, rec, "health")
		}
	case Cordoned:
		switch {
		case m.c.HostDown(rec.host):
			// The host died before the drain began: nothing resident
			// survived, go straight to remediation.
			m.enter(rec, Remediating, now)
		case m.Score(rec.host, now) >= m.p.CordonThreshold && rec.reason == "health":
			// The dip was transient; hand the host back without draining.
			m.uncordons.Inc()
			m.enter(rec, Active, now)
			m.offer(env, rec.host)
		case now-rec.since >= m.p.CordonGrace:
			m.startDrain(env, rec)
		}
	case Draining:
		m.drainPass(env, rec)
	case Remediating:
		m.remediate(env, rec)
	case Readmitting:
		m.readmitTick(env, rec)
	}
}

// Cordon withdraws host from placement by hand (operators, tests, and the
// fuzzer's drain-schedule mutations). Reason lands in the audit trail.
func (m *Manager) Cordon(env *sim.Env, host rpc.HostID, reason string) {
	rec := m.recs[host]
	if rec == nil || rec.state != Active {
		return
	}
	if reason == "" {
		reason = "manual"
	}
	m.cordon(env, rec, reason)
}

func (m *Manager) cordon(env *sim.Env, rec *hostRec, reason string) {
	rec.reason = reason
	m.cordons.Inc()
	m.enter(rec, Cordoned, env.Now())
	m.withdraw(env, rec.host)
}

func (m *Manager) enter(rec *hostRec, s HostState, now time.Duration) {
	rec.state = s
	rec.since = now
	if s == Readmitting {
		rec.cleanProbes = 0
	}
}

// withdraw removes host from the selector pool; offer hands it back.
func (m *Manager) withdraw(env *sim.Env, host rpc.HostID) {
	if m.sel != nil {
		_ = m.sel.NotifyAvailability(env, host, false)
	}
}

func (m *Manager) offer(env *sim.Env, host rpc.HostID) {
	if m.sel != nil {
		_ = m.sel.NotifyAvailability(env, host, true)
	}
}

// remediate power-cycles an empty drained host, gated by the
// fleet.remediate failpoint (an injected failure retries next tick).
func (m *Manager) remediate(env *sim.Env, rec *hostRec) {
	if err := m.c.FailAt(env, core.FailFleetRemediate, core.NilPID); err != nil {
		return
	}
	m.c.Reboot(env, rec.host)
	m.remediations.Inc()
	// The reboot starts a new incarnation: its health history is the old
	// machine's, not its own.
	rec.probes = signal{}
	rec.hints = signal{}
	rec.aborts = signal{}
	if k := m.c.KernelOn(rec.host); k != nil {
		rec.lastAborts = k.Stats().MigrationsAborted
	}
	m.enter(rec, Readmitting, env.Now())
}

// readmitTick advances probation: CleanProbes consecutive successful
// probes (counted by ObserveProbe) readmit the host; a failed probe or a
// fleet.readmit failpoint firing resets the count.
func (m *Manager) readmitTick(env *sim.Env, rec *hostRec) {
	if m.c.HostDown(rec.host) {
		if rec.cleanProbes > 0 {
			rec.cleanProbes = 0
			m.probationResets.Inc()
		}
		return
	}
	if err := m.c.FailAt(env, core.FailFleetReadmit, core.NilPID); err != nil {
		if rec.cleanProbes > 0 {
			rec.cleanProbes = 0
			m.probationResets.Inc()
		}
		return
	}
	if rec.cleanProbes >= m.p.CleanProbes {
		m.readmissions.Inc()
		m.enter(rec, Active, env.Now())
		m.offer(env, rec.host)
	}
}

// --- placement filter ---

// FilterHosts vets a selector's grant: only Active hosts pass, in the
// selector's order.
func (m *Manager) FilterHosts(hosts []rpc.HostID) []rpc.HostID {
	out := make([]rpc.HostID, 0, len(hosts))
	for _, h := range hosts {
		if m.State(h) == Active {
			out = append(out, h)
		}
	}
	return out
}

// WrapSelector layers the fleet plane over a selector: grants are filtered
// through FilterHosts, so cordoned and draining hosts never get placements.
func (m *Manager) WrapSelector(sel hostsel.Selector) hostsel.Selector {
	return &placementSelector{m: m, inner: sel}
}

// placementSelector is the fleet plane's one selector wrapper. It asks the
// inner selector for PlacementSlack extra candidates, so vetoes do not
// starve the caller, keeps up to n of the hosts FilterHosts passes, and
// hands the rejects and the overshoot straight back so a vetoed grant never
// leaks a claim.
type placementSelector struct {
	m     *Manager
	inner hostsel.Selector
}

var _ hostsel.Selector = (*placementSelector)(nil)

func (s *placementSelector) Name() string { return s.inner.Name() }

func (s *placementSelector) RequestHosts(env *sim.Env, client rpc.HostID, n int) ([]rpc.HostID, error) {
	got, err := s.inner.RequestHosts(env, client, n+s.m.p.PlacementSlack)
	if len(got) == 0 {
		return nil, err
	}
	kept := s.m.FilterHosts(got)
	if len(kept) > n {
		kept = kept[:n]
	}
	keep := make(map[rpc.HostID]bool, len(kept))
	for _, h := range kept {
		keep[h] = true
	}
	var rejects []rpc.HostID
	for _, h := range got {
		if !keep[h] {
			rejects = append(rejects, h)
		}
	}
	if len(rejects) > 0 {
		if rerr := s.inner.Release(env, client, rejects); rerr != nil && err == nil {
			err = rerr
		}
	}
	if len(kept) == 0 {
		if err == nil {
			err = hostsel.ErrNoHosts
		}
		return nil, err
	}
	// A partial grant is a grant: suppress the inner selector's shortfall
	// error the way callers of the raw interface expect.
	return kept, nil
}

func (s *placementSelector) Release(env *sim.Env, client rpc.HostID, hosts []rpc.HostID) error {
	return s.inner.Release(env, client, hosts)
}

func (s *placementSelector) NotifyAvailability(env *sim.Env, host rpc.HostID, available bool) error {
	return s.inner.NotifyAvailability(env, host, available)
}

func (s *placementSelector) Stats() hostsel.Stats { return s.inner.Stats() }
