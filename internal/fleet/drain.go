package fleet

import (
	"errors"
	"maps"
	"slices"

	"sprite/internal/core"
	"sprite/internal/rpc"
	"sprite/internal/sim"
)

// startDrain moves a cordoned host into Draining and runs the first pass
// immediately so short drains finish within one controller tick.
func (m *Manager) startDrain(env *sim.Env, rec *hostRec) {
	m.drainsStarted.Inc()
	rec.drain = m.audit.begin(rec.host, env.Now())
	m.enter(rec, Draining, env.Now())
	m.drainPass(env, rec)
}

// drainPass runs one pass over the draining host's residents: live
// migration through the selector (home first for foreign processes),
// checkpoint/restart evacuation through the supervisor for residents no
// host will take, and bookkeeping for processes that exited or moved on
// their own. The pass is gated by the fleet.drain failpoint; an injected
// failure stalls the drain for one tick without losing state.
func (m *Manager) drainPass(env *sim.Env, rec *hostRec) {
	now := env.Now()
	if m.c.HostDown(rec.host) {
		// The host died under us: whatever was resident is the recovery
		// plane's problem now (reap + supervisor failover), not a drain
		// loss. Close the trail and remediate.
		for _, pid := range slices.SortedFunc(maps.Keys(rec.drain.residents), core.PID.Compare) {
			if rec.drain.residents[pid].disp == "" {
				m.audit.dispose(rec.drain, pid, dispCrashed)
			}
		}
		m.finishDrain(env, rec)
		return
	}
	if err := m.c.FailAt(env, core.FailFleetDrain, core.NilPID); err != nil {
		m.stallsC.Inc()
		return
	}
	k := m.c.KernelOn(rec.host)
	if k == nil {
		m.finishDrain(env, rec)
		return
	}

	// Snapshot the resident set (sorted by pid) and settle the easy
	// dispositions before spending time on migrations.
	var pending []*core.Process
	for _, p := range k.Processes() {
		r := m.audit.ensure(rec.drain, p)
		if r.disp != "" {
			continue
		}
		switch {
		case p.State() == core.StateExited:
			m.audit.dispose(rec.drain, p.PID(), dispExited)
			m.exitedC.Inc()
		case p.Current() != k:
			m.audit.dispose(rec.drain, p.PID(), dispMigrated)
			m.migratedC.Inc()
		default:
			pending = append(pending, p)
		}
	}
	// Residents observed in an earlier pass may have left the host since.
	for _, pid := range slices.SortedFunc(maps.Keys(rec.drain.residents), core.PID.Compare) {
		r := rec.drain.residents[pid]
		if r.disp != "" {
			continue
		}
		p := r.proc
		if p.State() == core.StateExited {
			m.audit.dispose(rec.drain, pid, dispExited)
			m.exitedC.Inc()
		} else if p.Current() != k {
			m.audit.dispose(rec.drain, pid, dispMigrated)
			m.migratedC.Inc()
		}
	}

	var stranded, evacuees []*core.Process
	for _, p := range pending {
		if m.sup != nil && m.sup.Supervised(p.PID()) && !p.Foreign() {
			// A supervised job resident at its home: live migration would
			// keep the home dependency and the coming remediation reboot
			// would orphan it (Sprite home-dependency semantics); a
			// checkpoint relaunch re-homes it instead.
			evacuees = append(evacuees, p)
			continue
		}
		switch m.drainOne(env, k, rec, p) {
		case drainMoved:
			// disposed inside drainOne
		case drainInFlight:
			// migration requested but not resolved yet; next pass settles it
		case drainNoTarget:
			stranded = append(stranded, p)
		}
	}
	// Checkpoint/restart fallback: supervised residents nobody will take
	// as a live migration join the evacuation batch.
	if m.sup != nil {
		for _, p := range stranded {
			if m.sup.Supervised(p.PID()) {
				evacuees = append(evacuees, p)
			}
		}
	}
	// One Evacuate call covers every supervised job on (or homed on) the
	// host: each is killed and relaunched from its checkpoint elsewhere.
	if len(evacuees) > 0 {
		if _, err := m.sup.Evacuate(env, rec.host); err == nil {
			for _, p := range evacuees {
				m.audit.dispose(rec.drain, p.PID(), dispEvacuated)
				m.evacuatedC.Inc()
			}
		}
	}

	// Completion: every tracked resident disposed and nothing left running.
	remaining := 0
	for _, p := range m.c.KernelOn(rec.host).Processes() {
		if p.State() != core.StateExited {
			remaining++
		}
	}
	if remaining == 0 {
		undisposed := 0
		for _, pid := range slices.SortedFunc(maps.Keys(rec.drain.residents), core.PID.Compare) {
			if rec.drain.residents[pid].disp == "" {
				undisposed++
			}
		}
		if undisposed == 0 {
			m.drainLatency.Observe(now - rec.drain.start)
			m.finishDrain(env, rec)
		}
	}
}

type drainOutcome int

const (
	drainMoved drainOutcome = iota
	drainInFlight
	drainNoTarget
)

// drainOne tries to move one resident off the draining host. Foreign
// processes go home when the home host is up (the paper's eviction path);
// everything else asks the selector for a destination.
func (m *Manager) drainOne(env *sim.Env, k *core.Kernel, rec *hostRec, p *core.Process) drainOutcome {
	target, claimed := m.drainTarget(env, rec.host, p)
	if target == nil {
		return drainNoTarget
	}
	f := k.RequestMigration(p, target, "fleet drain")
	_, err := f.WaitTimeout(env, m.p.DrainPassTimeout)
	if claimed != nil {
		// The claim served its purpose (or failed to); hand it back either
		// way — the migrated process is not a selector placement.
		_ = m.sel.Release(env, rec.host, claimed)
	}
	switch {
	case err == nil:
		m.audit.dispose(rec.drain, p.PID(), dispMigrated)
		m.migratedC.Inc()
		return drainMoved
	case errors.Is(err, core.ErrNoSuchProcess):
		// Vacated on its own — exited before the migration point.
		m.audit.dispose(rec.drain, p.PID(), dispExited)
		m.exitedC.Inc()
		return drainMoved
	case errors.Is(err, sim.ErrTimeout):
		// Still pending; the request resolves at the next migration point
		// and the next pass will see the process gone.
		return drainInFlight
	default:
		// ErrNotMigratable (shared memory, migration already pending) or an
		// abort: live migration cannot move this one.
		return drainNoTarget
	}
}

// drainTarget picks where a resident should go. It returns the target
// kernel and, if the selector granted it, the claim to release afterwards.
func (m *Manager) drainTarget(env *sim.Env, from rpc.HostID, p *core.Process) (*core.Kernel, []rpc.HostID) {
	if p.Foreign() {
		home := p.Home()
		if home != nil && !m.c.HostDown(home.Host()) {
			return home, nil
		}
	}
	if m.sel == nil {
		return nil, nil
	}
	hosts, err := m.sel.RequestHosts(env, from, 1)
	if err != nil || len(hosts) == 0 {
		if len(hosts) > 0 {
			_ = m.sel.Release(env, from, hosts)
		}
		return nil, nil
	}
	target := hosts[0]
	if target == from || m.c.HostDown(target) {
		_ = m.sel.Release(env, from, hosts)
		return nil, nil
	}
	tk := m.c.KernelOn(target)
	if tk == nil {
		_ = m.sel.Release(env, from, hosts)
		return nil, nil
	}
	return tk, hosts
}

// finishDrain closes the audit trail and moves the host to Remediating.
func (m *Manager) finishDrain(env *sim.Env, rec *hostRec) {
	// Final home-dependency sweep: supervised jobs merely homed here (and
	// resident elsewhere) must be re-homed by a checkpoint relaunch before
	// the reboot orphans them. Residents are already gone, so this only
	// matches homed-elsewhere jobs.
	if m.sup != nil && !m.c.HostDown(rec.host) {
		_, _ = m.sup.Evacuate(env, rec.host)
	}
	m.audit.complete(rec.drain, env.Now())
	m.drainsCompleted.Inc()
	rec.drain = nil
	m.enter(rec, Remediating, env.Now())
	// Remediation runs in the same tick when the failpoint allows: an
	// empty host has nothing to wait for.
	m.remediate(env, rec)
}
