package core

import (
	"time"

	"sprite/internal/metrics"
	"sprite/internal/sim"
)

// migPhase is one migration phase's instrument names, concatenated once:
// the meter runs on every migration and builds no strings.
type migPhase struct {
	timing    string // mig.phase.<name>
	aborted   string // mig.phase.<name>.aborted
	abortedIn string // mig.aborted.<name>
}

func newMigPhase(name string) *migPhase {
	return &migPhase{
		timing:    "mig.phase." + name,
		aborted:   "mig.phase." + name + ".aborted",
		abortedIn: "mig.aborted." + name,
	}
}

var (
	phaseNegotiate = newMigPhase("negotiate")
	phaseStreams   = newMigPhase("streams")
	phasePCB       = newMigPhase("pcb")
	phaseResume    = newMigPhase("resume")
)

// strategyNames are the instrument names that carry a MigrationRecord's
// Strategy: its VM phase and its total-latency series.
type strategyNames struct {
	vm    *migPhase // mig.phase.vm.<strategy>
	total string    // mig.total.<strategy>
}

func newStrategyNames(strategy string) *strategyNames {
	return &strategyNames{vm: newMigPhase("vm." + strategy), total: "mig.total." + strategy}
}

// knownStrategies holds the names for every strategy this package defines
// (exec-time moves no VM but has a total series).
var knownStrategies = func() map[string]*strategyNames {
	m := make(map[string]*strategyNames)
	for _, s := range []string{
		SpriteFlushStrategy{}.Name(), FullCopyStrategy{}.Name(),
		CopyOnReferenceStrategy{}.Name(), PreCopyStrategy{}.Name(), "exec-time",
	} {
		m[s] = newStrategyNames(s)
	}
	return m
}()

// namesFor returns the strategy's instrument names; a TransferStrategy
// defined outside this package gets them built per migration.
func namesFor(strategy string) *strategyNames {
	if n := knownStrategies[strategy]; n != nil {
		return n
	}
	return newStrategyNames(strategy)
}

// migMeter drives the metrics plane's view of one migration, and is the one
// place that knows a phase boundary: the started/completed/aborted counters
// and one timing per phase (mig.phase.negotiate, mig.phase.vm.<strategy>,
// mig.phase.streams, mig.phase.pcb, mig.phase.resume). An aborted migration
// records no phase duration — the interrupted phase surfaces through
// mig.aborted.<phase> and mig.phase.<name>.aborted counters instead — so
// the latency series contain only completed work and the invariant started
// == completed + aborted + inflight holds at every instant.
//
// The whole meter runs on the migration hot path, which the parallel
// kernel dispatches confined — so every counter and timing goes through
// the worker slot's private cell (Counter.IncSlot/AddSlot,
// Timing.ObserveSlot), and there is no live in-flight gauge at all: a
// shared gauge's high-water mark depends on the cross-shard interleaving.
// mig.inflight is instead derived from the counters at snapshot time
// (Cluster.MetricsSnapshot), where the identity above makes the level
// exact at any exclusive point.
type migMeter struct {
	reg   *metrics.Registry
	names *strategyNames
	phase *migPhase // in flight; nil before the first next
	start time.Duration
	done  bool
}

func newMigMeter(env *sim.Env, reg *metrics.Registry, strategy string) migMeter {
	reg.Counter("mig.started").IncSlot(sim.WorkerSlot(env))
	return migMeter{reg: reg, names: namesFor(strategy)}
}

// next closes the current phase, opens the next one, and returns the closed
// phase's duration (zero for the first call).
func (m *migMeter) next(env *sim.Env, phase *migPhase) time.Duration {
	return m.nextAt(env, phase, env.Now())
}

// nextAt is next with an explicit boundary time. Overlapped phases use it to
// keep the phases tiling Total exactly: when stream transfer runs
// concurrently with the VM transfer, the vm phase is closed retroactively at
// the instant the VM work finished and the streams phase covers only the
// tail that outlived it (zero if the streams finished first).
func (m *migMeter) nextAt(env *sim.Env, phase *migPhase, at time.Duration) time.Duration {
	d := m.end(env, at)
	m.phase, m.start = phase, at
	return d
}

// end observes the phase in flight as finished at the given instant.
func (m *migMeter) end(env *sim.Env, at time.Duration) time.Duration {
	if m.phase == nil {
		return 0
	}
	d := at - m.start
	m.reg.Timing(m.phase.timing).ObserveSlot(sim.WorkerSlot(env), d)
	return d
}

// complete closes the final phase and retires the migration as completed,
// returning the final phase's duration.
func (m *migMeter) complete(env *sim.Env) time.Duration {
	if m.done {
		return 0
	}
	m.done = true
	d := m.end(env, env.Now())
	m.reg.Counter("mig.completed").IncSlot(sim.WorkerSlot(env))
	return d
}

// abort retires the migration as aborted, charging the interruption to the
// phase that was in flight, in the source's slot like every other charge.
func (m *migMeter) abort(env *sim.Env) {
	if m.done {
		return
	}
	m.done = true
	slot := sim.WorkerSlot(env)
	m.reg.Counter("mig.aborted").IncSlot(slot)
	if m.phase != nil {
		m.reg.Counter(m.phase.aborted).IncSlot(slot)
		m.reg.Counter(m.phase.abortedIn).IncSlot(slot)
	}
}

// observeTotals records the finished migration's whole-record series: total
// and freeze latency (overall and per strategy) plus the byte/page/file
// volume counters.
func (m *migMeter) observeTotals(env *sim.Env, rec *MigrationRecord) {
	slot := sim.WorkerSlot(env)
	m.reg.Timing("mig.total").ObserveSlot(slot, rec.Total)
	m.reg.Timing(m.names.total).ObserveSlot(slot, rec.Total)
	m.reg.Timing("mig.freeze").ObserveSlot(slot, rec.Freeze)
	m.reg.Counter("mig.vm_bytes").AddSlot(slot, int64(rec.VMBytes))
	m.reg.Counter("mig.files_moved").AddSlot(slot, int64(rec.Files))
	m.reg.Counter("mig.pages_flushed").AddSlot(slot, int64(rec.PagesFlushed))
	m.reg.Counter("mig.pages_copied").AddSlot(slot, int64(rec.PagesCopied))
	if rec.ExecTime {
		m.reg.Counter("mig.exec_time").IncSlot(slot)
	}
	if rec.Residual {
		m.reg.Counter("mig.residual").IncSlot(slot)
	}
	if rec.Batched {
		m.reg.Counter("mig.batch.migrations").IncSlot(slot)
		m.reg.Counter("mig.batch.runs").AddSlot(slot, int64(rec.BatchRuns))
		m.reg.Counter("mig.batch.fragments").AddSlot(slot, int64(rec.BatchFragments))
		m.reg.Counter("mig.batch.retransmits").AddSlot(slot, int64(rec.BatchRetransmits))
	}
}
