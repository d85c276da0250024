// Package recovery is the crash-recovery plane: host liveness detection
// through boot epochs, Sprite-style reaping of the processes a dead host
// strands, and an opt-in supervisor that restarts remote processes from
// checkpoints after their host dies.
//
// Sprite's recovery story [Wel90] rests on two observations the monitor
// reproduces: a host's death is *detected*, never announced (kernels ping
// each other and watch for broken RPC channels), and a reboot is
// distinguished from a network hiccup by a boot timestamp — here a boot
// epoch — piggybacked on every RPC reply. When a peer's epoch advances, the
// old incarnation is known dead no matter how quickly the machine came
// back.
package recovery

import (
	"time"

	"sprite/internal/core"
	"sprite/internal/metrics"
	"sprite/internal/rpc"
	"sprite/internal/sim"
	"sprite/internal/trace"
)

// Params configures the liveness monitor.
type Params struct {
	// Interval is the heartbeat period per watched host.
	Interval time.Duration
	// FailThreshold is how many consecutive failed pings it takes to
	// suspect a host enough to declare it down.
	FailThreshold int
}

// DefaultParams returns a monitor configuration suited to the cluster's
// RPC timeouts: the detection latency floor is roughly
// Interval + FailThreshold RPC timeout cycles.
func DefaultParams() Params {
	return Params{
		Interval:      20 * time.Millisecond,
		FailThreshold: 2,
	}
}

// Monitor watches every registered host from the vantage of its live peers
// and turns broken RPC channels and advancing boot epochs into
// trace.HostDown / trace.HostUp events. One monitor stands in for the
// per-kernel recovery modules real Sprite ran: each watched host is pinged
// from the first live peer, so detection keeps working whichever single
// host is down.
type Monitor struct {
	c *core.Cluster
	p Params

	// lastEpoch is the newest epoch each host has been seen alive under.
	lastEpoch map[rpc.HostID]rpc.Epoch
	// observed collects epochs piggybacked on ordinary RPC replies (the
	// transport's epoch observer feeds it); ticks fold it into lastEpoch.
	observed map[rpc.HostID]rpc.Epoch
	// declaredDown is the newest epoch per host declared dead.
	declaredDown map[rpc.HostID]rpc.Epoch
	suspect      map[rpc.HostID]int
	isDown       map[rpc.HostID]bool

	subs     []func(trace.Event)
	probeObs func(host rpc.HostID, ok bool, at time.Duration)
	stopped  bool

	pings        *metrics.Counter
	pingFailures *metrics.Counter
	hostDown     *metrics.Counter
	hostUp       *metrics.Counter
	detect       *metrics.Timing
}

// NewMonitor builds a monitor over the cluster. Call Start to arm it.
func NewMonitor(c *core.Cluster, p Params) *Monitor {
	if p.Interval <= 0 {
		p.Interval = DefaultParams().Interval
	}
	if p.FailThreshold <= 0 {
		p.FailThreshold = DefaultParams().FailThreshold
	}
	reg := c.Metrics()
	return &Monitor{
		c:            c,
		p:            p,
		lastEpoch:    make(map[rpc.HostID]rpc.Epoch),
		observed:     make(map[rpc.HostID]rpc.Epoch),
		declaredDown: make(map[rpc.HostID]rpc.Epoch),
		suspect:      make(map[rpc.HostID]int),
		isDown:       make(map[rpc.HostID]bool),
		pings:        reg.Counter("recovery.pings"),
		pingFailures: reg.Counter("recovery.ping.failures"),
		hostDown:     reg.Counter("recovery.host_down"),
		hostUp:       reg.Counter("recovery.host_up"),
		detect:       reg.Timing("recovery.detect_latency"),
	}
}

// Params returns the monitor's configuration.
func (m *Monitor) Params() Params { return m.p }

// Subscribe registers a liveness event callback: it receives each
// trace.HostDown and trace.HostUp event the monitor emits (Epoch is the dead
// incarnation for HostDown, the new one for HostUp). Callbacks run inside
// the declaring watcher's activity, in subscription order.
func (m *Monitor) Subscribe(fn func(trace.Event)) { m.subs = append(m.subs, fn) }

// SetProbeObserver installs a per-probe callback: every ping the monitor
// sends reports (host, ok, at) the instant the reply or failure lands. The
// fleet health plane feeds its missed-probe signal from it; unlike
// Subscribe it sees every probe, not only declaration edges. One observer;
// nil removes it.
func (m *Monitor) SetProbeObserver(fn func(host rpc.HostID, ok bool, at time.Duration)) {
	m.probeObs = fn
}

// DeclaredDown returns the newest boot epoch of host the monitor has
// declared dead (0 if none). The supervisor gates restarts on it so a
// failover never races ahead of the reaping that detection triggers.
func (m *Monitor) DeclaredDown(host rpc.HostID) rpc.Epoch { return m.declaredDown[host] }

// Stop makes every watcher exit at its next tick.
func (m *Monitor) Stop() { m.stopped = true }

// recoveryPing is the liveness probe; a host replies with its boot epoch.
var recoveryPing = rpc.NewService[struct{}, rpc.Epoch]("recovery.ping")

// Start arms the monitor: it registers the recovery.ping service on every
// endpoint, installs the transport's epoch observer, seeds the epoch table
// from the hosts' current epochs, and spawns one watcher activity per host.
func (m *Monitor) Start() {
	t := m.c.Transport()
	for _, h := range t.Hosts() {
		ep := t.Endpoint(h)
		if ep == nil {
			continue
		}
		m.lastEpoch[h] = ep.Epoch()
		recoveryPing.Handle(ep, func(*sim.Env, rpc.HostID, struct{}) (rpc.Epoch, int, error) {
			return ep.Epoch(), 8, nil
		})
	}
	t.SetEpochObserver(func(host rpc.HostID, epoch rpc.Epoch) {
		if epoch > m.observed[host] {
			m.observed[host] = epoch
		}
	})
	for _, h := range m.c.Transport().Hosts() {
		host := h
		m.c.Boot("recovery-monitor-"+host.String(), func(env *sim.Env) error {
			return m.watch(env, host)
		})
	}
}

func (m *Monitor) watch(env *sim.Env, host rpc.HostID) error {
	for {
		if err := env.Sleep(m.p.Interval); err != nil {
			return nil // the simulation is unwinding
		}
		if m.stopped {
			return nil
		}
		m.tick(env, host)
	}
}

// vantage picks the live peer the ping is sent from: the first registered
// host, in host order, that is not the watched host and is up.
func (m *Monitor) vantage(host rpc.HostID) *rpc.Endpoint {
	for _, h := range m.c.Transport().Hosts() {
		if h == host {
			continue
		}
		if ep := m.c.Transport().Endpoint(h); ep != nil && !ep.Down() {
			return ep
		}
	}
	return nil
}

func (m *Monitor) tick(env *sim.Env, host rpc.HostID) {
	// Fold in epochs piggybacked on ordinary RPC traffic first: a reboot may
	// have been observed between pings, and that observation alone proves the
	// previous incarnation dead.
	if obs := m.observed[host]; obs > m.lastEpoch[host] {
		m.declareDown(env, host, obs-1)
		m.declareUp(env, host, obs)
	}
	v := m.vantage(host)
	if v == nil {
		return // no live peer to ping from; try again next interval
	}
	m.pings.Inc()
	var epoch rpc.Epoch
	err := m.c.FailAt(env, core.FailRecoveryPing, core.NilPID)
	if err == nil {
		epoch, err = recoveryPing.Call(v, env, host, struct{}{}, 16)
	}
	if m.probeObs != nil {
		m.probeObs(host, err == nil, env.Now())
	}
	if err != nil {
		m.pingFailures.Inc()
		m.suspect[host]++
		// Timeouts alone never kill a host: under message-drop fault windows
		// a live host can miss many pings, and reaping a live host's
		// processes would be a catastrophe. Suspicion plus the channel
		// actually being down (Sprite: every RPC to the host erroring, not
		// just this monitor's) is the declaration condition.
		if m.suspect[host] >= m.p.FailThreshold && m.c.HostDown(host) {
			m.declareDown(env, host, m.c.HostEpoch(host))
		}
		return
	}
	m.suspect[host] = 0
	if epoch > m.lastEpoch[host] {
		// The host answered under a newer incarnation: the old one died,
		// however briefly the outage was.
		m.declareDown(env, host, epoch-1)
		m.declareUp(env, host, epoch)
		return
	}
	if m.isDown[host] {
		m.declareUp(env, host, epoch)
	}
}

// declareDown marks one boot incarnation of host dead (idempotent per
// epoch): metrics, the reaping pass (Cluster.ReapDeadHost — the full Sprite
// recovery matrix runs as a consequence of detection) and subscriber
// events all fire here.
func (m *Monitor) declareDown(env *sim.Env, host rpc.HostID, dead rpc.Epoch) {
	if dead == 0 || m.declaredDown[host] >= dead {
		return
	}
	m.declaredDown[host] = dead
	m.isDown[host] = true
	m.hostDown.Inc()
	if at, ok := m.c.DownSince(host); ok {
		m.detect.Observe(env.Now() - at)
	}
	m.c.ReapDeadHost(env, host, dead)
	m.emit(env, trace.HostDown, host, dead)
}

// declareUp marks host alive under the given epoch.
func (m *Monitor) declareUp(env *sim.Env, host rpc.HostID, epoch rpc.Epoch) {
	if epoch > m.lastEpoch[host] {
		m.lastEpoch[host] = epoch
	}
	if !m.isDown[host] {
		return
	}
	m.isDown[host] = false
	m.hostUp.Inc()
	m.emit(env, trace.HostUp, host, epoch)
}

// emit traces one liveness transition and hands the same event to every
// subscriber.
func (m *Monitor) emit(env *sim.Env, kind trace.Kind, host rpc.HostID, epoch rpc.Epoch) {
	ev := trace.Event{At: env.Now(), Kind: kind, Host: int(host), Epoch: uint64(epoch)}
	env.Emit(ev)
	for _, fn := range m.subs {
		fn(ev)
	}
}
