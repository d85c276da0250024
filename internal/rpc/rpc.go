// Package rpc implements the kernel-to-kernel remote procedure call system
// that Sprite kernels use to cooperate (modeled on Welch's Sprite RPC
// [Wel86], itself in the style of Birrell & Nelson [BN84]).
//
// Every host owns one Endpoint. A service is a typed descriptor,
// Service[A, R], declared once beside its wire types; handlers register on
// endpoints through it, and calls go through it, so arguments and replies
// pass by value with their types checked by the compiler. A call charges
// the caller for client-side software overhead, the network for the request
// and reply payloads, and then executes the service handler synchronously in
// the caller's activity; handlers charge any server-side costs to the
// server's own resources (CPU, disk) explicitly. Endpoint.Handle, Call and
// CallBulk are the untyped, by-name face of the same path.
package rpc

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sprite/internal/metrics"
	"sprite/internal/netsim"
	"sprite/internal/sim"
)

// HostID identifies one host (workstation or file server) on the network.
type HostID int

// String renders the host id in the conventional "host<N>" form.
func (h HostID) String() string { return "host" + strconv.Itoa(int(h)) }

// NoHost is the zero HostID; valid hosts are numbered from 1.
const NoHost HostID = 0

// Epoch is a host's boot incarnation number. It starts at 1 when the host
// first registers and increases by one on every restart, so a host that
// crashes and comes back at the same address is distinguishable from one
// that never went down — the recovery plane's reboot detector keys on it.
type Epoch uint64

// EpochObserver is notified with the replying host's current epoch every
// time a call to that host completes (success or handler error — the reply
// made it back either way). Replies piggyback the epoch the way Sprite RPC
// piggybacks the boot timestamp; a passive observer therefore learns about
// reboots from ordinary traffic without waiting for the next heartbeat.
type EpochObserver func(host HostID, epoch Epoch)

// HintProvider supplies a small opaque payload piggybacked on every remote
// reply the endpoint sends, in the same spirit as the epoch piggyback: a
// subsystem with soft state (the gossip host selector's eviction hints) can
// spread small facts on ordinary traffic without extra messages. The
// returned size is charged to the reply on the wire; return (nil, 0) when
// there is nothing to say, which keeps the call byte-identical to one with
// no provider installed. The payload is captured when the handler executes,
// so a retransmitted (cached) reply carries the same hints.
type HintProvider func() (payload any, size int)

// HintObserver receives the piggybacked payload delivered with a reply.
// caller is the host whose call carried the reply back; server is the host
// whose provider produced the payload. Like EpochObserver, it runs inside
// the calling activity and must be pure bookkeeping: no sleeping, no calls.
type HintObserver func(caller, server HostID, payload any)

// Errors reported by the transport.
var (
	// ErrHostDown is returned when calling a host marked down.
	ErrHostDown = errors.New("rpc: host down")
	// ErrNoService is returned when the target host does not implement the
	// requested service.
	ErrNoService = errors.New("rpc: no such service")
	// ErrNoHost is returned when the target host is not registered.
	ErrNoHost = errors.New("rpc: no such host")
	// ErrTimeout is returned when a call exhausts its retransmissions without
	// ever seeing a reply (only reachable under fault injection: with no
	// injector installed, messages are never lost).
	ErrTimeout = errors.New("rpc: call timed out")
)

// Verdict is a fault injector's decision about one call attempt.
type Verdict struct {
	// DropRequest loses the request message: the server never sees it and
	// the client times out and retransmits.
	DropRequest bool
	// DropReply loses the reply message: the server processes the call but
	// the client times out and retransmits; the server's duplicate detection
	// then resends the cached reply without re-executing the handler
	// (Sprite RPC's at-most-once semantics, after Birrell & Nelson).
	DropReply bool
	// Delay adds one-way latency to the request leg.
	Delay time.Duration
}

// Injector decides the fate of individual RPC messages. Implementations must
// be deterministic functions of simulation state; Intercept runs in the
// calling activity, once per transmission attempt.
type Injector interface {
	Intercept(env *sim.Env, from, to HostID, service string, attempt int) Verdict
}

// Params configures per-call software overheads and loss recovery.
type Params struct {
	// ClientOverhead is CPU time charged to the caller per call (marshal,
	// trap, protocol processing on both ends folded together).
	ClientOverhead time.Duration
	// CallTimeout is how long the client waits for a reply before
	// retransmitting. Only lost messages (fault injection) ever make a call
	// wait this long.
	CallTimeout time.Duration
	// MaxRetries is how many retransmissions are attempted after the first
	// try before the call fails with ErrTimeout.
	MaxRetries int
	// RetryBackoff is the extra pause before the first retransmission,
	// doubling on each subsequent one.
	RetryBackoff time.Duration
	// BulkFragmentBytes is the payload carried by one fragment of a bulk
	// transfer (CallBulk). Fragments are pipelined: only the first in a
	// window pays the one-way latency.
	BulkFragmentBytes int
	// BulkWindow is how many bulk fragments may be in flight before the
	// sender must wait for an acknowledgement from the receiver.
	BulkWindow int
	// BulkFragOverhead is the per-fragment header cost in bytes (sequence
	// number, checksum, transaction id).
	BulkFragOverhead int
}

// DefaultParams returns Sun-3-era RPC software overhead (about 1 ms of
// processing per round trip in addition to two network traversals), with
// loss-recovery constants in the spirit of Sprite's RPC channel timeouts.
func DefaultParams() Params {
	return Params{
		ClientOverhead:    1 * time.Millisecond,
		CallTimeout:       25 * time.Millisecond,
		MaxRetries:        4,
		RetryBackoff:      10 * time.Millisecond,
		BulkFragmentBytes: 16 << 10,
		BulkWindow:        8,
		BulkFragOverhead:  32,
	}
}

// CallStats aggregates per-service call accounting. Cluster.MetricsSnapshot
// publishes each tagged field as the gauge rpc.service.<name>.<tag>.
type CallStats struct {
	Calls uint64 `metric:"calls"`
	Bytes uint64 `metric:"bytes"`
	Errs  uint64 `metric:"errs"`
}

// svcStats is the internal, concurrency-safe accumulator behind CallStats.
// Confined hosts record calls from concurrently dispatched workers, so the
// fields are atomics (integer addition commutes, so the merged totals match
// a serial run exactly).
type svcStats struct {
	calls atomic.Uint64
	bytes atomic.Uint64
	errs  atomic.Uint64
}

// svcCounters is one service's entry in the stats table: its calls, and
// its broadcasts, reported as "<name>.bcast".
type svcCounters struct{ call, bcast svcStats }

// Transport is the RPC fabric connecting all hosts.
type Transport struct {
	sim       *sim.Simulation
	net       *netsim.Network
	params    Params
	endpoints map[HostID]*Endpoint
	// stats is indexed by service id and grown under statsMu; calls on
	// concurrent workers read it through the atomic pointer.
	stats    atomic.Pointer[[]*svcCounters]
	statsMu  sync.Mutex
	injector Injector
	observer EpochObserver
	hintObs  HintObserver
	retries  atomic.Uint64
	timeouts atomic.Uint64

	// confined is set by ConfineHosts: every remote call is routed through
	// per-host shard mailboxes instead of executing the handler inline in
	// the caller's activity. serving says the endpoints' dispatchers run
	// (Rearm).
	confined, serving bool

	// The metrics plane (nil registry: discard instruments). Counter
	// pointers are cached here so the per-call cost is a handful of atomic
	// adds. The fabric-wide call totals are not among them: the stats table
	// and the retry atomics already count every call, and
	// Cluster.MetricsSnapshot publishes their sums.
	m struct {
		reg     *metrics.Registry
		perHost map[HostID]*hostCounters

		bulkCalls       *metrics.Counter
		bulkBytes       *metrics.Counter
		bulkFragments   *metrics.Counter
		bulkRetransmits *metrics.Counter
	}
}

// hostCounters is the cached per-destination-host instrument set.
type hostCounters struct {
	calls *metrics.Counter
	bytes *metrics.Counter
	errs  *metrics.Counter
}

// SetMetrics installs the registry receiving RPC traffic counters:
// per-destination rpc.to.<host>.{calls,bytes,errs} and the bulk
// transfers' rpc.bulk.*. A nil registry discards them, as a new transport
// does.
func (t *Transport) SetMetrics(reg *metrics.Registry) {
	t.m.reg = reg
	t.m.bulkCalls = reg.Counter("rpc.bulk.calls")
	t.m.bulkBytes = reg.Counter("rpc.bulk.bytes")
	t.m.bulkFragments = reg.Counter("rpc.bulk.fragments")
	t.m.bulkRetransmits = reg.Counter("rpc.bulk.retransmits")
	t.m.perHost = make(map[HostID]*hostCounters)
	if t.confined {
		t.precreateHostCounters()
	}
}

// precreateHostCounters materializes the per-destination instrument set for
// every registered host. Under confinement record() runs on concurrently
// dispatched workers, so the map must be complete (read-only) before any
// window executes.
func (t *Transport) precreateHostCounters() {
	for _, id := range t.Hosts() {
		t.makeHostCounters(id)
	}
}

func (t *Transport) makeHostCounters(to HostID) *hostCounters {
	hc := &hostCounters{
		calls: t.m.reg.Counter(fmt.Sprintf("rpc.to.%v.calls", to)),
		bytes: t.m.reg.Counter(fmt.Sprintf("rpc.to.%v.bytes", to)),
		errs:  t.m.reg.Counter(fmt.Sprintf("rpc.to.%v.errs", to)),
	}
	t.m.perHost[to] = hc
	return hc
}

func (t *Transport) hostCounters(to HostID) *hostCounters {
	hc, ok := t.m.perHost[to]
	if ok {
		return hc
	}
	if t.confined {
		// Unregistered destination (ErrNoHost path): skip the per-host
		// instruments rather than mutate the shared map from a confined
		// worker.
		return nil
	}
	return t.makeHostCounters(to)
}

// SetInjector installs (or, with nil, removes) the fault injector consulted
// on every remote call attempt. With no injector, calls never lose messages
// and the retry machinery is completely inert, keeping default runs
// bit-identical.
func (t *Transport) SetInjector(inj Injector) { t.injector = inj }

// SetEpochObserver installs (or, with nil, removes) the callback invoked
// with the server's boot epoch whenever a remote call's reply arrives.
// Observers must be pure bookkeeping: they run inside the calling activity
// and may not sleep, block, or issue further calls.
func (t *Transport) SetEpochObserver(obs EpochObserver) { t.observer = obs }

// SetHintObserver installs (or, with nil, removes) the callback receiving
// reply-piggybacked hint payloads. With no observer — or no endpoint
// provider — the piggyback machinery is completely inert.
func (t *Transport) SetHintObserver(obs HintObserver) { t.hintObs = obs }

// Retries returns the number of retransmissions performed so far.
func (t *Transport) Retries() uint64 { return t.retries.Load() }

// Timeouts returns the number of calls that failed with ErrTimeout.
func (t *Transport) Timeouts() uint64 { return t.timeouts.Load() }

// Confined reports whether ConfineHosts has switched the transport to
// per-host shard delivery.
func (t *Transport) Confined() bool { return t.confined }

// faulty reports whether any message-loss mechanism is installed. With no
// injector and no network hook, nothing is ever lost, so the confined call
// path can wait for replies without a timeout and the duplicate-suppression
// cache stays unallocated.
func (t *Transport) faulty() bool { return t.injector != nil || t.net.Hooked() }

// NewTransport returns an empty transport over the given network. The
// retransmission timeout and the bulk fragment geometry must be positive
// for the loss-recovery and bulk paths to make progress, so an unset one
// takes its DefaultParams value here, once.
func NewTransport(s *sim.Simulation, net *netsim.Network, params Params) *Transport {
	def := DefaultParams()
	if params.CallTimeout <= 0 {
		params.CallTimeout = def.CallTimeout
	}
	if params.BulkFragmentBytes <= 0 {
		params.BulkFragmentBytes = def.BulkFragmentBytes
	}
	if params.BulkWindow <= 0 {
		params.BulkWindow = def.BulkWindow
	}
	if params.BulkFragOverhead <= 0 {
		params.BulkFragOverhead = def.BulkFragOverhead
	}
	t := &Transport{
		sim:       s,
		net:       net,
		params:    params,
		endpoints: make(map[HostID]*Endpoint),
	}
	t.stats.Store(new([]*svcCounters))
	t.SetMetrics(nil)
	return t
}

// Register creates (or returns) the endpoint for a host. Registration must
// precede ConfineHosts: a confined transport's endpoint set is frozen, since
// every endpoint needs a request mailbox and dispatcher homed on its shard.
func (t *Transport) Register(host HostID) *Endpoint {
	if ep, ok := t.endpoints[host]; ok {
		return ep
	}
	if t.confined {
		panic(fmt.Sprintf("rpc: Register(%v) after ConfineHosts; confined transports have a frozen host set", host))
	}
	ep := &Endpoint{host: host, transport: t, epoch: 1}
	t.endpoints[host] = ep
	return ep
}

// Endpoint returns the endpoint for host, or nil if unregistered.
func (t *Transport) Endpoint(host HostID) *Endpoint { return t.endpoints[host] }

// Hosts returns all registered host ids in ascending order.
func (t *Transport) Hosts() []HostID {
	return slices.Sorted(maps.Keys(t.endpoints))
}

// Network returns the underlying network model.
func (t *Transport) Network() *netsim.Network { return t.net }

// Stats returns a copy of the per-service call statistics, keyed by service
// name for calls and "<name>.bcast" for broadcasts. A service appears once
// it has been called.
func (t *Transport) Stats() map[string]CallStats {
	out := make(map[string]CallStats)
	add := func(name string, st *svcStats) {
		if n := st.calls.Load(); n > 0 {
			c := out[name]
			out[name] = CallStats{Calls: c.Calls + n, Bytes: c.Bytes + st.bytes.Load(), Errs: c.Errs + st.errs.Load()}
		}
	}
	tab := *t.stats.Load()
	names := serviceNames() // loaded second: it covers every id in tab
	for id, c := range tab {
		add(names[id], &c.call)
		add(names[id]+".bcast", &c.bcast)
	}
	return out
}

// Totals returns the per-service statistics summed over every service,
// calls and broadcasts alike.
func (t *Transport) Totals() (out CallStats) {
	for _, c := range *t.stats.Load() {
		for _, st := range []*svcStats{&c.call, &c.bcast} {
			out.Calls += st.calls.Load()
			out.Bytes += st.bytes.Load()
			out.Errs += st.errs.Load()
		}
	}
	return out
}

// counters returns the stats table entry of service id, first growing the
// table to cover every service declared so far if it does not cover id.
func (t *Transport) counters(id int) *svcCounters {
	if tab := *t.stats.Load(); id < len(tab) {
		return tab[id]
	}
	t.statsMu.Lock()
	defer t.statsMu.Unlock()
	tab := *t.stats.Load()
	if n := len(serviceNames()); n > len(tab) {
		grown, block := make([]*svcCounters, n), make([]svcCounters, n-len(tab))
		for i := copy(grown, tab); i < n; i++ {
			grown[i] = &block[i-len(tab)]
		}
		t.stats.Store(&grown)
		tab = grown
	}
	return tab[id]
}

// record books one call of service id to host `to`.
func (t *Transport) record(env *sim.Env, to HostID, id int, bytes int, failed bool) {
	t.recordStats(env, to, &t.counters(id).call, bytes, failed)
}

func (t *Transport) recordStats(env *sim.Env, to HostID, st *svcStats, bytes int, failed bool) {
	st.calls.Add(1)
	st.bytes.Add(uint64(bytes))
	if failed {
		st.errs.Add(1)
	}
	if hc := t.hostCounters(to); hc != nil {
		slot := sim.WorkerSlot(env)
		hc.calls.IncSlot(slot)
		hc.bytes.AddSlot(slot, int64(bytes))
		if failed {
			hc.errs.IncSlot(slot)
		}
	}
}

// Endpoint is one host's attachment to the RPC fabric.
type Endpoint struct {
	host      HostID
	transport *Transport
	handlers  []any // HandlerFunc[A, R] by service id, nil where unregistered
	down      bool
	epoch     Epoch
	hints     HintProvider

	// Confined-mode state (ConfineHosts): the host's shard, its request
	// mailbox (homed on that shard), and the client-side transaction id
	// sequence. xidSeq is only touched from the endpoint's home shard or
	// the exclusive shard, so it needs no atomics.
	shard  int
	reqBox *sim.Mailbox
	xidSeq uint64

	// handlerNames caches the handler activity name of each service the
	// endpoint has served, so the dispatcher formats each once instead of
	// once per request; an endpoint serves a handful of services, so it is
	// a short list. idle holds the parked handler activities, at most
	// maxIdleHandlers of them, spare the shells of ended ones, calls the
	// free list of call records homed on the endpoint's shard (confine.go
	// says when one may return). Like xidSeq, all four are only touched
	// from that shard.
	handlerNames []svcName
	idle         []*handler
	spare        []*handler
	calls        []*callRec
}

// SetDown marks the host unreachable (failure injection); calls to it fail
// with ErrHostDown.
func (e *Endpoint) SetDown(down bool) { e.down = down }

// Down reports whether the host is marked unreachable.
func (e *Endpoint) Down() bool { return e.down }

// Epoch returns the host's current boot incarnation.
func (e *Endpoint) Epoch() Epoch { return e.epoch }

// SetHintProvider installs (or, with nil, removes) the provider whose
// payload is piggybacked on this endpoint's remote replies. The provider
// survives Restart: piggyback state is a property of the software running
// on the host, and reinstalling it on every reboot would lose hints queued
// by handlers that already ran under the new epoch.
func (e *Endpoint) SetHintProvider(p HintProvider) { e.hints = p }

// Restart brings the host back up under a new boot epoch. It is the
// transport-level half of a reboot: the address and service table survive,
// but every reply now advertises the new incarnation so peers can tell the
// host lost its volatile state.
func (e *Endpoint) Restart() {
	e.down = false
	e.epoch++
}

// handler returns the endpoint's handler for service id, or nil.
func (e *Endpoint) handler(id int) any {
	if id < len(e.handlers) {
		return e.handlers[id]
	}
	return nil
}

// resolve is the step every call shares before anything touches the wire:
// an unknown or down host fails the call, and so does a service the target
// does not implement. Under confinement a remote call's handler is looked up
// server-side instead — the handler table is shard-local state — so h comes
// back nil. A failure is recorded.
func (e *Endpoint) resolve(env *sim.Env, to HostID, s *svc, argSize int) (target *Endpoint, h any, err error) {
	t := e.transport
	target, ok := t.endpoints[to]
	switch {
	case !ok:
		err = fmt.Errorf("%w: %v", ErrNoHost, to)
	case target.down || e.down:
		err = fmt.Errorf("%w: %v", ErrHostDown, to)
	case e.host == to || !t.confined:
		if h = target.handler(s.id); h == nil {
			err = fmt.Errorf("%w: %s on %v", ErrNoService, s.name, to)
		}
	}
	if err != nil {
		t.record(env, to, s.id, argSize, true)
		return nil, nil, err
	}
	return target, h, nil
}

// replied delivers a remote reply's piggybacks, its server's boot epoch and
// hint payload, to the transport's observers.
func (e *Endpoint) replied(to HostID, epoch Epoch, hint any) {
	t := e.transport
	if t.observer != nil {
		t.observer(to, epoch)
	}
	if t.hintObs != nil && hint != nil {
		t.hintObs(e.host, to, hint)
	}
}

// noReply is the roundTrip reply size of a one-way control message.
const noReply = -1

// roundTrip is one request/reply exchange on the blocking wire, with the
// per-attempt loss recovery every such exchange shares: consult the
// injector, send the request, send the reply. A lost message costs the
// retransmission timeout plus backoff and another attempt, up to
// MaxRetries. serve, when set, runs between the legs and sizes the reply —
// once, however many attempts it takes: a retransmission of an
// already-served request is answered from the cached reply, Sprite RPC's
// at-most-once rule. On failure lost reports that the wire gave the call
// up (dead host, retries spent) rather than the caller's own activity being
// interrupted mid-send.
func (e *Endpoint) roundTrip(env *sim.Env, target *Endpoint, service string, reqSize, replySize int, serve func() int) (lost bool, err error) {
	t := e.transport
	served := false
	for attempt := 0; ; attempt++ {
		// A host that went down between attempts fails fast, like a channel
		// reset in Sprite RPC.
		if target.down || e.down {
			return true, fmt.Errorf("%w: %v", ErrHostDown, target.host)
		}
		var v Verdict
		if t.injector != nil {
			v = t.injector.Intercept(env, e.host, target.host, service, attempt)
		}
		if v.Delay > 0 {
			if err := env.Sleep(v.Delay); err != nil {
				return false, err
			}
		}
		dropped := v.DropRequest
		if !dropped {
			if err := t.net.Send(env, reqSize); err != nil {
				if !errors.Is(err, netsim.ErrDropped) {
					return false, err
				}
				dropped = true
			}
		}
		if !dropped {
			if serve != nil && !served {
				replySize = serve()
				served = true
			}
			if replySize == noReply {
				return false, nil
			}
			dropped = v.DropReply
		}
		if !dropped {
			err := t.net.Send(env, replySize)
			if err == nil {
				return false, nil
			}
			if !errors.Is(err, netsim.ErrDropped) {
				return false, err
			}
		}
		if err := e.awaitRetry(env, target.host, service, attempt); err != nil {
			return true, err
		}
	}
}

// awaitRetry charges the client the retransmission timeout plus exponential
// backoff, or fails the call with ErrTimeout once the retry budget is spent.
func (e *Endpoint) awaitRetry(env *sim.Env, to HostID, service string, attempt int) error {
	if err := env.Sleep(e.transport.params.CallTimeout); err != nil {
		return err
	}
	return e.retryBookkeeping(env, to, service, attempt)
}

// retryBookkeeping is awaitRetry after the timeout has already elapsed (the
// confined path waits it out inside Mailbox.RecvTimeout): count the retry or
// the final timeout and charge the exponential backoff.
func (e *Endpoint) retryBookkeeping(env *sim.Env, to HostID, service string, attempt int) error {
	t := e.transport
	if attempt >= t.params.MaxRetries {
		t.timeouts.Add(1)
		return fmt.Errorf("%w: %s to %v after %d attempts", ErrTimeout, service, to, attempt+1)
	}
	t.retries.Add(1)
	if b := t.params.RetryBackoff; b > 0 {
		return env.Sleep(b << uint(attempt))
	}
	return nil
}
