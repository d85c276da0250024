package hostsel

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"sprite/internal/core"
	"sprite/internal/metrics"
	"sprite/internal/rpc"
	"sprite/internal/sim"
)

// ProbabilisticParams configures the MOSIX-style gossip selector.
type ProbabilisticParams struct {
	// Fanout is how many random peers receive each gossip message.
	Fanout int
	// Interval is the periodic gossip period (MOSIX used one second).
	Interval time.Duration
	// ClaimLease bounds how long a claim can sit unreleased before a new
	// claimer may take the host anyway. It is the backstop for claims whose
	// holder became unreachable without the host itself rebooting (a reboot
	// already voids claims through the epoch guard).
	ClaimLease time.Duration
}

// staleAfter ages out view entries older than this; vectorBound caps each
// host's partial load vector, keeping views and gossip messages O(1) in the
// cluster size; hintBound caps the eviction hints piggybacked on one RPC
// reply.
const (
	staleAfter  = 10 * time.Second
	vectorBound = 32
	hintBound   = 4
)

// DefaultProbabilisticParams mirrors the MOSIX description: one-second
// gossip of a small bounded load vector to a few random peers.
func DefaultProbabilisticParams() ProbabilisticParams {
	return ProbabilisticParams{
		Fanout:     3,
		Interval:   time.Second,
		ClaimLease: time.Minute,
	}
}

// GossipStats are the gossip-specific counters on top of the common Stats.
type GossipStats struct {
	Rounds       uint64 // gossip rounds executed
	Sent         uint64 // gossip messages sent
	Unreachable  uint64 // gossip sends lost to down/partitioned peers
	EntriesSent  uint64 // vector entries shipped
	Merged       uint64 // entries accepted into some view
	Bytes        uint64 // gossip payload bytes on the wire
	HintsQueued  uint64 // eviction hints queued for piggybacking
	HintsApplied uint64 // piggybacked hints that retracted a view entry
	Misplaced    uint64 // claims that failed because the view was stale
	StaleEvicted uint64 // view entries aged out by decay
}

// Probabilistic is the distributed, gossip-based architecture: each host
// maintains a bounded partial load vector (load, idle time, free memory,
// boot epoch) with per-entry age. Every gossip round a host refreshes its
// own row and merges the newest half of its vector into a few random
// peers' views; entries age out by decay, reboots invalidate older
// incarnations through the epoch guard, and eviction hints piggybacked on
// ordinary RPC replies retract stale positive entries between rounds.
// Selection reads the local vector youngest-entry first and verifies each
// pick with a claim message; staleness shows up as misplaced claims
// (hostsel.gossip.misplace) rather than as double allocations.
type Probabilistic struct {
	cluster *core.Cluster
	params  ProbabilisticParams

	hosts  []rpc.HostID
	views  map[rpc.HostID]*LoadVector
	viewAt map[rpc.HostID]time.Duration
	claims map[rpc.HostID]claimRec
	hints  map[rpc.HostID][]EvictHint

	stopped  bool
	stats    Stats
	gstats   GossipStats
	hintSink func(subject rpc.HostID)

	misplaceC *metrics.Counter
	ageT      *metrics.Timing
	hintC     *metrics.Counter
	evictC    *metrics.Counter
}

var _ Selector = (*Probabilistic)(nil)

// claimRec is one held claim, bound to the boot incarnation that granted
// it: a claim taken under an older epoch died with the reboot. The
// claimant's own boot epoch is recorded too, so a claim whose holder dies
// mid-claim can be scrubbed when the death is reaped (ScrubDeadClaimant)
// without voiding a claim re-taken by the holder's next incarnation.
type claimRec struct {
	client      rpc.HostID
	epoch       rpc.Epoch // owner's boot epoch when granted
	clientEpoch rpc.Epoch // claimant's boot epoch when granted
	at          time.Duration
}

// Wire sizes for the gossip protocol (modeled, like every argSize here).
const (
	gossipBaseBytes  = 16
	gossipEntryBytes = 40
	hintBytes        = 12
)

type gossipArgs struct {
	From    rpc.HostID
	Entries []VectorEntry
}

type claimArgs struct {
	Client rpc.HostID
}

// claimReply carries the claim/release verdict plus a fresh self-sample of
// the replying host, so even a misplaced claim refreshes the caller's view.
type claimReply struct {
	OK    bool
	State VectorEntry
}

// The gossip selector's services.
var (
	hsGossip  = rpc.NewService[gossipArgs, struct{}]("hs.gossip")
	hsClaim   = rpc.NewService[claimArgs, claimReply]("hs.claim")
	hsRelease = rpc.NewService[claimArgs, claimReply]("hs.release")
)

// hintBatch is the reply-piggyback payload: pending eviction hints.
type hintBatch struct {
	Hints []EvictHint
}

// NewProbabilistic creates the gossip selector, registers its services on
// every workstation, and wires eviction hints into the RPC reply piggyback.
func NewProbabilistic(cluster *core.Cluster, params ProbabilisticParams) *Probabilistic {
	if params.Fanout <= 0 {
		params.Fanout = 3
	}
	if params.Interval <= 0 {
		params.Interval = time.Second
	}
	reg := cluster.Metrics()
	p := &Probabilistic{
		cluster: cluster,
		params:  params,
		views:   make(map[rpc.HostID]*LoadVector),
		viewAt:  make(map[rpc.HostID]time.Duration),
		claims:  make(map[rpc.HostID]claimRec),
		hints:   make(map[rpc.HostID][]EvictHint),

		misplaceC: reg.Counter("hostsel.gossip.misplace"),
		ageT:      reg.Timing("hostsel.gossip.age"),
		hintC:     reg.Counter("hostsel.gossip.hints"),
		evictC:    reg.Counter("hostsel.gossip.evict"),
	}
	for _, k := range cluster.Workstations() {
		h := k.Host()
		p.hosts = append(p.hosts, h)
		p.views[h] = NewLoadVector(vectorBound)
		ep := cluster.Transport().Endpoint(h)
		hsGossip.Handle(ep, p.makeGossipHandler(h))
		hsClaim.Handle(ep, p.makeClaimHandler(h))
		hsRelease.Handle(ep, p.makeReleaseHandler(h))
		host := h
		ep.SetHintProvider(func() (any, int) {
			hints := p.takeHints(host)
			if len(hints) == 0 {
				return nil, 0
			}
			return hintBatch{Hints: hints}, hintBytes * len(hints)
		})
	}
	cluster.Transport().SetHintObserver(p.observeHints)
	cluster.AddReapHook(func(env *sim.Env, host rpc.HostID, epoch rpc.Epoch) {
		p.ScrubDeadClaimant(host, epoch)
	})
	return p
}

// Name implements Selector.
func (p *Probabilistic) Name() string { return "gossip" }

// Stats implements Selector.
func (p *Probabilistic) Stats() Stats { return p.stats }

// Gossip returns the gossip-specific counters.
func (p *Probabilistic) Gossip() GossipStats { return p.gstats }

// tolerable reports whether a call error is an expected churn outcome
// (down peer, partition, reboot window) rather than a simulation error.
// Gossip is an epidemic protocol: losing a round to an unreachable peer is
// the normal case, and the next round routes around it.
func tolerable(err error) bool {
	return errors.Is(err, rpc.ErrHostDown) ||
		errors.Is(err, rpc.ErrTimeout) ||
		errors.Is(err, rpc.ErrNoService) ||
		errors.Is(err, rpc.ErrNoHost)
}

// view returns host's vector decayed up to now.
func (p *Probabilistic) view(host rpc.HostID, now time.Duration) *LoadVector {
	v := p.views[host]
	if v == nil {
		return nil
	}
	if last, ok := p.viewAt[host]; ok && now > last {
		if n := v.Decay(now-last, staleAfter); n > 0 {
			p.stats.Evictions += uint64(n)
			p.gstats.StaleEvicted += uint64(n)
			p.evictC.Add(int64(n))
		}
	}
	p.viewAt[host] = now
	return v
}

// resetView discards host's volatile view state (a reboot lost it).
func (p *Probabilistic) resetView(host rpc.HostID, now time.Duration) {
	p.views[host] = NewLoadVector(vectorBound)
	p.viewAt[host] = now
	delete(p.hints, host)
}

// memPages is the modeled physical memory per workstation, the baseline
// for the free-memory proxy in the load vector.
const memPages = 4096

// sample takes a fresh self-observation of host.
func (p *Probabilistic) sample(host rpc.HostID, now time.Duration) VectorEntry {
	e := VectorEntry{Host: host, Epoch: p.epochOf(host)}
	k := p.cluster.KernelOn(host)
	if k == nil {
		return e
	}
	free := memPages
	for _, pr := range k.Processes() {
		if sp := pr.Space(); sp != nil {
			free -= sp.ResidentPages()
		}
	}
	if free < 0 {
		free = 0
	}
	e.Available = k.Available(now)
	e.Load = k.LoadAverage(now)
	e.IdleSince = k.LastInput()
	e.FreePages = free
	return e
}

func (p *Probabilistic) epochOf(host rpc.HostID) rpc.Epoch {
	if ep := p.cluster.Transport().Endpoint(host); ep != nil {
		return ep.Epoch()
	}
	return 0
}

// SetHintSink installs a callback fired once for every eviction hint
// queued, with the hint's subject (the host the hint retracts). The fleet
// health plane counts per-host hint rate through it. The callback runs in
// the queueing activity's context and must not block or add simulated
// time; nil removes it.
func (p *Probabilistic) SetHintSink(fn func(subject rpc.HostID)) { p.hintSink = fn }

// ScrubDeadClaimant releases every claim held by a claimant whose boot
// incarnation <= epoch has been declared dead: the holder's memory — and
// with it the intent to release — is gone, so without the scrub the claim
// leaks until its lease expires (or forever with no lease), surfacing only
// in the end-of-run ledger audit. The epoch guard keeps a claim re-taken
// by the claimant's next incarnation intact. Registered as a cluster reap
// hook, so it runs exactly when the death becomes cluster-wide knowledge.
func (p *Probabilistic) ScrubDeadClaimant(claimant rpc.HostID, epoch rpc.Epoch) {
	for owner, rec := range p.claims {
		if rec.client == claimant && rec.clientEpoch <= epoch {
			delete(p.claims, owner)
		}
	}
}

// claimed reports whether host holds a live claim at now, lazily releasing
// records voided by the epoch guard or an expired lease. A claim taken
// under an earlier boot epoch is memory the reboot destroyed: honoring it
// would leak the host forever, since its holder's release will be a no-op.
func (p *Probabilistic) claimed(host rpc.HostID, now time.Duration) bool {
	rec, ok := p.claims[host]
	if !ok {
		return false
	}
	if rec.epoch != p.epochOf(host) {
		delete(p.claims, host)
		return false
	}
	if p.params.ClaimLease > 0 && now-rec.at >= p.params.ClaimLease {
		delete(p.claims, host)
		return false
	}
	return true
}

// StartDaemons spawns the per-host gossip tickers. They run until Stop is
// called (or the simulation ends), skipping rounds while their host is
// down and resetting their view after a reboot (the old view died with the
// old incarnation's memory).
func (p *Probabilistic) StartDaemons(env *sim.Env) {
	for _, h := range p.hosts {
		host := h
		env.Spawn(fmt.Sprintf("gossip-%v", host), func(genv *sim.Env) error {
			lastEpoch := p.epochOf(host)
			for !p.stopped {
				if err := genv.Sleep(p.params.Interval); err != nil {
					return err
				}
				if p.stopped {
					return nil
				}
				if p.cluster.HostDown(host) {
					continue
				}
				if cur := p.epochOf(host); cur != lastEpoch {
					p.resetView(host, genv.Now())
					lastEpoch = cur
				}
				if err := p.gossipFrom(genv, host); err != nil {
					return err
				}
			}
			return nil
		})
	}
}

// Stop ends the gossip daemons at their next tick.
func (p *Probabilistic) Stop() { p.stopped = true }

// gossipFrom runs one gossip round for host: refresh the host's own row,
// then merge the newest half of its vector into Fanout random peers.
func (p *Probabilistic) gossipFrom(env *sim.Env, host rpc.HostID) error {
	if p.cluster.HostDown(host) || p.cluster.KernelOn(host) == nil {
		return nil
	}
	now := env.Now()
	v := p.view(host, now)
	if v == nil {
		return nil
	}
	v.Put(p.sample(host, now))
	payload := v.NewestHalf()
	ep := p.cluster.Transport().Endpoint(host)
	peers := make([]rpc.HostID, 0, len(p.hosts)-1)
	for _, h := range p.hosts {
		if h != host {
			peers = append(peers, h)
		}
	}
	rng := env.Rand()
	rng.Shuffle(len(peers), func(i, j int) { peers[i], peers[j] = peers[j], peers[i] })
	n := p.params.Fanout
	if n > len(peers) {
		n = len(peers)
	}
	p.gstats.Rounds++
	size := gossipBaseBytes + gossipEntryBytes*len(payload)
	for _, peer := range peers[:n] {
		p.stats.Messages++
		p.gstats.Sent++
		p.gstats.EntriesSent += uint64(len(payload))
		p.gstats.Bytes += uint64(size)
		if _, err := hsGossip.Call(ep, env, peer, gossipArgs{From: host, Entries: payload}, size); err != nil {
			if tolerable(err) {
				p.gstats.Unreachable++
				continue
			}
			return err
		}
	}
	return nil
}

func (p *Probabilistic) makeGossipHandler(owner rpc.HostID) rpc.HandlerFunc[gossipArgs, struct{}] {
	return func(env *sim.Env, from rpc.HostID, a gossipArgs) (struct{}, int, error) {
		v := p.view(owner, env.Now())
		if v == nil {
			return struct{}{}, 8, nil
		}
		for _, e := range a.Entries {
			if e.Host == owner {
				continue // a host is its own best source of truth
			}
			if v.Update(e) {
				p.gstats.Merged++
			}
		}
		return struct{}{}, 8, nil
	}
}

func (p *Probabilistic) makeClaimHandler(owner rpc.HostID) rpc.HandlerFunc[claimArgs, claimReply] {
	return func(env *sim.Env, from rpc.HostID, a claimArgs) (claimReply, int, error) {
		now := env.Now()
		k := p.cluster.KernelOn(owner)
		state := p.sample(owner, now)
		if p.claimed(owner, now) || k == nil || !k.Available(now) {
			state.Available = false
			// Queue a hint so ordinary replies from this host retract any
			// stale positive entry other peers still hold.
			p.pushHint(owner, EvictHint{Host: owner, Epoch: state.Epoch})
			return claimReply{OK: false, State: state}, gossipEntryBytes + 8, nil
		}
		p.claims[owner] = claimRec{
			client: a.Client, epoch: state.Epoch,
			clientEpoch: p.epochOf(a.Client), at: now,
		}
		state.Available = false // claimed now: not available to anyone else
		return claimReply{OK: true, State: state}, gossipEntryBytes + 8, nil
	}
}

func (p *Probabilistic) makeReleaseHandler(owner rpc.HostID) rpc.HandlerFunc[claimArgs, claimReply] {
	return func(env *sim.Env, from rpc.HostID, a claimArgs) (claimReply, int, error) {
		now := env.Now()
		if rec, ok := p.claims[owner]; ok {
			if rec.client == a.Client || rec.epoch != p.epochOf(owner) {
				delete(p.claims, owner)
			}
		}
		state := p.sample(owner, now)
		if p.claimed(owner, now) {
			state.Available = false
		}
		return claimReply{OK: true, State: state}, gossipEntryBytes + 8, nil
	}
}

// pushHint queues an eviction hint on host's outgoing piggyback queue,
// replacing any older hint about the same subject.
func (p *Probabilistic) pushHint(host rpc.HostID, h EvictHint) {
	if p.hintSink != nil {
		p.hintSink(h.Host)
	}
	q := p.hints[host]
	for i, old := range q {
		if old.Host == h.Host {
			if h.Epoch >= old.Epoch {
				q[i] = h
			}
			return
		}
	}
	if limit := hintBound * 4; len(q) >= limit {
		q = q[1:]
	}
	p.hints[host] = append(q, h)
	p.gstats.HintsQueued++
	p.hintC.Inc()
}

// takeHints drains up to hintBound hints from host's queue (the reply
// piggyback provider).
func (p *Probabilistic) takeHints(host rpc.HostID) []EvictHint {
	q := p.hints[host]
	if len(q) == 0 {
		return nil
	}
	n := hintBound
	if n > len(q) {
		n = len(q)
	}
	out := make([]EvictHint, n)
	copy(out, q[:n])
	if len(q) == n {
		delete(p.hints, host)
	} else {
		p.hints[host] = append([]EvictHint(nil), q[n:]...)
	}
	return out
}

// observeHints is the transport hint observer: hints piggybacked on a
// reply retract stale positive entries in the calling host's view. It runs
// inside the calling activity and only mutates local view state.
func (p *Probabilistic) observeHints(caller, server rpc.HostID, payload any) {
	b, ok := payload.(hintBatch)
	if !ok {
		return
	}
	v := p.views[caller]
	if v == nil {
		return
	}
	for _, h := range b.Hints {
		if h.Host == caller {
			continue
		}
		if v.ApplyHint(h) {
			p.gstats.HintsApplied++
		}
	}
}

// NotifyAvailability implements Selector: the transition refreshes the
// host's own row and gossips immediately (in addition to the periodic
// tick); an unavailability transition also queues an eviction hint.
func (p *Probabilistic) NotifyAvailability(env *sim.Env, host rpc.HostID, available bool) error {
	if _, ok := p.views[host]; !ok {
		return nil
	}
	if !available {
		p.pushHint(host, EvictHint{Host: host, Epoch: p.epochOf(host)})
	}
	return p.gossipFrom(env, host)
}

// RequestHosts implements Selector: consult the client's local vector,
// youngest entries first, and verify each pick with a claim message. A
// failed claim is a misplacement — the staleness cost the gossip design
// accepts — and feeds back a fresh negative entry plus an eviction hint.
func (p *Probabilistic) RequestHosts(env *sim.Env, client rpc.HostID, n int) ([]rpc.HostID, error) {
	p.stats.Requests++
	now := env.Now()
	v := p.view(client, now)
	if v == nil {
		return nil, fmt.Errorf("hostsel: %v runs no gossip view", client)
	}
	var cands []VectorEntry
	for _, e := range v.Entries() {
		if e.Available && e.Host != client {
			cands = append(cands, e)
		}
	}
	ep := p.cluster.Transport().Endpoint(client)
	var got []rpc.HostID
	for _, cd := range cands {
		if len(got) >= n {
			break
		}
		p.stats.Messages++
		p.ageT.ObserveSlot(sim.WorkerSlot(env), cd.Age)
		cr, err := hsClaim.Call(ep, env, cd.Host, claimArgs{Client: client}, 16)
		if err != nil {
			if tolerable(err) {
				// The candidate is down, rebooting, or partitioned away:
				// the view was stale about its reachability.
				p.misplaced(v, client, cd)
				continue
			}
			return got, err
		}
		v.Put(cr.State)
		if cr.OK {
			got = append(got, cd.Host)
		} else {
			p.misplaced(v, client, cd)
		}
	}
	p.stats.Granted += uint64(len(got))
	if len(got) < n {
		p.stats.Denied++
	}
	return got, nil
}

// misplaced records one stale-view claim failure and spreads the
// correction: drop/retract the entry locally and queue an eviction hint so
// the client's own replies carry the news.
func (p *Probabilistic) misplaced(v *LoadVector, client rpc.HostID, cd VectorEntry) {
	p.stats.Conflicts++
	p.gstats.Misplaced++
	p.misplaceC.Inc()
	v.ApplyHint(EvictHint{Host: cd.Host, Epoch: cd.Epoch})
	p.pushHint(client, EvictHint{Host: cd.Host, Epoch: cd.Epoch})
}

// Release implements Selector. Releases to unreachable hosts are
// tolerated: a host that went down comes back under a new epoch (voiding
// the claim through the epoch guard), and a partitioned host's claim
// expires with the lease.
func (p *Probabilistic) Release(env *sim.Env, client rpc.HostID, hosts []rpc.HostID) error {
	now := env.Now()
	v := p.view(client, now)
	ep := p.cluster.Transport().Endpoint(client)
	for _, h := range hosts {
		p.stats.Messages++
		cr, err := hsRelease.Call(ep, env, h, claimArgs{Client: client}, 16)
		if err != nil {
			if tolerable(err) {
				if v != nil {
					v.Remove(h)
				}
				continue
			}
			return err
		}
		if v != nil {
			v.Put(cr.State)
		}
	}
	return nil
}

// OutstandingClaims returns the hosts currently holding a live (current
// epoch, unexpired) claim, keyed to the claiming client — the audit hook
// for the churn suite's leak checks.
func (p *Probabilistic) OutstandingClaims(now time.Duration) map[rpc.HostID]rpc.HostID {
	out := make(map[rpc.HostID]rpc.HostID)
	for host, rec := range p.claims {
		if rec.epoch != p.epochOf(host) {
			continue
		}
		if p.params.ClaimLease > 0 && now-rec.at >= p.params.ClaimLease {
			continue
		}
		out[host] = rec.client
	}
	return out
}

// ViewSnapshot renders every host's vector deterministically — the
// byte-identical fingerprint the determinism regression tests compare.
func (p *Probabilistic) ViewSnapshot() string {
	hosts := make([]rpc.HostID, len(p.hosts))
	copy(hosts, p.hosts)
	sort.Slice(hosts, func(i, j int) bool { return hosts[i] < hosts[j] })
	var b strings.Builder
	for _, h := range hosts {
		v := p.views[h]
		if v == nil {
			continue
		}
		fmt.Fprintf(&b, "view %v (%d entries, decayed at %v):\n", h, v.Len(), p.viewAt[h])
		for _, line := range strings.Split(strings.TrimRight(v.Snapshot(), "\n"), "\n") {
			if line == "" {
				continue
			}
			b.WriteString("  ")
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	return b.String()
}
