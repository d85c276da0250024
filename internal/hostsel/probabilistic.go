package hostsel

import (
	"errors"
	"fmt"
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

func (g *GossipStats) add(o GossipStats) {
	g.Rounds += o.Rounds
	g.Sent += o.Sent
	g.Unreachable += o.Unreachable
	g.EntriesSent += o.EntriesSent
	g.Merged += o.Merged
	g.Bytes += o.Bytes
	g.HintsQueued += o.HintsQueued
	g.HintsApplied += o.HintsApplied
	g.Misplaced += o.Misplaced
	g.StaleEvicted += o.StaleEvicted
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

	stations []*station // one per workstation, in host order
	at       perHost[station]

	stopped  bool
	hintSink func(subject rpc.HostID)

	misplaceC *metrics.Counter
	ageT      *metrics.Timing
	hintC     *metrics.Counter
	evictC    *metrics.Counter
}

var _ Selector = (*Probabilistic)(nil)

// station is one workstation's share of the gossip plane: its view and
// when the view last decayed, the claim it holds as an owner, its outgoing
// hint queue, and the counters of what it does. Only the host's own
// handlers, hint provider, hint observer and gossip daemon reach it, plus
// calls made for the host as a client; the readers of every station
// (Stats, Gossip, OutstandingClaims, ViewSnapshot, the reap hook) run in
// exclusive context.
type station struct {
	host   rpc.HostID
	view   *LoadVector
	viewAt time.Duration
	claim  claimRec
	hints  []EvictHint
	stats  Stats
	gstats GossipStats
}

// claimRec is one held claim, bound to the boot incarnation that granted
// it: a claim taken under an older epoch died with the reboot. The
// claimant's own boot epoch is recorded too, so a claim whose holder dies
// mid-claim can be scrubbed when the death is reaped (scrub) without
// voiding a claim re-taken by the holder's next incarnation.
type claimRec struct {
	client      rpc.HostID // 0: no claim held
	epoch       rpc.Epoch  // owner's boot epoch when granted
	clientEpoch rpc.Epoch  // claimant's boot epoch when granted
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
		at:      make(perHost[station]),

		misplaceC: reg.Counter("hostsel.gossip.misplace"),
		ageT:      reg.Timing("hostsel.gossip.age"),
		hintC:     reg.Counter("hostsel.gossip.hints"),
		evictC:    reg.Counter("hostsel.gossip.evict"),
	}
	for _, k := range cluster.Workstations() {
		st := &station{host: k.Host(), view: NewLoadVector(vectorBound)}
		p.stations = append(p.stations, st)
		p.at[st.host] = st
		p.serve(st)
	}
	cluster.Transport().SetHintObserver(p.observeHints)
	cluster.AddReapHook(func(env *sim.Env, host rpc.HostID, epoch rpc.Epoch) {
		for _, st := range p.stations {
			st.claim.scrub(host, epoch)
		}
	})
	return p
}

// Name implements Selector.
func (p *Probabilistic) Name() string { return "gossip" }

// Stats implements Selector: every station's counters, summed in host
// order.
func (p *Probabilistic) Stats() Stats {
	var s Stats
	for _, st := range p.stations {
		s.add(st.stats)
	}
	return s
}

// Gossip returns the gossip-specific counters, summed in host order.
func (p *Probabilistic) Gossip() GossipStats {
	var g GossipStats
	for _, st := range p.stations {
		g.add(st.gstats)
	}
	return g
}

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

// view returns st's vector decayed up to now.
func (p *Probabilistic) view(env *sim.Env, st *station) *LoadVector {
	now := env.Now()
	if now > st.viewAt {
		if n := st.view.Decay(now-st.viewAt, staleAfter); n > 0 {
			st.stats.Evictions += uint64(n)
			st.gstats.StaleEvicted += uint64(n)
			p.evictC.AddSlot(sim.WorkerSlot(env), int64(n))
		}
	}
	st.viewAt = now
	return st.view
}

// memPages is the modeled physical memory per workstation, the baseline
// for the free-memory proxy in the load vector.
const memPages = 4096

// sample takes a fresh self-observation of host.
func (p *Probabilistic) sample(host rpc.HostID, now time.Duration) VectorEntry {
	e := VectorEntry{Host: host, Epoch: p.cluster.HostEpoch(host)}
	k := p.cluster.KernelOn(host)
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

// SetHintSink installs a callback fired once for every eviction hint
// queued, with the hint's subject (the host the hint retracts). The fleet
// health plane counts per-host hint rate through it. The callback runs in
// the queueing activity's context and must not block or add simulated
// time; nil removes it.
func (p *Probabilistic) SetHintSink(fn func(subject rpc.HostID)) { p.hintSink = fn }

// scrub releases the claim if claimant's incarnation that holds it (<=
// epoch) has been declared dead: the holder's memory, and with it the
// intent to release, is gone, so without the scrub the claim leaks until
// its lease expires (or forever with no lease). The epoch guard keeps a
// claim re-taken by the claimant's next incarnation intact. Selectors run
// it from a cluster reap hook, exactly when the death becomes cluster-wide
// knowledge.
func (rec *claimRec) scrub(claimant rpc.HostID, epoch rpc.Epoch) {
	if rec.client == claimant && rec.clientEpoch <= epoch {
		*rec = claimRec{}
	}
}

// claimed reports whether st holds a live claim at now: one granted under
// the host's current boot epoch and inside its lease. A claim taken under
// an earlier epoch is memory the reboot destroyed: honoring it would leak
// the host forever, since its holder's release will be a no-op. A claim
// that is not live never becomes live again, so the next grant simply
// overwrites it.
func (p *Probabilistic) claimed(st *station, now time.Duration) bool {
	rec := st.claim
	return rec.client != 0 && rec.epoch == p.cluster.HostEpoch(st.host) &&
		(p.params.ClaimLease <= 0 || now-rec.at < p.params.ClaimLease)
}

// StartDaemons spawns the per-host gossip tickers. They run until Stop is
// called (or the simulation ends), skipping rounds while their host is
// down and resetting their view after a reboot (the old view died with the
// old incarnation's memory).
func (p *Probabilistic) StartDaemons(env *sim.Env) {
	for _, st := range p.stations {
		env.Spawn(fmt.Sprintf("gossip-%v", st.host), func(genv *sim.Env) error {
			lastEpoch := p.cluster.HostEpoch(st.host)
			for !p.stopped {
				if err := genv.Sleep(p.params.Interval); err != nil {
					return err
				}
				if p.stopped {
					return nil
				}
				if p.cluster.HostDown(st.host) {
					continue
				}
				if cur := p.cluster.HostEpoch(st.host); cur != lastEpoch {
					st.view, st.viewAt, st.hints = NewLoadVector(vectorBound), genv.Now(), nil
					lastEpoch = cur
				}
				if err := p.gossipFrom(genv, st); err != nil {
					return err
				}
			}
			return nil
		})
	}
}

// Stop ends the gossip daemons at their next tick.
func (p *Probabilistic) Stop() { p.stopped = true }

// gossipFrom runs one gossip round for st's host: refresh the host's own
// row, then merge the newest half of its vector into Fanout random peers.
func (p *Probabilistic) gossipFrom(env *sim.Env, st *station) error {
	host := st.host
	if p.cluster.HostDown(host) {
		return nil
	}
	v := p.view(env, st)
	v.Put(p.sample(host, env.Now()))
	payload := v.NewestHalf()
	ep := p.cluster.Transport().Endpoint(host)
	peers := make([]rpc.HostID, 0, len(p.stations)-1)
	for _, peer := range p.stations {
		if peer != st {
			peers = append(peers, peer.host)
		}
	}
	rng := env.Rand()
	rng.Shuffle(len(peers), func(i, j int) { peers[i], peers[j] = peers[j], peers[i] })
	n := p.params.Fanout
	if n > len(peers) {
		n = len(peers)
	}
	st.gstats.Rounds++
	size := gossipBaseBytes + gossipEntryBytes*len(payload)
	for _, peer := range peers[:n] {
		st.stats.Messages++
		st.gstats.Sent++
		st.gstats.EntriesSent += uint64(len(payload))
		st.gstats.Bytes += uint64(size)
		if _, err := hsGossip.Call(ep, env, peer, gossipArgs{From: host, Entries: payload}, size); err != nil {
			if tolerable(err) {
				st.gstats.Unreachable++
				continue
			}
			return err
		}
	}
	return nil
}

// serve registers st's host's three gossip services and its reply-hint
// provider; each closes over st alone.
func (p *Probabilistic) serve(st *station) {
	owner := st.host
	ep := p.cluster.Transport().Endpoint(owner)
	hsGossip.Handle(ep, func(env *sim.Env, from rpc.HostID, a gossipArgs) (struct{}, int, error) {
		v := p.view(env, st)
		for _, e := range a.Entries {
			if e.Host == owner {
				continue // a host is its own best source of truth
			}
			if v.Update(e) {
				st.gstats.Merged++
			}
		}
		return struct{}{}, 8, nil
	})
	hsClaim.Handle(ep, func(env *sim.Env, from rpc.HostID, a claimArgs) (claimReply, int, error) {
		now := env.Now()
		k := p.cluster.KernelOn(owner)
		state := p.sample(owner, now)
		if p.claimed(st, now) || !k.Available(now) {
			state.Available = false
			// Queue a hint so ordinary replies from this host retract any
			// stale positive entry other peers still hold.
			p.pushHint(env, st, EvictHint{Host: owner, Epoch: state.Epoch})
			return claimReply{OK: false, State: state}, gossipEntryBytes + 8, nil
		}
		st.claim = claimRec{
			client: a.Client, epoch: state.Epoch,
			clientEpoch: p.cluster.HostEpoch(a.Client), at: now,
		}
		state.Available = false // claimed now: not available to anyone else
		return claimReply{OK: true, State: state}, gossipEntryBytes + 8, nil
	})
	hsRelease.Handle(ep, func(env *sim.Env, from rpc.HostID, a claimArgs) (claimReply, int, error) {
		now := env.Now()
		if st.claim.client == a.Client {
			st.claim = claimRec{}
		}
		state := p.sample(owner, now)
		if p.claimed(st, now) {
			state.Available = false
		}
		return claimReply{OK: true, State: state}, gossipEntryBytes + 8, nil
	})
	ep.SetHintProvider(func() (any, int) {
		hints := p.takeHints(st)
		if len(hints) == 0 {
			return nil, 0
		}
		return hintBatch{Hints: hints}, hintBytes * len(hints)
	})
}

// pushHint queues an eviction hint on st's outgoing piggyback queue,
// replacing any older hint about the same subject.
func (p *Probabilistic) pushHint(env *sim.Env, st *station, h EvictHint) {
	if p.hintSink != nil {
		p.hintSink(h.Host)
	}
	for i, old := range st.hints {
		if old.Host == h.Host {
			if h.Epoch >= old.Epoch {
				st.hints[i] = h
			}
			return
		}
	}
	if limit := hintBound * 4; len(st.hints) >= limit {
		st.hints = st.hints[1:]
	}
	st.hints = append(st.hints, h)
	st.gstats.HintsQueued++
	p.hintC.IncSlot(sim.WorkerSlot(env))
}

// takeHints drains up to hintBound hints from st's queue (the reply
// piggyback provider).
func (p *Probabilistic) takeHints(st *station) []EvictHint {
	n := min(hintBound, len(st.hints))
	if n == 0 {
		return nil
	}
	out := append([]EvictHint(nil), st.hints[:n]...)
	st.hints = st.hints[n:]
	return out
}

// observeHints is the transport hint observer: hints piggybacked on a
// reply retract stale positive entries in the calling host's view. It runs
// inside the calling activity and only mutates the caller's station.
func (p *Probabilistic) observeHints(caller, server rpc.HostID, payload any) {
	b, ok := payload.(hintBatch)
	st := p.at[caller]
	if !ok || st == nil {
		return
	}
	for _, h := range b.Hints {
		if h.Host != caller && st.view.ApplyHint(h) {
			st.gstats.HintsApplied++
		}
	}
}

// NotifyAvailability implements Selector: the transition refreshes the
// host's own row and gossips immediately (in addition to the periodic
// tick); an unavailability transition also queues an eviction hint.
func (p *Probabilistic) NotifyAvailability(env *sim.Env, host rpc.HostID, available bool) error {
	st := p.at[host]
	if st == nil {
		return nil
	}
	if !available {
		p.pushHint(env, st, EvictHint{Host: host, Epoch: p.cluster.HostEpoch(host)})
	}
	return p.gossipFrom(env, st)
}

// RequestHosts implements Selector: consult the client's local vector,
// youngest entries first, and verify each pick with a claim message. A
// failed claim is a misplacement — the staleness cost the gossip design
// accepts — and feeds back a fresh negative entry plus an eviction hint.
func (p *Probabilistic) RequestHosts(env *sim.Env, client rpc.HostID, n int) ([]rpc.HostID, error) {
	st, err := p.at.of(client)
	if err != nil {
		return nil, err
	}
	st.stats.Requests++
	v := p.view(env, st)
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
		st.stats.Messages++
		p.ageT.ObserveSlot(sim.WorkerSlot(env), cd.Age)
		cr, err := hsClaim.Call(ep, env, cd.Host, claimArgs{Client: client}, 16)
		if err != nil {
			if tolerable(err) {
				// The candidate is down, rebooting, or partitioned away:
				// the view was stale about its reachability.
				p.misplaced(env, st, cd)
				continue
			}
			return got, err
		}
		v.Put(cr.State)
		if cr.OK {
			got = append(got, cd.Host)
		} else {
			p.misplaced(env, st, cd)
		}
	}
	st.stats.Granted += uint64(len(got))
	if len(got) < n {
		st.stats.Denied++
	}
	return got, nil
}

// misplaced records one stale-view claim failure at the client's station
// and spreads the correction: retract the entry locally and queue an
// eviction hint so the client's own replies carry the news.
func (p *Probabilistic) misplaced(env *sim.Env, st *station, cd VectorEntry) {
	st.stats.Conflicts++
	st.gstats.Misplaced++
	p.misplaceC.IncSlot(sim.WorkerSlot(env))
	st.view.ApplyHint(EvictHint{Host: cd.Host, Epoch: cd.Epoch})
	p.pushHint(env, st, EvictHint{Host: cd.Host, Epoch: cd.Epoch})
}

// Release implements Selector. Releases to unreachable hosts are
// tolerated: a host that went down comes back under a new epoch (voiding
// the claim through the epoch guard), and a partitioned host's claim
// expires with the lease.
func (p *Probabilistic) Release(env *sim.Env, client rpc.HostID, hosts []rpc.HostID) error {
	st, err := p.at.of(client)
	if err != nil {
		return err
	}
	v := p.view(env, st)
	ep := p.cluster.Transport().Endpoint(client)
	for _, h := range hosts {
		st.stats.Messages++
		cr, err := hsRelease.Call(ep, env, h, claimArgs{Client: client}, 16)
		if err != nil {
			if tolerable(err) {
				v.Remove(h)
				continue
			}
			return err
		}
		v.Put(cr.State)
	}
	return nil
}

// OutstandingClaims returns the hosts currently holding a live (current
// epoch, unexpired) claim, keyed to the claiming client — the audit hook
// for the churn suite's leak checks.
func (p *Probabilistic) OutstandingClaims(now time.Duration) map[rpc.HostID]rpc.HostID {
	out := make(map[rpc.HostID]rpc.HostID)
	for _, st := range p.stations {
		if p.claimed(st, now) {
			out[st.host] = st.claim.client
		}
	}
	return out
}

// ViewSnapshot renders every host's vector deterministically — the
// byte-identical fingerprint the determinism regression tests compare.
func (p *Probabilistic) ViewSnapshot() string {
	var b strings.Builder
	for _, st := range p.stations {
		v := st.view
		fmt.Fprintf(&b, "view %v (%d entries, decayed at %v):\n", st.host, v.Len(), st.viewAt)
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
