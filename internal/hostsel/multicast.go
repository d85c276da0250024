package hostsel

import (
	"sort"
	"time"

	"sprite/internal/core"
	"sprite/internal/rpc"
	"sprite/internal/sim"
)

// Multicast is the stateless request/response architecture Theimer & Lantz
// analyze: a requester multicasts "who is idle?", idle hosts answer, and
// the requester claims the first responders. No standing state anywhere,
// but every request disturbs every host, which bounds scalability.
type Multicast struct {
	cluster *core.Cluster
	stats   perHost[Stats] // each requesting workstation's counters
}

var _ Selector = (*Multicast)(nil)

type queryReply struct {
	IdleSince time.Duration
}

// The multicast selector's services; hs.mclaim replies whether the claim
// was granted.
var (
	hsQuery    = rpc.NewService[struct{}, queryReply]("hs.query")
	hsMClaim   = rpc.NewService[claimArgs, bool]("hs.mclaim")
	hsMRelease = rpc.NewService[claimArgs, struct{}]("hs.mrelease")
)

// NewMulticast creates the multicast selector and registers its services on
// every workstation.
func NewMulticast(cluster *core.Cluster) *Multicast {
	m := &Multicast{cluster: cluster, stats: make(perHost[Stats])}
	for _, k := range cluster.Workstations() {
		m.stats[k.Host()] = new(Stats)
		m.serve(k)
	}
	return m
}

// Name implements Selector.
func (m *Multicast) Name() string { return "multicast" }

// Stats implements Selector: every requester's counters, summed in host
// order.
func (m *Multicast) Stats() Stats {
	var s Stats
	for _, k := range m.cluster.Workstations() {
		s.add(*m.stats[k.Host()])
	}
	return s
}

// serve registers k's three services as closures over the one claim k holds
// as an owner, which only they touch, and a reap hook that frees the claim
// when the incarnation holding it is declared dead (its release will never
// come).
func (m *Multicast) serve(k *core.Kernel) {
	var claim claimRec
	ep := m.cluster.Transport().Endpoint(k.Host())
	hsQuery.Handle(ep, func(env *sim.Env, from rpc.HostID, _ struct{}) (queryReply, int, error) {
		if claim.client != 0 || !k.Available(env.Now()) {
			return queryReply{}, 0, ErrNoHosts // non-responders stay silent
		}
		return queryReply{IdleSince: k.LastInput()}, 16, nil
	})
	hsMClaim.Handle(ep, func(env *sim.Env, from rpc.HostID, a claimArgs) (bool, int, error) {
		if claim.client != 0 || !k.Available(env.Now()) {
			return false, 8, nil
		}
		claim = claimRec{client: a.Client, clientEpoch: m.cluster.HostEpoch(a.Client)}
		return true, 8, nil
	})
	hsMRelease.Handle(ep, func(env *sim.Env, from rpc.HostID, a claimArgs) (struct{}, int, error) {
		if claim.client == a.Client {
			claim = claimRec{}
		}
		return struct{}{}, 8, nil
	})
	m.cluster.AddReapHook(func(env *sim.Env, host rpc.HostID, epoch rpc.Epoch) {
		claim.scrub(host, epoch)
	})
}

// NotifyAvailability implements Selector: stateless, nothing to update.
func (m *Multicast) NotifyAvailability(env *sim.Env, host rpc.HostID, available bool) error {
	return nil
}

// RequestHosts implements Selector: multicast a query, claim the longest
// idle responders.
func (m *Multicast) RequestHosts(env *sim.Env, client rpc.HostID, n int) ([]rpc.HostID, error) {
	st, err := m.stats.of(client)
	if err != nil {
		return nil, err
	}
	st.Requests++
	ep := m.cluster.Transport().Endpoint(client)
	st.Messages++ // the multicast itself
	replies, err := hsQuery.Broadcast(ep, env, struct{}{}, 16)
	if err != nil {
		return nil, err
	}
	st.Messages += uint64(len(replies))
	type cand struct {
		host rpc.HostID
		idle time.Duration
	}
	var cands []cand
	for h, qr := range replies { // never the client's own host
		cands = append(cands, cand{host: h, idle: qr.IdleSince})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].idle != cands[j].idle {
			return cands[i].idle < cands[j].idle // longest idle first
		}
		return cands[i].host < cands[j].host
	})
	var got []rpc.HostID
	for _, cd := range cands {
		if len(got) >= n {
			break
		}
		st.Messages++
		granted, err := hsMClaim.Call(ep, env, cd.host, claimArgs{Client: client}, 16)
		if err != nil {
			return got, err
		}
		if granted {
			got = append(got, cd.host)
		} else {
			st.Conflicts++
		}
	}
	st.Granted += uint64(len(got))
	if len(got) < n {
		st.Denied++
	}
	return got, nil
}

// Release implements Selector.
func (m *Multicast) Release(env *sim.Env, client rpc.HostID, hosts []rpc.HostID) error {
	st, err := m.stats.of(client)
	if err != nil {
		return err
	}
	ep := m.cluster.Transport().Endpoint(client)
	for _, h := range hosts {
		st.Messages++
		if _, err := hsMRelease.Call(ep, env, h, claimArgs{Client: client}, 16); err != nil {
			return err
		}
	}
	return nil
}
