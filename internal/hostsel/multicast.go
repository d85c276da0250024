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
	claims  map[rpc.HostID]rpc.HostID
	stats   Stats
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
	m := &Multicast{
		cluster: cluster,
		claims:  make(map[rpc.HostID]rpc.HostID),
	}
	for _, k := range cluster.Workstations() {
		owner := k.Host()
		ep := cluster.Transport().Endpoint(owner)
		hsQuery.Handle(ep, m.makeQueryHandler(owner))
		hsMClaim.Handle(ep, m.makeClaimHandler(owner))
		hsMRelease.Handle(ep, m.makeReleaseHandler(owner))
	}
	return m
}

// Name implements Selector.
func (m *Multicast) Name() string { return "multicast" }

// Stats implements Selector.
func (m *Multicast) Stats() Stats { return m.stats }

func (m *Multicast) makeQueryHandler(owner rpc.HostID) rpc.HandlerFunc[struct{}, queryReply] {
	return func(env *sim.Env, from rpc.HostID, _ struct{}) (queryReply, int, error) {
		k := m.cluster.KernelOn(owner)
		if _, taken := m.claims[owner]; taken || k == nil || !k.Available(env.Now()) {
			return queryReply{}, 0, ErrNoHosts // non-responders stay silent
		}
		return queryReply{IdleSince: k.LastInput()}, 16, nil
	}
}

func (m *Multicast) makeClaimHandler(owner rpc.HostID) rpc.HandlerFunc[claimArgs, bool] {
	return func(env *sim.Env, from rpc.HostID, a claimArgs) (bool, int, error) {
		k := m.cluster.KernelOn(owner)
		if _, taken := m.claims[owner]; taken || k == nil || !k.Available(env.Now()) {
			return false, 8, nil
		}
		m.claims[owner] = a.Client
		return true, 8, nil
	}
}

func (m *Multicast) makeReleaseHandler(owner rpc.HostID) rpc.HandlerFunc[claimArgs, struct{}] {
	return func(env *sim.Env, from rpc.HostID, a claimArgs) (struct{}, int, error) {
		if m.claims[owner] == a.Client {
			delete(m.claims, owner)
		}
		return struct{}{}, 8, nil
	}
}

// NotifyAvailability implements Selector: stateless, nothing to update.
func (m *Multicast) NotifyAvailability(env *sim.Env, host rpc.HostID, available bool) error {
	return nil
}

// RequestHosts implements Selector: multicast a query, claim the longest
// idle responders.
func (m *Multicast) RequestHosts(env *sim.Env, client rpc.HostID, n int) ([]rpc.HostID, error) {
	m.stats.Requests++
	ep := m.cluster.Transport().Endpoint(client)
	m.stats.Messages++ // the multicast itself
	replies, err := hsQuery.Broadcast(ep, env, struct{}{}, 16)
	if err != nil {
		return nil, err
	}
	m.stats.Messages += uint64(len(replies))
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
		m.stats.Messages++
		granted, err := hsMClaim.Call(ep, env, cd.host, claimArgs{Client: client}, 16)
		if err != nil {
			return got, err
		}
		if granted {
			got = append(got, cd.host)
		} else {
			m.stats.Conflicts++
		}
	}
	m.stats.Granted += uint64(len(got))
	if len(got) < n {
		m.stats.Denied++
	}
	return got, nil
}

// Release implements Selector.
func (m *Multicast) Release(env *sim.Env, client rpc.HostID, hosts []rpc.HostID) error {
	ep := m.cluster.Transport().Endpoint(client)
	for _, h := range hosts {
		m.stats.Messages++
		if _, err := hsMRelease.Call(ep, env, h, claimArgs{Client: client}, 16); err != nil {
			return err
		}
	}
	return nil
}
