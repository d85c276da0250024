// Package hostsel implements the host-selection architectures the thesis
// compares in Chapter 6:
//
//   - Central: a centralized server (Sprite's migd) that tracks idle hosts,
//     allocates them fairly, and revokes them when their users return.
//   - SharedFile: availability records kept in one file in the shared file
//     system, guarded by a file lock (Sprite's original design). Because
//     many hosts write the file, the FS disables client caching for it and
//     every access goes to the server — the cost that motivated migd.
//   - Probabilistic: MOSIX-style distributed state; each host gossips its
//     availability to a few random peers, and selection uses possibly-stale
//     local views, verified by a claim message (stale views show up as
//     conflicts).
//   - Multicast: stateless request/response; a requester multicasts a query
//     and takes the first responders (V/Theimer-Lantz style).
//
// All four implement Selector, so the comparison experiments (Tables E7/E8)
// swap them freely.
package hostsel

import (
	"errors"
	"fmt"
	"time"

	"sprite/internal/rpc"
	"sprite/internal/sim"
)

// ErrNoHosts is returned when no idle host is available.
var ErrNoHosts = errors.New("hostsel: no idle hosts available")

// Stats summarizes a selector's behaviour.
type Stats struct {
	Requests  uint64 // RequestHosts calls
	Granted   uint64 // hosts handed out
	Denied    uint64 // requests that got fewer hosts than asked (incl. zero)
	Conflicts uint64 // claims that failed due to stale information
	Messages  uint64 // selector-generated messages (updates, gossip, claims)
	Evictions uint64 // revocations triggered by owners returning
}

func (s *Stats) add(o Stats) {
	s.Requests += o.Requests
	s.Granted += o.Granted
	s.Denied += o.Denied
	s.Conflicts += o.Conflicts
	s.Messages += o.Messages
	s.Evictions += o.Evictions
}

// perHost holds one record per workstation. A selector's constructor fills
// it, and nothing adds or removes a record after that, so a lookup from any
// shard is safe; each record is written only for its own host.
type perHost[T any] map[rpc.HostID]*T

// of returns host's record, or an error for a host that is no workstation.
func (t perHost[T]) of(host rpc.HostID) (*T, error) {
	if r := t[host]; r != nil {
		return r, nil
	}
	return nil, fmt.Errorf("hostsel: %v is not a workstation", host)
}

// Selector allocates idle hosts to clients.
type Selector interface {
	// Name identifies the architecture.
	Name() string
	// RequestHosts returns up to n idle hosts for the client host.
	RequestHosts(env *sim.Env, client rpc.HostID, n int) ([]rpc.HostID, error)
	// Release returns hosts to the pool.
	Release(env *sim.Env, client rpc.HostID, hosts []rpc.HostID) error
	// NotifyAvailability reports a host's availability transition (called
	// by the host's load daemon / user-session model).
	NotifyAvailability(env *sim.Env, host rpc.HostID, available bool) error
	// Stats returns the selector's counters.
	Stats() Stats
}

// availInfo is one host's availability as known to some view.
type availInfo struct {
	available bool
	idleSince time.Duration
	updatedAt time.Duration
}

// pickLongestIdle orders candidate hosts by longest idle time first, the
// heuristic Mutka & Livny's measurements justify: hosts idle a long time
// tend to stay idle.
func pickLongestIdle(cands []rpc.HostID, info map[rpc.HostID]availInfo, n int) []rpc.HostID {
	sorted := make([]rpc.HostID, len(cands))
	copy(sorted, cands)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0; j-- {
			a, b := info[sorted[j]], info[sorted[j-1]]
			if a.idleSince < b.idleSince || (a.idleSince == b.idleSince && sorted[j] < sorted[j-1]) {
				sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
			} else {
				break
			}
		}
	}
	if n > len(sorted) {
		n = len(sorted)
	}
	return sorted[:n]
}
