package hostsel

import (
	"fmt"
	"maps"
	"slices"
	"time"

	"sprite/internal/core"
	"sprite/internal/rpc"
	"sprite/internal/sim"
)

// ClaimLedger wraps a Selector and audits the allocation protocol from the
// outside: no host may be granted to two clients at once, a client must
// never be granted itself, and every grant must be returned by the end of
// the run. It plugs into Cluster.CheckInvariants (Register), so the churn
// suite and the fuzzer assert selector correctness through the same
// invariant machinery as the kernel.
//
// The ledger is epoch-aware, mirroring the protocols it audits: a grant
// whose target host rebooted is void (the host's claim state died with the
// reboot — the epoch guard releases it), a grant whose *holder* rebooted
// or is down cannot be released by anyone and is likewise void, and a
// grant older than the claim lease has expired. Only live grants count for
// double-claim and leak detection.
type ClaimLedger struct {
	inner   Selector
	cluster *core.Cluster
	lease   time.Duration

	grants     map[rpc.HostID]ledgerGrant
	inFlight   int
	violations []string
}

var _ Selector = (*ClaimLedger)(nil)

// ledgerGrant records one outstanding grant with the boot incarnations of
// both parties at grant time.
type ledgerGrant struct {
	client      rpc.HostID
	clientEpoch rpc.Epoch
	hostEpoch   rpc.Epoch
	at          time.Duration
}

// NewClaimLedger wraps sel. The lease (0 = none) mirrors the selector's
// claim lease so expired grants are not reported as leaks.
func NewClaimLedger(sel Selector, cluster *core.Cluster, lease time.Duration) *ClaimLedger {
	return &ClaimLedger{
		inner:   sel,
		cluster: cluster,
		lease:   lease,
		grants:  make(map[rpc.HostID]ledgerGrant),
	}
}

// Register hooks the ledger's audit into the cluster's invariant checker.
func (l *ClaimLedger) Register(c *core.Cluster) {
	c.AddInvariantCheck(l.Check)
}

// Name implements Selector.
func (l *ClaimLedger) Name() string { return l.inner.Name() }

// Stats implements Selector.
func (l *ClaimLedger) Stats() Stats { return l.inner.Stats() }

func (l *ClaimLedger) violatef(format string, args ...any) {
	l.violations = append(l.violations, fmt.Sprintf(format, args...))
}

// live reports whether a recorded grant is still binding at now: both
// parties survive under their grant-time incarnations and the lease (if
// any) has not expired.
func (l *ClaimLedger) live(host rpc.HostID, g ledgerGrant, now time.Duration) bool {
	if l.cluster.HostDown(host) || l.cluster.HostEpoch(host) != g.hostEpoch {
		return false // target rebooted/down: its claim state is gone
	}
	if l.cluster.HostDown(g.client) || l.cluster.HostEpoch(g.client) != g.clientEpoch {
		return false // holder rebooted/down: nobody is left to release
	}
	if l.lease > 0 && now-g.at >= l.lease {
		return false // lease expired: the selector may re-grant
	}
	return true
}

// RequestHosts delegates and audits each grant.
func (l *ClaimLedger) RequestHosts(env *sim.Env, client rpc.HostID, n int) ([]rpc.HostID, error) {
	l.inFlight++
	hosts, err := l.inner.RequestHosts(env, client, n)
	l.inFlight--
	now := env.Now()
	for _, h := range hosts {
		if h == client {
			l.violatef("ledger: %s granted client %v to itself at %v", l.Name(), client, now)
		}
		if g, held := l.grants[h]; held && l.live(h, g, now) {
			l.violatef("ledger: %s double-claimed %v at %v: granted to %v while held by %v (since %v)",
				l.Name(), h, now, client, g.client, g.at)
		}
		l.grants[h] = ledgerGrant{
			client:      client,
			clientEpoch: l.cluster.HostEpoch(client),
			hostEpoch:   l.cluster.HostEpoch(h),
			at:          now,
		}
	}
	return hosts, err
}

// Release retires the caller's grants, then delegates. The ledger entry is
// dropped before the protocol runs: the server-side claim is freed at some
// point during the call, so a concurrent grant of the same host is legal the
// moment release is initiated — retiring afterwards would flag it as a
// double claim. A release by a non-holder (typically a client whose own
// grant was voided by the target's reboot, re-releasing out of caution)
// leaves the holder's grant recorded: the selector is expected to ignore
// it, and if it wrongly honours it the resulting re-grant trips the
// double-claim audit instead.
func (l *ClaimLedger) Release(env *sim.Env, client rpc.HostID, hosts []rpc.HostID) error {
	for _, h := range hosts {
		if g, held := l.grants[h]; held && g.client == client {
			delete(l.grants, h)
		}
	}
	return l.inner.Release(env, client, hosts)
}

// NotifyAvailability delegates.
func (l *ClaimLedger) NotifyAvailability(env *sim.Env, host rpc.HostID, available bool) error {
	return l.inner.NotifyAvailability(env, host, available)
}

// Check returns every audit violation so far; with endOfRun it also
// reports lost selection requests (a RequestHosts that never returned) and
// leaked grants (still live and binding at the end of the run).
func (l *ClaimLedger) Check(endOfRun bool) []string {
	out := append([]string(nil), l.violations...)
	if !endOfRun {
		return out
	}
	if l.inFlight != 0 {
		out = append(out, fmt.Sprintf("ledger: %s lost %d selection request(s): RequestHosts never returned", l.Name(), l.inFlight))
	}
	now := l.cluster.Sim().Now()
	for _, h := range slices.Sorted(maps.Keys(l.grants)) {
		if g := l.grants[h]; l.live(h, g, now) {
			out = append(out, fmt.Sprintf("ledger: %s leaked grant of %v to %v (granted at %v, never released)",
				l.Name(), h, g.client, g.at))
		}
	}
	return out
}

// Outstanding returns the number of recorded (not necessarily live)
// grants.
func (l *ClaimLedger) Outstanding() int { return len(l.grants) }
