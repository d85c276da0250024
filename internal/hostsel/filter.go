package hostsel

import (
	"sprite/internal/rpc"
	"sprite/internal/sim"
)

// Filter vets and orders the hosts a selector hands out. The fleet plane
// implements it to keep cordoned/draining hosts out of placement and to
// prefer hosts with a long expected time-to-eviction (the Pricer);
// fairness accounting can deny a grant outright by filtering every
// candidate away.
type Filter interface {
	// FilterHosts returns the subset of hosts the client may use, in
	// preference order. It must be deterministic and add no simulated time.
	FilterHosts(env *sim.Env, client rpc.HostID, hosts []rpc.HostID) []rpc.HostID
}

// FilterFunc adapts a function to the Filter interface.
type FilterFunc func(env *sim.Env, client rpc.HostID, hosts []rpc.HostID) []rpc.HostID

// FilterHosts calls f.
func (f FilterFunc) FilterHosts(env *sim.Env, client rpc.HostID, hosts []rpc.HostID) []rpc.HostID {
	return f(env, client, hosts)
}

// Filtered layers a Filter over any Selector: grants pass through the
// filter, and rejected hosts are released back to the pool immediately so
// a vetoed grant never leaks a claim. To keep the grant count useful the
// wrapper over-requests by a configurable slack, then trims to what the
// caller asked for.
type Filtered struct {
	inner  Selector
	filter Filter
	// slack is how many extra candidates each request asks the inner
	// selector for, giving the filter room to reject without starving the
	// caller.
	slack int
}

var _ Selector = (*Filtered)(nil)

// WithFilter wraps sel so every grant is vetted by f. slack extra
// candidates are requested per call (negative means the default of 2).
// A nil filter returns sel unchanged.
func WithFilter(sel Selector, f Filter, slack int) Selector {
	if f == nil {
		return sel
	}
	if slack < 0 {
		slack = 2
	}
	return &Filtered{inner: sel, filter: f, slack: slack}
}

// Name identifies the wrapped architecture.
func (f *Filtered) Name() string { return f.inner.Name() }

// RequestHosts asks the inner selector for n+slack candidates, filters
// them, releases the rejects and the overshoot, and returns up to n.
func (f *Filtered) RequestHosts(env *sim.Env, client rpc.HostID, n int) ([]rpc.HostID, error) {
	got, err := f.inner.RequestHosts(env, client, n+f.slack)
	if len(got) == 0 {
		return nil, err
	}
	kept := f.filter.FilterHosts(env, client, got)
	if len(kept) > n {
		kept = kept[:n]
	}
	keep := make(map[rpc.HostID]bool, len(kept))
	for _, h := range kept {
		keep[h] = true
	}
	var rejects []rpc.HostID
	for _, h := range got {
		if !keep[h] {
			rejects = append(rejects, h)
		}
	}
	if len(rejects) > 0 {
		if rerr := f.inner.Release(env, client, rejects); rerr != nil && err == nil {
			err = rerr
		}
	}
	if len(kept) == 0 {
		if err == nil {
			err = ErrNoHosts
		}
		return nil, err
	}
	// A partial grant is a grant: suppress the inner selector's shortfall
	// error the way callers of the raw interface expect.
	return kept, nil
}

// Release delegates to the inner selector.
func (f *Filtered) Release(env *sim.Env, client rpc.HostID, hosts []rpc.HostID) error {
	return f.inner.Release(env, client, hosts)
}

// NotifyAvailability delegates to the inner selector.
func (f *Filtered) NotifyAvailability(env *sim.Env, host rpc.HostID, available bool) error {
	return f.inner.NotifyAvailability(env, host, available)
}

// Stats returns the inner selector's counters.
func (f *Filtered) Stats() Stats { return f.inner.Stats() }
