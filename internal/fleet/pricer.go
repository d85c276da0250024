package fleet

import (
	"time"

	"sprite/internal/rpc"
)

// Pricer estimates each host's expected time-to-eviction, learned online
// from observed eviction inter-arrivals: per host it keeps an EMA of the
// gaps between evictions. A candidate's score is the host's expected gap
// minus the time already elapsed since its last eviction — "how much
// runway is probably left" — floored at a small positive value so a host
// is never priced as instantly doomed.
//
// The economics mirror the paper's observation that recently-reclaimed
// hosts tend to be reclaimed again (owner sessions cluster): placing work
// on a host fresh off an eviction buys the shortest expected run.
type Pricer struct {
	alpha   float64
	horizon time.Duration

	// ema is the learned eviction inter-arrival per host; lastEvict is the
	// host's most recent eviction.
	ema       map[rpc.HostID]time.Duration
	lastEvict map[rpc.HostID]time.Duration
}

// NewPricer builds a pricer with EMA gain alpha and optimistic horizon
// for hosts with no observed eviction.
func NewPricer(alpha float64, horizon time.Duration) *Pricer {
	return &Pricer{
		alpha:     alpha,
		horizon:   horizon,
		ema:       make(map[rpc.HostID]time.Duration),
		lastEvict: make(map[rpc.HostID]time.Duration),
	}
}

// ObserveEviction folds one eviction on host at time `at` into the model.
func (p *Pricer) ObserveEviction(host rpc.HostID, at time.Duration) {
	if last, ok := p.lastEvict[host]; ok && at > last {
		gap := at - last
		if prev, ok := p.ema[host]; ok {
			p.ema[host] = time.Duration(float64(prev) + p.alpha*float64(gap-prev))
		} else {
			p.ema[host] = gap
		}
	}
	p.lastEvict[host] = at
}

// Expected returns the learned eviction inter-arrival for host, or the
// optimistic horizon if nothing has been observed yet.
func (p *Pricer) Expected(host rpc.HostID) time.Duration {
	if ema, ok := p.ema[host]; ok {
		return ema
	}
	return p.horizon
}

// Score returns host's expected remaining runway at time now: its
// expected inter-arrival minus the time since the host's last eviction,
// floored at 1/8 of the expectation (a host overdue for an eviction is
// cheap, not worthless). Higher is better.
func (p *Pricer) Score(host rpc.HostID, now time.Duration) time.Duration {
	exp := p.Expected(host)
	floor := exp / 8
	last, ok := p.lastEvict[host]
	if !ok {
		return exp
	}
	left := exp - (now - last)
	if left < floor {
		return floor
	}
	return left
}
