package fleet

import (
	"time"

	"sprite/internal/rpc"
)

// ShareLedger meters how much harvested host-time each user has consumed,
// so one greedy client cannot monopolize the idle pool. Usage is charged
// as host-hold time: a grant opens a meter, a release closes it and adds
// the hold to the user's account. Allow compares a user's total (booked
// plus currently running meters) against the least-charged user; a spread
// beyond the slack denies new grants until the laggards catch up —
// max-min fairness with a hysteresis band.
//
// A slack of zero or less disables throttling (the ledger still accounts).
type ShareLedger struct {
	slack time.Duration
	// booked is closed-meter usage per user.
	booked map[string]time.Duration
	// open is the running meters: per user, per held host, the grant time.
	open map[string]map[rpc.HostID]time.Duration
}

// NewShareLedger builds a ledger with the given spread tolerance.
func NewShareLedger(slack time.Duration) *ShareLedger {
	return &ShareLedger{
		slack:  slack,
		booked: make(map[string]time.Duration),
		open:   make(map[string]map[rpc.HostID]time.Duration),
	}
}

// Acquire opens a meter: user took host at time now.
func (l *ShareLedger) Acquire(user string, host rpc.HostID, now time.Duration) {
	m := l.open[user]
	if m == nil {
		m = make(map[rpc.HostID]time.Duration)
		l.open[user] = m
	}
	if _, running := m[host]; !running {
		m[host] = now
	}
	// Denominators matter: a user becomes visible to min() on first touch.
	if _, ok := l.booked[user]; !ok {
		l.booked[user] = 0
	}
}

// Release closes the meter for (user, host) and books the hold time.
func (l *ShareLedger) Release(user string, host rpc.HostID, now time.Duration) {
	m := l.open[user]
	if m == nil {
		return
	}
	start, ok := m[host]
	if !ok {
		return
	}
	delete(m, host)
	l.booked[user] += now - start
}

// Usage returns user's total charged time as of now, open meters included.
func (l *ShareLedger) Usage(user string, now time.Duration) time.Duration {
	total := l.booked[user]
	for _, start := range l.open[user] {
		total += now - start
	}
	return total
}

// Allow reports whether user may take another host: its booked usage must
// not exceed the least-booked known user's by more than the slack.
func (l *ShareLedger) Allow(user string) bool {
	if l.slack <= 0 {
		return true
	}
	if len(l.booked) == 0 {
		return true
	}
	mine, known := l.booked[user]
	if !known {
		return true // first grant is always allowed
	}
	least := mine
	for _, v := range l.booked {
		least = min(least, v)
	}
	return mine-least <= l.slack
}
