// Package trace owns the cluster's event vocabulary (Kind), the typed Event
// emitters build from plain values without allocating, the one renderer
// that turns an event into text, and a bounded log to keep events in.
// Hosts are plain integers, since sim imports this package and rpc imports
// sim. Tracing has no effect on simulated time.
package trace

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Kind is what an event reports. The constants below are the whole
// vocabulary; Detail is the one place that says which fields each uses.
type Kind uint8

const (
	ProcStart        Kind = iota + 1 // a process started: pid, Name, Host
	ProcExit                         // a process exited: pid, Name, Status, Host
	ProcCrash                        // a process died with its host: pid, Name, Host
	Migration                        // a migration completed: pid, Host->Peer, Reason, Strategy, Total, VMBytes, Files
	ExecMigration                    // an exec-time migration completed: pid, Host->Peer, Reason, Total
	ExecMigrateAbort                 // an exec-time migration aborted to a local exec: pid, Peer, Err
	Eviction                         // an owner's return evicted a process: pid, Host, Peer
	HostCrash                        // a host fail-stopped: Host, Epoch
	HostRestart                      // a crashed host came back: Host, Epoch
	HostReboot                       // a host was power-cycled: Host, Epoch
	HostReap                         // a dead incarnation was reaped cluster-wide: Host, Epoch
	ReapOrphan                       // a process whose home died was killed: pid, Name, Host, Peer (the home)
	BgLoadReport                     // a background-load daemon reported: Host, Tick
	numKinds
)

var kindNames = [numKinds]string{
	ProcStart:        "proc-start",
	ProcExit:         "proc-exit",
	ProcCrash:        "proc-crash",
	Migration:        "migration",
	ExecMigration:    "exec-migration",
	ExecMigrateAbort: "exec-migrate-abort",
	Eviction:         "eviction",
	HostCrash:        "host-crash",
	HostRestart:      "host-restart",
	HostReboot:       "host-reboot",
	HostReap:         "host-reap",
	ReapOrphan:       "reap-orphan",
	BgLoadReport:     "bgload.report",
}

// String returns the kind's name as traces print it.
func (k Kind) String() string { return kindNames[k] }

// Event is one recorded occurrence. It holds values only, so an event kept
// in a log never changes; each kind fills the fields its constant names.
type Event struct {
	At        time.Duration // stamped by Env.Emit
	Kind      Kind
	Home, Seq int    // the process's pid: home host and sequence number
	Name      string // the process's name
	Host      int    // where the event happened (a migration's source)
	Peer      int    // the other host: a migration's target, an orphan's dead home

	Status           int           // exit status
	Epoch            uint64        // boot epoch
	Tick             int           // background-load tick
	Reason, Strategy string        // why a migration ran, and how it moved memory
	Total            time.Duration // a migration's whole duration
	VMBytes, Files   int           // what a migration moved
	Err              string        // why an exec-time migration aborted
}

// Detail renders the kind-specific part of the event, as it reads in a
// trace line.
func (e Event) Detail() string {
	pid := hostName(e.Home) + "." + strconv.Itoa(e.Seq)
	switch e.Kind {
	case ProcStart, ProcCrash:
		return fmt.Sprintf("%s %s on %s", pid, e.Name, hostName(e.Host))
	case ProcExit:
		return fmt.Sprintf("%s %s status=%d on %s", pid, e.Name, e.Status, hostName(e.Host))
	case Migration:
		return fmt.Sprintf("%s %s->%s (%s, %s) total=%v vm=%dB files=%d",
			pid, hostName(e.Host), hostName(e.Peer), e.Reason, e.Strategy, e.Total, e.VMBytes, e.Files)
	case ExecMigration:
		return fmt.Sprintf("%s %s->%s (%s) total=%v", pid, hostName(e.Host), hostName(e.Peer), e.Reason, e.Total)
	case ExecMigrateAbort:
		return fmt.Sprintf("%s -> %s: %s", pid, hostName(e.Peer), e.Err)
	case Eviction:
		return fmt.Sprintf("%s evicted from %s to %s", pid, hostName(e.Host), hostName(e.Peer))
	case HostCrash, HostRestart, HostReboot, HostReap:
		return fmt.Sprintf("host %s epoch %d", hostName(e.Host), e.Epoch)
	case ReapOrphan:
		return fmt.Sprintf("%s %s on %s (home %s died)", pid, e.Name, hostName(e.Host), hostName(e.Peer))
	case BgLoadReport:
		return fmt.Sprintf("host=%d tick=%d", e.Host, e.Tick)
	}
	return ""
}

// hostName spells a host as rpc.HostID's String does (a test pins it).
func hostName(h int) string { return "host" + strconv.Itoa(h) }

// String renders the event as one line.
func (e Event) String() string {
	return fmt.Sprintf("[%12v] %-16s %s", e.At, e.Kind, e.Detail())
}

// Log is a bounded ring of events. The zero value is unusable; use New.
// Its Append is a ready-made sink for Cluster.SetTrace.
type Log struct {
	ring    []Event
	next    int
	size    int
	dropped uint64
}

// New returns a log holding at most capacity events (older ones are
// dropped first).
func New(capacity int) *Log {
	if capacity < 1 {
		capacity = 1
	}
	return &Log{ring: make([]Event, capacity)}
}

// Append records one event.
func (l *Log) Append(ev Event) {
	if l.size == len(l.ring) {
		l.dropped++
	} else {
		l.size++
	}
	l.ring[l.next] = ev
	l.next = (l.next + 1) % len(l.ring)
}

// Tail returns the most recent n retained events, oldest first. It is the
// view failure reports want: the last few things the cluster did before a
// check fired.
func (l *Log) Tail(n int) []Event {
	n = min(n, l.size)
	if n < 1 {
		return nil
	}
	out := make([]Event, n)
	for i := range out {
		out[i] = l.ring[(l.next-n+i+len(l.ring))%len(l.ring)]
	}
	return out
}

// String renders the retained events, one per line.
func (l *Log) String() string {
	var b strings.Builder
	if l.dropped > 0 {
		fmt.Fprintf(&b, "(%d earlier events dropped)\n", l.dropped)
	}
	for _, e := range l.Tail(l.size) {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}
