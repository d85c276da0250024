package sim

import (
	"fmt"
	"time"
)

// Mailbox is the ordered cross-shard communication primitive of the parallel
// kernel. A send from any shard is delivered to the mailbox's queue after a
// virtual-time delay; delivery runs as a scheduler event on the mailbox's
// home shard, so arrivals are totally ordered by (time, sequence) and
// identical under both kernels.
//
// A mailbox built with NewMailbox is homed on the exclusive shard: delivery
// is an exclusive event, which totally orders it against everything else but
// also makes every delivery a window barrier. A mailbox built with
// NewMailboxOn is homed on a confined shard: deliveries are dispatched by
// that shard's worker inside lookahead windows, which is what lets confined
// hosts exchange RPC traffic without serializing the kernel. Receivers of a
// shard-homed mailbox must live on its home shard.
//
// The delay is the conservative lookahead contract: when the sender is a
// confined activity, the delay must be at least the simulation's declared
// lookahead (SetLookahead), which guarantees the delivery lands at or beyond
// the current window's horizon — never inside work that has already run.
// Both kernels enforce the contract, so a program that violates it fails
// under the serial oracle too, not only when parallelism is enabled.
type Mailbox struct {
	sim   *Simulation
	q     Queue
	delay time.Duration
	shard int // delivery home: 0 = exclusive event, >0 = confined shard
}

// NewMailbox returns a mailbox homed on the exclusive shard whose sends
// deliver after delay.
func NewMailbox(s *Simulation, delay time.Duration) *Mailbox {
	return NewMailboxOn(s, 0, delay)
}

// NewMailboxOn returns a mailbox homed on the given shard: deliveries run as
// events of that shard, so under the parallel kernel they dispatch inside
// windows on the owning worker, and receivers must be confined to the same
// shard. Shard 0 gives the exclusive-delivery behaviour of NewMailbox.
func NewMailboxOn(s *Simulation, shard int, delay time.Duration) *Mailbox {
	if delay < 0 {
		delay = 0
	}
	if shard < 0 {
		panic("sim: NewMailboxOn with negative shard")
	}
	return &Mailbox{sim: s, delay: delay, shard: shard}
}

// HomeShard returns the shard deliveries are homed on.
func (m *Mailbox) HomeShard() int { return m.shard }

// Send posts v for delivery after the mailbox's default delay. It never
// blocks.
func (m *Mailbox) Send(env *Env, v any) { m.SendAfter(env, v, m.delay) }

// SendAfter posts v for delivery after an explicit delay, overriding the
// mailbox default for this message — the RPC plane uses it to add
// size-dependent transfer time to the propagation latency. The confined-send
// contract (delay >= lookahead) applies exactly as in Send.
func (m *Mailbox) SendAfter(env *Env, v any, delay time.Duration) {
	s := m.sim
	if delay < 0 {
		delay = 0
	}
	if env.act.shard != 0 && delay < s.lookahead {
		panic(fmt.Sprintf("sim: Mailbox delay %v below lookahead %v on a confined send; the delivery could land inside an already-running window", delay, s.lookahead))
	}
	// The delivery is an event carrying (m, v) as data, homed to m's shard:
	// queued directly in exclusive context, logged for replay inside a window.
	var ev *event
	if w := env.act.ctxw; w != nil {
		ev = w.scheduleRemote(w.now+delay, nil)
	} else {
		ev = s.schedule(s.now+delay, nil, nil)
	}
	ev.mbox, ev.mval = m, v
}

func (m *Mailbox) deliver(v any) { m.q.Send(v) }

// Recv blocks until a message is delivered and returns it. It returns
// ErrStopped if the mailbox is closed or the simulation stops. A shard-homed
// mailbox must be received on its home shard; the guard fires under both
// kernels.
func (m *Mailbox) Recv(env *Env) (any, error) {
	if m.shard != 0 && env.act.shard != m.shard {
		panic(fmt.Sprintf("sim: Mailbox.Recv from shard %d on a mailbox homed to shard %d", env.act.shard, m.shard))
	}
	return m.q.Recv(env)
}

// RecvTimeout is Recv with a deadline: it returns ErrTimeout if no message
// arrives within d. The RPC plane's confined call path uses it to detect
// lost replies.
func (m *Mailbox) RecvTimeout(env *Env, d time.Duration) (any, error) {
	if m.shard != 0 && env.act.shard != m.shard {
		panic(fmt.Sprintf("sim: Mailbox.Recv from shard %d on a mailbox homed to shard %d", env.act.shard, m.shard))
	}
	return m.q.RecvTimeout(env, d)
}

// Len returns the number of delivered, unconsumed messages.
func (m *Mailbox) Len() int { return m.q.Len() }

// Close wakes all waiting receivers with ErrStopped and discards future
// deliveries. Close is an exclusive operation.
func (m *Mailbox) Close() {
	m.sim.exclusiveOnly("Mailbox.Close")
	m.q.Close()
}
