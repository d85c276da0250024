// Package sim provides a deterministic discrete-event simulator whose
// activities run on pooled runtime coroutines.
//
// Exactly one activity runs at any instant under the serial kernel. An
// activity blocks only through the primitives on its Env (Sleep, Future.Wait,
// Queue.Recv, Resource.Acquire, ...); each of those hands control back to the
// scheduler, which resumes the activity with the earliest pending event.
// Events are ordered by (virtual time, sequence number), so a run is a pure
// function of the program and the seed: re-running a simulation reproduces it
// bit for bit.
//
// A conservative parallel kernel (ConfigureParallel, parallel.go) lifts the
// one-at-a-time restriction for shard-confined activities: activities spawned
// with SpawnOn(shard, ...) for shard > 0 may be dispatched concurrently with
// other shards inside a lookahead window, while everything on shard 0 — the
// default — keeps the exclusive serial discipline. The committed event order,
// sequence numbering, statistics, and trace output are bit-for-bit identical
// between the two kernels; the serial kernel is the oracle the equivalence
// suite checks the parallel one against. See DESIGN.md §13 for the protocol.
//
// The package is the substrate for everything else in this repository: hosts,
// kernels, RPCs, and user processes in the Sprite reproduction are all sim
// activities.
package sim

import (
	"errors"
	"fmt"
	"iter"
	"math/rand"
	"sort"
	"sync"
	"time"

	"sprite/internal/trace"
)

// Errors returned by simulation primitives.
var (
	// ErrStopped is returned by blocking primitives when the simulation is
	// shut down while the caller is waiting.
	ErrStopped = errors.New("sim: simulation stopped")
	// ErrTimeout is returned by the *Timeout variants of blocking primitives.
	ErrTimeout = errors.New("sim: wait timed out")
	// ErrDeadlock is returned by Run when activities remain blocked but no
	// events are pending.
	ErrDeadlock = errors.New("sim: deadlock: blocked activities with empty event queue")
)

// event is a scheduled wakeup of an activity, a scheduled callback, or a
// scheduled mailbox delivery.
type event struct {
	at  time.Duration
	seq uint64
	act *activity // activity to resume (nil for callback and delivery events)
	fn  func()    // optional callback run in scheduler context (exclusive)

	// mbox/mval carry a mailbox delivery as data instead of a closure: the
	// event delivers mval to mbox on mbox's home shard. The parallel kernel
	// dispatches a shard-homed delivery on the owning shard's worker inside
	// a window instead of treating it as an exclusive blocker.
	mbox *Mailbox
	mval any

	// Parallel-kernel bookkeeping (unused by the serial kernel). consumed
	// marks events a worker popped (dispatched or skipped as cancelled)
	// inside a window. dispatched marks the ones it actually ran, whose
	// effects are logged below until replay commits them: children in the
	// order they were made, traces as Env.Emit produced them, finished if the
	// activity completed during the dispatch. The two backing arrays survive
	// reset, so a recycled event logs without allocating.
	consumed   bool
	dispatched bool
	finished   bool
	children   []childEntry
	traces     []trace.Event
}

// reset returns ev to the zero event, keeping (cleared) the effect-log
// backing arrays. It is the only place an event is wiped: release calls it
// on the way into the freelist, and takeEvent — behind both newEvent and the
// worker pools — hands out freelist events only, so a new field cannot be
// forgotten in one of them.
func (ev *event) reset() {
	clear(ev.children)
	clear(ev.traces)
	*ev = event{children: ev.children[:0], traces: ev.traces[:0]}
}

// cancelled reports whether the event no longer does anything: a timer whose
// activity was woken early (wakeNow clears act), still queued.
func (ev *event) cancelled() bool {
	return ev.act == nil && ev.fn == nil && ev.mbox == nil
}

// homeShard is the shard an event is ordered and dispatched on: the
// activity's shard for activity events, the mailbox's home for deliveries,
// the exclusive shard for callbacks.
func (ev *event) homeShard() int {
	if ev.act != nil {
		return ev.act.shard
	}
	if ev.mbox != nil {
		return ev.mbox.shard
	}
	return 0
}

// before reports whether ev commits ahead of o: earlier virtual time first,
// then the lower sequence number. Keys are unique, so the order is total.
func (ev *event) before(o *event) bool {
	if ev.at != o.at {
		return ev.at < o.at
	}
	return ev.seq < o.seq
}

// eventQueue is a binary min-heap of events in (at, seq) order. Both sifts
// move a hole instead of swapping, and pop nils the slot it vacates, so the
// backing array never pins a recycled event.
type eventQueue []*event

// push adds ev.
func (q *eventQueue) push(ev *event) {
	h := append(*q, nil)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !ev.before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
	*q = h
}

// peek returns the earliest event without removing it; the queue must not
// be empty.
func (q eventQueue) peek() *event { return q[0] }

// pop removes and returns the earliest event; the queue must not be empty.
func (q *eventQueue) pop() *event {
	h := *q
	n := len(h) - 1
	top, last := h[0], h[n]
	h[n] = nil
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && h[r].before(h[c]) {
				c = r
			}
			if !h[c].before(last) {
				break
			}
			h[i] = h[c]
			i = c
		}
		h[i] = last
	}
	*q = h
	return top
}

// activityState tracks where an activity is in its lifecycle.
type activityState int

const (
	stateReady activityState = iota + 1
	stateRunning
	stateBlocked
	stateDone
)

// activity is one simulated thread of control.
type activity struct {
	id       uint64
	shard    int    // 0 = exclusive (serial discipline); >0 = confined
	spawnOrd uint64 // per-shard spawn ordinal, seeds LocalRand
	name     string
	state    activityState
	fn       func(env *Env) error // body, run once by the carrier
	car      *carrier             // coroutine running fn; nil once finished
	env      Env
	wake     *event     // pending timer event, cancelled on early wake
	woken    bool       // a wake event is already queued for this block
	err      error      // set if the activity's function returned an error
	reaped   bool       // completion bookkeeping already performed
	daemon   bool       // service loop: excluded from deadlock detection
	ctxw     *worker    // worker dispatching this activity inside a window
	lrand    *rand.Rand // lazily created shard-local random stream
}

// Stats counts scheduler work: how many events the loop dispatched, how
// many times it resumed an activity, the deepest the event queue ever got,
// and how many activities were spawned. The counters never affect virtual
// time, and both kernels produce identical values for the same program and
// seed.
//
// ContextSwitches counts activity resumptions, not coroutine switches: a
// Sleep committed in place (sleepInPlace) resumes its activity without
// switching at all, and counts as one, exactly as the dispatch it stands in
// for would have. Cluster.MetricsSnapshot publishes each tagged field as
// the gauge sim.<tag>.
type Stats struct {
	EventsDispatched uint64 `metric:"events_dispatched"`
	ContextSwitches  uint64 `metric:"context_switches"`
	MaxQueueDepth    int    `metric:"max_queue_depth"`
	Spawned          uint64 `metric:"activities_spawned"`
}

// Simulation is a deterministic discrete-event simulator. The zero value is
// not usable; construct with New.
type Simulation struct {
	now       time.Duration
	queue     eventQueue
	free      []*event   // recycled event structs, reused by schedule
	carriers  []*carrier // idle carriers, reused by exclusive spawns
	seq       uint64
	actSeq    uint64
	current   *activity
	live      map[uint64]*activity
	stopped   bool
	stepping  bool          // runSerial's loop is running; see sleepInPlace
	limit     time.Duration // the running Run's limit (<= 0: none)
	rng       *rand.Rand
	seed      int64
	errs      []error
	stats     Stats
	digest    uint64
	lookahead time.Duration // minimum cross-shard signalling delay
	shards    map[int]*shardMeta
	par       *parKernel // nil = serial kernel
	traceSink func(trace.Event)
}

// shardMeta carries per-shard deterministic state. Only the spawn ordinal
// lives here today; it seeds LocalRand identically under both kernels.
type shardMeta struct {
	spawnSeq uint64
}

// Stats returns a copy of the scheduler's event-loop counters.
func (s *Simulation) Stats() Stats { return s.stats }

// fnvOffset/fnvPrime are the FNV-1a 64-bit parameters used by OrderDigest.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// New returns a simulation whose random stream is seeded with seed.
func New(seed int64) *Simulation {
	return &Simulation{
		live:   make(map[uint64]*activity),
		rng:    rand.New(rand.NewSource(seed)),
		seed:   seed,
		digest: fnvOffset,
		shards: make(map[int]*shardMeta),
	}
}

// Now returns the current virtual time (elapsed since simulation start).
func (s *Simulation) Now() time.Duration { return s.now }

// Rand returns the simulation's deterministic random source. It must only be
// used from exclusive (shard 0) contexts: handing the single stream to
// concurrently dispatched activities would make draws depend on worker
// interleaving. Confined activities use Env.LocalRand instead; the guard
// fires identically under both kernels.
func (s *Simulation) Rand() *rand.Rand {
	s.exclusiveOnly("Rand")
	return s.rng
}

// OrderDigest returns an FNV-1a hash over the committed (time, sequence)
// event order so far. Two runs of the same program and seed — serial or
// parallel, any worker count — produce the same digest; the equivalence
// suite uses it as a cheap first-line comparison before diffing traces.
func (s *Simulation) OrderDigest() uint64 { return s.digest }

func (s *Simulation) noteCommit(at time.Duration, seq uint64) {
	h := s.digest
	x := uint64(at)
	for i := 0; i < 8; i++ {
		h = (h ^ (x & 0xff)) * fnvPrime
		x >>= 8
	}
	x = seq
	for i := 0; i < 8; i++ {
		h = (h ^ (x & 0xff)) * fnvPrime
		x >>= 8
	}
	s.digest = h
}

// SetLookahead declares the minimum virtual-time delay of any cross-shard
// interaction (typically the network propagation latency). The parallel
// kernel uses it as the conservative lookahead bound; the serial kernel
// stores it only to enforce the same Mailbox contracts, so a program that
// violates them fails identically under the oracle.
func (s *Simulation) SetLookahead(d time.Duration) {
	if d < 0 {
		d = 0
	}
	s.lookahead = d
}

// Lookahead returns the declared cross-shard lookahead.
func (s *Simulation) Lookahead() time.Duration { return s.lookahead }

// SetTraceSink installs (or with nil removes) the sink that Env.Emit
// delivers trace events to. Under the parallel kernel, events emitted
// inside a window are buffered and flushed in committed order, so the sink
// observes the exact serial sequence.
func (s *Simulation) SetTraceSink(fn func(trace.Event)) {
	s.traceSink = fn
}

// exclusiveOnly panics when called from a shard-confined context. The two
// kernels detect the same misuse: the serial oracle checks the running
// activity's shard, the parallel kernel additionally refuses any call that
// arrives while a window is executing.
func (s *Simulation) exclusiveOnly(op string) {
	if s.inWindow() {
		panic("sim: Simulation." + op + " called from a shard-confined activity during a parallel window; confined activities must use their Env")
	}
	if cur := s.current; cur != nil && cur.shard != 0 {
		panic("sim: Simulation." + op + " called from a shard-confined activity; confined activities must use their Env")
	}
}

func (s *Simulation) inWindow() bool { return s.par != nil && s.par.inWindow }

// Spawn registers fn as a new exclusive (shard 0) activity that becomes
// runnable at the current virtual time. It may be called before Run or from
// within a running exclusive activity. The returned Env belongs to the new
// activity.
func (s *Simulation) Spawn(name string, fn func(env *Env) error) *Env {
	s.exclusiveOnly("Spawn")
	return s.spawnOn(nil, 0, name, fn)
}

// SpawnOn registers fn as a new activity confined to the given shard.
// Shard 0 is the exclusive shard: its activities run one at a time under
// both kernels, exactly like Spawn. Shards > 0 are confined: under the
// parallel kernel their activities may run concurrently with other shards
// inside a lookahead window, so they must follow the confined contract
// (LocalRand not Rand, shard-local primitives only, Mailbox for any
// cross-shard signalling — see DESIGN.md §13). From a confined activity,
// only the activity's own shard may be spawned onto.
func (s *Simulation) SpawnOn(shard int, name string, fn func(env *Env) error) *Env {
	s.exclusiveOnly("SpawnOn")
	return s.spawnOn(nil, shard, name, fn)
}

// spawnOn creates the activity in execution context w (nil = exclusive).
func (s *Simulation) spawnOn(w *worker, shard int, name string, fn func(env *Env) error) *Env {
	if shard < 0 {
		panic("sim: SpawnOn with negative shard")
	}
	meta := s.shards[shard]
	if meta == nil {
		if w != nil {
			// A confined activity always has a meta for its own shard, and
			// may only spawn onto its own shard.
			panic("sim: confined spawn onto a foreign shard")
		}
		meta = &shardMeta{}
		s.shards[shard] = meta
	}
	a := &activity{
		shard:    shard,
		spawnOrd: meta.spawnSeq,
		name:     name,
		state:    stateReady,
		fn:       fn,
	}
	meta.spawnSeq++
	a.env = Env{sim: s, act: a}
	if w != nil {
		a.car = takeCarrier(&w.carriers)
		w.spawned++
		ev := w.scheduleLocal(w.now, a)
		w.noteSpawn(ev, a)
	} else {
		a.car = takeCarrier(&s.carriers)
		s.admit(a)
		s.schedule(s.now, a, nil)
	}
	a.car.act = a
	return &a.env
}

// carrier is a runtime coroutine (iter.Pull) that runs activities one after
// another: it runs an activity's fn, marks the activity done and parks idle
// until a spawn hands it the next one. Resuming an activity is one switch
// into its carrier (next), blocking one switch back (park), and a warm spawn
// pays no coroutine setup. Idle carriers wait on the simulation's list, on a
// worker's list inside a window (topped up and trimmed between windows, like
// the event pools), and between runs on the process-wide spare list.
type carrier struct {
	act   *activity // the activity to start; set by spawn, cleared on start
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
}

// maxSpareCarriers caps the idle carriers parked process-wide between runs;
// Run stops the ones beyond it.
const maxSpareCarriers = 1024

// spare holds the idle carriers of finished runs, shared by every
// Simulation in the process, so a fresh simulation starts warm. It is not a
// sync.Pool: a carrier the pool dropped at a collection would stay parked,
// its goroutine never stopped.
var spare struct {
	sync.Mutex
	list []*carrier
}

func newCarrier() *carrier {
	c := new(carrier)
	c.next, c.stop = iter.Pull(func(yield func(struct{}) bool) {
		c.yield = yield
		for {
			a := c.act
			c.act = nil
			a.err = safeRun(a.fn, &a.env)
			a.fn, a.state = nil, stateDone
			if !yield(struct{}{}) {
				return // stopped while idle
			}
		}
	})
	return c
}

// park suspends the running activity: control returns to whoever called
// next, and comes back here when the activity is next dispatched.
func (c *carrier) park() { c.yield(struct{}{}) }

// takeCarrier pops an idle carrier off list, else off the spare list, else
// starts a new one.
func takeCarrier(list *[]*carrier) *carrier {
	if c := pop(list); c != nil {
		return c
	}
	spare.Lock()
	c := pop(&spare.list)
	spare.Unlock()
	if c == nil {
		c = newCarrier()
	}
	return c
}

// freeCarrier hands a finished activity's idle carrier to list.
func (a *activity) freeCarrier(list *[]*carrier) {
	*list = append(*list, a.car)
	a.car = nil
}

// parkCarriers ends a run: the idle carriers on the simulation's and the
// workers' lists go to the spare list up to maxSpareCarriers, and the rest
// are stopped.
func (s *Simulation) parkCarriers() {
	if p := s.par; p != nil {
		for _, w := range p.workers {
			moveTail(&s.carriers, &w.carriers, len(w.carriers))
		}
	}
	spare.Lock()
	moveTail(&spare.list, &s.carriers, maxSpareCarriers-len(spare.list))
	spare.Unlock()
	for _, c := range s.carriers {
		c.stop()
	}
	clear(s.carriers)
	s.carriers = s.carriers[:0]
}

// pop removes and returns the last element of list, or nil when it is empty.
func pop[T any](list *[]*T) *T {
	l := *list
	n := len(l)
	if n == 0 {
		return nil
	}
	x := l[n-1]
	l[n-1] = nil
	*list = l[:n-1]
	return x
}

// moveTail moves the last n elements of src (all of them if it holds fewer;
// none if n <= 0) onto dst.
func moveTail[T any](dst, src *[]*T, n int) {
	n = min(n, len(*src))
	if n <= 0 {
		return
	}
	cut := len(*src) - n
	*dst = append(*dst, (*src)[cut:]...)
	clear((*src)[cut:])
	*src = (*src)[:cut]
}

// admit performs the globally ordered half of spawning: id assignment and
// liveness registration. Under the parallel kernel, confined spawns defer
// this to the barrier replay so ids are assigned in committed order.
func (s *Simulation) admit(a *activity) {
	s.actSeq++
	a.id = s.actSeq
	s.live[a.id] = a
	s.stats.Spawned++
}

// reap performs completion bookkeeping for a finished activity, in the
// exact committed position of the dispatch that finished it.
func (s *Simulation) reap(a *activity) {
	if a.reaped {
		return
	}
	a.reaped = true
	delete(s.live, a.id)
	// An activity that bails out with ErrStopped during shutdown is not
	// a failure; it is the expected way to unwind.
	if a.err != nil && !errors.Is(a.err, ErrStopped) {
		s.errs = append(s.errs, fmt.Errorf("activity %q: %w", a.name, a.err))
	}
}

func safeRun(fn func(env *Env) error, env *Env) (err error) {
	defer func() {
		if r := recover(); r != nil {
			// A panic value that is itself an error (the confined-contract
			// violations panic with *ConfinedContractError) stays matchable
			// through errors.Is/As after it surfaces as the activity error.
			if perr, ok := r.(error); ok {
				err = fmt.Errorf("panic: %w", perr)
			} else {
				err = fmt.Errorf("panic: %v", r)
			}
		}
	}()
	return fn(env)
}

// After schedules fn to run in scheduler context (not as an activity) after
// delay d. Use Spawn for anything that needs to block. After is an exclusive
// primitive: confined activities cannot install scheduler callbacks (the
// callback would run outside their shard's ordering domain).
func (s *Simulation) After(d time.Duration, fn func()) {
	s.exclusiveOnly("After")
	if d < 0 {
		d = 0
	}
	s.schedule(s.now+d, nil, fn)
}

func (s *Simulation) schedule(at time.Duration, a *activity, fn func()) *event {
	s.seq++
	ev := s.newEvent(at, s.seq, a, fn)
	s.queue.push(ev)
	if n := len(s.queue); n > s.stats.MaxQueueDepth {
		s.stats.MaxQueueDepth = n
	}
	return ev
}

// takeEvent pops a recycled event off list, or allocates one when the list is
// empty. Recycled events are always zero apart from their (empty) effect-log
// arrays: release resets them on the way in.
func takeEvent(list *[]*event) *event {
	if ev := pop(list); ev != nil {
		return ev
	}
	return new(event)
}

// newEvent allocates an event, reusing the freelist when possible.
func (s *Simulation) newEvent(at time.Duration, seq uint64, a *activity, fn func()) *event {
	ev := takeEvent(&s.free)
	ev.at, ev.seq, ev.act, ev.fn = at, seq, a, fn
	return ev
}

// release recycles a popped event. Callers must have copied the fields they
// need first: the struct may be handed out again by the very next schedule.
// Safe because the only long-lived pointer into the queue — activity.wake —
// is cleared before the event is released (cancelled timers are cleared by
// wakeNow, fired timers by dispatch).
func (s *Simulation) release(ev *event) {
	ev.reset()
	s.free = append(s.free, ev)
}

// Run executes events until the queue is empty, until time limit is reached
// (limit <= 0 means no limit), or until Stop is called. It returns the first
// error of: an activity error, a detected deadlock, or nil.
func (s *Simulation) Run(limit time.Duration) error {
	defer s.parkCarriers()
	if s.par != nil {
		s.runParallel(limit)
	} else {
		s.runSerial(limit)
	}
	if s.stopped {
		s.drain()
	}
	if len(s.errs) > 0 {
		return s.errs[0]
	}
	if !s.stopped && (limit <= 0 || s.now < limit) && len(s.live) > 0 {
		names := make([]string, 0, len(s.live))
		for _, a := range s.live {
			if !a.daemon {
				names = append(names, a.name)
			}
		}
		if len(names) == 0 {
			// Only daemon service loops remain: the run has quiesced. Unwind
			// them (they see ErrStopped) so every carrier goes idle; the drain
			// happens after the last commit, so it cannot perturb the digest.
			s.drain()
			if len(s.errs) > 0 {
				return s.errs[0]
			}
			return nil
		}
		sort.Strings(names)
		return fmt.Errorf("%w: %v", ErrDeadlock, names)
	}
	return nil
}

// runSerial is the classic one-event-at-a-time loop: the oracle kernel.
func (s *Simulation) runSerial(limit time.Duration) {
	s.stepping, s.limit = true, limit
	defer func() { s.stepping = false }()
	for len(s.queue) > 0 && !s.stopped {
		ev := s.queue.pop()
		if ev.cancelled() {
			s.release(ev)
			continue
		}
		if limit > 0 && ev.at > limit {
			s.release(ev)
			s.now = limit
			break
		}
		s.commitExclusive(ev)
	}
}

// commitExclusive commits one popped event in exclusive context: the serial
// kernel's whole step, and the parallel kernel's for shard-0 events.
func (s *Simulation) commitExclusive(ev *event) {
	at, seq, act, fn, mbox, mval := ev.at, ev.seq, ev.act, ev.fn, ev.mbox, ev.mval
	s.release(ev)
	if at > s.now {
		s.now = at
	}
	s.stats.EventsDispatched++
	s.noteCommit(at, seq)
	if fn != nil {
		fn()
	}
	if mbox != nil {
		mbox.deliver(mval)
	}
	if act != nil {
		s.dispatch(act)
	}
}

// dispatch resumes activity a and waits for it to block or finish.
func (s *Simulation) dispatch(a *activity) {
	if a.state == stateDone {
		return
	}
	s.stats.ContextSwitches++
	a.wake = nil
	a.state = stateRunning
	s.current = a
	a.car.next()
	s.current = nil
	if a.state == stateDone {
		a.freeCarrier(&s.carriers)
		s.reap(a)
	}
}

// Stop aborts the simulation: all blocked activities are woken with
// ErrStopped so they finish, and Run returns. Stop is an exclusive
// primitive.
func (s *Simulation) Stop() {
	s.exclusiveOnly("Stop")
	s.stopped = true
}

// Stopped reports whether Stop has been called.
func (s *Simulation) Stopped() bool { return s.stopped }

// drain wakes every remaining blocked activity with ErrStopped so that no
// activity is left parked on its carrier after Run returns.
func (s *Simulation) drain() {
	// Wake the blocked activities in id order. Dispatching one can unblock
	// or spawn others, so sweep over a snapshot sorted once per pass and
	// repeat until a whole pass wakes nobody — instead of re-scanning the
	// live set for the minimum id before every single dispatch.
	snap := make([]*activity, 0, len(s.live))
	for {
		snap = snap[:0]
		for _, a := range s.live {
			if a.state == stateBlocked {
				snap = append(snap, a)
			}
		}
		if len(snap) == 0 {
			break
		}
		sort.Slice(snap, func(i, j int) bool { return snap[i].id < snap[j].id })
		for _, a := range snap {
			if a.state != stateBlocked {
				continue
			}
			a.env.wakeErr = ErrStopped
			s.dispatch(a)
		}
	}
	// Ready activities (spawned but never run) still hold queued events;
	// run them so they finish too.
	for len(s.queue) > 0 {
		ev := s.queue.pop()
		act := ev.act
		s.release(ev)
		if act != nil && act.state != stateDone {
			act.env.wakeErr = ErrStopped
			s.dispatch(act)
		}
	}
}

// LiveActivities returns the number of activities that have been spawned but
// have not finished. It is mainly useful in tests for leak checking.
func (s *Simulation) LiveActivities() int { return len(s.live) }

// Env is an activity's handle onto the simulation. All blocking operations
// must go through an Env; an Env must only be used by the activity that owns
// it.
type Env struct {
	sim     *Simulation
	act     *activity
	wakeErr error // error to deliver at next wakeup (ErrStopped, ErrTimeout)
}

// Sim returns the underlying simulation.
func (e *Env) Sim() *Simulation { return e.sim }

// Now returns the current virtual time: inside a parallel window, the
// timestamp of the event being dispatched on this activity's worker, which
// is exactly what the serial kernel's global clock would read.
func (e *Env) Now() time.Duration {
	if w := e.act.ctxw; w != nil {
		return w.now
	}
	return e.sim.now
}

// Rand returns the simulation's deterministic random source. Confined
// activities must use LocalRand: the global stream's draw order depends on
// the interleaving of every consumer, which only shard 0 keeps fixed. The
// guard fires under both kernels, so the serial oracle rejects the same
// programs the parallel kernel would.
func (e *Env) Rand() *rand.Rand {
	if e.act.shard != 0 {
		panic("sim: Env.Rand from shard-confined activity " + e.act.name + "; use Env.LocalRand")
	}
	return e.sim.rng
}

// LocalRand returns a deterministic random stream private to this activity,
// seeded from (simulation seed, shard, per-shard spawn ordinal). The stream
// is identical under both kernels and any worker count, which makes it the
// only legal randomness source inside confined activities.
func (e *Env) LocalRand() *rand.Rand {
	if e.act.lrand == nil {
		e.act.lrand = rand.New(rand.NewSource(mixSeed(e.sim.seed, e.act.shard, e.act.spawnOrd)))
	}
	return e.act.lrand
}

// mixSeed derives an independent stream seed with a splitmix64-style hash.
func mixSeed(seed int64, shard int, ord uint64) int64 {
	z := uint64(seed) ^ (uint64(shard) * 0x9e3779b97f4a7c15) ^ (ord * 0xbf58476d1ce4e5b9)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// Shard returns the shard this activity is confined to (0 = exclusive).
func (e *Env) Shard() int { return e.act.shard }

// MarkDaemon flags the calling activity as a daemon service loop: a run that
// quiesces with only daemons left (blocked in Recv, say) ends cleanly instead
// of reporting a deadlock, and the daemons are unwound with ErrStopped. The
// confined RPC dispatchers use it so bounded simulations terminate.
func (e *Env) MarkDaemon() { e.act.daemon = true }

// ClearDaemon undoes MarkDaemon: the calling activity counts toward deadlock
// detection again. A pooled service activity is a daemon only while it waits
// for work, so one that blocks forever mid-request is still reported.
func (e *Env) ClearDaemon() { e.act.daemon = false }

// Rehome moves the calling activity to another shard after delay: the
// activity parks, and resumes on the new shard once the delay elapses. It
// models a thread of control physically moving between hosts (process
// migration's switch-over). The delay is a cross-shard message and must be at
// least the declared lookahead — enforced under both kernels, so the serial
// oracle rejects the same programs the parallel kernel would. After Rehome
// returns, Spawn, LocalRand seeding of children, and wake routing all follow
// the new shard. Rehoming to the current shard is just a Sleep.
func (e *Env) Rehome(shard int, delay time.Duration) error {
	a := e.act
	if shard < 0 {
		panic("sim: Rehome to negative shard")
	}
	if shard == a.shard {
		return e.Sleep(delay)
	}
	s := e.sim
	if delay < s.lookahead {
		panic(fmt.Sprintf("sim: Rehome delay %v below lookahead %v; moving shards is a cross-shard message", delay, s.lookahead))
	}
	if w := a.ctxw; w != nil {
		// In-window: the wake event must not enter this worker's local heap
		// (it belongs to the new shard); replay homes it through the global
		// queue, where the delay >= lookahead contract keeps it at or beyond
		// the window horizon.
		a.shard = shard
		a.wake = w.scheduleRemote(w.now+delay, a)
		return e.block()
	}
	a.shard = shard
	if s.shards[shard] == nil {
		s.shards[shard] = &shardMeta{}
	}
	a.wake = s.schedule(s.now+delay, a, nil)
	return e.block()
}

// Name returns the activity's name (useful in logs and errors).
func (e *Env) Name() string { return e.act.name }

// SetName renames the calling activity. A pooled service activity takes the
// name of each request's service, so errors name the service it is running.
func (e *Env) SetName(name string) { e.act.name = name }

// Spawn starts a new activity at the current virtual time. The child
// inherits the parent's shard, so confined activities naturally stay
// confined and exclusive activities stay exclusive.
func (e *Env) Spawn(name string, fn func(env *Env) error) *Env {
	return e.SpawnOn(e.act.shard, name, fn)
}

// SpawnOn starts a new activity on the given shard. Confined activities may
// only spawn onto their own shard; exclusive ones may spawn anywhere.
func (e *Env) SpawnOn(shard int, name string, fn func(env *Env) error) *Env {
	if w := e.act.ctxw; w != nil {
		if shard != e.act.shard {
			panic("sim: confined activity " + e.act.name + " spawning onto a foreign shard")
		}
		return e.sim.spawnOn(w, shard, name, fn)
	}
	if e.act.shard != 0 && shard != e.act.shard {
		panic("sim: confined activity " + e.act.name + " spawning onto a foreign shard")
	}
	return e.sim.spawnOn(nil, shard, name, fn)
}

// Emit stamps ev with the current virtual time and delivers it to the
// simulation's trace sink (a no-op without one). Inside a parallel window
// the event is buffered and flushed at the barrier in committed order, so
// sinks always observe the serial sequence.
func (e *Env) Emit(ev trace.Event) {
	// The sink is installed before Run, so reading it from a worker is
	// race-free; without one there is nothing to buffer either.
	sink := e.sim.traceSink
	if sink == nil {
		return
	}
	if w := e.act.ctxw; w != nil {
		ev.At = w.now
		w.cur.traces = append(w.cur.traces, ev)
		return
	}
	ev.At = e.sim.now
	sink(ev)
}

// block parks the activity until the scheduler resumes it, returning any
// wake error (ErrStopped or ErrTimeout) set by the waker.
func (e *Env) block() error {
	e.act.state = stateBlocked
	e.act.car.park()
	e.act.state = stateRunning
	e.act.woken = false
	err := e.wakeErr
	e.wakeErr = nil
	return err
}

// scheduleWake schedules a resume of this activity after d, in the
// activity's execution context: the global queue when running exclusively,
// the dispatching worker's local queue inside a parallel window.
func (e *Env) scheduleWake(d time.Duration) *event {
	if d < 0 {
		d = 0
	}
	if w := e.act.ctxw; w != nil {
		return w.scheduleLocal(w.now+d, e.act)
	}
	return e.sim.schedule(e.sim.now+d, e.act, nil)
}

// Sleep advances the activity's virtual time by d.
func (e *Env) Sleep(d time.Duration) error {
	if !e.sim.sleepInPlace(max(d, 0)) {
		e.act.wake = e.scheduleWake(d)
		return e.block()
	}
	err := e.wakeErr
	e.wakeErr = nil
	return err
}

// sleepInPlace commits the wake of the running activity's Sleep(d) without
// leaving it, when that wake is the event runSerial would commit next: it
// does to the kernel exactly what schedule, runSerial, commitExclusive and
// dispatch would have done, minus the two coroutine switches. The guards:
// runSerial's loop is running (not drain, not the parallel kernel), the
// simulation is not stopped, the wake (now+d, seq+1) sorts before the queue
// head — so the head must be strictly later — and it is within Run's limit.
// It reports false, having changed nothing, when any guard fails.
func (s *Simulation) sleepInPlace(d time.Duration) bool {
	if !s.stepping || s.stopped {
		return false
	}
	at := s.now + d
	if len(s.queue) > 0 && s.queue.peek().at <= at || s.limit > 0 && at > s.limit {
		return false
	}
	s.seq++
	if n := len(s.queue) + 1; n > s.stats.MaxQueueDepth {
		s.stats.MaxQueueDepth = n
	}
	s.now = at
	s.stats.EventsDispatched++
	s.noteCommit(at, s.seq)
	s.stats.ContextSwitches++
	return true
}

// Yield reschedules the activity at the current time, letting any other
// activity scheduled for this instant run first.
func (e *Env) Yield() error { return e.Sleep(0) }

// wakeNow cancels a pending timer (if any) and schedules the resume. by is
// the waking activity's Env where the primitive has it (Future.Complete),
// nil where it has none. The resume is immediate, except that a confined
// waker's wake of an exclusive (shard 0) activity is a cross-shard message:
// it lands one lookahead later, logged inside a window on the waker's event,
// where replay numbers it exactly as the serial kernel does. Only the first
// wake of a given block takes effect: once a resume event is queued, further
// wakes are no-ops until the activity actually runs again (a second queued
// resume would later fire as a spurious wakeup while the activity is blocked
// on something else entirely).
func (e *Env) wakeNow(by *Env, err error) {
	a := e.act
	if a.state != stateBlocked || a.woken {
		return
	}
	remote := by != nil && by.act.shard != 0 && by.act.shard != a.shard
	if remote && a.shard != 0 {
		panic(crossShardWake)
	}
	if a.wake != nil { // cancel pending timer (always a bare activity event)
		a.wake.act = nil
		a.wake = nil
	}
	a.woken = true
	e.wakeErr = err
	s := e.sim
	if remote {
		if w := by.act.ctxw; w != nil {
			w.scheduleRemote(w.now+s.lookahead, a)
		} else {
			s.schedule(s.now+s.lookahead, a, nil)
		}
		return
	}
	if s.inWindow() {
		// The waker is a confined activity executing inside a window; the
		// confined contract restricts it to same-shard sync objects, so the
		// wakee lives on the same shard and the same worker. A primitive that
		// carries no waker cannot send the one message an exclusive wakee
		// may receive.
		if a.shard == 0 {
			panic("sim: wake of an exclusive (shard 0) activity from inside a parallel window by a primitive other than Future.Complete; cross-shard signalling must use a Mailbox")
		}
		w := s.par.workerFor(a.shard)
		w.scheduleLocal(w.now, a)
		return
	}
	if cur := s.current; cur != nil && cur.shard != 0 && cur.shard != a.shard {
		// Serial oracle for the same contract: a confined activity waking a
		// foreign shard at the current instant would be a same-timestamp
		// cross-shard interaction, invisible to the lookahead bound.
		panic(crossShardWake)
	}
	s.schedule(s.now, a, nil)
}

// crossShardWake is the panic of a same-instant wake across shards that the
// confined contract forbids.
const crossShardWake = "sim: cross-shard wake at the current instant; cross-shard signalling must use a Mailbox"

// Interrupt poisons the activity that owns e with err: if it is blocked in
// any primitive, it is woken immediately and the primitive returns err; if it
// is ready or running, err is delivered the next time it blocks. Interrupt is
// the mechanism behind fail-stop fault injection (a crashed host's processes
// must unwind without running any more simulated work) and must be called
// from a different activity (or scheduler context), never on one's own Env.
func (e *Env) Interrupt(err error) {
	switch e.act.state {
	case stateBlocked:
		e.wakeNow(nil, err)
	case stateDone:
		// Already finished; nothing to deliver.
	default:
		// Ready or running: poison the next block. A ready activity already
		// has a queued resume event, which will deliver this error.
		e.wakeErr = err
	}
}
