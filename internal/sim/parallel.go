package sim

// Conservative parallel kernel (DESIGN.md §13).
//
// The event heap is split into an exclusive shard 0 — every activity spawned
// with Spawn, which keeps the one-at-a-time serial discipline — and confined
// shards (SpawnOn with shard > 0) whose activities may be dispatched
// concurrently. Forming windows, the loop alternates between two modes:
//
//   - The head event belongs to shard 0 (or is a scheduler callback): it is
//     dispatched exclusively, exactly as the serial kernel would.
//   - The head event belongs to a confined shard: the loop peels off the
//     maximal committed prefix of confined events with at < horizon, where
//     horizon = head.at + lookahead, further bounded by the first exclusive
//     event (nothing may be reordered past it) and by the run limit. The
//     prefix is partitioned by shard onto workers; each worker dispatches its
//     shards' chains in (at, seq) order, running events it creates locally
//     (timers, wakes, spawns) while they stay below the horizon. Lookahead
//     zero collapses the window to a single event — lockstep — so the kernel
//     degrades to serial order rather than to nondeterminism.
//
// Workers never touch shared simulation state. Every effect of an in-window
// dispatch (scheduled events, spawns, mailbox posts, trace emissions) is
// buffered on the dispatched event itself. At the barrier, replay() walks the
// committed events in (at, seq) order and performs the global half of each
// effect — sequence-number assignment, activity admission, queue accounting,
// trace flushing — exactly where the serial kernel would have. Because the
// serial kernel assigns sequence numbers at schedule time, and every event
// scheduled during a window necessarily sorts after every event that existed
// when the window formed, replay reproduces the serial numbering, statistics,
// and committed order bit for bit. Worker count and scheduling jitter cannot
// leak into results: the shard→worker map is static and nothing a worker
// does escapes its buffers until replay.
//
// The serial regime commits every event as runSerial does, which light events
// make cheaper than windows: the kernel times epochs of commits on the host
// clock and keeps the cheaper regime. Neither regime decides what commits.

import (
	"cmp"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// provSeqBase is the provisional sequence-number floor for events created
// inside a window, before replay assigns their real numbers. Real sequence
// numbers would need ~10^12 committed events to reach it, so provisional
// events always sort after same-timestamp committed ones — exactly the
// serial kernel's schedule-time ordering.
const provSeqBase = uint64(1) << 40

// childEntry is one buffered schedule effect of an in-window dispatch: a
// locally created event (timer, wake, or a spawn's first resume), or a remote
// event homed elsewhere — a mailbox post, or a Rehome's wake on the
// activity's new shard.
type childEntry struct {
	ev     *event
	spawn  *activity // set when ev is a freshly spawned activity's first resume
	remote bool      // global queue only, never this worker's local order
}

// spinYields is how many times a waiter at the window barrier yields the
// processor before it parks. A window holds a few events, so the other side
// usually answers within a few yields; parking and waking a goroutine costs
// far more than that.
const spinYields = 256

// The regimes a kernel can be pinned to; the measured one times both.
const regimeMeasured, regimeSerial, regimeWindowed = 0, 1, 2

// The epoch rule: an epoch ends at the first commit after epochEvents more.
// The kernel starts windowed and times the serial regime next; it keeps the
// cheaper one and times the other again after probeEvery epochs, from
// firstProbe doubling up to maxProbeEvery while the same regime wins.
const epochEvents, firstProbe, maxProbeEvery = 2048, 8, 64

var defaultRegime = regimeMeasured // ConfigureParallel's pin; windowed under -race

// parKernel is the parallel dispatcher attached to a Simulation by
// ConfigureParallel.
type parKernel struct {
	s        *Simulation
	nworkers int
	workers  []*worker
	inWindow bool
	window   []*event   // scratch: the current committed prefix
	frontier eventQueue // scratch: replay ordering heap
	stats    WindowStats

	// The dispatch regime; flipEvery > 0 (a test seam) alternates it. epochNs:
	// earlier Runs' time in the epoch; cost: the incumbent's last ns/event.
	pin                            int
	serial, probing                bool
	flipEvery, epochEnd, epochBase uint64
	epochNs, runStart, cost        int64
	probeIn, probeEvery            int

	// The window barrier. The coordinator runs the first active worker's
	// share itself and posts the others to their helpers (one goroutine per
	// worker but the first, for the duration of a Run); pending counts the
	// posted shares still running, and the helper that finishes the last one
	// wakes the coordinator if it parked. stopping tells the helpers that
	// the post they see is the end of the Run; helpers joins them.
	pending  atomic.Int32
	barrier  parker
	stopping bool
	helpers  sync.WaitGroup
}

// WindowStats counts how the parallel kernel formed its windows: how many,
// how many queued events they took, how many events they created and
// committed themselves, how many had one active worker, why each closed, and
// how many events it committed exclusively between them or in the serial
// regime. Only the coordinator writes them, and they never affect the
// simulation; they stay out of Stats, which both kernels must produce
// identically. Under the serial kernel every counter is zero.
//
// When no window takes a cancelled timer, WindowEvents + ChainEvents +
// ExclusiveCommits is Stats.EventsDispatched.
type WindowStats struct {
	Windows          uint64 // windows formed
	WindowEvents     uint64 // queued events windows took (not the ones they created and ran)
	ChainEvents      uint64 // events windows created and committed themselves
	SingleWorker     uint64 // windows whose events all went to one worker
	ClosedHorizon    uint64 // formation stopped at the lookahead horizon or the Run limit
	ClosedExclusive  uint64 // formation stopped at an exclusive (shard 0) event
	ClosedEmpty      uint64 // formation emptied the queue
	ExclusiveCommits uint64 // events committed exclusively by the parallel loop
	InPlace          uint64 // of those, commits made inside an activity: in-place sleeps and baton steps (serial regime only)
}

// WindowStats returns a copy of the parallel kernel's window counters.
func (s *Simulation) WindowStats() WindowStats {
	if s.par == nil {
		return WindowStats{}
	}
	return s.par.stats
}

// parker is one waiting side of the window barrier. A waiter yields up to
// spinYields times for its condition, then announces itself in parked and
// sleeps on wake. A signaller that swaps parked from true to false owns the
// wake and sends it; a waiter that finds its condition met after announcing
// takes its announcement back with the same swap. Whichever swap wins
// decides, so no wake is lost and none is left over for a later wait.
//
// A wake says only that the condition held when it was sent, and not
// necessarily for this wait: a signaller can be delayed between making its
// condition true and swapping, until the waiter has moved on to its next
// wait. So a woken waiter checks again and parks again if it must.
type parker struct {
	parked atomic.Bool
	wake   chan struct{} // one slot: the signaller never blocks
}

// wait returns once ready reports true. The signaller must make ready true
// before it calls signal.
func (k *parker) wait(ready func() bool) {
	for i := 0; i < spinYields; i++ {
		if ready() {
			return
		}
		runtime.Gosched()
	}
	for !ready() {
		k.parked.Store(true)
		if ready() && k.parked.Swap(false) {
			return // no signaller saw the announcement, so none will send
		}
		<-k.wake
	}
}

// signal wakes the waiter if it parked.
func (k *parker) signal() {
	if k.parked.Swap(false) {
		k.wake <- struct{}{}
	}
}

// worker dispatches the confined shards mapped to it. Each shard maps to
// exactly one worker (statically, by shard number), so one shard's events
// are always executed sequentially in (at, seq) order even though different
// shards proceed concurrently.
type worker struct {
	p       *parKernel
	idx     int
	local   eventQueue // assigned window events + locally created ones
	counter uint64     // events created this window: provisional sequence counter
	horizon time.Duration
	now     time.Duration // timestamp of the event being dispatched
	cur     *event        // the event being dispatched, logging its effects

	// posted counts the shares the coordinator has posted to this worker's
	// helper; the helper waits on idle for the next one.
	posted atomic.Uint64
	idle   parker

	// pool holds the recycled events this worker hands out inside a window.
	// The coordinator tops it up from Simulation.free between windows, to
	// want — the most events the worker ever created in one window — so a
	// steady-state window allocates nothing; the worker never touches
	// Simulation.free itself.
	pool []*event
	want int

	// carriers holds the idle carriers this worker's spawns take inside a
	// window, and the ones its finished activities leave. Between windows
	// the coordinator tops it up from, and trims it back to,
	// Simulation.carriers at wantCarriers — the most spawns the worker made
	// in one window — so activities that finish on another worker than they
	// started on do not strand carriers.
	carriers     []*carrier
	spawned      int
	wantCarriers int

	// goexited is set when an activity called runtime.Goexit in a share
	// this worker's helper ran: its carrier passed the exit on to the
	// helper, which ends mid-window.
	goexited bool
}

// ConfigureParallel switches the simulation to the conservative parallel
// kernel with the given worker count (minimum 1). The committed event order
// is identical to the serial kernel for any worker count; only wall-clock
// time changes. Call before Run, together with SetLookahead.
func (s *Simulation) ConfigureParallel(workers int) {
	if workers < 1 {
		workers = 1
	}
	s.par = &parKernel{s: s, nworkers: workers, pin: defaultRegime, probeIn: 1, probeEvery: firstProbe / 2}
}

// Parallel reports whether the parallel kernel is configured.
func (s *Simulation) Parallel() bool { return s.par != nil }

// WorkerSlot returns a stable 1-based index of the worker currently
// dispatching env's activity, or 0 when the activity is running exclusively
// (serial kernel, shard 0, or scheduler context). Sharded metrics use it to
// pick a contention-free cell; slot 0 is the shared base cell.
func WorkerSlot(env *Env) int {
	if w := env.act.ctxw; w != nil {
		return w.idx + 1
	}
	return 0
}

// workerFor maps a confined shard to its worker.
func (p *parKernel) workerFor(shard int) *worker {
	return p.workers[(shard-1)%len(p.workers)]
}

// start launches a helper goroutine for every worker but the first, for
// the duration of a Run. The worker structs themselves — and with them the
// event pools and their high-water marks — live as long as the kernel, so a
// simulation advanced by repeated Run calls does not warm its pools up again
// each time.
func (p *parKernel) start() {
	if p.workers == nil {
		p.workers = make([]*worker, p.nworkers)
		for i := range p.workers {
			p.workers[i] = &worker{p: p, idx: i, idle: parker{wake: make(chan struct{}, 1)}}
		}
		p.barrier.wake = make(chan struct{}, 1)
	}
	p.stopping = false
	for _, w := range p.workers[1:] {
		// The previous Run's helper is joined, so nothing else reads posted.
		w.posted.Store(0)
		p.helpers.Add(1)
		go w.help()
	}
}

// stopWorkers ends the Run's helpers and joins them. Without the join a
// helper could still be spinning when the next Run starts another for the
// same worker, and the two would take its shares between them. After a
// Goexit in the coordinator's own share, posted shares may still be
// running; they finish first.
func (p *parKernel) stopWorkers() {
	p.barrier.wait(func() bool { return p.pending.Load() == 0 })
	p.stopping = true
	for _, w := range p.workers[1:] {
		w.post()
	}
	p.helpers.Wait()
}

// post hands the worker's helper its next share, or with p.stopping set the
// end of the Run.
func (w *worker) post() {
	w.posted.Add(1)
	w.idle.signal()
}

// shareDone reports a posted share finished; the last one of a window
// releases the coordinator.
func (p *parKernel) shareDone() {
	if p.pending.Add(-1) == 0 {
		p.barrier.signal()
	}
}

// runParallel is Run's main loop under the parallel kernel.
func (s *Simulation) runParallel(limit time.Duration) {
	p := s.par
	p.runStart, s.limit = hostNanos(), limit
	defer func() { p.epochNs, s.stepping = p.epochNs+hostNanos()-p.runStart, false }()
	p.start()
	defer p.stopWorkers() // runs first: after a Goexit, posted shares may still run
	for len(s.queue) > 0 && !s.stopped {
		if s.stats.EventsDispatched >= p.epochEnd {
			p.nextEpoch()
		}
		s.stepping = p.serial
		head := s.queue.peek()
		if head.cancelled() {
			s.queue.pop()
			s.release(head)
			continue
		}
		if limit > 0 && head.at > limit {
			s.now = limit
			return
		}
		if p.serial || head.homeShard() == 0 {
			n := s.stats.EventsDispatched
			s.commitExclusive(s.queue.pop())
			p.stats.ExclusiveCommits += s.stats.EventsDispatched - n
			p.stats.InPlace += s.stats.EventsDispatched - n - 1
			continue
		}
		p.runWindow(limit)
	}
}

// nextEpoch ends an epoch and picks the regime for the next one.
func (p *parKernel) nextEpoch() {
	s, now := p.s, hostNanos()
	n := int64(s.stats.EventsDispatched - p.epochBase)
	ns := (p.epochNs + now - p.runStart) / max(n, 1)
	p.epochBase, p.epochNs, p.runStart = s.stats.EventsDispatched, 0, now
	p.epochEnd = p.epochBase + cmp.Or(p.flipEvery, epochEvents)
	switch {
	case p.flipEvery > 0:
		p.serial = !p.serial
	case p.pin != regimeMeasured || p.nworkers == 1: // one worker: serial
		p.serial = p.pin != regimeWindowed
	case n == 0: // before the first commit
	case !p.probing:
		p.cost = ns // the incumbent's latest epoch, the probe's nearest neighbour
		if p.probeIn--; p.probeIn == 0 {
			p.serial, p.probing = !p.serial, true
		}
	case ns < p.cost: // the probe won
		p.probing, p.cost, p.probeEvery, p.probeIn = false, ns, firstProbe, firstProbe
	default: // the probe lost: back to the incumbent
		p.serial, p.probing = !p.serial, false
		p.probeEvery = min(2*p.probeEvery, maxProbeEvery)
		p.probeIn = p.probeEvery
	}
	for _, w := range p.workers { // serial commits draw on these; topUp refills
		moveTail(&s.free, &w.pool, len(w.pool))
		moveTail(&s.carriers, &w.carriers, len(w.carriers))
	}
}

// runWindow peels the maximal committed prefix of confined events off the
// queue, dispatches it across the workers, and replays the buffered effects.
func (p *parKernel) runWindow(limit time.Duration) {
	s := p.s
	head := s.queue.pop()
	window := append(p.window[:0], head)
	horizon := head.at + s.lookahead
	if limit > 0 && horizon > limit+1 {
		// Serial would drop everything past the limit; confined chains must
		// not run ahead of it either.
		horizon = limit + 1
	}
	p.stats.Windows++
	closed := &p.stats.ClosedEmpty
	for len(s.queue) > 0 {
		h := s.queue.peek()
		if h.at >= horizon {
			closed = &p.stats.ClosedHorizon
			break
		}
		if !h.cancelled() {
			if h.homeShard() == 0 {
				// Exclusive blocker: nothing committed in this window may
				// reorder past it, so it bounds how far locally created
				// events may run. Same-timestamp confined events already in
				// the prefix keep their smaller sequence numbers and still
				// run; same-timestamp locally created ones sort after the
				// blocker and wait.
				horizon = h.at
				closed = &p.stats.ClosedExclusive
				break
			}
		}
		window = append(window, s.queue.pop())
	}
	*closed++
	p.stats.WindowEvents += uint64(len(window))

	for _, ev := range window {
		if ev.cancelled() {
			ev.consumed = true // cancelled before the window formed
			continue
		}
		p.workerFor(ev.homeShard()).local.push(ev)
	}
	p.inWindow = true
	var first *worker
	active := 0
	for _, w := range p.workers {
		if len(w.local) == 0 {
			continue
		}
		w.horizon = horizon
		p.topUp(w)
		active++
		if first == nil {
			first = w
			continue
		}
		p.pending.Add(1)
		w.post()
	}
	if active == 1 {
		p.stats.SingleWorker++
	}
	if first != nil {
		// A Goexit here ends Run's caller directly, as under the serial
		// kernel; runParallel's deferred stopWorkers joins the helpers.
		first.runShare()
	}
	if active > 1 {
		p.barrier.wait(func() bool { return p.pending.Load() == 0 })
	}
	p.inWindow = false
	for _, w := range p.workers {
		if w.goexited {
			// Re-raise on Run's caller, where the serial kernel's carrier
			// would have delivered it.
			runtime.Goexit()
		}
		// Whatever a worker did not consume was locally created past the
		// horizon; replay re-homes those through the effect logs. Scratch is
		// cleared, not just truncated: events are recycled, and a stale
		// pointer in a backing array would alias a live one.
		clear(w.local)
		w.local = w.local[:0]
		w.want = max(w.want, int(w.counter))
		w.counter = 0
		w.wantCarriers = max(w.wantCarriers, w.spawned)
		w.spawned = 0
		moveTail(&s.carriers, &w.carriers, len(w.carriers)-w.wantCarriers)
	}
	s.replay(window)
	clear(window)
	p.window = window[:0]
}

// topUp refills w's event pool from the global freelist up to w.want, and its
// carrier list up to w.wantCarriers. It runs on the coordinator between
// windows, the only time both are quiescent; if the freelist runs short the
// worker allocates the difference, and those events join the freelist when
// replay releases them.
func (p *parKernel) topUp(w *worker) {
	s := p.s
	moveTail(&w.pool, &s.free, w.want-len(w.pool))
	moveTail(&w.carriers, &s.carriers, w.wantCarriers-len(w.carriers))
}

// help is the helper loop: wait for a posted share, run it, report it done,
// until the post that ends the Run.
func (w *worker) help() {
	p := w.p
	defer p.helpers.Done()
	returned := false
	defer func() {
		if !returned {
			w.goexited = true
			p.shareDone()
		}
	}()
	var taken uint64 // posts seen; start zeroed posted before this helper began
	for {
		w.idle.wait(func() bool { return w.posted.Load() != taken })
		taken++
		if p.stopping {
			returned = true
			return
		}
		w.runShare()
		p.shareDone()
	}
}

// runShare dispatches this worker's share of the window in (at, seq) order,
// following locally created events while they stay below the horizon.
func (w *worker) runShare() {
	for len(w.local) > 0 {
		top := w.local.peek()
		if top.seq >= provSeqBase && top.at >= w.horizon {
			// A locally created event at or past the horizon: its real
			// sequence number will sort it after the window's boundary
			// event, so it must wait for a later window. Everything
			// still queued locally sorts after it; committed window
			// events (real seq, at <= horizon) have all been popped.
			break
		}
		ev := w.local.pop()
		ev.consumed = true
		if ev.mbox != nil {
			// A shard-homed mailbox delivery: it runs on this worker so
			// its wakes land in this shard's local order, logging its
			// effects like any dispatch.
			ev.dispatched = true
			w.now = ev.at
			w.cur = ev
			ev.mbox.deliver(ev.mval)
			w.cur = nil
			continue
		}
		if ev.act == nil {
			continue // cancelled while queued
		}
		a := ev.act
		if a.state == stateDone {
			continue
		}
		ev.dispatched = true
		w.now = ev.at
		a.wake = nil
		a.state = stateRunning
		a.ctxw = w
		w.cur = ev
		a.car.next()
		a.ctxw = nil
		w.cur = nil
		if a.state == stateDone {
			ev.finished = true
			a.freeCarrier(&w.carriers)
		}
	}
}

// newEvent hands out an event for activity a inside a window, from the pool
// when it can, with a provisional sequence number.
func (w *worker) newEvent(at time.Duration, a *activity) *event {
	ev := takeEvent(&w.pool)
	w.counter++
	ev.at, ev.seq, ev.act = at, provSeqBase+w.counter, a
	return ev
}

// scheduleLocal buffers a schedule effect made inside a window: the event
// joins this worker's local order immediately (it may still run in this
// window if it stays below the horizon) and is recorded for replay.
func (w *worker) scheduleLocal(at time.Duration, a *activity) *event {
	ev := w.newEvent(at, a)
	w.local.push(ev)
	w.cur.children = append(w.cur.children, childEntry{ev: ev})
	return ev
}

// scheduleRemote buffers an event that belongs to another shard: the wake of
// an activity rehoming there (Env.Rehome), or — with a nil activity, and
// Mailbox.SendAfter filling in the delivery — a mailbox post. The event must not join
// this worker's local order, so it is only recorded; replay homes it through
// the global queue, where the >= lookahead delay contract keeps it at or
// beyond the window horizon.
func (w *worker) scheduleRemote(at time.Duration, a *activity) *event {
	ev := w.newEvent(at, a)
	w.cur.children = append(w.cur.children, childEntry{ev: ev, remote: true})
	return ev
}

// noteSpawn marks the most recent schedule effect as a spawn, so replay
// admits the activity (id assignment, liveness) in committed order.
func (w *worker) noteSpawn(ev *event, a *activity) {
	cs := w.cur.children
	if len(cs) == 0 || cs[len(cs)-1].ev != ev {
		panic("sim: internal: spawn effect out of order")
	}
	cs[len(cs)-1].spawn = a
}

// replay commits a window: walk its events in (at, seq) order and perform
// the global half of every buffered effect exactly where the serial kernel
// would have. pending mirrors the serial kernel's queue length through the
// window so MaxQueueDepth matches bit for bit.
func (s *Simulation) replay(window []*event) {
	p := s.par
	// The window left the queue in (at, seq) order, and a sorted slice is
	// already a heap.
	p.frontier = append(p.frontier[:0], window...)
	pending := len(s.queue) + len(p.frontier)
	// Every event the window took was numbered before replay began; every one
	// it created is numbered after.
	taken := s.seq
	for len(p.frontier) > 0 {
		ev := p.frontier.pop()
		pending--
		if ev.cancelled() {
			s.release(ev)
			continue
		}
		if ev.at > s.now {
			s.now = ev.at
		}
		if ev.seq > taken {
			p.stats.ChainEvents++
		}
		s.stats.EventsDispatched++
		s.noteCommit(ev.at, ev.seq)
		if ev.dispatched {
			if ev.act != nil {
				// Mailbox deliveries are not activity dispatches: the serial
				// kernel counts no context switch for them, so replay must
				// not either.
				s.stats.ContextSwitches++
			}
			for i := range ev.children {
				ch := &ev.children[i]
				if ch.spawn != nil {
					s.admit(ch.spawn)
				}
				if a := ch.ev.act; ch.remote && a != nil && s.shards[a.shard] == nil {
					// A rehomed activity's wake: make sure its new shard has
					// deterministic spawn-ordinal state before anything runs
					// there.
					s.shards[a.shard] = &shardMeta{}
				}
				s.seq++
				ch.ev.seq = s.seq
				pending++
				if pending > s.stats.MaxQueueDepth {
					s.stats.MaxQueueDepth = pending
				}
				if ch.ev.consumed {
					p.frontier.push(ch.ev)
				} else {
					s.queue.push(ch.ev)
				}
			}
			if s.traceSink != nil {
				for _, te := range ev.traces {
					s.traceSink(te)
				}
			}
			if ev.finished {
				s.reap(ev.act)
			}
		}
		s.release(ev)
	}
	// The frontier is empty again, and pop nilled every slot it vacated.
}
