package sim

import (
	"slices"
	"time"
)

// Future is a single-assignment value that activities can wait on. It is the
// basic building block for request/response interactions (RPC replies,
// process exit status, migration completion, ...).
//
// A Future is only ever used by pointer: its first waiter lives in wait1,
// so a value copy would share that slot with the original.
type Future struct {
	done    bool
	value   any
	err     error
	waiters []*Env // FIFO; on wait1 until a second waiter queues
	wait1   [1]*Env
}

// NewFuture returns an unresolved future.
func NewFuture() *Future { return &Future{} }

// Done reports whether the future has been completed.
func (f *Future) Done() bool { return f.done }

// Complete resolves the future, waking every waiter. env is the completing
// activity's Env: a confined completer's exclusive (shard 0) waiters wake
// one lookahead later, as a message would reach them, and every other waiter
// at the current virtual time. A nil env (scheduler context, or a completer
// on its waiters' shard) wakes every waiter at once, as Queue.Send does.
// Completing an already-complete future is a no-op.
func (f *Future) Complete(env *Env, value any, err error) {
	if f.done {
		return
	}
	f.done = true
	f.value = value
	f.err = err
	for _, w := range f.waiters {
		w.wakeNow(env, nil)
	}
	clear(f.waiters[:cap(f.waiters)])
	f.waiters, f.wait1[0] = f.waiters[:0], nil // wait1 outlives a move to an array
}

// Reset re-arms a completed future, keeping its waiter array, once every
// waiter it woke has resumed (a waiter reads the value when it runs).
// Resetting an unresolved future panics: something may still complete it.
func (f *Future) Reset() {
	if !f.done {
		panic("sim: Reset of an unresolved future")
	}
	f.done, f.value, f.err = false, nil, nil
}

// Wait blocks the calling activity until the future completes, then returns
// its value and error. If the simulation stops first, it returns ErrStopped.
func (f *Future) Wait(env *Env) (any, error) {
	if !f.done {
		f.addWaiter(env)
		if werr := env.block(); werr != nil {
			f.dropWaiter(env)
			return nil, werr
		}
	}
	return f.value, f.err
}

// WaitTimeout is Wait with a deadline; it returns ErrTimeout if the future is
// still unresolved after d.
func (f *Future) WaitTimeout(env *Env, d time.Duration) (any, error) {
	if f.done {
		return f.value, f.err
	}
	f.addWaiter(env)
	env.act.wake = env.scheduleWake(d)
	// If the timer fires, block returns nil but the future is unresolved.
	if werr := env.block(); werr != nil {
		f.dropWaiter(env)
		return nil, werr
	}
	if !f.done {
		f.dropWaiter(env)
		return nil, ErrTimeout
	}
	return f.value, f.err
}

// addWaiter queues env; the first takes the inline slot, allocating nothing.
func (f *Future) addWaiter(env *Env) {
	if f.waiters == nil {
		f.waiters = f.wait1[:0]
	}
	f.waiters = append(f.waiters, env)
}

func (f *Future) dropWaiter(env *Env) {
	if i := slices.Index(f.waiters, env); i >= 0 {
		f.waiters = slices.Delete(f.waiters, i, i+1)
	}
}

// fifo is a slice-backed first-in-first-out list that keeps its backing
// array. Popping with s = s[1:] walks the slice off the front of its array,
// so that every later append reallocates; fifo instead advances a head
// index, rewinds to the front whenever it drains, and slides the live items
// down when the array is full but at least half consumed. A steady push/pop
// cycle therefore allocates nothing.
type fifo[T comparable] struct {
	buf  []T // live items are buf[head:]
	head int
}

func (f *fifo[T]) len() int { return len(f.buf) - f.head }

// live returns the queued items, oldest first; valid until the next push.
func (f *fifo[T]) live() []T { return f.buf[f.head:] }

func (f *fifo[T]) push(v T) {
	if len(f.buf) == cap(f.buf) && f.head > 0 && f.head >= len(f.buf)/2 {
		n := copy(f.buf, f.buf[f.head:])
		clear(f.buf[n:])
		f.buf, f.head = f.buf[:n], 0
	}
	f.buf = append(f.buf, v)
}

func (f *fifo[T]) pop() T {
	var zero T
	v := f.buf[f.head]
	f.buf[f.head] = zero
	f.head++
	f.rewind()
	return v
}

// remove deletes the oldest item equal to v, if any, keeping the order.
func (f *fifo[T]) remove(v T) {
	for i := f.head; i < len(f.buf); i++ {
		if f.buf[i] == v {
			f.buf = slices.Delete(f.buf, i, i+1)
			f.rewind()
			return
		}
	}
}

func (f *fifo[T]) rewind() {
	if f.head == len(f.buf) {
		f.buf, f.head = f.buf[:0], 0
	}
}

// Queue is an unbounded FIFO queue with blocking receive. Senders never
// block. It is the mailbox primitive used by server activities.
type Queue struct {
	items   fifo[any]
	waiters fifo[*Env]
	closed  bool
}

// NewQueue returns an empty queue (a Queue needs nothing of s).
func NewQueue(s *Simulation) *Queue { return &Queue{} }

// Len returns the number of queued items.
func (q *Queue) Len() int { return q.items.len() }

// Send enqueues v, waking the oldest waiter if any. Send on a closed queue is
// a silent no-op (the receiver has gone away). A waiter already woken with an
// error cannot consume the item, so the wakeup passes to the next one.
func (q *Queue) Send(v any) {
	if q.closed {
		return
	}
	q.items.push(v)
	for q.waiters.len() > 0 {
		w := q.waiters.pop()
		if w.act.woken {
			continue
		}
		w.wakeNow(nil, nil)
		return
	}
}

// Close wakes all waiters with ErrStopped and discards future sends.
func (q *Queue) Close() {
	if q.closed {
		return
	}
	q.closed = true
	for _, w := range q.waiters.live() {
		w.wakeNow(nil, ErrStopped)
	}
	q.waiters = fifo[*Env]{}
}

// Recv blocks until an item is available and returns it. It returns
// ErrStopped if the queue is closed or the simulation stops.
func (q *Queue) Recv(env *Env) (any, error) {
	for q.items.len() == 0 {
		if q.closed {
			return nil, ErrStopped
		}
		q.waiters.push(env)
		if werr := env.block(); werr != nil {
			q.waiters.remove(env)
			return nil, werr
		}
	}
	return q.items.pop(), nil
}

// RecvTimeout is Recv with a deadline: it returns ErrTimeout if no item
// arrives within d. It is safe with a single receiver per queue (the RPC
// reply-mailbox shape); with several receivers a timed-out waiter could
// consume an item a concurrent Send had already woken another waiter for.
func (q *Queue) RecvTimeout(env *Env, d time.Duration) (any, error) {
	if q.items.len() == 0 {
		if q.closed {
			return nil, ErrStopped
		}
		q.waiters.push(env)
		env.act.wake = env.scheduleWake(d)
		if werr := env.block(); werr != nil {
			q.waiters.remove(env)
			return nil, werr
		}
		if q.items.len() == 0 {
			q.waiters.remove(env)
			return nil, ErrTimeout
		}
	}
	return q.items.pop(), nil
}

// Resource is a FIFO semaphore with a fixed number of slots. It models
// contended serial resources: a file server's CPU, the shared Ethernet
// medium, a disk arm.
type Resource struct {
	sim     *Simulation
	slots   int
	inUse   int
	waiters fifo[*Env]

	// stats
	busy      time.Duration
	lastStart time.Duration
	acquired  uint64
	waited    time.Duration
}

// NewResource returns a resource with the given number of slots (minimum 1).
func NewResource(s *Simulation, slots int) *Resource {
	if slots < 1 {
		slots = 1
	}
	return &Resource{sim: s, slots: slots}
}

// Acquire blocks until a slot is free, then claims it. Waiters are served
// strictly FIFO: Release hands its slot directly to the oldest waiter, so a
// loop of Acquire/Release cannot starve other acquirers (this is what gives
// CPU.Compute its round-robin behaviour).
func (r *Resource) Acquire(env *Env) error {
	start := env.Now()
	if r.inUse < r.slots && r.waiters.len() == 0 {
		if r.inUse == 0 {
			r.lastStart = start
		}
		r.inUse++
		r.acquired++
		return nil
	}
	r.waiters.push(env)
	if werr := env.block(); werr != nil {
		r.waiters.remove(env)
		return werr
	}
	// A nil wake means Release transferred its slot to us: inUse was left
	// unchanged on our behalf.
	r.acquired++
	r.waited += env.Now() - start
	return nil
}

// Release frees a slot. If anyone is waiting, the slot is transferred to the
// oldest waiter rather than returned to the pool. A waiter that has already
// been woken with an error (interrupted by fault injection, say) cannot take
// the slot — its Acquire will return that error without claiming anything —
// so it is skipped, not handed a slot it would leak.
func (r *Resource) Release() { r.releaseAt(r.sim.now) }

// ReleaseEnv is Release with the caller's execution context: inside a
// parallel window the global clock is parked at the window's start, so
// confined activities must release with their own view of time for the
// busy-time accounting to match the serial kernel exactly.
func (r *Resource) ReleaseEnv(env *Env) { r.releaseAt(env.Now()) }

func (r *Resource) releaseAt(now time.Duration) {
	if r.inUse == 0 {
		return
	}
	for r.waiters.len() > 0 {
		w := r.waiters.pop()
		if w.act.woken {
			continue
		}
		w.wakeNow(nil, nil) // slot ownership transfers; inUse stays the same
		return
	}
	r.inUse--
	if r.inUse == 0 {
		r.busy += now - r.lastStart
	}
}

// Use acquires the resource, holds it for d of virtual time, and releases it.
// This is the common charge-a-cost-to-a-resource idiom.
func (r *Resource) Use(env *Env, d time.Duration) error {
	if err := r.Acquire(env); err != nil {
		return err
	}
	err := env.Sleep(d)
	r.releaseAt(env.Now())
	return err
}

// BusyTime returns the total virtual time during which at least one slot was
// held.
func (r *Resource) BusyTime() time.Duration { return r.busy }

// WaitTime returns the cumulative virtual time acquirers spent queued.
func (r *Resource) WaitTime() time.Duration { return r.waited }

// Acquired returns the number of successful acquisitions.
func (r *Resource) Acquired() uint64 { return r.acquired }

// WaitGroup counts outstanding activities and lets one or more activities
// wait for the count to reach zero.
type WaitGroup struct {
	count   int
	waiters []*Env
}

// NewWaitGroup returns a wait group with a zero count.
func NewWaitGroup() *WaitGroup { return &WaitGroup{} }

// Add increments the counter by n (n may be negative; Done is Add(-1)).
func (w *WaitGroup) Add(n int) {
	w.count += n
	if w.count <= 0 {
		for _, e := range w.waiters {
			e.wakeNow(nil, nil)
		}
		w.waiters = nil
	}
}

// Done decrements the counter by one.
func (w *WaitGroup) Done() { w.Add(-1) }

// Wait blocks until the counter reaches zero.
func (w *WaitGroup) Wait(env *Env) error {
	for w.count > 0 {
		w.waiters = append(w.waiters, env)
		if werr := env.block(); werr != nil {
			w.dropWaiter(env)
			return werr
		}
	}
	return nil
}

func (w *WaitGroup) dropWaiter(env *Env) {
	if i := slices.Index(w.waiters, env); i >= 0 {
		w.waiters = slices.Delete(w.waiters, i, i+1)
	}
}
