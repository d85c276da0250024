// Confined-mode RPC: per-host shard delivery.
//
// The default transport executes a service handler inline in the calling
// activity, which is only safe when every activity runs exclusively. When the
// cluster confines each host to its own shard (sim.SpawnOn), a handler must
// run on the *server's* shard — it touches the server host's kernel state —
// so the request travels through a mailbox homed there, a dispatcher daemon
// hands it to a handler activity, and the reply travels back through a
// mailbox homed on the caller's shard. Both legs carry propagation latency
// plus size-dependent transfer time, and the latency doubles as the
// conservative lookahead bound, so deliveries always land beyond the current
// window's horizon.
//
// Handler activities are pooled per endpoint: the dispatcher wakes an idle
// one, and spawns one only when none is idle, so a slow handler never
// head-of-line-blocks the endpoint; a woken handler takes the name
// rpc-<host>-<service> of the request it serves, and at most
// maxIdleHandlers of them stay parked. Waking a parked handler at the
// current instant takes one sequence number, exactly as a spawned one's
// first resume does, and a handler that ends instead of parking schedules
// nothing, so the committed order is the same either way. What does shift is
// each shard's spawn ordinal, which seeds Env.LocalRand: an activity spawned
// on a server's shard after RPC traffic gets a lower ordinal, and so a
// different stream, than under a spawn per request; an ended handler's shell
// serves the next spawn. The caller's side is pooled too: a call takes a
// record — its reply mailbox, the request and reply a reliable exchange sends
// in place — from the calling endpoint's free list and a slot carrying A and
// R by pointer, unboxed, from the service's pool, and returns both once its
// reply is consumed.
//
// Loss recovery keeps Sprite RPC's shape: the client retransmits after
// CallTimeout with exponential backoff, and the server suppresses duplicates
// by (caller, transaction id), answering retransmissions of an executed call
// from the cached reply without re-running the handler (at-most-once, after
// Birrell & Nelson). With no injector and no network hook nothing is ever
// lost, so the client waits without a timeout and the cache is never
// allocated — the fleet-scale no-fault runs pay none of the bookkeeping.
package rpc

import (
	"errors"
	"fmt"

	"sprite/internal/sim"
)

// ConfineHosts switches the transport to per-host shard delivery: every
// registered endpoint is assigned the shard shardOf(host), given a request
// mailbox homed there, and served by a dispatcher daemon spawned on it
// (Rearm).
// Call then routes every remote call through the mailboxes under both
// kernels, so serial runs replay the exact event sequence parallel runs
// commit.
//
// ConfineHosts must run after all hosts are registered and before Run, from
// the exclusive setup context. It refuses, with an error and without
// changing anything, a contended network (the shared medium is
// cluster-global state no shard may block on) and a lookahead outside
// (0, one-way latency], the conservative contract that makes cross-shard
// delivery safe. A second call, a nil shardOf or a shard <= 0 is a
// programming error and panics.
func (t *Transport) ConfineHosts(shardOf func(HostID) int) error {
	if t.confined {
		panic("rpc: ConfineHosts called twice")
	}
	if shardOf == nil {
		panic("rpc: ConfineHosts with nil shardOf")
	}
	if t.net.Contended() {
		return errors.New("rpc: ConfineHosts over a contended network; the shared medium serializes all hosts")
	}
	la := t.sim.Lookahead()
	if lat := t.net.Latency(); la <= 0 || lat < la {
		return fmt.Errorf("rpc: ConfineHosts needs 0 < lookahead <= latency (lookahead %v, latency %v)", la, lat)
	}
	t.precreateHostCounters()
	t.confined = true
	for _, id := range t.Hosts() {
		ep := t.endpoints[id]
		shard := shardOf(id)
		if shard <= 0 {
			panic(fmt.Sprintf("rpc: ConfineHosts mapped %v to shard %d; hosts need confined shards (> 0)", id, shard))
		}
		ep.shard = shard
		ep.reqBox = sim.NewMailboxOn(t.sim, shard, t.net.Latency())
	}
	t.Rearm()
	return nil
}

// Rearm spawns the endpoints' dispatcher daemons, in host order, unless
// they run. A run that quiesces unwinds every daemon at once, the
// dispatchers and their idle handlers among them, so a transport that is to
// serve a later Run must be rearmed before it: Cluster.Run does. It does
// nothing on an unconfined transport, and nothing once the simulation is
// stopped, since no later Run would serve a call.
func (t *Transport) Rearm() {
	if !t.confined || t.serving || t.sim.Stopped() {
		return
	}
	t.serving = true
	for _, id := range t.Hosts() {
		ep := t.endpoints[id]
		ep.idle = nil
		t.sim.SpawnOn(ep.shard, fmt.Sprintf("rpcd-%v", id), ep.dispatchLoop)
	}
}

// confReq is one request message: everything the server needs to execute the
// call and route the reply home.
type confReq struct {
	from  HostID
	xid   uint64
	svc   *svc
	slot  callSlot     // the argument, and where an uncached reply goes
	reply *sim.Mailbox // homed on the caller's shard
	// rep, when set, is the caller's call record's reply: the server writes an
	// uncached reply there instead of allocating one.
	rep *confReply

	// dropReply marks this attempt's reply as eaten by the injector: the
	// server executes (and caches) but withholds the answer.
	dropReply bool
	// internal marks a bulk-transfer execution hop: the wire cost of the
	// payload was already charged by the fragment stream, so the reply
	// rides back on bare latency with no accounting and no piggybacks.
	internal bool
}

// replySlot returns where the server writes req's reply: the caller's record
// when it lent one, else a fresh reply. A reply cached for at-most-once
// (cached) is always fresh, since retransmissions are answered from it after
// the call has moved on.
func (req *confReq) replySlot(cached bool) *confReply {
	if req.rep == nil || cached {
		return new(confReply)
	}
	return req.rep
}

// confReply is the server's answer, carrying the reply piggybacks that
// ordinary traffic spreads: the boot epoch and the hint payload. slot holds
// the reply (still zero in the request's own slot if no handler ran).
type confReply struct {
	slot  callSlot
	size  int
	err   error
	epoch Epoch
	hint  any
}

// slot is a call's typed slot: the argument the caller writes and the reply
// the handler writes back.
type slot[A, R any] struct {
	arg A
	rep R
}

// callSlot is a *slot[A, R] as the untyped request and reply carry it: an
// interface holding a pointer, so carrying it allocates nothing.
type callSlot interface {
	// serve runs h, a HandlerFunc[A, R], on the slot's argument, replying into
	// the slot, or into a fresh one if cached: that reply outlives the call.
	serve(env *sim.Env, from HostID, h any, cached bool) (into callSlot, size int, err error)
}

func (sl *slot[A, R]) serve(env *sim.Env, from HostID, h any, cached bool) (into callSlot, size int, err error) {
	dst := sl
	if cached {
		dst = new(slot[A, R])
	}
	dst.rep, size, err = h.(HandlerFunc[A, R])(env, from, sl.arg)
	return dst, size, err
}

// callRec is one confined call's record, homed on the caller's shard: the
// reply mailbox, and the request and reply that a call over a no-fault
// transport, or a bulk execution hop, sends instead of allocating them.
type callRec struct {
	box *sim.Mailbox
	req confReq
	rep confReply
}

// takeSlot returns one of the service's free slots, or a new one.
func (s *Service[A, R]) takeSlot() *slot[A, R] {
	if sl, ok := s.slots.Get().(*slot[A, R]); ok {
		return sl
	}
	return new(slot[A, R])
}

// confKey identifies a transaction for duplicate suppression. Transaction
// ids are per calling endpoint, so the caller is part of the key.
type confKey struct {
	from HostID
	xid  uint64
}

// confEntry tracks one transaction on the server: rep is nil while the
// handler is still executing, and retransmissions that arrive in that window
// park in pending to be answered when it finishes — the handler still runs
// exactly once.
type confEntry struct {
	rep     *confReply
	pending []*confReq
}

// dispatchLoop is the endpoint's server daemon: it receives requests from
// the host's mailbox and hands each to a handler activity of its own, so a
// slow handler (disk, nested RPC) never head-of-line-blocks the endpoint. It
// is a daemon — bounded runs quiesce cleanly with it parked in Recv, and
// Rearm spawns it again for the next.
func (ep *Endpoint) dispatchLoop(env *sim.Env) error {
	env.MarkDaemon()
	t := ep.transport
	var cache map[confKey]*confEntry
	for {
		v, err := ep.reqBox.Recv(env)
		if err != nil {
			t.serving = false // only the exclusive drain unwinds a daemon
			return nil
		}
		req := v.(*confReq)
		if ep.down {
			// A down host answers with a channel reset rather than
			// leaving the caller to hang on an internal hop.
			rep := req.replySlot(false)
			*rep = confReply{slot: req.slot, err: fmt.Errorf("%w: %v", ErrHostDown, ep.host), epoch: ep.epoch}
			ep.sendConfReply(env, req, rep)
			continue
		}
		if req.internal {
			// Bulk execution hop: reliable, no transaction bookkeeping.
			ep.execAsync(env, req, nil)
			continue
		}
		if t.faulty() && cache == nil {
			cache = make(map[confKey]*confEntry)
		}
		if cache == nil {
			ep.execAsync(env, req, nil)
			continue
		}
		k := confKey{req.from, req.xid}
		if ent, ok := cache[k]; ok {
			if ent.rep != nil {
				// Retransmission of an executed call: answer from the
				// cached reply, handler not re-run.
				ep.sendConfReply(env, req, ent.rep)
			} else {
				ent.pending = append(ent.pending, req)
			}
			continue
		}
		ent := &confEntry{}
		cache[k] = ent
		ep.execAsync(env, req, ent)
	}
}

// maxIdleHandlers caps the idle handlers an endpoint keeps parked; a handler
// that finishes with the list full ends instead. An idle handler holds its
// carrier goroutine until the run quiesces, while a finished one hands it
// back to the simulation for any shard to reuse, so in a fleet of mostly
// quiet endpoints uncapped idle lists would hold more goroutines than every
// other activity together (DESIGN.md §14).
const maxIdleHandlers = 2

// maxSpareHandlers caps the shells of ended handlers an endpoint keeps for
// its next pool misses: enough for a burst beyond the idle handlers, while
// a file server that once ran thousands of handlers at once does not keep
// all their shells for the rest of the run (DESIGN.md §14).
const maxSpareHandlers = 8

// handler is one pooled handler activity: it executes requests one at a
// time, of whichever service the dispatcher hands it, and between them
// parks on wake as an idle daemon. The dispatcher sets req and ent before
// waking it. An ended handler's shell is spawned again through run (serve).
type handler struct {
	ep   *Endpoint
	wake *sim.Queue
	run  func(*sim.Env) error
	req  *confReq
	ent  *confEntry
}

// execAsync hands the request to one of the endpoint's idle handlers on the
// server's shard, or to one spawned (in a spare shell, if any) when none is
// idle, so a slow handler never head-of-line-blocks the endpoint. The
// handler routes the reply (and any parked retransmissions') back.
func (ep *Endpoint) execAsync(env *sim.Env, req *confReq, ent *confEntry) {
	if n := len(ep.idle); n > 0 {
		h := ep.idle[n-1]
		ep.idle[n-1] = nil
		ep.idle = ep.idle[:n-1]
		h.req, h.ent = req, ent
		h.wake.Send(nil)
		return
	}
	var h *handler
	if n := len(ep.spare); n > 0 {
		h = ep.spare[n-1]
		ep.spare = ep.spare[:n-1]
	} else {
		h = &handler{ep: ep, wake: sim.NewQueue(env.Sim())}
		h.run = h.serve
	}
	h.req, h.ent = req, ent
	env.Spawn(ep.handlerName(req.svc), h.run)
}

// serve is a handler activity's body. A woken handler takes the name of the
// service it now runs, so errors name it as they would a handler spawned
// for the request. A handler that fails (a panicking service) ends here and
// never rejoins the pool; one blocked mid-request is not a daemon, so a run
// that can go no further names it in ErrDeadlock.
func (h *handler) serve(env *sim.Env) error {
	ep := h.ep
	for {
		req, ent := h.req, h.ent
		h.req, h.ent = nil, nil
		rep := req.replySlot(ent != nil)
		ep.execConfined(env, req, rep, ent != nil)
		if ent != nil {
			ent.rep = rep
			pending := ent.pending
			ent.pending = nil
			for _, dup := range pending {
				ep.sendConfReply(env, dup, rep)
			}
		}
		ep.sendConfReply(env, req, rep)

		if len(ep.idle) >= maxIdleHandlers {
			if len(ep.spare) < maxSpareHandlers {
				ep.spare = append(ep.spare, h)
			}
			return nil
		}
		ep.idle = append(ep.idle, h)
		env.MarkDaemon()
		if _, err := h.wake.Recv(env); err != nil {
			return nil // unwound at quiesce or Stop, with the dispatcher
		}
		env.ClearDaemon()
		env.SetName(ep.handlerName(h.req.svc))
	}
}

// svcName is one handlerNames entry.
type svcName struct {
	svc  *svc
	name string
}

// handlerName names the activity that executes a request for service s,
// formatting it on the first request only.
func (ep *Endpoint) handlerName(s *svc) string {
	for _, n := range ep.handlerNames {
		if n.svc == s {
			return n.name
		}
	}
	name := fmt.Sprintf("rpc-%v-%s", ep.host, s.name)
	ep.handlerNames = append(ep.handlerNames, svcName{s, name})
	return name
}

// execConfined looks the service up, runs it on the server's shard and
// writes the reply into rep, capturing the reply piggybacks at execution time
// so a retransmitted (cached) reply carries the same epoch and hints.
func (ep *Endpoint) execConfined(env *sim.Env, req *confReq, rep *confReply, cached bool) {
	h := ep.handler(req.svc.id)
	if h == nil {
		*rep = confReply{slot: req.slot, err: fmt.Errorf("%w: %s on %v", ErrNoService, req.svc.name, ep.host), epoch: ep.epoch}
		return
	}
	sl, size, herr := req.slot.serve(env, req.from, h, cached)
	*rep = confReply{slot: sl, size: size, err: herr, epoch: ep.epoch}
	if !req.internal && ep.hints != nil {
		var hs int
		rep.hint, hs = ep.hints()
		rep.size += hs
	}
}

// sendConfReply books the reply on the network and posts it to the caller's
// mailbox. A dropReply attempt or a hook drop withholds it — the caller's
// timeout does the rest.
func (ep *Endpoint) sendConfReply(env *sim.Env, req *confReq, rep *confReply) {
	t := ep.transport
	if req.internal {
		req.reply.SendAfter(env, rep, t.net.Latency())
		return
	}
	if req.dropReply {
		return
	}
	xfer, extra, drop := t.net.Account(env, rep.size)
	if drop {
		return
	}
	req.reply.SendAfter(env, rep, t.net.Latency()+xfer+extra)
}

// takeCall returns a call record whose mailbox is homed on the caller's
// shard: a recycled one when the caller is on the endpoint's own shard, else
// (the exclusive setup context calling through the endpoint) a fresh one.
func (e *Endpoint) takeCall(env *sim.Env) *callRec {
	if n := len(e.calls); n > 0 && env.Shard() == e.shard {
		rec := e.calls[n-1]
		e.calls[n-1] = nil
		e.calls = e.calls[:n-1]
		return rec
	}
	return &callRec{box: sim.NewMailboxOn(e.transport.sim, env.Shard(), 0)}
}

// recycleCall returns sl, the call's slot, to the service's pool and the
// call record to the endpoint's free list, both cleared. The caller must have
// read its reply and consumed every reply the record's box can ever receive —
// one request sent, its one reply received — because a reply still in flight
// (a retransmission's, or one the network delayed past the timeout) would
// otherwise land in the next call's box, and a server still holding the
// request could read the next call's. Calls that sent more than one request,
// or gave up, leave their record and slot to the garbage collector instead.
func (s *Service[A, R]) recycleCall(e *Endpoint, rec *callRec, sl *slot[A, R]) {
	*sl = slot[A, R]{}
	s.slots.Put(sl)
	if rec.box.HomeShard() == e.shard {
		rec.req, rec.rep = confReq{}, confReply{}
		e.calls = append(e.calls, rec)
	}
}

// callConfined is Call's remote path under confinement: the Sprite RPC
// client loop with the handler execution moved to the server's shard. The
// injector's verdicts are still taken client-side, once per attempt, in the
// same order as the inline path.
func (s *Service[A, R]) callConfined(e *Endpoint, env *sim.Env, target *Endpoint, arg A, argSize int) (reply R, err error) {
	t := e.transport
	to := target.host
	if sh := env.Shard(); sh != 0 && sh != e.shard {
		panic(fmt.Sprintf("rpc: call via %v's endpoint from foreign shard %d (home %d)", e.host, sh, e.shard))
	}
	if err = env.Sleep(t.params.ClientOverhead); err != nil {
		return reply, err
	}
	rec := e.takeCall(env)
	sl := s.takeSlot()
	sl.arg = arg
	e.xidSeq++
	xid := e.xidSeq
	sends := 0 // requests that can each draw one reply into rec.box
	for attempt := 0; ; attempt++ {
		// A host that went down between attempts fails fast, like a channel
		// reset in Sprite RPC.
		if target.down || e.down {
			t.record(env, to, s.id, argSize, true)
			return reply, fmt.Errorf("%w: %v", ErrHostDown, to)
		}
		var v Verdict
		if t.injector != nil {
			v = t.injector.Intercept(env, e.host, to, s.name, attempt)
		}
		if v.Delay > 0 {
			if err := env.Sleep(v.Delay); err != nil {
				return reply, err
			}
		}
		sent := false
		if !v.DropRequest {
			xfer, extra, drop := t.net.Account(env, argSize)
			if !drop {
				// Only a first attempt over a no-fault transport is sure to be
				// the call's one request; any other goes out fresh, since it
				// may be answered or retransmitted after the record is reused.
				var req *confReq
				var lent *confReply
				if attempt == 0 && !t.faulty() {
					req, lent = &rec.req, &rec.rep
				} else {
					req = new(confReq)
				}
				*req = confReq{
					from: e.host, xid: xid, svc: &s.svc, slot: sl,
					reply: rec.box, rep: lent, dropReply: v.DropReply,
				}
				target.reqBox.SendAfter(env, req, t.net.Latency()+xfer+extra)
				sent = true
				sends++
			}
		}
		if sent {
			var rv any
			var rerr error
			if t.faulty() {
				rv, rerr = rec.box.RecvTimeout(env, t.params.CallTimeout)
			} else {
				// Nothing can be lost: wait for the reply however long the
				// handler takes, exactly like the inline path.
				rv, rerr = rec.box.Recv(env)
			}
			if rerr == nil {
				rep := rv.(*confReply)
				t.record(env, to, s.id, argSize+rep.size, rep.err != nil)
				e.replied(to, rep.epoch, rep.hint)
				reply, err = rep.slot.(*slot[A, R]).rep, rep.err
				if sends == 1 {
					s.recycleCall(e, rec, sl) // clears rep when it is the record's own
				}
				return reply, err
			}
			if !errors.Is(rerr, sim.ErrTimeout) {
				return reply, rerr
			}
		} else if err := env.Sleep(t.params.CallTimeout); err != nil {
			// The request (or its wire image) was lost before arriving;
			// the client still waits the full timeout.
			return reply, err
		}
		if err := e.retryBookkeeping(env, to, s.name, attempt); err != nil {
			t.record(env, to, s.id, argSize, true)
			return reply, err
		}
	}
}
