package rpc

import (
	"errors"
	"fmt"

	"sprite/internal/netsim"
	"sprite/internal/sim"
)

// BulkDir selects which way a bulk transfer's payload flows.
type BulkDir int

const (
	// BulkOut streams the payload from the caller to the server before the
	// handler runs (bulk write).
	BulkOut BulkDir = iota
	// BulkIn runs the handler first and streams its reply payload back to
	// the caller (bulk read).
	BulkIn
)

// BulkStats reports what one CallBulk cost on the wire.
type BulkStats struct {
	// Calls is the number of bulk transfers (1 per CallBulk; summed by Add).
	Calls int
	// Fragments is the number of distinct payload fragments delivered.
	Fragments int
	// Retransmits counts fragment retransmissions forced by loss.
	Retransmits int
	// Bytes is the payload bytes streamed, fragment headers excluded.
	Bytes int
}

// Add accumulates another transfer's stats into s.
func (s *BulkStats) Add(o BulkStats) {
	s.Calls += o.Calls
	s.Fragments += o.Fragments
	s.Retransmits += o.Retransmits
	s.Bytes += o.Bytes
}

// CallBulk performs a bulk-transfer RPC: one handshake round trip that sets
// up the stream (carrying arg, like a normal request), then the payload as a
// windowed sequence of pipelined fragments. Within a window only the leading
// fragment pays one-way latency; the rest ride the pipe and are charged
// transfer time alone, which is what makes bulk transfer cheaper than
// len(payload)/fragment independent RPCs.
//
// With dir == BulkOut the payload travels caller→server and the handler runs
// once the last fragment lands, exactly like a vectored write. With dir ==
// BulkIn the handler runs right after the handshake and its replySize is
// streamed back caller-ward, like a read-ahead fill. payloadBytes is the
// outbound payload size and is ignored for BulkIn.
//
// Fault injection applies per fragment under the service name
// "<service>.frag": a dropped or timed-out fragment waits out the
// retransmission timeout (with backoff) and is selectively resent, counting
// into BulkStats.Retransmits and the rpc.bulk.retransmits metric. The
// handshake and the final reply use the ordinary per-attempt retry loop
// under the plain service name.
func (s *Service[A, R]) CallBulk(e *Endpoint, env *sim.Env, to HostID, arg A, argSize, payloadBytes int, dir BulkDir) (R, BulkStats, error) {
	var reply R
	var bs BulkStats
	t := e.transport
	target, h, err := e.resolve(env, to, &s.svc, argSize)
	switch {
	case err != nil:
		return reply, bs, err
	case to == e.host:
		bs.Calls = 1 // the local shortcut runs it
		reply, err = s.local(e, env, h, arg)
		return reply, bs, err
	}
	// Per-host shard delivery: the handler hops to the server's shard.
	if sh := env.Shard(); t.confined && sh != 0 && sh != e.shard {
		panic(fmt.Sprintf("rpc: bulk call via %v's endpoint from foreign shard %d (home %d)", e.host, sh, e.shard))
	}
	bs.Calls = 1
	if err := env.Sleep(t.params.ClientOverhead); err != nil {
		return reply, bs, err
	}
	wire := argSize + t.params.BulkFragOverhead
	if _, err := e.roundTrip(env, target, s.name, argSize, t.params.BulkFragOverhead, nil); err != nil {
		t.record(env, to, s.id, wire, true)
		return reply, bs, err
	}
	// failed books a transfer that died after its handshake.
	failed := func(wire int, err error) (R, BulkStats, error) {
		t.record(env, to, s.id, wire, true)
		t.recordBulk(env, &bs)
		return *new(R), bs, err
	}
	var replySize int
	var herr error
	switch dir {
	case BulkOut:
		w, err := e.streamFragments(env, target, s.frag, payloadBytes, &bs)
		wire += w
		if err != nil {
			return failed(wire, err)
		}
		reply, replySize, herr, err = s.runBulkHandler(e, env, target, h, arg)
		if err != nil {
			return failed(wire, err)
		}
		// Reply leg: a small control message, retried on loss like a
		// normal reply (the server answers retransmissions from its
		// cached reply without re-running the handler).
		if _, err := e.roundTrip(env, target, s.name, replySize, noReply, nil); err != nil {
			return failed(wire+replySize, err)
		}
		wire += replySize
	case BulkIn:
		reply, replySize, herr, err = s.runBulkHandler(e, env, target, h, arg)
		if err != nil {
			return failed(wire, err)
		}
		if herr == nil {
			w, err := e.streamFragments(env, target, s.frag, replySize, &bs)
			wire += w
			if err != nil {
				return failed(wire, err)
			}
		} else if _, err := e.roundTrip(env, target, s.name, t.params.BulkFragOverhead, noReply, nil); err != nil {
			// The error reply is a plain small message.
			t.record(env, to, s.id, wire, true)
			return *new(R), bs, err
		}
	default:
		return reply, bs, fmt.Errorf("rpc: unknown bulk direction %d", dir)
	}
	t.record(env, to, s.id, wire, herr != nil)
	t.recordBulk(env, &bs)
	return reply, bs, herr
}

// runBulkHandler is CallBulk's "run the handler" step. Unconfined, h runs
// inline in the calling activity. Under confinement it is a reliable mailbox
// round trip (no injection — faults were already applied to the handshake
// and the fragment stream) that runs the handler on the server's shard; the
// payload bytes were charged by the stream, so both legs ride bare latency.
// The last result is a failure of that hop, not of the handler.
func (s *Service[A, R]) runBulkHandler(e *Endpoint, env *sim.Env, target *Endpoint, h any, arg A) (R, int, error, error) {
	if !e.transport.confined {
		reply, size, herr := h.(HandlerFunc[A, R])(env, e.host, arg)
		return reply, size, herr, nil
	}
	rec := e.takeCall(env)
	sl := s.takeSlot()
	sl.arg = arg
	e.xidSeq++
	rec.req = confReq{
		from: e.host, xid: e.xidSeq, svc: &s.svc, slot: sl,
		reply: rec.box, rep: &rec.rep, internal: true,
	}
	target.reqBox.SendAfter(env, &rec.req, e.transport.net.Latency())
	rv, err := rec.box.Recv(env)
	if err != nil {
		return *new(R), 0, nil, err
	}
	rep := rv.(*confReply)
	reply, size, herr := rep.slot.(*slot[A, R]).rep, rep.size, rep.err
	s.recycleCall(e, rec, sl) // one reliable request, its one reply consumed
	return reply, size, herr, nil
}

// recordBulk folds one transfer's stats into the bulk metrics counters.
func (t *Transport) recordBulk(env *sim.Env, bs *BulkStats) {
	slot := sim.WorkerSlot(env)
	t.m.bulkCalls.IncSlot(slot)
	t.m.bulkBytes.AddSlot(slot, int64(bs.Bytes))
	t.m.bulkFragments.AddSlot(slot, int64(bs.Fragments))
	t.m.bulkRetransmits.AddSlot(slot, int64(bs.Retransmits))
}

// streamFragments delivers payload bytes as the windowed fragment stream and
// returns the wire bytes charged (payload plus headers, retransmissions
// included). A lost fragment (injector drop or network drop) waits out the
// retransmission timeout and is selectively resent; the resend restarts the
// pipeline, so it pays the one-way latency again.
func (e *Endpoint) streamFragments(env *sim.Env, target *Endpoint, fragService string, payload int, bs *BulkStats) (int, error) {
	t := e.transport
	fragSize := t.params.BulkFragmentBytes
	window := t.params.BulkWindow
	overhead := t.params.BulkFragOverhead
	frags := (payload + fragSize - 1) / fragSize
	if frags <= 0 {
		return 0, nil
	}
	latency := t.net.Params().Latency
	rtt := 2 * latency
	// If a whole window transfers faster than its ack can return, the
	// sender stalls for the difference at every window boundary.
	wstall := rtt - t.net.TransferTime(window*(fragSize+overhead))
	if wstall < 0 {
		wstall = 0
	}
	// Pipeline fill: the stream's leading edge pays the one-way latency.
	if err := env.Sleep(latency); err != nil {
		return 0, err
	}
	wire := 0
	remaining := payload
	for i := 0; i < frags; i++ {
		n := fragSize
		if n > remaining {
			n = remaining
		}
		remaining -= n
		size := n + overhead
		for attempt := 0; ; attempt++ {
			if target.down || e.down {
				return wire, fmt.Errorf("%w: %v", ErrHostDown, target.host)
			}
			var v Verdict
			if t.injector != nil {
				v = t.injector.Intercept(env, e.host, target.host, fragService, attempt)
			}
			if v.Delay > 0 {
				if err := env.Sleep(v.Delay); err != nil {
					return wire, err
				}
			}
			// For a fragment, a lost ack and a lost fragment look the
			// same to the sender: the selective-repeat hole never closes
			// and the fragment is resent after the timeout.
			lost := v.DropRequest || v.DropReply
			if !lost {
				err := t.net.SendPipelined(env, size)
				wire += size
				if err != nil {
					if !errors.Is(err, netsim.ErrDropped) {
						return wire, err
					}
					lost = true
				}
			}
			if lost {
				if err := e.awaitRetry(env, target.host, fragService, attempt); err != nil {
					return wire, err
				}
				bs.Retransmits++
				// The resend restarts the pipeline.
				if err := env.Sleep(latency); err != nil {
					return wire, err
				}
				continue
			}
			break
		}
		bs.Fragments++
		bs.Bytes += n
		if wstall > 0 && (i+1)%window == 0 && i+1 < frags {
			if err := env.Sleep(wstall); err != nil {
				return wire, err
			}
		}
	}
	// Drain: the last fragment propagates to the receiver and its
	// cumulative ack comes back.
	if err := env.Sleep(rtt); err != nil {
		return wire, err
	}
	return wire, nil
}
