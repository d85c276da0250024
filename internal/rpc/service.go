// Typed service descriptors (DESIGN.md §16): the typed stubs of Birrell &
// Nelson's RPC.
package rpc

import (
	"errors"
	"fmt"
	"sync"

	"sprite/internal/netsim"
	"sprite/internal/sim"
)

// HandlerFunc is a service implementation. It runs in the calling activity,
// or under confinement in a handler activity on the server's shard; reply is
// the result value and replySize its wire size in bytes.
type HandlerFunc[A, R any] func(env *sim.Env, from HostID, arg A) (reply R, replySize int, err error)

// Service describes one RPC service: its name, which the injector, the
// per-service stats and the confined handler activities see, and the types
// of its argument (A) and reply (R), which the compiler then checks at both
// ends and a direct call passes by value. Its dense id indexes the
// endpoints' handler tables and the transport's stats table, so a call looks
// nothing up by name. Declare each service once, beside its wire types:
//
//	var fsStat = rpc.NewService[statArgs, statReply]("fs.stat")
type Service[A, R any] struct {
	svc
	slots sync.Pool // free confined call slots, *slot[A, R]
}

// svc is a descriptor's untyped half, what the transport's shared paths use.
type svc struct {
	name string
	id   int    // index of the endpoints' handler tables and the stats table
	frag string // the injector's name for the service's bulk fragments
}

// services is the process-wide descriptor registry. Ids are dense and
// handed out in declaration order, so the tables they index are slices.
var services = struct {
	sync.Mutex
	byName map[string]any // name -> *Service[A, R]
	names  []string       // by id
}{byName: make(map[string]any)}

// NewService returns the descriptor of the named service, creating it on
// first use. Declaring one name with two signatures is a programming error
// and panics: the name's handlers would not be callable through both.
func NewService[A, R any](name string) *Service[A, R] {
	services.Lock()
	defer services.Unlock()
	d, ok := services.byName[name]
	if !ok {
		d = &Service[A, R]{svc: svc{name: name, id: len(services.names), frag: name + ".frag"}}
		services.byName[name] = d
		services.names = append(services.names, name)
	}
	s, ok := d.(*Service[A, R])
	if !ok {
		panic(fmt.Sprintf("rpc: service %q declared as both %T and %T", name, d, s))
	}
	return s
}

// serviceNames returns the registered names, indexed by id.
func serviceNames() []string {
	services.Lock()
	defer services.Unlock()
	return services.names[:len(services.names):len(services.names)]
}

// Handle registers h as the service's handler on endpoint e, replacing any
// previous registration.
func (s *Service[A, R]) Handle(e *Endpoint, h HandlerFunc[A, R]) {
	if n := s.id + 1 - len(e.handlers); n > 0 {
		e.handlers = append(e.handlers, make([]any, n)...)
	}
	e.handlers[s.id] = h
}

// Call performs a synchronous RPC from endpoint e's host to the service on
// host `to`. argSize and the handler's replySize are charged to the network.
//
// Under fault injection a request or reply message can be lost; the client
// then waits CallTimeout, backs off, and retransmits, up to MaxRetries
// times. The server executes the handler at most once per call: a
// retransmission of an already-executed call is answered from the cached
// reply (duplicate suppression by transaction id, as in Sprite RPC).
func (s *Service[A, R]) Call(e *Endpoint, env *sim.Env, to HostID, arg A, argSize int) (R, error) {
	var reply R
	t := e.transport
	target, h, err := e.resolve(env, to, &s.svc, argSize)
	switch {
	case err != nil:
		return reply, err
	case to == e.host:
		return s.local(e, env, h, arg)
	case t.confined:
		// Per-host shard delivery: the handler runs on the server's shard,
		// reached through its request mailbox.
		return s.callConfined(e, env, target, arg, argSize)
	}
	if err := env.Sleep(t.params.ClientOverhead); err != nil {
		return reply, err
	}
	var replySize int
	var herr error
	var hint any
	lost, err := e.roundTrip(env, target, s.name, argSize, 0, func() int {
		reply, replySize, herr = h.(HandlerFunc[A, R])(env, e.host, arg)
		if target.hints != nil {
			var hintSize int
			hint, hintSize = target.hints()
			replySize += hintSize
		}
		return replySize
	})
	if err != nil {
		if lost {
			t.record(env, to, s.id, argSize, true)
		}
		return *new(R), err
	}
	t.record(env, to, s.id, argSize+replySize, herr != nil)
	e.replied(to, target.epoch, hint)
	return reply, herr
}

// local runs a call to the caller's own host on the spot: no network, no
// protocol overhead, no faults.
func (s *Service[A, R]) local(e *Endpoint, env *sim.Env, h any, arg A) (R, error) {
	reply, _, err := h.(HandlerFunc[A, R])(env, e.host, arg)
	e.transport.record(env, e.host, s.id, 0, err != nil)
	return reply, err
}

// Broadcast delivers arg to the service on every other registered host that
// is up and implements it, returning the replies keyed by host. It models
// one multicast packet on the wire plus one reply message per responder.
// Broadcasts are unreliable datagrams: a host that misses the multicast or
// whose reply is lost simply looks like a non-responder, so fault injection
// prunes responders instead of triggering retransmission.
func (s *Service[A, R]) Broadcast(e *Endpoint, env *sim.Env, arg A, argSize int) (map[HostID]R, error) {
	t := e.transport
	if t.confined && env.Shard() != 0 {
		panic(fmt.Sprintf("rpc: Broadcast(%s) from confined shard %d; broadcasts touch every host's state and are exclusive-only under confinement", s.name, env.Shard()))
	}
	if err := env.Sleep(t.params.ClientOverhead); err != nil {
		return nil, err
	}
	replies := make(map[HostID]R)
	if err := t.net.Send(env, argSize); err != nil {
		if errors.Is(err, netsim.ErrDropped) {
			return replies, nil // the multicast itself was lost; nobody answers
		}
		return nil, err
	}
	for _, id := range t.Hosts() {
		target := t.endpoints[id]
		if id == e.host || target.down {
			continue
		}
		h := target.handler(s.id)
		if h == nil {
			continue
		}
		if t.injector != nil {
			v := t.injector.Intercept(env, e.host, id, s.name, 0)
			if v.DropRequest || v.DropReply {
				continue
			}
		}
		reply, replySize, err := h.(HandlerFunc[A, R])(env, e.host, arg)
		if err != nil {
			continue
		}
		if nerr := t.net.Send(env, replySize); nerr != nil {
			if errors.Is(nerr, netsim.ErrDropped) {
				continue
			}
			return nil, nerr
		}
		t.recordStats(env, id, &t.counters(s.id).bcast, argSize+replySize, false)
		e.replied(id, target.epoch, nil)
		replies[id] = reply
	}
	return replies, nil
}

// Handle registers an untyped handler under the service name, replacing any
// previous registration. Handle, Call and CallBulk are the by-name face of
// Service[any, any]; a service declared with typed wire values is not
// reachable through them.
func (e *Endpoint) Handle(service string, h HandlerFunc[any, any]) {
	NewService[any, any](service).Handle(e, h)
}

// Call is Service.Call for the untyped service of that name.
func (e *Endpoint) Call(env *sim.Env, to HostID, service string, arg any, argSize int) (any, error) {
	return NewService[any, any](service).Call(e, env, to, arg, argSize)
}

// CallBulk is Service.CallBulk for the untyped service of that name.
func (e *Endpoint) CallBulk(env *sim.Env, to HostID, service string, arg any, argSize, payloadBytes int, dir BulkDir) (any, BulkStats, error) {
	return NewService[any, any](service).CallBulk(e, env, to, arg, argSize, payloadBytes, dir)
}
