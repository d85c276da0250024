// Package pdev implements Sprite's pseudo-devices [WO88]: file-like
// communication channels served by user-level server processes. A client
// opens a path and exchanges request/response messages with whatever
// process serves that path; only the operating system knows where either
// end currently runs, so migration of the client *or* the server is
// invisible to the other — the property the thesis relies on for IPC
// transparency (§3.2). Sprite's Internet protocol service [Che87] was built
// this way, which is why sockets posed no problem for migration.
//
// Routing mirrors Sprite's: the file server that owns the pseudo-device's
// name is the rendezvous; it tracks the serving process's current host and
// forwards requests there. When the server process migrates, the first
// request routed to the old host discovers the stale location, and the
// rendezvous is updated — one extra hop, once.
package pdev

import (
	"errors"
	"fmt"
	"maps"
	"slices"

	"sprite/internal/core"
	"sprite/internal/rpc"
	"sprite/internal/sim"
)

// Errors reported by pseudo-device operations.
var (
	// ErrNotServed is returned when no process serves the path.
	ErrNotServed = errors.New("pdev: path not served")
	// ErrClosed is returned when the device has been shut down.
	ErrClosed = errors.New("pdev: device closed")
)

// registration is the rendezvous record kept at the owning file server.
type registration struct {
	dev  *Device
	host rpc.HostID // last known host of the serving process
}

// System is the cluster-wide pseudo-device fabric. One System serves a
// cluster; it registers its routing services on every host.
type System struct {
	cluster *core.Cluster
	// registry is indexed by path; conceptually it lives at each path's
	// owning file server, and every access is charged a hop to that server.
	registry map[string]*registration
}

// NewSystem creates the pseudo-device fabric for a cluster.
func NewSystem(cluster *core.Cluster) *System {
	s := &System{
		cluster:  cluster,
		registry: make(map[string]*registration),
	}
	for _, k := range cluster.Workstations() {
		host := k.Host()
		ep := cluster.Transport().Endpoint(host)
		pdevDeliver.Handle(ep, s.makeDeliverHandler(host))
	}
	for _, srvHost := range slices.Sorted(maps.Keys(cluster.FS().Servers())) {
		ep := cluster.Transport().Endpoint(srvHost)
		pdevRoute.Handle(ep, s.makeRouteHandler(srvHost))
	}
	return s
}

// Device is one served pseudo-device.
type Device struct {
	sys    *System
	path   string
	owner  *core.Process
	queue  *sim.Queue
	closed bool
}

// Request is one client message awaiting a reply.
type Request struct {
	From core.PID
	Data []byte

	reply *sim.Future
}

// wire formats
type (
	routeArgs struct {
		Path string
		From core.PID
		Data []byte
	}
	deliverArgs struct {
		Path string
		From core.PID
		Data []byte
	}
	deliverReply struct {
		Data []byte
	}
)

var (
	pdevRoute   = rpc.NewService[routeArgs, deliverReply]("pdev.route")
	pdevDeliver = rpc.NewService[deliverArgs, deliverReply]("pdev.deliver")
)

// Serve registers the calling process as the server for path. The path's
// owning file server records the rendezvous (one RPC, like opening the
// pseudo-device for serving).
func (s *System) Serve(ctx *core.Ctx, path string) (*Device, error) {
	srvHost, err := s.cluster.FS().Namespace().Lookup(path)
	if err != nil {
		return nil, fmt.Errorf("pdev serve %s: %w", path, err)
	}
	p := ctx.Process()
	// Registration is a small control round trip to the owning file
	// server (Sprite opens the pseudo-device file in "server" mode).
	if p.Current().Host() != srvHost {
		if err := s.cluster.Network().Send(ctx.Env(), 64); err != nil {
			return nil, err
		}
		if err := s.cluster.Network().Send(ctx.Env(), 16); err != nil {
			return nil, err
		}
	}
	dev := &Device{
		sys:   s,
		path:  path,
		owner: p,
		queue: sim.NewQueue(s.cluster.Sim()),
	}
	s.registry[path] = &registration{dev: dev, host: p.Current().Host()}
	return dev, nil
}

// Recv blocks until a client request arrives. It is a kernel call (a read
// on the pseudo-device): entering it — and returning from it — are
// migration and signal-delivery points, so a blocked server can still be
// evicted as soon as it wakes.
func (d *Device) Recv(ctx *core.Ctx) (*Request, error) {
	if d.closed {
		return nil, ErrClosed
	}
	if err := ctx.Syscall("pdev-read"); err != nil {
		return nil, err
	}
	v, err := d.queue.Recv(ctx.Env())
	if err != nil {
		return nil, err
	}
	// Deliver any migration that was requested while we were blocked.
	if err := ctx.Syscall("pdev-read"); err != nil {
		return nil, err
	}
	req, ok := v.(*Request)
	if !ok {
		return nil, fmt.Errorf("pdev: bad queue item %T", v)
	}
	return req, nil
}

// Reply completes a request. It is a kernel call (a write on the
// pseudo-device); the response is charged as a message from the server's
// current host back through the fabric.
func (d *Device) Reply(ctx *core.Ctx, req *Request, data []byte) error {
	if err := ctx.Syscall("pdev-write"); err != nil {
		return err
	}
	if err := d.sys.cluster.Network().Send(ctx.Env(), 32+len(data)); err != nil {
		return err
	}
	req.reply.Complete(ctx.Env(), append([]byte(nil), data...), nil)
	return nil
}

// Close shuts the device down: queued and future callers get ErrNotServed.
func (d *Device) Close() {
	if d.closed {
		return
	}
	d.closed = true
	delete(d.sys.registry, d.path)
	d.queue.Close()
}

// Call sends data to the process serving path and waits for its reply.
// The request travels client host -> owning file server -> server-process
// host; a stale rendezvous costs one extra forwarding hop.
func (s *System) Call(ctx *core.Ctx, path string, data []byte) ([]byte, error) {
	srvHost, err := s.cluster.FS().Namespace().Lookup(path)
	if err != nil {
		return nil, fmt.Errorf("pdev call %s: %w", path, err)
	}
	from := ctx.Process()
	ep := s.cluster.Transport().Endpoint(from.Current().Host())
	r, err := pdevRoute.Call(ep, ctx.Env(), srvHost, routeArgs{
		Path: path,
		From: from.PID(),
		Data: data,
	}, 48+len(data))
	return r.Data, err
}

// makeRouteHandler serves "pdev.route" at a file server: resolve the
// rendezvous and forward to the serving process's host, healing stale
// locations.
func (s *System) makeRouteHandler(srvHost rpc.HostID) rpc.HandlerFunc[routeArgs, deliverReply] {
	return func(env *sim.Env, from rpc.HostID, a routeArgs) (deliverReply, int, error) {
		reg, ok := s.registry[a.Path]
		if !ok || reg.dev.closed {
			return deliverReply{}, 0, fmt.Errorf("%w: %s", ErrNotServed, a.Path)
		}
		ep := s.cluster.Transport().Endpoint(srvHost)
		for hops := 0; hops < 2; hops++ {
			r, err := pdevDeliver.Call(ep, env, reg.host, deliverArgs(a), 48+len(a.Data))
			if err == nil {
				return r, 16 + len(r.Data), nil
			}
			if !errors.Is(err, errStaleLocation) {
				return deliverReply{}, 0, err
			}
			// Stale rendezvous: the server process migrated. Update and
			// retry once.
			reg.host = reg.dev.owner.Current().Host()
		}
		return deliverReply{}, 0, fmt.Errorf("%w: %s (location thrashing)", ErrNotServed, a.Path)
	}
}

// errStaleLocation marks a delivery attempt at a host the server process
// has migrated away from.
var errStaleLocation = errors.New("pdev: server process not at this host")

// makeDeliverHandler serves "pdev.deliver" at a workstation: enqueue for
// the serving process if it is actually here, then wait for its reply.
func (s *System) makeDeliverHandler(host rpc.HostID) rpc.HandlerFunc[deliverArgs, deliverReply] {
	return func(env *sim.Env, from rpc.HostID, a deliverArgs) (deliverReply, int, error) {
		reg, ok := s.registry[a.Path]
		if !ok || reg.dev.closed {
			return deliverReply{}, 0, fmt.Errorf("%w: %s", ErrNotServed, a.Path)
		}
		dev := reg.dev
		if dev.owner.Current().Host() != host {
			return deliverReply{}, 0, errStaleLocation
		}
		req := &Request{
			From:  a.From,
			Data:  append([]byte(nil), a.Data...),
			reply: sim.NewFuture(s.cluster.Sim()),
		}
		dev.queue.Send(req)
		v, err := req.reply.Wait(env)
		if err != nil {
			return deliverReply{}, 0, err
		}
		data, _ := v.([]byte)
		return deliverReply{Data: data}, 16 + len(data), nil
	}
}
