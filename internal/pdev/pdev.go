// Package pdev implements Sprite's pseudo-devices [WO88]: file-like
// communication channels served by user-level server processes. A client
// opens a path and exchanges request/response messages with whatever
// process serves that path; only the operating system knows where either
// end currently runs, so migration of the client *or* the server is
// invisible to the other — the property the thesis relies on for IPC
// transparency (§3.2). Sprite's Internet protocol service [Che87] was built
// this way, which is why sockets posed no problem for migration.
//
// The file server that owns a device's name is its I/O server, as for any
// stream's shared state (thesis Ch. 5): only its RPC handlers touch the
// device's queue and unanswered requests. A Call is one RPC that queues there
// and waits; Serve, Recv, Reply and Close are RPCs to it from wherever the
// serving process runs.
//
// A server waiting in Recv is a daemon: a run that quiesces with nothing but
// idle servers left ends cleanly, and their Recv returns sim.ErrStopped.
// When a crashed host is reaped, every device whose server last served or
// received from the dead incarnation is closed, so its callers get
// ErrNotServed instead of waiting forever. A server that migrates and then
// dies before its next Recv is not covered: its device names the host it
// left, and stays open.
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

var (
	ErrNotServed = errors.New("pdev: path not served") // no process serves the path
	ErrClosed    = errors.New("pdev: device closed")   // the device was shut down
)

// System is the pseudo-device fabric: the pdev services on every file server.
type System struct {
	cluster *core.Cluster
}

// NewSystem creates the pseudo-device fabric for a cluster.
func NewSystem(cluster *core.Cluster) *System {
	var servers []*server
	for _, host := range slices.Sorted(maps.Keys(cluster.FS().Servers())) {
		srv := &server{cluster: cluster, devices: make(map[string]*device)}
		ep := cluster.Transport().Endpoint(host)
		pdevServe.Handle(ep, srv.serve)
		pdevCall.Handle(ep, srv.call)
		pdevRecv.Handle(ep, srv.recv)
		pdevReply.Handle(ep, srv.reply)
		pdevClose.Handle(ep, srv.close)
		servers = append(servers, srv)
	}
	cluster.AddReapHook(func(env *sim.Env, host rpc.HostID, epoch rpc.Epoch) {
		for _, srv := range servers {
			for _, path := range slices.Sorted(maps.Keys(srv.devices)) {
				if d := srv.devices[path]; d.host == host && d.epoch <= epoch {
					srv.close(env, host, path)
				}
			}
		}
	})
	return &System{cluster: cluster}
}

// Device is the serving process's handle on a device kept at its I/O server.
type Device struct {
	path   string
	server rpc.HostID
}

// Request is one client message awaiting a reply. It is also the wire
// format of a call (path, From, Data) and of a reply (path, id, Data).
type Request struct {
	From core.PID
	Data []byte
	path string
	id   uint64 // the request's number at its I/O server
}

var (
	pdevServe = rpc.NewService[string, struct{}]("pdev.serve")
	pdevCall  = rpc.NewService[Request, []byte]("pdev.call")
	pdevRecv  = rpc.NewService[string, Request]("pdev.recv")
	pdevReply = rpc.NewService[Request, struct{}]("pdev.reply")
	pdevClose = rpc.NewService[string, struct{}]("pdev.close")
)

// Serve makes the calling process the server for path, unless another serves
// it: one RPC to the path's owning file server, like opening it for serving.
func (s *System) Serve(ctx *core.Ctx, path string) (*Device, error) {
	srv, err := s.cluster.FS().Namespace().Lookup(path)
	if err != nil {
		return nil, fmt.Errorf("pdev serve %s: %w", path, err)
	}
	if _, err := pdevServe.Call(ctx.Endpoint(), ctx.Env(), srv, path, 64); err != nil {
		return nil, err
	}
	return &Device{path: path, server: srv}, nil
}

// Recv blocks until a client request arrives. It is a kernel call (a read on
// the pseudo-device) whose entry and return are migration and signal points,
// so a blocked server can still be evicted as soon as it wakes.
func (d *Device) Recv(ctx *core.Ctx) (*Request, error) {
	if err := ctx.Syscall("read"); err != nil {
		return nil, err
	}
	ctx.Env().MarkDaemon()
	req, err := pdevRecv.Call(ctx.Endpoint(), ctx.Env(), d.server, d.path, 16)
	ctx.Env().ClearDaemon()
	if err == nil {
		// Deliver any migration that was requested while we were blocked.
		err = ctx.Syscall("read")
	}
	if err != nil {
		return nil, err
	}
	return &req, nil
}

// Reply answers a request. It is a kernel call (a write on the
// pseudo-device) that hands the response to the I/O server.
func (d *Device) Reply(ctx *core.Ctx, req *Request, data []byte) error {
	if err := ctx.Syscall("write"); err != nil {
		return err
	}
	_, err := pdevReply.Call(ctx.Endpoint(), ctx.Env(), d.server, Request{path: d.path, id: req.id, Data: data}, 32+len(data))
	return err
}

// Close shuts the device down: unanswered and future callers get ErrNotServed.
func (d *Device) Close(ctx *core.Ctx) error {
	_, err := pdevClose.Call(ctx.Endpoint(), ctx.Env(), d.server, d.path, 16)
	return err
}

// Call sends data to the process serving path and waits for its reply: one
// RPC to the path's owning file server, which queues it for that process.
func (s *System) Call(ctx *core.Ctx, path string, data []byte) ([]byte, error) {
	srv, err := s.cluster.FS().Namespace().Lookup(path)
	if err != nil {
		return nil, fmt.Errorf("pdev call %s: %w", path, err)
	}
	msg := Request{path: path, From: ctx.Process().PID(), Data: data}
	return pdevCall.Call(ctx.Endpoint(), ctx.Env(), srv, msg, 48+len(data))
}

// server is one file server's device table; only its pdev handlers and the
// reap hook touch it.
type server struct {
	cluster *core.Cluster
	devices map[string]*device
}

// device is a served pseudo-device as its I/O server keeps it.
type device struct {
	queue   *sim.Queue             // Requests no Recv has taken yet
	pending map[uint64]*sim.Future // every unanswered request's reply, by id
	lastID  uint64
	// host and epoch are the incarnation the serving process last served
	// or received from.
	host  rpc.HostID
	epoch rpc.Epoch
}

func (s *server) serve(_ *sim.Env, from rpc.HostID, path string) (struct{}, int, error) {
	if s.devices[path] != nil {
		return struct{}{}, 0, fmt.Errorf("pdev serve %s: already served", path)
	}
	s.devices[path] = &device{
		queue: sim.NewQueue(s.cluster.Sim()), pending: make(map[uint64]*sim.Future),
		host: from, epoch: s.cluster.HostEpoch(from),
	}
	return struct{}{}, 16, nil
}

func (s *server) call(env *sim.Env, _ rpc.HostID, m Request) ([]byte, int, error) {
	d := s.devices[m.path]
	if d == nil {
		return nil, 0, fmt.Errorf("%w: %s", ErrNotServed, m.path)
	}
	d.lastID++
	reply := sim.NewFuture()
	d.pending[d.lastID] = reply
	m.Data, m.id = slices.Clone(m.Data), d.lastID
	d.queue.Send(m)
	v, err := reply.Wait(env)
	data, _ := v.([]byte)
	return data, 16 + len(data), err
}

func (s *server) recv(env *sim.Env, from rpc.HostID, path string) (Request, int, error) {
	d := s.devices[path]
	if d == nil {
		return Request{}, 0, ErrClosed
	}
	d.host, d.epoch = from, s.cluster.HostEpoch(from)
	env.MarkDaemon()
	v, err := d.queue.Recv(env)
	env.ClearDaemon()
	req, _ := v.(Request)
	return req, 48 + len(req.Data), err
}

func (s *server) reply(env *sim.Env, _ rpc.HostID, m Request) (struct{}, int, error) {
	d := s.devices[m.path]
	if d == nil || d.pending[m.id] == nil {
		return struct{}{}, 0, ErrClosed
	}
	d.pending[m.id].Complete(env, slices.Clone(m.Data), nil)
	delete(d.pending, m.id)
	return struct{}{}, 16, nil
}

// close forgets the device and fails every unanswered request, oldest first.
func (s *server) close(env *sim.Env, _ rpc.HostID, path string) (struct{}, int, error) {
	if d := s.devices[path]; d != nil {
		delete(s.devices, path)
		d.queue.Close()
		failed := fmt.Errorf("%w: %s", ErrNotServed, path)
		for _, id := range slices.Sorted(maps.Keys(d.pending)) {
			d.pending[id].Complete(env, nil, failed)
		}
	}
	return struct{}{}, 8, nil
}
