package fs

import (
	"fmt"

	"sprite/internal/rpc"
	"sprite/internal/sim"
)

// Sprite pipes are file-like kernel channels. We keep each pipe's buffer at
// the I/O server that created it, so the two ends can live on different
// hosts — and can migrate independently — without either end noticing:
// reads and writes are server round trips like any uncached file I/O.
// (Sprite kept local pipes in the kernel and promoted them on migration;
// we model the promoted form, which is the one that matters for migration.)

// pipeDefaultCapacity bounds a pipe's in-kernel buffer.
const pipeDefaultCapacity = 16 * 1024

// pipeState is the server-side representation of one pipe. Its open table
// holds an entry per (end stream, host), so that a host crash can scrub
// exactly that host's ends and deliver EOF/EPIPE to survivors.
type pipeState struct {
	ino      int
	buf      []byte
	capacity int
	opens    openTable
}

// wire formats for the pipe services.
type (
	pipeCreateArgs struct {
		R, W StreamID // the client-allocated ids of the two ends
	}
	pipeCreateReply struct {
		Ino int
	}
	pipeIOArgs struct {
		Ino  int
		N    int
		Data []byte
	}
	pipeCloseArgs struct {
		Ino    int
		Stream StreamID
		Host   rpc.HostID
	}
	pipeAdjustArgs struct {
		Ino    int
		Stream StreamID
		Mode   OpenMode
		// To gains the end stream's entry and From loses it; From is NoHost
		// when the source keeps other references to the stream.
		From rpc.HostID
		To   rpc.HostID
	}
)

var (
	fsPipeCreate  = rpc.NewService[pipeCreateArgs, pipeCreateReply]("fs.pipeCreate")
	fsPipeRead    = rpc.NewService[pipeIOArgs, readReply]("fs.pipeRead")
	fsPipeWrite   = rpc.NewService[pipeIOArgs, writeReply]("fs.pipeWrite")
	fsPipeClose   = rpc.NewService[pipeCloseArgs, struct{}]("fs.pipeClose")
	fsPipeMigrate = rpc.NewService[pipeAdjustArgs, struct{}]("fs.pipeMigrate")
)

func (s *Server) pipe(ino int) (*pipeState, error) {
	p, ok := s.pipes[ino]
	if !ok {
		return nil, fmt.Errorf("%w: pipe %d", ErrNotFound, ino)
	}
	return p, nil
}

// retireIfClosed forgets a pipe once its open table is empty: with neither
// end open anywhere, nothing can reach its buffer again.
func (s *Server) retireIfClosed(p *pipeState) {
	if len(p.opens.refs) == 0 {
		delete(s.pipes, p.ino)
	}
}

func (s *Server) handlePipeCreate(env *sim.Env, from rpc.HostID, a pipeCreateArgs) (pipeCreateReply, int, error) {
	if err := s.chargeCPU(env, s.fs.params.NameLookupCPU); err != nil {
		return pipeCreateReply{}, 0, err
	}
	s.inoSeq++
	p := &pipeState{ino: s.inoSeq, capacity: pipeDefaultCapacity}
	p.opens.add(a.R, from, ReadMode)
	p.opens.add(a.W, from, WriteMode)
	s.pipes[p.ino] = p
	return pipeCreateReply{Ino: p.ino}, 16, nil
}

// handlePipeRead blocks the calling (client) activity until data or EOF.
func (s *Server) handlePipeRead(env *sim.Env, from rpc.HostID, a pipeIOArgs) (readReply, int, error) {
	p, err := s.pipe(a.Ino)
	if err != nil {
		return readReply{}, 0, err
	}
	if err := s.chargeCPU(env, s.fs.params.BlockServerCPU); err != nil {
		return readReply{}, 0, err
	}
	for len(p.buf) == 0 {
		if !p.opens.holds(true) {
			return readReply{}, 16, nil // EOF
		}
		w := sim.NewFuture()
		p.opens.readWaiters = append(p.opens.readWaiters, w)
		if _, err := w.Wait(env); err != nil {
			return readReply{}, 0, err
		}
	}
	n := a.N
	if n > len(p.buf) {
		n = len(p.buf)
	}
	data := make([]byte, n)
	copy(data, p.buf[:n])
	p.buf = p.buf[n:]
	wakeAll(&p.opens.writeWaiters)
	return readReply{Data: data}, 16 + n, nil
}

// handlePipeWrite blocks while the buffer is full; fails with ErrBadStream
// when no readers remain (EPIPE).
func (s *Server) handlePipeWrite(env *sim.Env, from rpc.HostID, a pipeIOArgs) (writeReply, int, error) {
	p, err := s.pipe(a.Ino)
	if err != nil {
		return writeReply{}, 0, err
	}
	if err := s.chargeCPU(env, s.fs.params.BlockServerCPU); err != nil {
		return writeReply{}, 0, err
	}
	written := 0
	data := a.Data
	for len(data) > 0 {
		if !p.opens.holds(false) {
			return writeReply{}, 0, fmt.Errorf("%w: pipe %d has no readers", ErrBadStream, a.Ino)
		}
		space := p.capacity - len(p.buf)
		if space == 0 {
			w := sim.NewFuture()
			p.opens.writeWaiters = append(p.opens.writeWaiters, w)
			if _, err := w.Wait(env); err != nil {
				return writeReply{}, 0, err
			}
			continue
		}
		n := len(data)
		if n > space {
			n = space
		}
		p.buf = append(p.buf, data[:n]...)
		data = data[n:]
		written += n
		wakeAll(&p.opens.readWaiters)
	}
	return writeReply{Size: written}, 16, nil
}

func (s *Server) handlePipeClose(env *sim.Env, from rpc.HostID, a pipeCloseArgs) (struct{}, int, error) {
	p, err := s.pipe(a.Ino)
	if err != nil {
		return struct{}{}, 0, err
	}
	p.opens.drop(a.Stream, a.Host)
	s.retireIfClosed(p)
	return struct{}{}, 8, nil
}

// handlePipeMigrate accounts a pipe stream's move between hosts; the
// buffer stays here at the I/O server, so only reference bookkeeping
// happens. The target entry is added before the source's is dropped so the
// end never looks transiently unreferenced (which would deliver a
// spurious EOF/EPIPE to waiters mid-migration).
func (s *Server) handlePipeMigrate(env *sim.Env, from rpc.HostID, a pipeAdjustArgs) (struct{}, int, error) {
	p, err := s.pipe(a.Ino)
	if err != nil {
		return struct{}{}, 0, err
	}
	p.opens.add(a.Stream, a.To, a.Mode)
	p.opens.drop(a.Stream, a.From)
	return struct{}{}, 8, nil
}

// --- client side ---

// CreatePipe creates a pipe at this host's root I/O server and returns its
// read and write ends as streams.
func (c *Client) CreatePipe(env *sim.Env) (r, w *Stream, err error) {
	srvHost, err := c.server("/")
	if err != nil {
		return nil, nil, err
	}
	rid, wid := c.nextStreamID(), c.nextStreamID()
	pr, err := fsPipeCreate.Call(c.ep, env, srvHost, pipeCreateArgs{R: rid, W: wid}, 16)
	if err != nil {
		return nil, nil, fmt.Errorf("create pipe: %w", err)
	}
	fid := FileID{Server: srvHost, Ino: pr.Ino}
	r = &Stream{
		ID: rid, FID: fid, Path: fmt.Sprintf("<pipe %d r>", pr.Ino),
		Mode: ReadMode, pipe: true,
	}
	w = &Stream{
		ID: wid, FID: fid, Path: fmt.Sprintf("<pipe %d w>", pr.Ino),
		Mode: WriteMode, pipe: true,
	}
	r.addRefs(c.host, 1)
	w.addRefs(c.host, 1)
	return r, w, nil
}

// pipeRead reads up to n bytes from the pipe, blocking until data or EOF.
func (c *Client) pipeRead(env *sim.Env, st *Stream, n int) ([]byte, error) {
	r, err := fsPipeRead.Call(c.ep, env, st.FID.Server, pipeIOArgs{Ino: st.FID.Ino, N: n}, 24)
	if err != nil {
		return nil, err
	}
	c.countRead(env, len(r.Data))
	return r.Data, nil
}

// pipeWrite writes data into the pipe, blocking while it is full.
func (c *Client) pipeWrite(env *sim.Env, st *Stream, data []byte) (int, error) {
	r, err := fsPipeWrite.Call(c.ep, env, st.FID.Server, pipeIOArgs{Ino: st.FID.Ino, Data: append([]byte(nil), data...)}, 24+len(data))
	if err != nil {
		return 0, err
	}
	c.countWritten(env, r.Size)
	return r.Size, nil
}

// pipeClose drops this host's entry for one pipe end.
func (c *Client) pipeClose(env *sim.Env, st *Stream) error {
	_, err := fsPipeClose.Call(c.ep, env, st.FID.Server, pipeCloseArgs{Ino: st.FID.Ino, Stream: st.ID, Host: c.host}, 16)
	return err
}
