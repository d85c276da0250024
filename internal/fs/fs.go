// Package fs implements the Sprite network file system substrate that the
// migration mechanism depends on [Nel88, NWO88, Wel90]:
//
//   - a single shared namespace served by one or more file servers, located
//     through a prefix table;
//   - client block caching with delayed write-back;
//   - server-driven cache consistency: when a file cached dirty on one host
//     is opened by another, the server recalls the dirty blocks; when a file
//     is concurrently write-shared across hosts, the server disables client
//     caching for it entirely;
//   - streams (open files) with reference counts, and *shadow streams*: when
//     a stream's access position becomes shared across hosts (fork followed
//     by migration), the offset moves to the I/O server;
//   - advisory file locks (used by the shared-file host-selection
//     architecture);
//   - uncacheable files used as virtual-memory backing store.
//
// All costs — server CPU per name lookup and per block, disk transfers,
// network messages — are charged in virtual time, so the file server
// contention that limits the thesis's pmake speedups emerges from the model
// rather than being scripted.
package fs

import (
	"errors"
	"fmt"
	"time"

	"sprite/internal/metrics"
	"sprite/internal/rpc"
	"sprite/internal/sim"
)

// Errors reported by file system operations.
var (
	// ErrNotFound is returned for operations on paths that do not exist.
	ErrNotFound = errors.New("fs: file not found")
	// ErrBadStream is returned for operations on closed or invalid streams.
	ErrBadStream = errors.New("fs: bad stream")
	// ErrReadOnly is returned for writes through a read-only stream.
	ErrReadOnly = errors.New("fs: stream not open for writing")
	// ErrNoServer is returned when no server's prefix covers a path.
	ErrNoServer = errors.New("fs: no server for path")
)

// OpenMode selects the access mode of a stream.
type OpenMode int

// Stream access modes.
const (
	ReadMode OpenMode = iota + 1
	WriteMode
	ReadWriteMode
)

func (m OpenMode) String() string {
	switch m {
	case ReadMode:
		return "r"
	case WriteMode:
		return "w"
	case ReadWriteMode:
		return "rw"
	default:
		return "?"
	}
}

func (m OpenMode) canRead() bool  { return m == ReadMode || m == ReadWriteMode }
func (m OpenMode) canWrite() bool { return m == WriteMode || m == ReadWriteMode }

// FileID names a file on a particular I/O server.
type FileID struct {
	Server rpc.HostID
	Ino    int
}

// String renders the id as "host<N>:<ino>".
func (f FileID) String() string { return fmt.Sprintf("%v:%d", f.Server, f.Ino) }

// StreamID uniquely identifies a stream across the cluster.
type StreamID uint64

// Params configures file system costs and policies.
type Params struct {
	// BlockSize is the cache/transfer block size in bytes.
	BlockSize int
	// NameLookupCPU is server CPU charged per path lookup (open/create/
	// remove/stat). Nelson identified lookups as the dominant server cost.
	NameLookupCPU time.Duration
	// BlockServerCPU is server CPU charged per block read or written.
	BlockServerCPU time.Duration
	// DiskPerBlock is disk time per cold block read (blocks never yet
	// touched are "on disk"; everything else hits the server cache).
	DiskPerBlock time.Duration
	// ClientCacheBlocks is the client block cache capacity.
	ClientCacheBlocks int
	// WriteThrough disables delayed write-back: every cached write is
	// pushed to the server synchronously (an ablation of Sprite's delayed
	// writes; costs server traffic but removes dirty-cache recalls).
	WriteThrough bool
	// BulkPerBlockCPU is server CPU charged per block inside a bulk
	// transfer (fs.writeBulk / fs.readBulk), on top of one BlockServerCPU
	// for the whole batch. Bulk requests amortize the per-request protocol
	// work across the batch, so the marginal block is much cheaper than a
	// standalone fs.write.
	BulkPerBlockCPU time.Duration
}

// DefaultParams returns Sun-3-era file system parameters.
func DefaultParams() Params {
	return Params{
		BlockSize:         4096,
		NameLookupCPU:     2 * time.Millisecond,
		BlockServerCPU:    400 * time.Microsecond,
		DiskPerBlock:      15 * time.Millisecond,
		ClientCacheBlocks: 1024, // 4 MB of cache
		BulkPerBlockCPU:   100 * time.Microsecond,
	}
}

// FS is the cluster-wide file system fabric: the prefix table, the servers,
// and the per-host clients.
type FS struct {
	sim       *sim.Simulation
	transport *rpc.Transport
	params    Params
	ns        *Namespace
	servers   map[rpc.HostID]*Server
	clients   map[rpc.HostID]*Client

	// scrubbed records the highest boot epoch per host for which crash
	// recovery (ScrubHost) has already run, making ScrubHostEpoch idempotent
	// when both the crash injector and a later reaping pass request it.
	scrubbed map[rpc.HostID]rpc.Epoch

	// m holds the metrics plane's cached counters, shared by every client
	// so cluster-wide cache behaviour reads as one set of series.
	m fsCounters
}

// fsCounters caches the fabric-wide instrument pointers.
type fsCounters struct {
	hits, misses, flushes, recalls *metrics.Counter
	bytesRead, bytesWritten        *metrics.Counter
	prefixQueries                  *metrics.Counter
	streamMoves, pipeMoves         *metrics.Counter
}

// SetMetrics installs the registry receiving the fabric's cache and
// stream-forwarding counters: fs.cache.{hits,misses,flushes,recalls},
// fs.bytes.{read,written}, fs.prefix.queries, and fs.stream.{moves,
// pipe_moves}. A nil registry discards them, as a new fabric does.
func (f *FS) SetMetrics(reg *metrics.Registry) {
	f.m = fsCounters{
		hits:          reg.Counter("fs.cache.hits"),
		misses:        reg.Counter("fs.cache.misses"),
		flushes:       reg.Counter("fs.cache.flushes"),
		recalls:       reg.Counter("fs.cache.recalls"),
		bytesRead:     reg.Counter("fs.bytes.read"),
		bytesWritten:  reg.Counter("fs.bytes.written"),
		prefixQueries: reg.Counter("fs.prefix.queries"),
		streamMoves:   reg.Counter("fs.stream.moves"),
		pipeMoves:     reg.Counter("fs.stream.pipe_moves"),
	}
}

// New returns an empty file system fabric.
func New(s *sim.Simulation, transport *rpc.Transport, params Params) *FS {
	if params.BlockSize <= 0 {
		params.BlockSize = 4096
	}
	f := &FS{
		sim:       s,
		transport: transport,
		params:    params,
		ns:        NewNamespace(),
		servers:   make(map[rpc.HostID]*Server),
		clients:   make(map[rpc.HostID]*Client),
	}
	f.SetMetrics(nil)
	return f
}

// AddServer creates a file server on the given host serving the given path
// prefix (e.g. "/" or "/b").
func (f *FS) AddServer(host rpc.HostID, prefix string) *Server {
	srv := newServer(f, host)
	f.servers[host] = srv
	f.ns.AddPrefix(prefix, host)
	return srv
}

// AddClient creates the FS client for the given host.
func (f *FS) AddClient(host rpc.HostID) *Client {
	c := newClient(f, host)
	f.clients[host] = c
	return c
}

// Client returns the client for a host, or nil.
func (f *FS) Client(host rpc.HostID) *Client { return f.clients[host] }

// Server returns the server on a host, or nil.
func (f *FS) Server(host rpc.HostID) *Server { return f.servers[host] }

// Servers returns all servers keyed by host.
func (f *FS) Servers() map[rpc.HostID]*Server { return f.servers }

// Namespace returns the prefix table.
func (f *FS) Namespace() *Namespace { return f.ns }

// Seed creates a file directly on its server without charging any virtual
// time. It exists for scenario setup (program binaries, source trees) whose
// cost is not part of any measured experiment. If the path already exists
// its content is replaced.
func (f *FS) Seed(path string, data []byte, neverCache bool) (FileID, error) {
	fid, fl, err := f.seed(path, neverCache)
	if err == nil {
		fl.writeAt(0, data, len(data))
	}
	return fid, err
}

// SeedSized seeds a file of the given size with zero bytes (cheap way to
// create large inputs: the zeros are a length, nothing is stored).
func (f *FS) SeedSized(path string, size int, neverCache bool) (FileID, error) {
	fid, fl, err := f.seed(path, neverCache)
	if err == nil {
		fl.setSize(size)
	}
	return fid, err
}

// seed finds or creates path's file on its server and empties it.
func (f *FS) seed(path string, neverCache bool) (FileID, *file, error) {
	srvHost, err := f.ns.Lookup(path)
	if err != nil {
		return FileID{}, nil, fmt.Errorf("seed %s: %w", path, err)
	}
	srv := f.servers[srvHost]
	if srv == nil {
		return FileID{}, nil, fmt.Errorf("seed %s: %w", path, ErrNoServer)
	}
	fl, ok := srv.files[path]
	if !ok {
		fl = srv.create(path, neverCache)
	}
	fl.setSize(0)
	fl.version++
	fl.mtime = f.sim.Now()
	// Seeded data is considered on disk: first reads pay the disk cost.
	fl.touched = nil
	return FileID{Server: srvHost, Ino: fl.ino}, fl, nil
}
