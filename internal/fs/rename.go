package fs

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"

	"sprite/internal/rpc"
	"sprite/internal/sim"
)

// ErrCrossDomain is returned when a rename would cross file-server
// domains, which Sprite's prefix tables disallow for a single operation.
var ErrCrossDomain = errors.New("fs: rename across server domains")

type (
	renameArgs struct {
		From string
		To   string
	}
	readDirArgs struct {
		Dir string
	}
	readDirReply struct {
		Names []string
	}
)

var (
	fsRename  = rpc.NewService[renameArgs, struct{}]("fs.rename")
	fsReadDir = rpc.NewService[readDirArgs, readDirReply]("fs.readdir")
)

// handleRename atomically renames From to To within this server's domain.
// The file id is preserved, so open streams and cached blocks stay valid.
func (s *Server) handleRename(env *sim.Env, from rpc.HostID, a renameArgs) (struct{}, int, error) {
	// Two name lookups: source and target directories.
	if err := s.chargeCPU(env, 2*s.fs.params.NameLookupCPU); err != nil {
		return struct{}{}, 0, err
	}
	s.stats.Lookups += 2
	fl, ok := s.files[a.From]
	if !ok {
		return struct{}{}, 0, fmt.Errorf("%w: %s", ErrNotFound, a.From)
	}
	if old, exists := s.files[a.To]; exists {
		// Rename replaces the target, as in UNIX.
		delete(s.byID, FileID{Server: s.host, Ino: old.ino})
	}
	delete(s.files, a.From)
	s.files[a.To] = fl
	fl.path = a.To
	return struct{}{}, 16, nil
}

// handleReadDir lists the immediate children of a directory.
func (s *Server) handleReadDir(env *sim.Env, from rpc.HostID, a readDirArgs) (readDirReply, int, error) {
	if err := s.chargeCPU(env, s.fs.params.NameLookupCPU); err != nil {
		return readDirReply{}, 0, err
	}
	s.stats.Lookups++
	prefix := a.Dir
	if !strings.HasSuffix(prefix, "/") {
		prefix += "/"
	}
	seen := make(map[string]bool)
	for path := range s.files {
		if !strings.HasPrefix(path, prefix) || path == a.Dir {
			continue
		}
		rest := path[len(prefix):]
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			rest = rest[:i] // subdirectory: report the component once
		}
		if rest != "" {
			seen[rest] = true
		}
	}
	names := slices.Sorted(maps.Keys(seen))
	size := 16
	for _, n := range names {
		size += len(n) + 1
	}
	return readDirReply{Names: names}, size, nil
}

// Rename atomically renames a file within one server's domain; a rename
// that would cross domains fails with ErrCrossDomain.
func (c *Client) Rename(env *sim.Env, from, to string) error {
	sFrom, err := c.server(from)
	if err != nil {
		return err
	}
	sTo, err := c.server(to)
	if err != nil {
		return err
	}
	if sFrom != sTo {
		return fmt.Errorf("%w: %s -> %s", ErrCrossDomain, from, to)
	}
	_, err = fsRename.Call(c.ep, env, sFrom, renameArgs{From: from, To: to}, 32+len(from)+len(to))
	return err
}

// ReadDir returns the names (not full paths) of a directory's immediate
// children, sorted.
func (c *Client) ReadDir(env *sim.Env, dir string) ([]string, error) {
	srvHost, err := c.server(dir)
	if err != nil {
		return nil, err
	}
	r, err := fsReadDir.Call(c.ep, env, srvHost, readDirArgs{Dir: dir}, 16+len(dir))
	return r.Names, err
}
