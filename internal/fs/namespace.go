package fs

import (
	"sort"
	"strings"

	"sprite/internal/rpc"
)

// Namespace is Sprite's prefix table: it maps absolute path prefixes to the
// file server responsible for that domain. The cluster-wide table here is
// the authoritative registry servers publish into; clients keep their own
// cached copies populated by broadcast (see Client.lookupServer), exactly
// as Sprite clients discover domains.
type Namespace struct {
	prefixes []prefixEntry
}

type prefixEntry struct {
	prefix string
	server rpc.HostID
}

// NewNamespace returns an empty prefix table.
func NewNamespace() *Namespace {
	return &Namespace{}
}

// AddPrefix registers a domain. Longer prefixes take precedence over
// shorter ones, as in Sprite's prefix tables.
func (n *Namespace) AddPrefix(prefix string, server rpc.HostID) {
	if prefix == "" {
		prefix = "/"
	}
	for i, e := range n.prefixes {
		if e.prefix == prefix {
			n.prefixes[i].server = server
			return
		}
	}
	n.prefixes = append(n.prefixes, prefixEntry{prefix: prefix, server: server})
	sort.Slice(n.prefixes, func(i, j int) bool {
		return len(n.prefixes[i].prefix) > len(n.prefixes[j].prefix)
	})
}

// Lookup resolves a path to its server.
func (n *Namespace) Lookup(path string) (rpc.HostID, error) {
	for _, e := range n.prefixes {
		if matchPrefix(path, e.prefix) {
			return e.server, nil
		}
	}
	return rpc.NoHost, ErrNoServer
}

// matchPrefix reports whether path lies inside the domain rooted at prefix.
func matchPrefix(path, prefix string) bool {
	if prefix == "/" {
		return strings.HasPrefix(path, "/")
	}
	if !strings.HasPrefix(path, prefix) {
		return false
	}
	return len(path) == len(prefix) || path[len(prefix)] == '/'
}

// prefixFor returns the matching prefix for a path ("" if none).
func (n *Namespace) prefixFor(path string) string {
	for _, e := range n.prefixes {
		if matchPrefix(path, e.prefix) {
			return e.prefix
		}
	}
	return ""
}
