package dataflow

import (
	"sort"
	"strings"

	"sprite/internal/analysis/callgraph"
)

// Chain explains why a function is confined-reachable: the spawn root and
// the call path from the root's body to the function.
type Chain struct {
	Root callgraph.Root
	// Path runs from the root body to the function, inclusive.
	Path []callgraph.FuncID
}

// String renders the chain for diagnostics, rooted at the spawn point:
// "BootOn -> core.(Kernel).runProcess -> core.(Kernel).exitNotify".
func (c *Chain) String() string {
	parts := []string{c.Root.Via}
	for _, id := range c.Path {
		parts = append(parts, id.Short())
	}
	return strings.Join(parts, " -> ")
}

// visitable: the function's body was analyzed — in the graph, outside the
// trusted substrate, and not in a _test.go.
func (t *Tree) visitable(id callgraph.FuncID) bool {
	n := t.Graph.Nodes[id]
	return n != nil && !Trusted(n.Pkg.ImportPath) && !t.testFns[id]
}

// ConfinedRoots returns the spawn roots the static contract covers: the
// confined ones whose body was analyzed, spawned from production code
// (spawns made from test code exercise the runtime contract
// deliberately).
func (t *Tree) ConfinedRoots() []callgraph.Root {
	var out []callgraph.Root
	for _, r := range t.Graph.Roots {
		if r.Kind == callgraph.ConfinedRoot && t.visitable(r.Body) &&
			!strings.HasSuffix(t.Graph.Fset.Position(r.Site).Filename, "_test.go") {
			out = append(out, r)
		}
	}
	return out
}

// Enclosed returns n followed by every literal lexically inside it, in
// source order — the code a spawned body hands to its shard.
func (t *Tree) Enclosed(n *callgraph.Node) []*callgraph.Node {
	out := []*callgraph.Node{n}
	for _, e := range n.Out {
		if c := t.Graph.Nodes[e.Callee]; e.Kind == callgraph.Encloses && c != nil {
			out = append(out, t.Enclosed(c)...)
		}
	}
	return out
}

// ConfinedReachable returns every non-trusted, non-test function
// transitively reachable from a confined spawn root, with a shortest
// witness chain. Traversal follows direct calls, value references
// (conservative: a func value handed around confined code is assumed to
// run there), enclosed literals, and same-shard spawns; explicit-shard
// spawns (Spawn edges) start their own roots and are not traversed.
func (t *Tree) ConfinedReachable() map[callgraph.FuncID]*Chain {
	reach := make(map[callgraph.FuncID]*Chain)
	var queue []callgraph.FuncID
	for _, r := range t.ConfinedRoots() {
		if reach[r.Body] == nil {
			reach[r.Body] = &Chain{Root: r, Path: []callgraph.FuncID{r.Body}}
			queue = append(queue, r.Body)
		}
	}

	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		cur := reach[id]
		n := t.Graph.Nodes[id]
		// Deterministic expansion order.
		edges := append([]callgraph.Edge(nil), n.Out...)
		sort.Slice(edges, func(i, j int) bool { return edges[i].Callee < edges[j].Callee })
		for _, e := range edges {
			switch e.Kind {
			case callgraph.Call, callgraph.Ref, callgraph.Encloses, callgraph.SpawnSame:
			default:
				continue
			}
			if !t.visitable(e.Callee) || reach[e.Callee] != nil {
				continue
			}
			path := make([]callgraph.FuncID, len(cur.Path)+1)
			copy(path, cur.Path)
			path[len(cur.Path)] = e.Callee
			reach[e.Callee] = &Chain{Root: cur.Root, Path: path}
			queue = append(queue, e.Callee)
		}
	}
	return reach
}
