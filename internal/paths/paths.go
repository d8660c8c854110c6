// Package paths computes the predetermined path sets the TE pipeline routes
// over. The paper configures K=4 shortest paths per demand with Yen's
// algorithm (§5, [48]).
package paths

import (
	"container/heap"
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/topology"
)

// Path is a loop-free route described by the IDs of its directed edges, in
// order from source to destination.
type Path struct {
	Edges  []int
	Weight float64
}

// Nodes returns the node sequence of the path in g, starting at the source.
func (p Path) Nodes(g *topology.Graph) []int {
	if len(p.Edges) == 0 {
		return nil
	}
	nodes := make([]int, 0, len(p.Edges)+1)
	nodes = append(nodes, g.Edge(p.Edges[0]).Src)
	for _, eid := range p.Edges {
		nodes = append(nodes, g.Edge(eid).Dst)
	}
	return nodes
}

// String renders the path as an edge-ID list.
func (p Path) String() string { return fmt.Sprintf("%v(w=%g)", p.Edges, p.Weight) }

// equal reports whether two paths traverse identical edge sequences.
func (p Path) equal(q Path) bool {
	if len(p.Edges) != len(q.Edges) {
		return false
	}
	for i := range p.Edges {
		if p.Edges[i] != q.Edges[i] {
			return false
		}
	}
	return true
}

type pqItem struct {
	node int
	dist float64
}

type pq []pqItem

func (h pq) Len() int            { return len(h) }
func (h pq) Less(i, j int) bool  { return h[i].dist < h[j].dist }
func (h pq) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *pq) Push(x interface{}) { *h = append(*h, x.(pqItem)) }
func (h *pq) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// Dijkstra returns the minimum-weight path from src to dst, honoring the
// bannedNodes and bannedEdges sets (nil means nothing banned). The boolean
// result reports whether a path exists.
func Dijkstra(g *topology.Graph, src, dst int, bannedNodes map[int]bool, bannedEdges map[int]bool) (Path, bool) {
	n := g.NumNodes()
	dist := make([]float64, n)
	prevEdge := make([]int, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		prevEdge[i] = -1
	}
	dist[src] = 0
	h := &pq{{src, 0}}
	for h.Len() > 0 {
		it := heap.Pop(h).(pqItem)
		u := it.node
		if done[u] {
			continue
		}
		done[u] = true
		if u == dst {
			break
		}
		for _, eid := range g.Out(u) {
			if bannedEdges != nil && bannedEdges[eid] {
				continue
			}
			e := g.Edge(eid)
			v := e.Dst
			if done[v] || (bannedNodes != nil && bannedNodes[v]) {
				continue
			}
			nd := dist[u] + e.Weight
			if nd < dist[v] {
				dist[v] = nd
				prevEdge[v] = eid
				heap.Push(h, pqItem{v, nd})
			}
		}
	}
	if math.IsInf(dist[dst], 1) {
		return Path{}, false
	}
	// Reconstruct.
	var rev []int
	for v := dst; v != src; {
		eid := prevEdge[v]
		rev = append(rev, eid)
		v = g.Edge(eid).Src
	}
	edges := make([]int, len(rev))
	for i := range rev {
		edges[i] = rev[len(rev)-1-i]
	}
	return Path{Edges: edges, Weight: dist[dst]}, true
}

// KShortest returns up to k loopless shortest paths from src to dst using
// Yen's algorithm. Paths are ordered by increasing weight; ties are broken
// deterministically by edge sequence.
func KShortest(g *topology.Graph, src, dst, k int) []Path {
	if k <= 0 || src == dst {
		return nil
	}
	first, ok := Dijkstra(g, src, dst, nil, nil)
	if !ok {
		return nil
	}
	result := []Path{first}
	var candidates []Path

	for len(result) < k {
		prev := result[len(result)-1]
		prevNodes := prev.Nodes(g)
		// Spur from each node of the previous path except the destination.
		for i := 0; i < len(prev.Edges); i++ {
			spurNode := prevNodes[i]
			rootEdges := prev.Edges[:i]
			rootWeight := 0.0
			for _, eid := range rootEdges {
				rootWeight += g.Edge(eid).Weight
			}
			bannedEdges := make(map[int]bool)
			for _, rp := range result {
				if len(rp.Edges) > i && sharesPrefix(rp.Edges, rootEdges) {
					bannedEdges[rp.Edges[i]] = true
				}
			}
			bannedNodes := make(map[int]bool)
			for _, n := range prevNodes[:i] {
				bannedNodes[n] = true
			}
			spur, ok := Dijkstra(g, spurNode, dst, bannedNodes, bannedEdges)
			if !ok {
				continue
			}
			total := Path{
				Edges:  append(append([]int{}, rootEdges...), spur.Edges...),
				Weight: rootWeight + spur.Weight,
			}
			dup := false
			for _, c := range candidates {
				if c.equal(total) {
					dup = true
					break
				}
			}
			if !dup {
				candidates = append(candidates, total)
			}
		}
		if len(candidates) == 0 {
			break
		}
		sort.Slice(candidates, func(a, b int) bool {
			if candidates[a].Weight != candidates[b].Weight {
				return candidates[a].Weight < candidates[b].Weight
			}
			return lessEdges(candidates[a].Edges, candidates[b].Edges)
		})
		result = append(result, candidates[0])
		candidates = candidates[1:]
	}
	return result
}

func sharesPrefix(edges, prefix []int) bool {
	if len(edges) < len(prefix) {
		return false
	}
	for i := range prefix {
		if edges[i] != prefix[i] {
			return false
		}
	}
	return true
}

func lessEdges(a, b []int) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// PathSet holds, for every ordered demand pair, the candidate paths traffic
// may be split across. It is the fixed routing substrate of the DOTE
// pipeline (Figure 2): split ratios index into these paths.
type PathSet struct {
	Graph *topology.Graph
	Pairs []topology.Pair
	// PairPaths[i] are the candidate paths for Pairs[i].
	PairPaths [][]Path
	// pairIdx maps a pair to its index in Pairs.
	pairIdx map[topology.Pair]int
	// memo holds structures derived from this path set (see Memo).
	memo sync.Map
}

// NewPathSet computes K-shortest path sets for every ordered node pair.
func NewPathSet(g *topology.Graph, k int) *PathSet {
	pairs := g.AllPairs()
	ps := &PathSet{
		Graph:     g,
		Pairs:     pairs,
		PairPaths: make([][]Path, len(pairs)),
		pairIdx:   make(map[topology.Pair]int, len(pairs)),
	}
	for i, p := range pairs {
		ps.PairPaths[i] = KShortest(g, p.Src, p.Dst, k)
		ps.pairIdx[p] = i
	}
	return ps
}

// NumPairs returns the number of demand pairs.
func (ps *PathSet) NumPairs() int { return len(ps.Pairs) }

// Memo returns the value stored under key, calling build to create it on
// first use. Packages that derive expensive per-path-set structures (LP
// solvers, routing kernels) keep them here rather than in global caches, so
// a derived structure lives exactly as long as its path set. Use an
// unexported key type per package to avoid collisions. Safe for concurrent
// use: racing first callers may each run build, but all of them get the one
// value that was stored.
func (ps *PathSet) Memo(key any, build func() any) any {
	if v, ok := ps.memo.Load(key); ok {
		return v
	}
	v, _ := ps.memo.LoadOrStore(key, build())
	return v
}

// PairIndex returns the dense index of an ordered pair, or -1.
func (ps *PathSet) PairIndex(src, dst int) int {
	if i, ok := ps.pairIdx[topology.Pair{Src: src, Dst: dst}]; ok {
		return i
	}
	return -1
}

// TotalPaths returns the total number of (pair, path) slots — the dimension
// of the split-ratio vector.
func (ps *PathSet) TotalPaths() int {
	n := 0
	for _, pp := range ps.PairPaths {
		n += len(pp)
	}
	return n
}

// Offsets returns, for each pair, the offset of its first path in the
// flattened split-ratio vector, plus the total length.
func (ps *PathSet) Offsets() ([]int, int) {
	off := make([]int, len(ps.PairPaths))
	n := 0
	for i, pp := range ps.PairPaths {
		off[i] = n
		n += len(pp)
	}
	return off, n
}
