// Package paths computes the predetermined path sets the TE pipeline routes
// over. The paper configures K=4 shortest paths per demand with Yen's
// algorithm (§5, [48]).
package paths

import (
	"fmt"
	"math"
	"runtime"
	"slices"
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

type pqItem struct {
	node int
	dist float64
}

// workspace is one Yen worker's reusable state: the Dijkstra arrays, the
// ban masks, the heap, and an arena holding candidate and result edge
// sequences. The slices are sized to the graph or grow once, and are reset
// per call, so a K-shortest search allocates only its returned paths.
//
// The heap is a typed slice whose push and pop repeat container/heap's
// up/down sift step for step (same Less, same swaps). Equal-distance ties
// therefore pop in the order they would through container/heap, and every
// path, weight and tie-break is bitwise identical to the map-based
// implementation kept in paths_test.go: split vectors and checkpoints
// index these paths.
type workspace struct {
	g          *topology.Graph
	dist       []float64
	prevEdge   []int
	done       []bool
	bannedNode []bool
	bannedEdge []bool
	heap       []pqItem
	rev        []int // the last Dijkstra path's edges, destination first
	nodes      []int // node sequence of the path being spurred from
	arena      []int // edge sequences of cands and result, by offset
	cands      []span
	result     []span
}

// span is an edge sequence stored in the arena.
type span struct {
	off, n int
	weight float64
}

func newWorkspace(g *topology.Graph) *workspace {
	n, m := g.NumNodes(), g.NumEdges()
	return &workspace{
		g:          g,
		dist:       make([]float64, n),
		prevEdge:   make([]int, n),
		done:       make([]bool, n),
		bannedNode: make([]bool, n),
		bannedEdge: make([]bool, m),
	}
}

func (w *workspace) edges(s span) []int { return w.arena[s.off : s.off+s.n] }

// push is heap.Push: append, then sift up.
func (w *workspace) push(it pqItem) {
	w.heap = append(w.heap, it)
	h := w.heap
	j := len(h) - 1
	for {
		i := (j - 1) / 2 // parent
		if i == j || !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

// pop is heap.Pop: swap the root to the end, sift down, remove the end.
func (w *workspace) pop() pqItem {
	h := w.heap
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h[j2].dist < h[j1].dist {
			j = j2 // right child
		}
		if !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	it := h[n]
	w.heap = h[:n]
	return it
}

// dijkstra finds the minimum-weight src→dst path avoiding the nodes and
// edges set in the ban masks. On success w.rev holds its edges from the
// destination back to src, and weight is its total weight.
func (w *workspace) dijkstra(src, dst int) (weight float64, ok bool) {
	g := w.g
	for i := range w.dist {
		w.dist[i] = math.Inf(1)
		w.prevEdge[i] = -1
		w.done[i] = false
	}
	w.dist[src] = 0
	w.heap = w.heap[:0]
	w.push(pqItem{src, 0})
	for len(w.heap) > 0 {
		u := w.pop().node
		if w.done[u] {
			continue
		}
		w.done[u] = true
		if u == dst {
			break
		}
		for _, eid := range g.Out(u) {
			if w.bannedEdge[eid] {
				continue
			}
			e := g.Edge(eid)
			v := e.Dst
			if w.done[v] || w.bannedNode[v] {
				continue
			}
			nd := w.dist[u] + e.Weight
			if nd < w.dist[v] {
				w.dist[v] = nd
				w.prevEdge[v] = eid
				w.push(pqItem{v, nd})
			}
		}
	}
	if math.IsInf(w.dist[dst], 1) {
		return 0, false
	}
	w.rev = w.rev[:0]
	for v := dst; v != src; {
		eid := w.prevEdge[v]
		w.rev = append(w.rev, eid)
		v = g.Edge(eid).Src
	}
	return w.dist[dst], true
}

// appendRev appends root and then the last Dijkstra path, source first, to
// the arena and returns the combined span. root may alias the arena.
func (w *workspace) appendRev(root []int, weight float64) span {
	off := len(w.arena)
	w.arena = append(w.arena, root...)
	for i := len(w.rev) - 1; i >= 0; i-- {
		w.arena = append(w.arena, w.rev[i])
	}
	return span{off: off, n: len(w.arena) - off, weight: weight}
}

// kShortest is Yen's algorithm over the workspace. Bans are set before each
// spur and cleared after it, so the masks are all false between calls.
func (w *workspace) kShortest(src, dst, k int) []Path {
	if k <= 0 || src == dst {
		return nil
	}
	g := w.g
	w.arena, w.cands, w.result = w.arena[:0], w.cands[:0], w.result[:0]
	weight, ok := w.dijkstra(src, dst)
	if !ok {
		return nil
	}
	w.result = append(w.result, w.appendRev(nil, weight))

	for len(w.result) < k {
		prev := w.result[len(w.result)-1]
		w.nodes = w.nodes[:0]
		for _, eid := range w.edges(prev) {
			w.nodes = append(w.nodes, g.Edge(eid).Src)
		}
		// Spur from each node of the previous path except the destination.
		for i := 0; i < prev.n; i++ {
			spurNode := w.nodes[i]
			rootEdges := w.edges(prev)[:i]
			rootWeight := 0.0
			for _, eid := range rootEdges {
				rootWeight += g.Edge(eid).Weight
			}
			w.banSpur(rootEdges, i, true)
			spurWeight, ok := w.dijkstra(spurNode, dst)
			w.banSpur(rootEdges, i, false)
			if !ok {
				continue
			}
			if w.isCandidate(rootEdges) {
				continue
			}
			w.cands = append(w.cands, w.appendRev(rootEdges, rootWeight+spurWeight))
		}
		if len(w.cands) == 0 {
			break
		}
		slices.SortFunc(w.cands, func(a, b span) int {
			switch {
			case w.lessSpan(a, b):
				return -1
			case w.lessSpan(b, a):
				return 1
			}
			return 0
		})
		w.result = append(w.result, w.cands[0])
		w.cands = append(w.cands[:0], w.cands[1:]...)
	}

	total := 0
	for _, s := range w.result {
		total += s.n
	}
	all := make([]int, 0, total)
	out := make([]Path, len(w.result))
	for i, s := range w.result {
		at := len(all)
		all = append(all, w.edges(s)...)
		out[i] = Path{Edges: all[at:len(all):len(all)], Weight: s.weight}
	}
	return out
}

// banSpur sets (or clears) the bans of the spur at index i of the previous
// path: the next edge of every result path that shares rootEdges, and every
// root node before the spur node.
func (w *workspace) banSpur(rootEdges []int, i int, on bool) {
	for _, rp := range w.result {
		if rp.n > i && sharesPrefix(w.edges(rp), rootEdges) {
			w.bannedEdge[w.edges(rp)[i]] = on
		}
	}
	for _, n := range w.nodes[:i] {
		w.bannedNode[n] = on
	}
}

// isCandidate reports whether rootEdges followed by the last Dijkstra path
// is already among the candidates.
func (w *workspace) isCandidate(rootEdges []int) bool {
	n := len(rootEdges) + len(w.rev)
	for _, c := range w.cands {
		if c.n != n {
			continue
		}
		e := w.edges(c)
		if !slices.Equal(e[:len(rootEdges)], rootEdges) {
			continue
		}
		same := true
		for j, eid := range e[len(rootEdges):] {
			if eid != w.rev[len(w.rev)-1-j] {
				same = false
				break
			}
		}
		if same {
			return true
		}
	}
	return false
}

func (w *workspace) lessSpan(a, b span) bool {
	if a.weight != b.weight {
		return a.weight < b.weight
	}
	return lessEdges(w.edges(a), w.edges(b))
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

// NewPathSet computes K-shortest path sets for every ordered node pair. The
// pairs are striped over up to GOMAXPROCS workers; each worker owns one
// workspace and writes only its own PairPaths slots, so the result does not
// depend on the worker count.
func NewPathSet(g *topology.Graph, k int) *PathSet {
	pairs := g.AllPairs()
	ps := &PathSet{
		Graph:     g,
		Pairs:     pairs,
		PairPaths: make([][]Path, len(pairs)),
		pairIdx:   make(map[topology.Pair]int, len(pairs)),
	}
	for i, p := range pairs {
		ps.pairIdx[p] = i
	}
	workers := min(runtime.GOMAXPROCS(0), len(pairs))
	stripe := func(w int) {
		ws := newWorkspace(g)
		for i := w; i < len(pairs); i += workers {
			ps.PairPaths[i] = ws.kShortest(pairs[i].Src, pairs[i].Dst, k)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			stripe(w)
		}(w)
	}
	if workers > 0 {
		stripe(0)
	}
	wg.Wait()
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
