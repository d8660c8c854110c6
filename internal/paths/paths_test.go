package paths

import (
	"container/heap"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/rng"
	"repro/internal/topology"
)

// Dijkstra and KShortest expose the per-worker workspace's single-pair
// searches to the tests; production reaches it only through NewPathSet.

// Dijkstra returns the minimum-weight path from src to dst, honoring the
// bannedNodes and bannedEdges sets (nil means nothing banned). The boolean
// result reports whether a path exists.
func Dijkstra(g *topology.Graph, src, dst int, bannedNodes map[int]bool, bannedEdges map[int]bool) (Path, bool) {
	w := newWorkspace(g)
	for v, b := range bannedNodes {
		if b && v >= 0 && v < len(w.bannedNode) {
			w.bannedNode[v] = true
		}
	}
	for e, b := range bannedEdges {
		if b && e >= 0 && e < len(w.bannedEdge) {
			w.bannedEdge[e] = true
		}
	}
	weight, ok := w.dijkstra(src, dst)
	if !ok {
		return Path{}, false
	}
	edges := make([]int, len(w.rev))
	for i := range w.rev {
		edges[i] = w.rev[len(w.rev)-1-i]
	}
	return Path{Edges: edges, Weight: weight}, true
}

// KShortest returns up to k loopless shortest paths from src to dst using
// Yen's algorithm. Paths are ordered by increasing weight; ties are broken
// deterministically by edge sequence.
func KShortest(g *topology.Graph, src, dst, k int) []Path {
	return newWorkspace(g).kShortest(src, dst, k)
}

// randomGraph returns a connected random graph: a random spanning tree plus
// `extra` additional random bidirectional links, with capacities drawn
// uniformly from [minCap, maxCap].
func randomGraph(n, extra int, minCap, maxCap float64, r *rng.RNG) *topology.Graph {
	if n < 2 {
		panic("paths: randomGraph needs at least 2 nodes")
	}
	g := topology.New()
	for i := 0; i < n; i++ {
		g.AddNode(fmt.Sprintf("r%d", i))
	}
	// Random spanning tree: attach each node to a random earlier node.
	perm := r.Perm(n)
	for i := 1; i < n; i++ {
		a := perm[i]
		b := perm[r.Intn(i)]
		g.AddBiEdge(a, b, r.Uniform(minCap, maxCap), 1)
	}
	have := make(map[[2]int]bool)
	for _, e := range g.Edges() {
		have[[2]int{e.Src, e.Dst}] = true
	}
	for added := 0; added < extra; {
		a, b := r.Intn(n), r.Intn(n)
		if a == b || have[[2]int{a, b}] {
			continue
		}
		have[[2]int{a, b}] = true
		have[[2]int{b, a}] = true
		g.AddBiEdge(a, b, r.Uniform(minCap, maxCap), 1)
		added++
	}
	return g
}

func TestDijkstraLine(t *testing.T) {
	g := topology.New()
	for i := 0; i < 5; i++ {
		g.AddNode(fmt.Sprintf("n%d", i))
	}
	for i := 0; i+1 < 5; i++ {
		g.AddBiEdge(i, i+1, 10, 1)
	}
	p, ok := Dijkstra(g, 0, 4, nil, nil)
	if !ok {
		t.Fatal("no path on a line graph")
	}
	if len(p.Edges) != 4 || p.Weight != 4 {
		t.Fatalf("line path wrong: %v", p)
	}
	nodes := p.Nodes(g)
	want := []int{0, 1, 2, 3, 4}
	for i := range want {
		if nodes[i] != want[i] {
			t.Fatalf("nodes = %v, want %v", nodes, want)
		}
	}
}

func TestDijkstraRespectsBans(t *testing.T) {
	g := topology.Triangle()
	// Direct edge 1->2 exists; ban it and the path must go via node 3.
	direct := -1
	for _, e := range g.Edges() {
		if g.NodeName(e.Src) == "1" && g.NodeName(e.Dst) == "2" {
			direct = e.ID
		}
	}
	p, ok := Dijkstra(g, g.NodeIndex("1"), g.NodeIndex("2"), nil, map[int]bool{direct: true})
	if !ok {
		t.Fatal("no detour path")
	}
	if len(p.Edges) != 2 {
		t.Fatalf("detour should have 2 hops, got %v", p)
	}
}

func TestDijkstraNoPath(t *testing.T) {
	g := topology.New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	c := g.AddNode("c")
	g.AddEdge(a, b, 1, 1)
	if _, ok := Dijkstra(g, a, c, nil, nil); ok {
		t.Fatal("found a path that does not exist")
	}
}

func TestDijkstraWeights(t *testing.T) {
	// Two routes a->c: direct weight 5, via b weight 2+2=4.
	g := topology.New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	c := g.AddNode("c")
	g.AddEdge(a, c, 1, 5)
	g.AddEdge(a, b, 1, 2)
	g.AddEdge(b, c, 1, 2)
	p, ok := Dijkstra(g, a, c, nil, nil)
	if !ok || p.Weight != 4 || len(p.Edges) != 2 {
		t.Fatalf("Dijkstra ignored weights: %v", p)
	}
}

func TestKShortestTriangle(t *testing.T) {
	g := topology.Triangle()
	ps := KShortest(g, g.NodeIndex("1"), g.NodeIndex("2"), 4)
	if len(ps) != 2 {
		t.Fatalf("triangle has exactly 2 loopless 1->2 paths, got %d", len(ps))
	}
	if len(ps[0].Edges) != 1 || len(ps[1].Edges) != 2 {
		t.Fatalf("paths out of order: %v", ps)
	}
	if ps[0].Weight > ps[1].Weight {
		t.Fatal("paths not sorted by weight")
	}
}

func TestKShortestLoopless(t *testing.T) {
	g := topology.Abilene()
	for _, pair := range [][2]string{{"NewYork", "LosAngeles"}, {"Seattle", "Atlanta"}} {
		src, dst := g.NodeIndex(pair[0]), g.NodeIndex(pair[1])
		ps := KShortest(g, src, dst, 4)
		if len(ps) == 0 {
			t.Fatalf("no path %v", pair)
		}
		for _, p := range ps {
			nodes := p.Nodes(g)
			seen := make(map[int]bool)
			for _, n := range nodes {
				if seen[n] {
					t.Fatalf("path %v revisits node %d", p, n)
				}
				seen[n] = true
			}
			if nodes[0] != src || nodes[len(nodes)-1] != dst {
				t.Fatalf("path endpoints wrong: %v", nodes)
			}
		}
		// Non-decreasing weights, all distinct.
		for i := 1; i < len(ps); i++ {
			if ps[i].Weight < ps[i-1].Weight {
				t.Fatal("K-shortest not sorted")
			}
			if ps[i].equal(ps[i-1]) {
				t.Fatal("duplicate path in K-shortest result")
			}
		}
	}
}

func TestKShortestMatchesBruteForceOnRandom(t *testing.T) {
	r := rng.New(77)
	for trial := 0; trial < 8; trial++ {
		g := randomGraph(6, 4, 1, 10, r)
		src, dst := 0, 5
		got := KShortest(g, src, dst, 3)
		want := bruteForcePaths(g, src, dst, 3)
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d paths, brute force %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i].Weight != want[i] {
				t.Fatalf("trial %d: path %d weight %v, brute force %v", trial, i, got[i].Weight, want[i])
			}
		}
	}
}

// bruteForcePaths enumerates all simple paths via DFS and returns the k
// smallest weights.
func bruteForcePaths(g *topology.Graph, src, dst, k int) []float64 {
	var weights []float64
	visited := make([]bool, g.NumNodes())
	var dfs func(u int, w float64)
	dfs = func(u int, w float64) {
		if u == dst {
			weights = append(weights, w)
			return
		}
		visited[u] = true
		for _, eid := range g.Out(u) {
			e := g.Edge(eid)
			if !visited[e.Dst] {
				dfs(e.Dst, w+e.Weight)
			}
		}
		visited[u] = false
	}
	dfs(src, 0)
	// selection sort the k smallest
	for i := 0; i < len(weights); i++ {
		for j := i + 1; j < len(weights); j++ {
			if weights[j] < weights[i] {
				weights[i], weights[j] = weights[j], weights[i]
			}
		}
	}
	if len(weights) > k {
		weights = weights[:k]
	}
	return weights
}

func TestPathSetShape(t *testing.T) {
	g := topology.Abilene()
	ps := NewPathSet(g, 4)
	if ps.NumPairs() != 110 {
		t.Fatalf("NumPairs = %d, want 110", ps.NumPairs())
	}
	for i, pp := range ps.PairPaths {
		if len(pp) == 0 {
			t.Fatalf("pair %d has no paths", i)
		}
		if len(pp) > 4 {
			t.Fatalf("pair %d has %d > 4 paths", i, len(pp))
		}
	}
	off, total := ps.Offsets()
	if total != ps.TotalPaths() {
		t.Fatal("Offsets total inconsistent with TotalPaths")
	}
	if off[0] != 0 {
		t.Fatal("first offset must be 0")
	}
	for i := 1; i < len(off); i++ {
		if off[i] != off[i-1]+len(ps.PairPaths[i-1]) {
			t.Fatal("offsets not cumulative")
		}
	}
}

func TestPairIndex(t *testing.T) {
	g := topology.Triangle()
	ps := NewPathSet(g, 2)
	for i, p := range ps.Pairs {
		if ps.PairIndex(p.Src, p.Dst) != i {
			t.Fatal("PairIndex inconsistent")
		}
	}
	if ps.PairIndex(0, 0) != -1 {
		t.Fatal("PairIndex of self pair should be -1")
	}
}

func TestKShortestZeroAndSelf(t *testing.T) {
	g := topology.Triangle()
	if ps := KShortest(g, 0, 0, 3); ps != nil {
		t.Fatal("self-pair should have no paths")
	}
	if ps := KShortest(g, 0, 1, 0); ps != nil {
		t.Fatal("k=0 should yield nil")
	}
}

// The map-based Dijkstra and Yen below are the implementation the workspace
// version replaced. They are the reference oracle: the production path sets
// must equal theirs bitwise, because split vectors and checkpoints index
// these paths.

// equal reports whether two paths traverse identical edge sequences.
func (p Path) equal(q Path) bool { return slices.Equal(p.Edges, q.Edges) }

type refPQ []pqItem

func (h refPQ) Len() int            { return len(h) }
func (h refPQ) Less(i, j int) bool  { return h[i].dist < h[j].dist }
func (h refPQ) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refPQ) Push(x interface{}) { *h = append(*h, x.(pqItem)) }
func (h *refPQ) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

func refDijkstra(g *topology.Graph, src, dst int, bannedNodes map[int]bool, bannedEdges map[int]bool) (Path, bool) {
	n := g.NumNodes()
	dist := make([]float64, n)
	prevEdge := make([]int, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		prevEdge[i] = -1
	}
	dist[src] = 0
	h := &refPQ{{src, 0}}
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

func refKShortest(g *topology.Graph, src, dst, k int) []Path {
	if k <= 0 || src == dst {
		return nil
	}
	first, ok := refDijkstra(g, src, dst, nil, nil)
	if !ok {
		return nil
	}
	result := []Path{first}
	var candidates []Path

	for len(result) < k {
		prev := result[len(result)-1]
		prevNodes := prev.Nodes(g)
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
			spur, ok := refDijkstra(g, spurNode, dst, bannedNodes, bannedEdges)
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

// unitGrid is an r×c grid with unit weights: every shortest path has many
// equal-weight rivals, so ties decide almost every heap pop and candidate.
func unitGrid(r, c int) *topology.Graph {
	g := topology.New()
	for i := 0; i < r*c; i++ {
		g.AddNode(fmt.Sprintf("g%d", i))
	}
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if j+1 < c {
				g.AddBiEdge(i*c+j, i*c+j+1, 1, 1)
			}
			if i+1 < r {
				g.AddBiEdge(i*c+j, (i+1)*c+j, 1, 1)
			}
		}
	}
	return g
}

// weightedRandom is a random graph with distinct-ish edge weights, so paths
// are ordered by weight rather than by tie-breaks.
func weightedRandom(n, extra int, r *rng.RNG) *topology.Graph {
	base := randomGraph(n, extra, 1, 10, r)
	g := topology.New()
	for i := 0; i < base.NumNodes(); i++ {
		g.AddNode(base.NodeName(i))
	}
	for _, e := range base.Edges() {
		g.AddEdge(e.Src, e.Dst, e.Capacity, 0.25+float64(r.Intn(12))/4)
	}
	return g
}

// TestPathSetMatchesReference pins NewPathSet (striped over GOMAXPROCS
// workspaces) to the map-based reference bitwise: every pair's paths, edge
// sequences, weights and order.
func TestPathSetMatchesReference(t *testing.T) {
	graphs := map[string]*topology.Graph{
		"abilene":   topology.Abilene(),
		"geant":     topology.Geant(),
		"b4":        topology.B4(),
		"unit-grid": unitGrid(4, 5),
	}
	for seed := uint64(1); seed <= 20; seed++ {
		graphs[fmt.Sprintf("waxman-%d", seed)] = topology.Waxman(12, 3, 1, 10, rng.New(seed))
		graphs[fmt.Sprintf("prefattach-%d", seed)] = topology.PrefAttach(12, 3, 1, 10, rng.New(seed))
	}
	for seed := uint64(1); seed <= 5; seed++ {
		graphs[fmt.Sprintf("weighted-%d", seed)] = weightedRandom(10, 8, rng.New(seed))
	}
	ks := []int{1, 3, 4, 8}
	if testing.Short() {
		ks = []int{1, 4}
	}
	for name, g := range graphs {
		for _, k := range ks {
			ps := NewPathSet(g, k)
			for i, p := range ps.Pairs {
				want := refKShortest(g, p.Src, p.Dst, k)
				if !reflect.DeepEqual(ps.PairPaths[i], want) {
					t.Fatalf("%s K=%d pair %v: got %v, reference %v", name, k, p, ps.PairPaths[i], want)
				}
			}
		}
	}
}

// TestDijkstraMatchesReferenceWithBans checks the exported map-ban wrapper
// against the reference on random ban sets.
func TestDijkstraMatchesReferenceWithBans(t *testing.T) {
	r := rng.New(5)
	for _, g := range []*topology.Graph{topology.Geant(), unitGrid(3, 4)} {
		for trial := 0; trial < 200; trial++ {
			src, dst := r.Intn(g.NumNodes()), r.Intn(g.NumNodes())
			nodes, edges := map[int]bool{}, map[int]bool{}
			for i := 0; i < 3; i++ {
				nodes[r.Intn(g.NumNodes())] = true
				edges[r.Intn(g.NumEdges())] = r.Intn(2) == 0
			}
			got, gok := Dijkstra(g, src, dst, nodes, edges)
			want, wok := refDijkstra(g, src, dst, nodes, edges)
			if gok != wok || !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d %d->%d: got %v %v, reference %v %v", trial, src, dst, got, gok, want, wok)
			}
		}
	}
}

// FuzzKShortestMatchesReference builds a small weighted multigraph from the
// input and checks KShortest against the reference for one pair and K.
func FuzzKShortestMatchesReference(f *testing.F) {
	f.Add([]byte{5, 0, 4, 3, 0, 1, 1, 1, 2, 1, 2, 4, 1, 0, 2, 2, 2, 3, 1, 3, 4, 1})
	f.Add([]byte{3, 0, 2, 8, 0, 1, 1, 1, 2, 1, 0, 2, 2, 2, 0, 1})
	f.Add([]byte{8, 1, 6, 4, 0, 1, 3, 1, 2, 3, 2, 6, 3, 1, 6, 9, 0, 6, 12, 5, 6, 2})
	f.Add([]byte{2, 0, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		n := 2 + int(data[0])%10
		src, dst := int(data[1])%n, int(data[2])%n
		k := 1 + int(data[3])%8
		g := topology.New()
		for i := 0; i < n; i++ {
			g.AddNode(fmt.Sprintf("n%d", i))
		}
		for rest := data[4:]; len(rest) >= 3 && g.NumEdges() < 64; rest = rest[3:] {
			a, b := int(rest[0])%n, int(rest[1])%n
			if a == b {
				continue
			}
			// Quarter-unit weights in [0.25, 4]: exact sums, plenty of ties.
			g.AddEdge(a, b, 1, 0.25*float64(1+int(rest[2])%16))
		}
		got := KShortest(g, src, dst, k)
		want := refKShortest(g, src, dst, k)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%d->%d K=%d: got %v, reference %v", src, dst, k, got, want)
		}
	})
}
