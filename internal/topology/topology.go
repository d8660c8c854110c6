// Package topology models directed capacitated networks and provides the
// concrete topologies the paper's evaluation uses: the Abilene backbone
// (§5), the three-node example of Figure 3, GÉANT- and B4-like networks,
// and seeded Waxman / preferential-attachment generators for scale runs.
package topology

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Edge is a directed capacitated link.
type Edge struct {
	ID       int
	Src, Dst int
	Capacity float64
	Weight   float64 // routing metric (IGP-style); defaults to 1
}

// Graph is a directed multigraph with named nodes and capacitated edges.
// Nodes are dense integers [0, NumNodes). The zero Graph is empty; use New.
type Graph struct {
	names   []string
	nameIdx map[string]int
	edges   []Edge
	out     [][]int // node -> edge IDs leaving it
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{nameIdx: make(map[string]int)}
}

// AddNode adds a named node and returns its index. Adding an existing name
// returns the existing index.
func (g *Graph) AddNode(name string) int {
	if i, ok := g.nameIdx[name]; ok {
		return i
	}
	i := len(g.names)
	g.names = append(g.names, name)
	g.nameIdx[name] = i
	g.out = append(g.out, nil)
	return i
}

// AddEdge adds a directed edge and returns its ID.
func (g *Graph) AddEdge(src, dst int, capacity, weight float64) int {
	if src < 0 || src >= len(g.names) || dst < 0 || dst >= len(g.names) {
		panic("topology: AddEdge with unknown node")
	}
	if capacity <= 0 {
		panic("topology: AddEdge with non-positive capacity")
	}
	if weight <= 0 {
		weight = 1
	}
	id := len(g.edges)
	g.edges = append(g.edges, Edge{ID: id, Src: src, Dst: dst, Capacity: capacity, Weight: weight})
	g.out[src] = append(g.out[src], id)
	return id
}

// AddBiEdge adds a pair of opposite directed edges with the same capacity and
// weight, returning both IDs.
func (g *Graph) AddBiEdge(a, b int, capacity, weight float64) (int, int) {
	return g.AddEdge(a, b, capacity, weight), g.AddEdge(b, a, capacity, weight)
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.names) }

// NumEdges returns the directed edge count.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Edge returns the edge with the given ID.
func (g *Graph) Edge(id int) Edge { return g.edges[id] }

// Edges returns a copy of all edges.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, len(g.edges))
	copy(out, g.edges)
	return out
}

// Out returns the IDs of edges leaving node n (shared storage; do not mutate).
func (g *Graph) Out(n int) []int { return g.out[n] }

// NodeName returns the name of node i.
func (g *Graph) NodeName(i int) string { return g.names[i] }

// NodeIndex returns the index of a named node, or -1.
func (g *Graph) NodeIndex(name string) int {
	if i, ok := g.nameIdx[name]; ok {
		return i
	}
	return -1
}

// AvgLinkCapacity returns the mean capacity over all directed edges. The
// paper bounds adversarial demands by this value (§5).
func (g *Graph) AvgLinkCapacity() float64 {
	if len(g.edges) == 0 {
		return 0
	}
	s := 0.0
	for _, e := range g.edges {
		s += e.Capacity
	}
	return s / float64(len(g.edges))
}

// Pair identifies an ordered source-destination demand pair.
type Pair struct {
	Src, Dst int
}

// AllPairs returns every ordered pair of distinct nodes in deterministic
// (src-major) order — the demand index space for traffic matrices.
func (g *Graph) AllPairs() []Pair {
	n := g.NumNodes()
	pairs := make([]Pair, 0, n*(n-1))
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s != d {
				pairs = append(pairs, Pair{s, d})
			}
		}
	}
	return pairs
}

// WriteTo serializes the graph in the text format understood by Parse:
//
//	node <name>
//	edge <src> <dst> <capacity> <weight>
func (g *Graph) WriteTo(w io.Writer) (int64, error) {
	var total int64
	for _, name := range g.names {
		n, err := fmt.Fprintf(w, "node %s\n", name)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	for _, e := range g.edges {
		n, err := fmt.Fprintf(w, "edge %s %s %g %g\n", g.names[e.Src], g.names[e.Dst], e.Capacity, e.Weight)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// Parse reads a graph in the WriteTo text format. Unknown node names in edge
// lines are created implicitly. Lines starting with '#' are comments.
func Parse(r io.Reader) (*Graph, error) {
	g := New()
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "node":
			if len(fields) != 2 {
				return nil, fmt.Errorf("topology: line %d: node wants 1 arg", lineNo)
			}
			g.AddNode(fields[1])
		case "edge":
			if len(fields) != 5 {
				return nil, fmt.Errorf("topology: line %d: edge wants 4 args", lineNo)
			}
			src := g.AddNode(fields[1])
			dst := g.AddNode(fields[2])
			cap, err := strconv.ParseFloat(fields[3], 64)
			if err != nil {
				return nil, fmt.Errorf("topology: line %d: bad capacity: %v", lineNo, err)
			}
			if cap <= 0 || math.IsInf(cap, 0) || math.IsNaN(cap) {
				return nil, fmt.Errorf("topology: line %d: capacity must be positive and finite, got %v", lineNo, cap)
			}
			w, err := strconv.ParseFloat(fields[4], 64)
			if err != nil {
				return nil, fmt.Errorf("topology: line %d: bad weight: %v", lineNo, err)
			}
			if math.IsInf(w, 0) || math.IsNaN(w) {
				return nil, fmt.Errorf("topology: line %d: weight must be finite, got %v", lineNo, w)
			}
			g.AddEdge(src, dst, cap, w)
		default:
			return nil, fmt.Errorf("topology: line %d: unknown directive %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return g, nil
}
