package topology

import (
	"bytes"
	"strings"
	"testing"
)

// IsConnected reports whether every node can reach every other node: the
// reference check the builder and generator tests run.
func (g *Graph) IsConnected() bool {
	n := g.NumNodes()
	if n == 0 {
		return true
	}
	for s := 0; s < n; s++ {
		seen := make([]bool, n)
		stack := []int{s}
		seen[s] = true
		count := 1
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, eid := range g.out[u] {
				v := g.edges[eid].Dst
				if !seen[v] {
					seen[v] = true
					count++
					stack = append(stack, v)
				}
			}
		}
		if count != n {
			return false
		}
	}
	return true
}

func TestAbileneShape(t *testing.T) {
	g := Abilene()
	if got := g.NumNodes(); got != 11 {
		t.Fatalf("Abilene nodes = %d, want 11", got)
	}
	if got := g.NumEdges(); got != 28 {
		t.Fatalf("Abilene directed edges = %d, want 28", got)
	}
	if !g.IsConnected() {
		t.Fatal("Abilene not strongly connected")
	}
}

func TestAbileneCapacities(t *testing.T) {
	g := Abilene()
	oc48 := 0
	for _, e := range g.Edges() {
		if e.Capacity < 3 {
			oc48++
		}
	}
	if oc48 != 2 {
		t.Fatalf("expected exactly 2 OC-48 directed edges (Atlanta-Indianapolis), got %d", oc48)
	}
}

func TestTriangleMatchesFigure3(t *testing.T) {
	g := Triangle()
	if g.NumNodes() != 3 || g.NumEdges() != 6 {
		t.Fatalf("triangle shape wrong: %d nodes, %d edges", g.NumNodes(), g.NumEdges())
	}
	for _, e := range g.Edges() {
		if e.Capacity != 100 {
			t.Fatalf("Figure 3 requires capacity 100, got %v", e.Capacity)
		}
	}
}

func TestAllPairsCount(t *testing.T) {
	g := Abilene()
	pairs := g.AllPairs()
	if len(pairs) != 11*10 {
		t.Fatalf("AllPairs = %d, want 110", len(pairs))
	}
	seen := make(map[Pair]bool)
	for _, p := range pairs {
		if p.Src == p.Dst {
			t.Fatal("AllPairs contains a self pair")
		}
		if seen[p] {
			t.Fatal("AllPairs contains a duplicate")
		}
		seen[p] = true
	}
}

func TestAddNodeIdempotent(t *testing.T) {
	g := New()
	a := g.AddNode("x")
	b := g.AddNode("x")
	if a != b {
		t.Fatal("AddNode created duplicate for same name")
	}
}

func TestAvgLinkCapacity(t *testing.T) {
	g := New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	g.AddEdge(a, b, 10, 1)
	g.AddEdge(b, a, 20, 1)
	if got := g.AvgLinkCapacity(); got != 15 {
		t.Fatalf("AvgLinkCapacity = %v, want 15", got)
	}
}

func TestParseRoundTrip(t *testing.T) {
	g := Abilene()
	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip changed shape: %d/%d vs %d/%d",
			g2.NumNodes(), g2.NumEdges(), g.NumNodes(), g.NumEdges())
	}
	for i := 0; i < g.NumEdges(); i++ {
		e1, e2 := g.Edge(i), g2.Edge(i)
		if g.NodeName(e1.Src) != g2.NodeName(e2.Src) || e1.Capacity != e2.Capacity {
			t.Fatalf("edge %d differs after round trip", i)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"bogus a b",
		"edge a b xcap 1",
		"edge a b 1 xw",
		"edge a b 1",
		"node",
	}
	for _, c := range cases {
		if _, err := Parse(strings.NewReader(c)); err == nil {
			t.Fatalf("Parse accepted malformed input %q", c)
		}
	}
}

func TestParseCommentsAndBlank(t *testing.T) {
	in := "# comment\n\nnode a\nnode b\nedge a b 5 2\n"
	g, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 2 || g.NumEdges() != 1 {
		t.Fatal("comment/blank handling wrong")
	}
	if e := g.Edge(0); e.Capacity != 5 || e.Weight != 2 {
		t.Fatalf("edge attrs wrong: %+v", e)
	}
}

func TestGeantShape(t *testing.T) {
	g := Geant()
	if g.NumNodes() != 22 {
		t.Fatalf("Geant nodes = %d, want 22", g.NumNodes())
	}
	if g.NumEdges() != 72 {
		t.Fatalf("Geant directed edges = %d, want 72", g.NumEdges())
	}
	if !g.IsConnected() {
		t.Fatal("Geant not strongly connected")
	}
	// Mixed capacities: both core and edge speeds must be present.
	fast, slow := false, false
	for _, e := range g.Edges() {
		if e.Capacity > 5 {
			fast = true
		} else {
			slow = true
		}
	}
	if !fast || !slow {
		t.Fatal("Geant should mix core and edge capacities")
	}
}

func TestBuildersConnected(t *testing.T) {
	for name, g := range map[string]*Graph{
		"B4":       B4(),
		"Triangle": Triangle(),
		"Abilene":  Abilene(),
		"Geant":    Geant(),
	} {
		if !g.IsConnected() {
			t.Fatalf("%s is not connected", name)
		}
	}
}

func TestOutInDegreesConsistent(t *testing.T) {
	g := Abilene()
	outSum := 0
	for n := 0; n < g.NumNodes(); n++ {
		outSum += len(g.Out(n))
	}
	if outSum != g.NumEdges() {
		t.Fatalf("degree sum inconsistent: out=%d edges=%d", outSum, g.NumEdges())
	}
}

func TestAddEdgePanics(t *testing.T) {
	g := New()
	g.AddNode("a")
	mustPanic := func(f func()) {
		defer func() { _ = recover() }()
		f()
		t.Fatal("expected panic")
	}
	mustPanic(func() { g.AddEdge(0, 5, 1, 1) })
	mustPanic(func() { g.AddNode("b"); g.AddEdge(0, 1, 0, 1) })
}
