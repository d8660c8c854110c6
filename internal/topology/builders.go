package topology

import "fmt"

// Abilene returns the Internet2 Abilene backbone used in §5 of the paper:
// 11 PoPs and 14 bidirectional links (28 directed edges). Capacities follow
// the published topology: all OC-192 (~10 Gbps) except Atlanta–Indianapolis,
// which was OC-48 (~2.5 Gbps). Units are Gbps.
func Abilene() *Graph {
	g := New()
	names := []string{
		"NewYork", "Chicago", "WashingtonDC", "Seattle", "Sunnyvale",
		"LosAngeles", "Denver", "KansasCity", "Houston", "Atlanta",
		"Indianapolis",
	}
	for _, n := range names {
		g.AddNode(n)
	}
	link := func(a, b string, cap float64) {
		g.AddBiEdge(g.NodeIndex(a), g.NodeIndex(b), cap, 1)
	}
	const oc192 = 9.92
	const oc48 = 2.48
	link("NewYork", "Chicago", oc192)
	link("NewYork", "WashingtonDC", oc192)
	link("Chicago", "Indianapolis", oc192)
	link("WashingtonDC", "Atlanta", oc192)
	link("Seattle", "Sunnyvale", oc192)
	link("Seattle", "Denver", oc192)
	link("Sunnyvale", "LosAngeles", oc192)
	link("Sunnyvale", "Denver", oc192)
	link("LosAngeles", "Houston", oc192)
	link("Denver", "KansasCity", oc192)
	link("KansasCity", "Houston", oc192)
	link("KansasCity", "Indianapolis", oc192)
	link("Houston", "Atlanta", oc192)
	link("Atlanta", "Indianapolis", oc48)
	return g
}

// Triangle returns the three-node example of Figure 3: nodes 1, 2, 3 with
// bidirectional links 1-2, 1-3 and 2-3, all of capacity 100.
func Triangle() *Graph {
	g := New()
	n1 := g.AddNode("1")
	n2 := g.AddNode("2")
	n3 := g.AddNode("3")
	g.AddBiEdge(n1, n2, 100, 1)
	g.AddBiEdge(n1, n3, 100, 1)
	g.AddBiEdge(n2, n3, 100, 1)
	return g
}

// B4 returns a topology shaped like Google's B4 WAN (12 nodes, 19
// bidirectional links) with uniform 10-unit capacities. Used for scale tests.
func B4() *Graph {
	g := New()
	for i := 0; i < 12; i++ {
		g.AddNode(fmt.Sprintf("b4-%d", i))
	}
	links := [][2]int{
		{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 4}, {3, 4}, {3, 5}, {4, 6},
		{5, 6}, {5, 7}, {6, 8}, {7, 8}, {7, 9}, {8, 10}, {9, 10}, {9, 11},
		{10, 11}, {2, 5}, {4, 9},
	}
	for _, l := range links {
		g.AddBiEdge(l[0], l[1], 10, 1)
	}
	return g
}

// Geant returns a topology shaped like the GÉANT European research
// backbone (22 nodes, 36 bidirectional links), with a mix of 10G core and
// 2.5G edge capacities. Used for scale and transferability experiments.
func Geant() *Graph {
	g := New()
	names := []string{
		"AT", "BE", "CH", "CZ", "DE", "DK", "ES", "FR", "GR", "HR", "HU",
		"IE", "IL", "IT", "LU", "NL", "NO", "PL", "PT", "SE", "SI", "UK",
	}
	for _, n := range names {
		g.AddNode(n)
	}
	core := 9.92
	edge := 2.48
	link := func(a, b string, cap float64) {
		g.AddBiEdge(g.NodeIndex(a), g.NodeIndex(b), cap, 1)
	}
	link("UK", "FR", core)
	link("UK", "NL", core)
	link("UK", "IE", edge)
	link("FR", "CH", core)
	link("FR", "ES", core)
	link("FR", "BE", edge)
	link("FR", "LU", edge)
	link("ES", "PT", edge)
	link("ES", "IT", core)
	link("PT", "UK", edge)
	link("NL", "DE", core)
	link("NL", "BE", edge)
	link("BE", "LU", edge)
	link("LU", "DE", edge)
	link("DE", "CH", core)
	link("DE", "DK", core)
	link("DE", "PL", core)
	link("DE", "CZ", core)
	link("DE", "AT", core)
	link("CH", "IT", core)
	link("IT", "AT", core)
	link("IT", "GR", edge)
	link("IT", "IL", edge)
	link("AT", "CZ", edge)
	link("AT", "HU", core)
	link("AT", "SI", edge)
	link("SI", "HR", edge)
	link("HR", "HU", edge)
	link("HU", "PL", edge)
	link("CZ", "PL", edge)
	link("PL", "SE", edge)
	link("DK", "SE", core)
	link("DK", "NO", edge)
	link("SE", "NO", edge)
	link("GR", "IL", edge)
	link("SE", "DE", core)
	return g
}
