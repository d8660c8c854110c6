package milp

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/warm_golden.json from the current engine")

// goldenSolve is one recorded warm-engine result. Floats are stored as the
// hex of their IEEE-754 bits so the comparison is bitwise.
type goldenSolve struct {
	Name      string   `json:"name"`
	Status    string   `json:"status"`
	Nodes     int      `json:"nodes"`
	Objective string   `json:"objective_bits"`
	BestBound string   `json:"best_bound_bits"`
	X         []string `json:"x_bits"`
}

func bitsHex(v float64) string { return strconv.FormatUint(math.Float64bits(v), 16) }

func goldenOf(name string, s *Solution) goldenSolve {
	g := goldenSolve{
		Name:      name,
		Status:    s.Status.String(),
		Nodes:     s.Nodes,
		Objective: bitsHex(s.Objective),
		BestBound: bitsHex(s.BestBound),
		X:         make([]string, len(s.X)),
	}
	for i, v := range s.X {
		g.X[i] = bitsHex(v)
	}
	return g
}

type goldenCase struct {
	name string
	p    *Problem
}

// goldenCases are the pinned instances: the twelve random MILPs of the
// determinism suite and a knapsack whose tree runs several waves.
func goldenCases() []goldenCase {
	var cs []goldenCase
	for seed := uint64(1); seed <= 12; seed++ {
		cs = append(cs, goldenCase{fmt.Sprintf("randomMILP(9,2,6,%d)", seed*977), randomMILP(9, 2, 6, seed*977)})
	}
	return append(cs, goldenCase{"fractionalKnapsack(12,3)", fractionalKnapsack(12, 3)})
}

// TestWarmGolden pins the warm engine's node order: Status, Nodes,
// Objective, BestBound and X must match the recorded solves bit for bit.
// Any change to wave width, node selection, branching or pruning shows up
// here. Regenerate with `go test ./internal/milp -run TestWarmGolden
// -update-golden` only when a search-defining change is intended.
func TestWarmGolden(t *testing.T) {
	path := filepath.Join("testdata", "warm_golden.json")
	var got []goldenSolve
	for _, c := range goldenCases() {
		got = append(got, goldenOf(c.name, c.p.Solve(Options{})))
	}
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenSolve
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d cases, test has %d", len(want), len(got))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.Name != g.Name || w.Status != g.Status || w.Nodes != g.Nodes ||
			w.Objective != g.Objective || w.BestBound != g.BestBound {
			t.Fatalf("%s: got %s/%d nodes/obj %s/bound %s, want %s/%d nodes/obj %s/bound %s",
				w.Name, g.Status, g.Nodes, g.Objective, g.BestBound,
				w.Status, w.Nodes, w.Objective, w.BestBound)
		}
		if len(w.X) != len(g.X) {
			t.Fatalf("%s: len(X) %d, want %d", w.Name, len(g.X), len(w.X))
		}
		for j := range w.X {
			if w.X[j] != g.X[j] {
				t.Fatalf("%s: X[%d] bits %s, want %s", w.Name, j, g.X[j], w.X[j])
			}
		}
	}
}
