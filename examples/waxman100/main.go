// Example waxman100 solves the checked-in 100-node Waxman benchmark inputs
// (topology.txt + tms.txt, grown by cmd/tegen) with the sparse revised-simplex
// engine: the MLU LP here has ~10,300 rows and ~40,000 columns, a size where
// the dense tableau would need gigabytes. Every epoch is a cold solve, so
// each MLU depends on its own traffic matrix only.
//
// Regenerate the inputs with:
//
//	go run ./cmd/tegen -topology waxman -nodes 100 -degree 4 -seed 7 \
//	    -model gravity -epochs 3 -writetopo examples/waxman100/topology.txt \
//	    > examples/waxman100/tms.txt
//
// Run from the repository root:
//
//	go run ./examples/waxman100
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/paths"
	"repro/internal/te"
	"repro/internal/topology"
	"repro/internal/traffic"
)

func main() {
	dir := flag.String("dir", "examples/waxman100", "directory holding topology.txt and tms.txt")
	k := flag.Int("k", 4, "paths per pair")
	flag.Parse()

	tf, err := os.Open(filepath.Join(*dir, "topology.txt"))
	check(err)
	g, err := topology.Parse(tf)
	tf.Close()
	check(err)

	ps := paths.NewPathSet(g, *k)
	mf, err := os.Open(filepath.Join(*dir, "tms.txt"))
	check(err)
	seq, err := traffic.ParseSequence(mf, ps.NumPairs())
	mf.Close()
	check(err)

	fmt.Printf("waxman100: %d nodes, %d directed edges, %d pairs, K=%d\n",
		g.NumNodes(), g.NumEdges(), ps.NumPairs(), *k)

	s := te.NewMLUSolver(ps)
	for e, tm := range seq {
		t0 := time.Now()
		mlu, splits, err := s.Solve(tm)
		check(err)
		// Replaying the splits on the network confirms the LP objective is a
		// routing the topology actually achieves.
		achieved, _ := te.MLU(ps, tm, splits)
		fmt.Printf("epoch %d: MLU %.6f (splits achieve %.6f) in %v\n",
			e, mlu, achieved, time.Since(t0).Round(time.Millisecond))
	}
	st := s.Stats()
	fmt.Printf("stats: %d solves, %d pivots (phase1 %d, phase2 %d), %d refactors\n",
		st.Solves, st.Pivots, st.Phase1Pivots, st.Phase2Pivots, st.Refactors)
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "waxman100:", err)
		os.Exit(1)
	}
}
