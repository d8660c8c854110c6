package milp

import (
	"container/heap"
	"context"
	"math"
	"sync"
	"time"

	"repro/internal/lp"
)

// This file is the branch-and-bound engine: clone-free node state,
// dual-simplex warm re-solves from retained parent bases, and best-bound
// node selection with pseudo-cost branching, expanded in waves of a fixed
// width. See DESIGN.md §15 for the invariants.
//
// Determinism contract. The solve result — Status, Objective, BestBound,
// Nodes, X, bit for bit — is independent of which pooled solver runs it and
// of what that solver solved before, because every node's LP relaxation is
// a pure function of (node bounds, parent basis snapshot): the worker loads
// the parent snapshot (lp.LoadBasis resets all pricing state) and
// ResolveBounds re-factorizes from a clean LU, and a node without a usable
// snapshot invalidates all warm state before its cold solve. Concurrent
// solves over the shared solver and basis pools therefore cannot see one
// another.

// waveWidth is the number of best-bound nodes popped per wave. It is part
// of the search definition: all nodes of a wave are pre-pruned against the
// incumbent as of the wave's start, and their results fold back in pop
// order, so a different width visits a different tree.
const waveWidth = 8

// bbNode is one branch-and-bound node: a single-variable bound tightening
// relative to its parent, plus bookkeeping. Nodes live in one slice arena;
// the full bound set of a node is the chain of tightenings up to the root,
// applied and reverted incrementally by the worker (no per-node maps, no LP
// clones).
type bbNode struct {
	parent int32
	kids   int32 // children not yet folded; basis is released at zero
	v      lp.VarID
	up     bool    // ceil-side child (pseudo-cost direction)
	lo, hi float64 // the tightened bounds for v at this node
	// relaxObj is the parent's relaxation objective — the proven bound on
	// everything below this node, and its best-bound heap priority.
	relaxObj float64
	// frac is the fractionality of the branching value in this node's
	// direction (val−⌊val⌋ down, ⌈val⌉−val up), the pseudo-cost divisor.
	frac  float64
	basis *lp.Basis // this node's optimal basis, once solved (nil before)
}

// basisPool recycles basis snapshots across nodes and solves; SaveBasis
// overwrites the buffers in full.
var basisPool = sync.Pool{New: func() any { return new(lp.Basis) }}

// bbSolverPool recycles revised-simplex solvers (and their factorization
// workspaces) across MILP solves. Stale warm state is harmless: every node
// solve first either loads a parent snapshot or invalidates the basis.
var bbSolverPool = sync.Pool{New: func() any { return lp.NewSolver() }}

// bbWorker is a solve's LP context: a private clone of the LP (so bound
// overlays never touch the caller's problem), a pooled revised solver, and
// the slice-backed overlay stack of currently applied tightenings.
type bbWorker struct {
	prob    *lp.Problem
	solver  *lp.Solver
	base    lp.SolverStatsSnapshot
	applied []int32      // node ids whose tightenings are applied, root-side first
	saved   [][2]float64 // bounds each applied entry overwrote
	path    []int32      // scratch for the root→node chain
}

// moveTo mutates the worker's problem from its current overlay to node id's:
// revert the applied suffix past the common prefix (restoring saved bounds
// in reverse, stack discipline), then apply the new tail recording what it
// overwrites.
func (w *bbWorker) moveTo(nodes []bbNode, id int32) {
	path := w.path[:0]
	for n := id; n > 0; n = nodes[n].parent {
		path = append(path, n)
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	w.path = path
	k := 0
	for k < len(path) && k < len(w.applied) && w.applied[k] == path[k] {
		k++
	}
	for i := len(w.applied) - 1; i >= k; i-- {
		nd := &nodes[w.applied[i]]
		w.prob.SetVarBounds(nd.v, w.saved[i][0], w.saved[i][1])
	}
	w.applied = w.applied[:k]
	w.saved = w.saved[:k]
	for _, n := range path[k:] {
		nd := &nodes[n]
		lo, hi := w.prob.VarBounds(nd.v)
		w.applied = append(w.applied, n)
		w.saved = append(w.saved, [2]float64{lo, hi})
		w.prob.SetVarBounds(nd.v, nd.lo, nd.hi)
	}
}

// solveNode solves node id's LP relaxation warm from the parent's basis
// snapshot (cold when the parent has none, e.g. the root) and, on an
// optimal finish, snapshots this node's basis for its future children.
func (w *bbWorker) solveNode(nodes []bbNode, id int32) *lp.Solution {
	w.moveTo(nodes, id)
	nd := &nodes[id]
	var pb *lp.Basis
	if nd.parent >= 0 {
		pb = nodes[nd.parent].basis
	}
	var s *lp.Solution
	if pb != nil && w.solver.LoadBasis(pb) {
		s = w.solver.ResolveBounds(w.prob)
	} else {
		// No usable parent snapshot (the root, or a parent whose basis save
		// failed): Solve is cold, so the result is identical no matter which
		// pooled solver runs it.
		s = w.solver.Solve(w.prob)
	}
	if s.Status == lp.StatusOptimal {
		b := basisPool.Get().(*lp.Basis)
		if w.solver.SaveBasis(b) {
			nd.basis = b
		} else {
			basisPool.Put(b)
		}
	}
	return s
}

// pseudo holds pseudo-cost branching state: per-variable per-direction mean
// objective degradation per unit of fractionality, with the global mean as
// the prior for unobserved (variable, direction) pairs. Updated only during
// fold, so it is deterministic.
type pseudo struct {
	downSum, upSum []float64
	downN, upN     []int32
	totSum         float64
	totN           int64
}

func newPseudo(nvars int) *pseudo {
	return &pseudo{
		downSum: make([]float64, nvars),
		upSum:   make([]float64, nvars),
		downN:   make([]int32, nvars),
		upN:     make([]int32, nvars),
	}
}

func (pc *pseudo) observe(v lp.VarID, up bool, unitCost float64) {
	if up {
		pc.upSum[v] += unitCost
		pc.upN[v]++
	} else {
		pc.downSum[v] += unitCost
		pc.downN[v]++
	}
	pc.totSum += unitCost
	pc.totN++
}

// cost returns the estimated degradation per unit fractionality in one
// direction, falling back to the global mean (then 1) with no observations.
func (pc *pseudo) cost(v lp.VarID, up bool) float64 {
	if up {
		if n := pc.upN[v]; n > 0 {
			return pc.upSum[v] / float64(n)
		}
	} else {
		if n := pc.downN[v]; n > 0 {
			return pc.downSum[v] / float64(n)
		}
	}
	if pc.totN > 0 {
		return pc.totSum / float64(pc.totN)
	}
	return 1
}

// nodeHeap is the best-bound frontier: better relaxObj first (objective
// direction), ties to the HIGHER node id. Newer ids are deeper in the tree,
// so tie-breaking toward them recovers the depth-first cold-clone oracle's
// diving behavior
// on bound plateaus and finds incumbents sooner.
type nodeHeap struct {
	nodes *[]bbNode
	max   bool
	ids   []int32
}

func (h *nodeHeap) Len() int { return len(h.ids) }
func (h *nodeHeap) Less(i, j int) bool {
	a := (*h.nodes)[h.ids[i]].relaxObj
	b := (*h.nodes)[h.ids[j]].relaxObj
	if a != b {
		if h.max {
			return a > b
		}
		return a < b
	}
	return h.ids[i] > h.ids[j]
}
func (h *nodeHeap) Swap(i, j int) { h.ids[i], h.ids[j] = h.ids[j], h.ids[i] }
func (h *nodeHeap) Push(x any)    { h.ids = append(h.ids, x.(int32)) }
func (h *nodeHeap) Pop() any {
	n := len(h.ids)
	x := h.ids[n-1]
	h.ids = h.ids[:n-1]
	return x
}

// solveWarm is the branch-and-bound engine behind SolveCtx.
func (p *Problem) solveWarm(ctx context.Context, start time.Time, opts Options) *Solution {
	better := p.better
	worstObj := p.worstObjective()
	deadline := ctxDeadline(ctx, start, opts)

	sol := &Solution{Status: NoIncumbent, Objective: worstObj, BestBound: -worstObj}

	nodes := make([]bbNode, 1, 64)
	nodes[0] = bbNode{parent: -1, v: -1, relaxObj: -worstObj}
	h := &nodeHeap{nodes: &nodes, max: p.sense == lp.Maximize, ids: []int32{0}}
	pc := newPseudo(p.LP.NumVars())

	incumbent := worstObj
	var incumbentX []float64
	budgetBreak := false
	openBound := worstObj
	haveOpen := false
	trackOpen := func(b float64) {
		if !haveOpen || better(b, openBound) {
			openBound, haveOpen = b, true
		}
	}
	unresolved := 0

	s := bbSolverPool.Get().(*lp.Solver)
	w := &bbWorker{prob: p.LP.Clone(), solver: s, base: s.Stats.Snapshot()}
	w.prob.Deadline = deadline
	defer func() {
		d := w.solver.Stats.Snapshot().Sub(w.base)
		sol.NodeResolves += int(d.BoundHits)
		sol.DualPivots += int(d.DualPivots)
		sol.ColdFallbacks += int(d.ColdSolves)
		bbSolverPool.Put(w.solver)
	}()

	// release drops one pending-child reference from node id, recycling its
	// basis snapshot once no unfolded child can still warm-start from it.
	release := func(id int32) {
		if id < 0 {
			return
		}
		nd := &nodes[id]
		nd.kids--
		if nd.kids <= 0 && nd.basis != nil {
			basisPool.Put(nd.basis)
			nd.basis = nil
		}
	}

	// effBounds resolves v's bounds at node id: the nearest tightening of v
	// on the root chain, else the base problem's bounds.
	effBounds := func(id int32, v lp.VarID) (lo, hi float64) {
		for n := id; n > 0; n = nodes[n].parent {
			if nodes[n].v == v {
				return nodes[n].lo, nodes[n].hi
			}
		}
		return p.LP.VarBounds(v)
	}

	wave := make([]int32, 0, waveWidth)
	solved := make([]*lp.Solution, waveWidth)
	pruned := make([]bool, waveWidth)

	for h.Len() > 0 {
		if err := ctx.Err(); err != nil {
			budgetBreak = true
			sol.StopReason = ctxStop(err)
			break
		}
		if sol.Nodes >= opts.MaxNodes {
			budgetBreak = true
			sol.StopReason = StopNodeBudget
			break
		}
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			budgetBreak = true
			sol.StopReason = StopDeadline
			break
		}

		// Pop the wave: the W best-bound nodes, fixed before any solve.
		W := waveWidth
		if r := opts.MaxNodes - sol.Nodes; W > r {
			W = r
		}
		if W > h.Len() {
			W = h.Len()
		}
		wave = wave[:0]
		for i := 0; i < W; i++ {
			wave = append(wave, heap.Pop(h).(int32))
		}
		sol.Nodes += W

		// Pre-solve prune against the wave-start incumbent (pruned pops
		// still count as explored nodes), then solve the survivors.
		for i, id := range wave {
			solved[i] = nil
			pruned[i] = incumbentX != nil && !better(nodes[id].relaxObj, incumbent)
			if !pruned[i] {
				solved[i] = w.solveNode(nodes, id)
			}
		}

		// Fold in pop order: every cross-node mutation happens here.
		for i, id := range wave {
			nd := &nodes[id]
			if pruned[i] {
				release(nd.parent)
				continue
			}
			s := solved[i]
			switch s.Status {
			case lp.StatusInfeasible:
				release(nd.parent)
				continue
			case lp.StatusUnbounded:
				unresolved++
				trackOpen(nd.relaxObj)
				release(nd.parent)
				continue
			case lp.StatusIterLimit:
				sol.IterLimited++
				unresolved++
				trackOpen(nd.relaxObj)
				release(nd.parent)
				continue
			}
			// Pseudo-cost observation: how much this child's relaxation
			// degraded per unit of the fractionality it branched away.
			if nd.parent >= 0 && nd.frac > 1e-12 {
				pc.observe(nd.v, nd.up, math.Abs(s.Objective-nd.relaxObj)/nd.frac)
			}
			if incumbentX != nil && !better(s.Objective, incumbent) {
				release(id) // own basis: no children will come
				release(nd.parent)
				continue
			}
			// Select the branching variable: best pseudo-cost product score,
			// most-fractional before any observations exist.
			branchVar := lp.VarID(-1)
			bestScore := 0.0
			branchVal := 0.0
			for _, v := range p.intVars {
				val := s.Value(v)
				frac := math.Abs(val - math.Round(val))
				if frac <= opts.IntTol {
					continue
				}
				fd := val - math.Floor(val)
				fu := 1 - fd
				var score float64
				if pc.totN > 0 {
					score = math.Max(fd*pc.cost(v, false), 1e-9) * math.Max(fu*pc.cost(v, true), 1e-9)
				} else {
					score = math.Min(fd, fu)
				}
				if branchVar < 0 || score > bestScore {
					branchVar, bestScore, branchVal = v, score, val
				}
			}
			if branchVar < 0 {
				// Integer feasible: new incumbent (first-in-fold-order wins
				// ties, part of the determinism contract).
				if incumbentX == nil || better(s.Objective, incumbent) {
					incumbent = s.Objective
					incumbentX = append(incumbentX[:0], s.X...)
				}
				release(id)
				release(nd.parent)
				continue
			}
			lo, hi := effBounds(id, branchVar)
			fd := branchVal - math.Floor(branchVal)
			kids := int32(0)
			if f := math.Floor(branchVal); f >= lo {
				nodes = append(nodes, bbNode{
					parent: id, v: branchVar, lo: lo, hi: f,
					relaxObj: s.Objective, frac: fd,
				})
				heap.Push(h, int32(len(nodes)-1))
				kids++
			}
			if c := math.Ceil(branchVal); c <= hi {
				nodes = append(nodes, bbNode{
					parent: id, v: branchVar, up: true, lo: c, hi: hi,
					relaxObj: s.Objective, frac: 1 - fd,
				})
				heap.Push(h, int32(len(nodes)-1))
				kids++
			}
			// nd may be stale: the appends above can have grown the arena.
			nodes[id].kids = kids
			if kids == 0 {
				release(id)
			}
			release(nodes[id].parent)
		}
	}

	sol.Elapsed = time.Since(start)
	// Exhausted means the heap drained without a budget break (a break
	// always precedes the pops, so the unexplored frontier is exactly the
	// heap's remnant). Checking Nodes < MaxNodes instead would misclassify a
	// tree that empties on exactly the MaxNodes-th node.
	exhausted := h.Len() == 0 && !budgetBreak
	proven := exhausted && unresolved == 0
	switch {
	case incumbentX != nil && proven:
		sol.Status = Optimal
	case incumbentX != nil:
		sol.Status = Feasible
	case proven:
		sol.Status = Infeasible
	default:
		sol.Status = NoIncumbent
	}
	if !budgetBreak {
		sol.StopReason = ""
	}
	if incumbentX != nil {
		sol.Objective = incumbent
		sol.X = incumbentX
	}
	for _, id := range h.ids {
		trackOpen(nodes[id].relaxObj)
	}
	switch {
	case incumbentX != nil && haveOpen && better(openBound, incumbent):
		sol.BestBound = openBound
	case incumbentX != nil:
		sol.BestBound = incumbent
	case haveOpen:
		sol.BestBound = openBound
	default:
		sol.BestBound = worstObj
	}
	// Recycle every basis still held by the arena (heap remnants and nodes
	// whose children were never folded).
	for i := range nodes {
		if nodes[i].basis != nil {
			basisPool.Put(nodes[i].basis)
			nodes[i].basis = nil
		}
	}
	return sol
}

// ctxDeadline folds Options.MaxTime and the context deadline into one
// effective wall-clock deadline (zero when neither applies).
func ctxDeadline(ctx context.Context, start time.Time, opts Options) time.Time {
	var d time.Time
	if opts.MaxTime > 0 {
		d = start.Add(opts.MaxTime)
	}
	if cd, ok := ctx.Deadline(); ok && (d.IsZero() || cd.Before(d)) {
		d = cd
	}
	return d
}
