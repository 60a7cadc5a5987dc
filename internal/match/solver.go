package match

import (
	"fmt"
	"math"
)

// SolverStats counts which tier each SolveGrouped call took, for
// diagnostics and benchmark reporting.
type SolverStats struct {
	// MemoHits counts calls answered from the cached previous solution
	// because the instance was bit-identical.
	MemoHits int
	// ArcRepairs is always 0. The same-topology arc-repair tier it counted
	// cost as much as a cold solve (SSP dominates both) and was removed;
	// the field stays so existing stats consumers keep compiling.
	ArcRepairs int
	// ColdSolves counts full graph rebuilds (still into reused memory).
	ColdSolves int
}

// Solver is a reusable front-end to the FlowGrouped transportation solve.
// It produces bit-identical results to FlowGrouped — same Count, Assigned,
// and Weight, including floating-point rounding — while keeping repeat
// solves allocation-free. Two tiers:
//
//  1. memo: the instance equals the previous one bit-for-bit, so the cached
//     result is returned without touching the graph;
//  2. cold solve: anything else rebuilds the graph — into the same backing
//     arrays, so this too is allocation-free once warm.
//
// Deliberately absent: warm-starting the flow itself. The grouped
// transportation optimum is tie-degenerate (many flows share the optimal
// value), and the simulator's byte-determinism contract pins the *specific*
// flow SSP finds from a zero start; carrying flow across solves would pick
// a different (equally optimal) solution and break run-twice
// reproducibility. Every cold solve therefore re-runs SSP from zero flow;
// the savings come from skipping allocation, not from reusing flow units.
// See docs/PROFILING.md.
//
// The returned GroupedResult's Count slices alias solver-owned memory and
// are valid only until the next SolveGrouped call; callers must not retain
// or mutate them. The zero value is ready to use. Not safe for concurrent
// use.
type Solver struct {
	stats SolverStats

	// Previous-instance snapshot for the memo tier.
	hasPrev    bool
	prevG      int
	prevM      int
	prevW      []float64 // g*m, row-major
	prevSupply []int
	prevCap    []int

	g flowGraph

	// edgeIdx[gi*m+s] is the forward group->slot edge index, or -1 when the
	// arc does not exist. Iterating it group-major/slot-minor reproduces
	// FlowGrouped's sorted-key settlement order exactly.
	edgeIdx []int

	res       GroupedResult
	countFlat []int
}

// Stats returns tier counters accumulated since the solver was created.
func (sv *Solver) Stats() SolverStats { return sv.stats }

// SolveGrouped solves the same problem as FlowGrouped with the same
// semantics and bit-identical results; see the Solver doc for the reuse
// contract on the returned Count slices.
func (sv *Solver) SolveGrouped(weights [][]float64, supply []int, capacity []int) (GroupedResult, error) {
	g := len(weights)
	if len(supply) != g {
		return GroupedResult{}, fmt.Errorf("match: %d weight rows but %d supplies", g, len(supply))
	}
	m := len(capacity)
	maxW := 0.0
	for gi, row := range weights {
		if len(row) != m {
			return GroupedResult{}, fmt.Errorf("match: group %d has %d weights, want %d", gi, len(row), m)
		}
		for s, w := range row {
			if IsForbidden(w) {
				continue
			}
			if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
				return GroupedResult{}, fmt.Errorf("match: group %d slot %d weight %v must be finite and >= 0", gi, s, w)
			}
			if w > maxW {
				maxW = w
			}
		}
	}
	for gi, s := range supply {
		if s < 0 {
			return GroupedResult{}, fmt.Errorf("match: group %d has negative supply %d", gi, s)
		}
	}
	for s, c := range capacity {
		if c < 0 {
			return GroupedResult{}, fmt.Errorf("match: slot %d has negative capacity %d", s, c)
		}
	}

	if sv.hasPrev && sv.sameInstance(weights, supply, capacity) {
		sv.stats.MemoHits++
		return sv.res, nil
	}

	sv.stats.ColdSolves++
	sv.rebuild(weights, supply, capacity, maxW+1)
	sv.g.minCostMaxFlow(0, g+m+1)
	if err := sv.settle(weights, g, m); err != nil {
		sv.hasPrev = false
		return GroupedResult{}, err
	}
	sv.snapshot(weights, supply, capacity)
	return sv.res, nil
}

// sameInstance reports whether the instance is bit-identical to the
// previous solve. Forbidden cells compare equal (-Inf == -Inf); NaN never
// reaches here because validation rejects it.
func (sv *Solver) sameInstance(weights [][]float64, supply, capacity []int) bool {
	g, m := len(weights), len(capacity)
	if g != sv.prevG || m != sv.prevM {
		return false
	}
	for i, s := range supply {
		if s != sv.prevSupply[i] {
			return false
		}
	}
	for i, c := range capacity {
		if c != sv.prevCap[i] {
			return false
		}
	}
	for gi, row := range weights {
		base := gi * m
		for s, w := range row {
			// Bitwise equality is the point: the memo tier may only fire
			// when the cached result is exactly what a fresh solve would
			// produce, so an epsilon here would break byte-determinism.
			if w != sv.prevW[base+s] { //lint:allow floateq memo cache requires bit-identical instances
				return false
			}
		}
	}
	return true
}

// rebuild reconstructs the flow network from scratch into reused backing
// arrays, mirroring FlowGrouped's construction loop exactly.
func (sv *Solver) rebuild(weights [][]float64, supply, capacity []int, bigW float64) {
	g, m := len(weights), len(capacity)
	sv.g.reset(g + m + 2)
	sv.edgeIdx = resizeInts(sv.edgeIdx, g*m)
	src, sink := 0, g+m+1
	for gi := 0; gi < g; gi++ {
		base := gi * m
		for s := 0; s < m; s++ {
			sv.edgeIdx[base+s] = -1
		}
		if supply[gi] == 0 {
			continue
		}
		sv.g.addEdge(src, 1+gi, supply[gi], 0)
		for s, w := range weights[gi] {
			if IsForbidden(w) || capacity[s] == 0 {
				continue
			}
			edgeCap := supply[gi]
			if capacity[s] < edgeCap {
				edgeCap = capacity[s]
			}
			sv.edgeIdx[base+s] = sv.g.addEdge(1+gi, 1+g+s, edgeCap, bigW-w)
		}
	}
	for s := 0; s < m; s++ {
		if capacity[s] > 0 {
			sv.g.addEdge(1+g+s, sink, capacity[s], 0)
		}
	}
}

// settle reads flows off the group->slot arcs into the reusable result,
// accumulating Weight in group-major/slot-minor order — the same order as
// FlowGrouped's sorted-key loop, so the float rounding matches.
func (sv *Solver) settle(weights [][]float64, g, m int) error {
	sv.countFlat = resizeInts(sv.countFlat, g*m)
	flat := sv.countFlat
	for i := range flat {
		flat[i] = 0
	}
	if cap(sv.res.Count) < g {
		sv.res.Count = make([][]int, g)
	}
	sv.res.Count = sv.res.Count[:g]
	sv.res.Assigned = 0
	sv.res.Weight = 0
	for gi := 0; gi < g; gi++ {
		base := gi * m
		sv.res.Count[gi] = flat[base : base+m : base+m]
		for s := 0; s < m; s++ {
			ei := sv.edgeIdx[base+s]
			if ei < 0 {
				continue
			}
			f := sv.g.edges[ei].flow
			if f < 0 {
				return fmt.Errorf("match: negative flow on edge [%d %d]", gi, s)
			}
			if f > 0 {
				flat[base+s] = f
				sv.res.Assigned += f
				sv.res.Weight += float64(f) * weights[gi][s]
			}
		}
	}
	return nil
}

// snapshot copies the instance into the previous-solve buffers.
func (sv *Solver) snapshot(weights [][]float64, supply, capacity []int) {
	g, m := len(weights), len(capacity)
	sv.prevG, sv.prevM = g, m
	sv.prevW = resizeFloats(sv.prevW, g*m)
	for gi, row := range weights {
		copy(sv.prevW[gi*m:], row)
	}
	sv.prevSupply = append(sv.prevSupply[:0], supply...)
	sv.prevCap = append(sv.prevCap[:0], capacity...)
	sv.hasPrev = true
}

func resizeInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func resizeFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}
