package match

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// randomGrouped draws a random grouped instance.
func randomGrouped(s *rng.Stream, g, m int) (weights [][]float64, supply, capacity []int) {
	weights = make([][]float64, g)
	supply = make([]int, g)
	for i := range weights {
		weights[i] = make([]float64, m)
		for k := range weights[i] {
			if s.Bernoulli(0.25) {
				weights[i][k] = Forbidden
			} else {
				weights[i][k] = math.Round(s.Uniform(0, 10)*2) / 2
			}
		}
		supply[i] = s.Intn(4)
	}
	capacity = make([]int, m)
	for k := range capacity {
		capacity[k] = s.Intn(5)
	}
	return weights, supply, capacity
}

// assertSameGrouped requires the solver result to match FlowGrouped
// bit-for-bit: identical counts, identical Assigned, and identical Weight
// (== on float64, not approximate — the simulator's byte-determinism
// contract rides on this).
func assertSameGrouped(t *testing.T, tag string, got, want GroupedResult) {
	t.Helper()
	if got.Assigned != want.Assigned {
		t.Fatalf("%s: Assigned %d != %d", tag, got.Assigned, want.Assigned)
	}
	if got.Weight != want.Weight {
		t.Fatalf("%s: Weight %v != %v (must be bit-identical)", tag, got.Weight, want.Weight)
	}
	if len(got.Count) != len(want.Count) {
		t.Fatalf("%s: %d count rows != %d", tag, len(got.Count), len(want.Count))
	}
	for gi := range want.Count {
		for s := range want.Count[gi] {
			if got.Count[gi][s] != want.Count[gi][s] {
				t.Fatalf("%s: Count[%d][%d] = %d, want %d", tag, gi, s, got.Count[gi][s], want.Count[gi][s])
			}
		}
	}
}

func TestSolverMatchesFlowGroupedRandom(t *testing.T) {
	s := rng.New(37, "solver-cross")
	var sv Solver
	for trial := 0; trial < 120; trial++ {
		g := 1 + s.Intn(5)
		m := 1 + s.Intn(5)
		weights, supply, capacity := randomGrouped(s, g, m)
		want, err := FlowGrouped(weights, supply, capacity)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sv.SolveGrouped(weights, supply, capacity)
		if err != nil {
			t.Fatal(err)
		}
		assertSameGrouped(t, "random", got, want)
	}
	if st := sv.Stats(); st.ColdSolves == 0 {
		t.Fatalf("random sequence never took the cold tier: %+v", st)
	}
}

func TestSolverMemoTier(t *testing.T) {
	weights := [][]float64{{5, Forbidden}, {1, 9}}
	supply := []int{3, 2}
	capacity := []int{3, 2}
	var sv Solver
	want, err := FlowGrouped(weights, supply, capacity)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		got, err := sv.SolveGrouped(weights, supply, capacity)
		if err != nil {
			t.Fatal(err)
		}
		assertSameGrouped(t, "memo", got, want)
	}
	st := sv.Stats()
	if st.ColdSolves != 1 || st.MemoHits != 2 {
		t.Fatalf("want 1 cold + 2 memo, got %+v", st)
	}
}

func TestSolverSameTopologyRebuildsCold(t *testing.T) {
	// Same topology, different weights/supplies/capacities each round: the
	// forbidden pattern and the zero/non-zero patterns are fixed, values
	// move. This is the input sequence an in-place arc-repair tier would
	// take; with two tiers every round is a cold rebuild into the reused
	// graph, and each must stay bit-identical to a FlowGrouped solve.
	s := rng.New(41, "solver-repair")
	g, m := 4, 6
	forb := make([][]bool, g)
	for i := range forb {
		forb[i] = make([]bool, m)
		for k := range forb[i] {
			forb[i][k] = s.Bernoulli(0.3)
		}
	}
	var sv Solver
	for round := 0; round < 25; round++ {
		weights := make([][]float64, g)
		supply := make([]int, g)
		for i := range weights {
			weights[i] = make([]float64, m)
			for k := range weights[i] {
				if forb[i][k] {
					weights[i][k] = Forbidden
				} else {
					weights[i][k] = math.Round(s.Uniform(0, 10)*4) / 4
				}
			}
			supply[i] = 1 + s.Intn(4)
		}
		capacity := make([]int, m)
		for k := range capacity {
			capacity[k] = 1 + s.Intn(5)
		}
		want, err := FlowGrouped(weights, supply, capacity)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sv.SolveGrouped(weights, supply, capacity)
		if err != nil {
			t.Fatal(err)
		}
		assertSameGrouped(t, "same-topology", got, want)
	}
	st := sv.Stats()
	if st.ColdSolves != 25 || st.ArcRepairs != 0 || st.MemoHits != 0 {
		t.Fatalf("want 25 cold solves, got %+v", st)
	}
}

func TestSolverTopologyChangeFallsBackCold(t *testing.T) {
	var sv Solver
	a := [][]float64{{5, 2}, {1, 9}}
	b := [][]float64{{5, Forbidden}, {1, 9}} // arc (0,1) vanished
	if _, err := sv.SolveGrouped(a, []int{2, 2}, []int{2, 2}); err != nil {
		t.Fatal(err)
	}
	want, err := FlowGrouped(b, []int{2, 2}, []int{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	got, err := sv.SolveGrouped(b, []int{2, 2}, []int{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	assertSameGrouped(t, "topology-change", got, want)
	// Supply going to zero also removes edges and must force a cold solve.
	want2, err := FlowGrouped(b, []int{0, 2}, []int{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	got2, err := sv.SolveGrouped(b, []int{0, 2}, []int{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	assertSameGrouped(t, "supply-zero", got2, want2)
	st := sv.Stats()
	if st.ColdSolves != 3 || st.ArcRepairs != 0 {
		t.Fatalf("want 3 cold solves and no repairs, got %+v", st)
	}
}

func TestSolverValidationErrors(t *testing.T) {
	var sv Solver
	if _, err := sv.SolveGrouped([][]float64{{1}}, []int{1, 2}, []int{1}); err == nil {
		t.Error("supply length mismatch should fail")
	}
	if _, err := sv.SolveGrouped([][]float64{{1, 2}}, []int{1}, []int{1}); err == nil {
		t.Error("ragged weights should fail")
	}
	if _, err := sv.SolveGrouped([][]float64{{-1}}, []int{1}, []int{1}); err == nil {
		t.Error("negative weight should fail")
	}
	if _, err := sv.SolveGrouped([][]float64{{1}}, []int{-1}, []int{1}); err == nil {
		t.Error("negative supply should fail")
	}
	if _, err := sv.SolveGrouped([][]float64{{1}}, []int{1}, []int{-1}); err == nil {
		t.Error("negative capacity should fail")
	}
	// A failed validation must not poison a later valid solve.
	want, err := FlowGrouped([][]float64{{7}}, []int{10}, []int{4})
	if err != nil {
		t.Fatal(err)
	}
	got, err := sv.SolveGrouped([][]float64{{7}}, []int{10}, []int{4})
	if err != nil {
		t.Fatal(err)
	}
	assertSameGrouped(t, "post-error", got, want)
}

func TestSolverAllocFreeWhenWarm(t *testing.T) {
	s := rng.New(53, "solver-alloc")
	g, m := 6, 24
	// Two instances with different topologies, alternated to exercise the
	// cold-rebuild tier; plus a value-only variant of the first.
	wA, supA, capA := randomGrouped(s, g, m)
	wB, supB, capB := randomGrouped(s, g, m)
	wC := make([][]float64, g)
	for i := range wA {
		wC[i] = append([]float64(nil), wA[i]...)
		for k := range wC[i] {
			if !IsForbidden(wC[i][k]) {
				wC[i][k] += 0.25
			}
		}
	}
	var sv Solver
	solve := func(w [][]float64, sup, cap []int) {
		if _, err := sv.SolveGrouped(w, sup, cap); err != nil {
			t.Fatal(err)
		}
	}
	// Warm up all code paths and backing arrays.
	for i := 0; i < 4; i++ {
		solve(wA, supA, capA)
		solve(wB, supB, capB)
		solve(wC, supA, capA)
	}
	allocs := testing.AllocsPerRun(50, func() {
		solve(wA, supA, capA) // cold rebuild: same topology as wC, different values
		solve(wC, supA, capA) // cold rebuild again
		solve(wB, supB, capB) // cold rebuild: different topology
		solve(wB, supB, capB) // memo
	})
	if allocs != 0 {
		t.Fatalf("warm solver allocated %v per round, want 0", allocs)
	}
}
