package core

import (
	"testing"

	"repro/internal/sched"
	"repro/internal/workload"
)

// These tests pin down the zero-allocation contract of the per-slot hot
// loop: once the simulator reaches steady state, runSlot must not allocate.
// The scratch state sized in New (masks, view backings, the FFD engine,
// the cover-cache key buffer) is reset in place each slot, never
// reallocated; a regression here silently multiplies GC pressure by the
// slot count of every sweep, so the assertions are exact zeros.
//
// testing.AllocsPerRun divides total allocations by the run count with
// integer truncation, so strictly-amortized growth (the read-latency
// distribution doubling its backing array) still reads as 0 — which is
// the contract: nothing may allocate per slot.

// driveUntilDrained admits the trace (in submit order, as Run's event
// engine would) and steps until every job has completed, returning the
// simulator and the next slot index.
func driveUntilDrained(tb testing.TB, cfg Config) (*Simulator, int) {
	tb.Helper()
	sim, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	maxSlot := sim.lastArrival + sim.cfg.MaxOverrunSlots
	for t := 0; t <= maxSlot; t++ {
		for i := range sim.cfg.Trace {
			if sim.cfg.Trace[i].Submit == t {
				sim.admit(sim.cfg.Trace[i])
			}
		}
		sim.runSlot(t, maxSlot)
		if t >= sim.lastArrival && len(sim.waiting) == 0 && len(sim.mandQueue) == 0 && len(sim.running) == 0 {
			return sim, t + 1
		}
	}
	tb.Fatalf("trace did not drain within %d slots", maxSlot)
	return nil, 0
}

// TestSlotStepDrainedAllocFree asserts the drained steady state — the
// tail every long run spends most of its slots in under the GreenMatch
// policy — allocates nothing per slot: policy early-exit, cover-cache
// hit, mask-based power plan, read service and battery settlement all run
// on reused scratch.
func TestSlotStepDrainedAllocFree(t *testing.T) {
	cfg := tinyConfig()
	cfg.DisableSlotSkipping = true // measure the full prefix on every slot
	sim, slot := driveUntilDrained(t, cfg)
	maxSlot := slot + 200
	// One warm-up step past drain lets one-off transitions (final
	// consolidation, cover-cache misses for the drained node set) happen
	// outside the measured window.
	sim.runSlot(slot, maxSlot)
	slot++
	avg := testing.AllocsPerRun(100, func() {
		sim.runSlot(slot, maxSlot)
		slot++
	})
	if avg > 0 {
		t.Fatalf("drained slot step allocates %.0f times per slot; want 0", avg)
	}
}

// TestSlotStepBusyMandatoryAllocFree asserts the busy mandatory-only path
// — long-running web jobs pinned in place, per-slot placement, full power
// plan, I/O service — allocates nothing per slot either. (The deferrable
// matching path is covered separately by TestSlotStepBusyDeferredAllocFree
// in fastpath_test.go: GreenMatch.Plan runs through the reusable
// sched.PlanScratch/match.Solver and is allocation-free once warm too; see
// docs/PROFILING.md.)
func TestSlotStepBusyMandatoryAllocFree(t *testing.T) {
	cfg := tinyConfig()
	cfg.Policy = sched.Baseline{}
	trace := make([]workload.Job, 6)
	for i := range trace {
		trace[i] = workload.Job{
			ID:       i,
			Class:    workload.Web,
			Submit:   0,
			Duration: 400,
			Deadline: 400,
			CPU:      1,
			RAMGB:    2,
		}
	}
	cfg.Trace = trace
	cfg.DisableSlotSkipping = true // placement and the power plan on every slot
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range trace {
		sim.admit(trace[i])
	}
	const maxSlot = 400
	// Warm up: first placements, node boots, spin-ups.
	slot := 0
	for ; slot < 10; slot++ {
		sim.runSlot(slot, maxSlot)
	}
	if len(sim.running) != len(trace) {
		t.Fatalf("expected %d running jobs after warm-up, got %d", len(trace), len(sim.running))
	}
	avg := testing.AllocsPerRun(100, func() {
		sim.runSlot(slot, maxSlot)
		slot++
	})
	if avg > 0 {
		t.Fatalf("busy slot step allocates %.0f times per slot; want 0", avg)
	}
	if len(sim.running) != len(trace) {
		t.Fatalf("jobs finished mid-measurement (%d running); the busy-path assertion no longer covers placement", len(sim.running))
	}
}

// TestCoveredOnCacheHitAllocFree asserts the memoized set-cover lookup —
// the power plan's inner call, hit on every steady-state slot — is
// allocation-free: the key is built in the reusable scratch buffer and
// the map lookup's []byte-to-string conversion does not materialize.
func TestCoveredOnCacheHitAllocFree(t *testing.T) {
	sim, err := New(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]bool, sim.cfg.Cluster.Nodes)
	for n := 0; n < len(nodes)/2+1; n++ {
		nodes[n] = true
	}
	if _, ok := sim.coveredOn(nodes); !ok {
		t.Fatal("warm-up cover failed")
	}
	avg := testing.AllocsPerRun(100, func() {
		sim.coveredOn(nodes)
	})
	if avg > 0 {
		t.Fatalf("cover-cache hit allocates %.0f times per call; want 0", avg)
	}
}
