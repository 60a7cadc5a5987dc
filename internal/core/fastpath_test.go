package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/sched"
	"repro/internal/solar"
	"repro/internal/units"
	"repro/internal/workload"
)

// sparseTraceConfig returns a scenario with long quiet gaps between
// arrivals — the shape the event-driven fast path exists for.
func sparseTraceConfig() Config {
	cfg := tinyConfig()
	trace := []workload.Job{{
		ID: 0, Class: workload.Web, Submit: 0, Duration: 60, Deadline: 60, CPU: 1, RAMGB: 2,
	}}
	id := 1
	for _, submit := range []int{0, 40, 41, 90, 150} {
		for j := 0; j < 3; j++ {
			trace = append(trace, workload.Job{
				ID: id, Class: workload.Batch, Submit: submit,
				Duration: 2 + j, Deadline: submit + 30, CPU: 1, RAMGB: 2,
			})
			id++
		}
	}
	cfg.Trace = trace
	cfg.RecordSeries = true
	return cfg
}

// TestFastForwardEquivalence is the core-level skip-equivalence check: a
// run with the fast path enabled must produce a Result — including the
// full per-slot time series — identical to a run with
// DisableSlotSkipping, except for the FastSlots diagnostic, which must be
// nonzero when skipping is on and zero when it is off. Stepped live, the
// two runs must also hold the same state after every slot.
func TestFastForwardEquivalence(t *testing.T) {
	cases := map[string]func() Config{
		"sparse": sparseTraceConfig,
		"sparse-mtbf": func() Config {
			cfg := sparseTraceConfig()
			cfg.Faults.CrashMTBFHours = 2000 // random crash process on the fast path
			return cfg
		},
	}
	for name, mk := range cases {
		t.Run(name, func(t *testing.T) {
			fast, err := Run(mk())
			if err != nil {
				t.Fatal(err)
			}
			cfg := mk()
			cfg.DisableSlotSkipping = true
			slow, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if fast.FastSlots == 0 {
				t.Fatal("fast path never engaged on a sparse trace")
			}
			if slow.FastSlots != 0 {
				t.Fatalf("DisableSlotSkipping run reported %d fast slots", slow.FastSlots)
			}
			slow.FastSlots = fast.FastSlots
			if !reflect.DeepEqual(fast, slow) {
				t.Fatalf("fast and full runs diverged:\nfast: %+v\nfull: %+v", fast, slow)
			}
		})
	}

	// Slot by slot, the simulator state itself — the cluster with every
	// disk's power state — must match, not just the Result. A low read rate
	// puts quiet slots right after busy ones, where a fast slot that
	// skipped the slot reset would leave disks Active that the full path
	// settles to Idle.
	t.Run("live-state", func(t *testing.T) {
		newLive := func(noskip bool) *Live {
			cfg := sparseTraceConfig()
			cfg.ReadsPerSlot = 0.5
			cfg.DisableSlotSkipping = noskip
			l, err := NewLive(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return l
		}
		fast, full := newLive(false), newLive(true)
		for !fast.Drained() {
			slot := fast.NextSlot()
			if err := fast.StepTo(slot); err != nil {
				t.Fatal(err)
			}
			if err := full.StepTo(slot); err != nil {
				t.Fatal(err)
			}
			fs, err := fast.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			ss, err := full.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fs.Cluster, ss.Cluster) {
				t.Fatalf("slot %d: cluster state diverged between fast and full runs", slot)
			}
			ss.FastSlots = fs.FastSlots
			if !reflect.DeepEqual(fs, ss) {
				t.Fatalf("slot %d: live state diverged between fast and full runs", slot)
			}
		}
		if !full.Drained() {
			t.Fatal("full run did not drain with the fast run")
		}
		if fast.sim.fastSlots == 0 {
			t.Fatal("fast path never engaged")
		}
	})
}

// TestFastPathDisabledForUtilizationModel pins the eligibility rule:
// utilization modeling couples draw to per-slot job phase, which the fast
// path does not model, so skipping must stay off.
func TestFastPathDisabledForUtilizationModel(t *testing.T) {
	cfg := sparseTraceConfig()
	cfg.ModelUtilization = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FastSlots != 0 {
		t.Fatalf("fast path engaged %d slots under ModelUtilization", res.FastSlots)
	}
}

// deferringForecast predicts no green power for the current slot and
// abundant power afterwards, so GreenMatch keeps deferrable jobs waiting
// slot after slot and the full matching path runs on every plan.
type deferringForecast struct{}

func (deferringForecast) Name() string { return "deferring" }

func (f deferringForecast) Predict(actual solar.Provider, now, horizon int) []units.Power {
	return f.PredictInto(nil, actual, now, horizon)
}

func (deferringForecast) PredictInto(dst []units.Power, actual solar.Provider, now, horizon int) []units.Power {
	if cap(dst) < horizon {
		dst = make([]units.Power, horizon)
	}
	dst = dst[:horizon]
	for k := range dst {
		if k == 0 {
			dst[k] = 0
		} else {
			dst[k] = 100000
		}
	}
	return dst
}

// TestSlotStepBusyDeferredAllocFree extends the zero-allocation contract
// to the busy deferral path: a slot that runs the full GreenMatch matching
// pipeline — grouping, flow solve, settlement — over dozens of waiting
// jobs must not allocate once the plan scratch is warm. This is the
// regression guard for the incremental matching work; before it, every
// such slot rebuilt the flow graph from scratch.
func TestSlotStepBusyDeferredAllocFree(t *testing.T) {
	cfg := tinyConfig()
	cfg.Forecaster = deferringForecast{}
	var trace []workload.Job
	id := 0
	for c := 0; c < 4; c++ {
		for j := 0; j < 8; j++ {
			trace = append(trace, workload.Job{
				ID: id, Class: workload.Batch, Submit: 0,
				Duration: 2 + c, Deadline: 600 + 5*c, CPU: 1, RAMGB: 2,
			})
			id++
		}
	}
	cfg.Trace = trace
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const maxSlot = 1000
	slot := 0
	for ; slot < 12; slot++ {
		sim.runSlot(slot, maxSlot)
	}
	if len(sim.waiting) != len(trace) {
		t.Fatalf("expected all %d jobs still deferred, got %d waiting", len(trace), len(sim.waiting))
	}
	avg := testing.AllocsPerRun(100, func() {
		sim.runSlot(slot, maxSlot)
		slot++
	})
	if avg > 0 {
		t.Fatalf("busy deferred slot step allocates %.1f times per slot; want 0", avg)
	}
	if len(sim.waiting) != len(trace) {
		t.Fatalf("jobs left the waiting pool mid-measurement (%d left)", len(sim.waiting))
	}
	st := sim.planScratch.SolverStats()
	if st.ColdSolves == 0 || st.ColdSolves+st.MemoHits < 100 {
		t.Fatalf("matching solver not exercised as expected: %+v", st)
	}
}

// TestFastStepAllocFree pins fast slots at zero allocations: once a run is
// quiescent, each slot that skips planning costs only the shared tail's
// reads, settlement and bookkeeping on reused scratch. The measured window
// covers both draw paths: every other slot refills the quiet-draw cache,
// invalidated here as a wake would, and the rest are warm-read slots that
// resume a valid cache at their busy disks.
func TestFastStepAllocFree(t *testing.T) {
	cfg := tinyConfig()
	cfg.Trace = workload.Trace{{
		ID: 0, Class: workload.Batch, Submit: 0, Duration: 1, Deadline: 4, CPU: 1, RAMGB: 2,
	}}
	cfg.Policy = sched.GreenMatch{}
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	slot := 0
	maxSlot := 8 + 300
	for ; slot < 8; slot++ {
		sim.runSlot(slot, maxSlot)
	}
	if !sim.canFastForward(slot, maxSlot) {
		t.Fatal("simulator not quiescent after warm-up")
	}
	fills, resumes := 0, 0
	avg := testing.AllocsPerRun(100, func() {
		fast := sim.fastSlots
		if slot%2 == 1 {
			sim.drawValid = false
		}
		fill := !sim.drawValid || sim.diskPlanDirty
		cold, reads := sim.sla.ColdReads, sim.cluster.DiskStatsTotal().Reads
		sim.runSlot(slot, maxSlot)
		if sim.fastSlots != fast+1 {
			t.Fatal("fast path disengaged mid-measurement")
		}
		switch {
		case fill || sim.sla.ColdReads > cold:
			fills++
		case sim.cluster.DiskStatsTotal().Reads > reads:
			resumes++
		}
		slot++
	})
	if avg > 0 {
		t.Fatalf("fast slot step allocates %.1f times per slot; want 0", avg)
	}
	if sim.fastSlots < 100 {
		t.Fatalf("fast kernel ran %d slots; want >= 100", sim.fastSlots)
	}
	if fills == 0 || resumes == 0 {
		t.Fatalf("measured %d refill and %d warm-read resume slots; want both", fills, resumes)
	}
}

// TestFastForwardSeriesGolden pins the per-slot series of the sparse
// fast-path configs, with and without slot skipping, against digests
// written before the fast and full slot tails were merged. The
// equivalence test above only compares the two paths within one build; a
// recording bug both shared would pass it but not this.
func TestFastForwardSeriesGolden(t *testing.T) {
	cases := []struct {
		name string
		cfg  func() Config
		want string
	}{
		{"sparse", sparseTraceConfig, "1d09b6a8ede4d3e0a033c90059eda1311d5075a2a6f121f6b36a3b1d80d551da"},
		{"sparse-mtbf", func() Config {
			cfg := sparseTraceConfig()
			cfg.Faults.CrashMTBFHours = 150 // crashes on both paths
			return cfg
		}, "e2a6f72c6b1eb874cd30e63c77afdc370b34595aca3bf1ae94ae0f99c5b36bd4"},
		{"sparse-quiet", func() Config {
			cfg := sparseTraceConfig()
			cfg.ReadsPerSlot = 0.5 // quiet slots between read bursts
			return cfg
		}, "063de04574c0e5cf7d8590770683dec0b9cc061fe8e2f594c9478e96fbd5a8ff"},
	}
	for _, c := range cases {
		for _, noskip := range []bool{false, true} {
			cfg := c.cfg()
			cfg.DisableSlotSkipping = noskip
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(res.Series.Samples)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(b)
			if got := hex.EncodeToString(sum[:]); got != c.want {
				t.Errorf("%s (noskip=%v): series digest %s, want %s", c.name, noskip, got, c.want)
			}
		}
	}
}
