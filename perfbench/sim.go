package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/storage"
)

// oracleTolWh absorbs float formatting noise when checking oracle brown <=
// policy brown; the bound itself is integer watt-hours rounded
// conservatively, so anything beyond this is a soundness bug.
const oracleTolWh = 1e-6

// simulate builds and runs one batch simulation and returns its Result with
// the CPU time spent in core.New and in Simulator.Run. With a tracer the
// policy and forecaster are wrapped and both calls are recorded as spans.
func simulate(cfg core.Config, tr *Tracer, c *planCounters) (*core.Result, time.Duration, time.Duration, error) {
	if tr != nil {
		tr.nextRun()
		cfg.Policy = wrapPolicy(cfg.Policy, tr, c)
		cfg.Forecaster = wrapForecaster(cfg.Forecaster, tr, c)
	}
	t0 := cpuTime()
	id := tr.begin("core.New")
	sim, err := core.New(cfg)
	tr.end(id)
	newDur := cpuTime() - t0
	if err != nil {
		return nil, newDur, 0, fmt.Errorf("core.New: %w", err)
	}
	t1 := cpuTime()
	id = tr.begin("core.Run")
	res, err := sim.Run()
	tr.end(id)
	runDur := cpuTime() - t1
	if c != nil {
		c.endRun()
	}
	if err != nil {
		return nil, newDur, runDur, fmt.Errorf("Simulator.Run: %w", err)
	}
	return res, newDur, runDur, nil
}

// sideNewCluster times storage.NewCluster on the cluster config core.New
// would build, as a side call: core.New itself is opaque from outside.
// Like every timed core.New, it starts from a collected heap.
func sideNewCluster(cfg core.Config, tr *Tracer) error {
	cl := cfg.ApplyDefaults().Cluster
	cl.Nodes = cl.TotalNodes()
	runtime.GC()
	id := tr.begin("storage.NewCluster")
	_, err := storage.NewCluster(cl)
	tr.end(id)
	return err
}

// slotTimes drives cfg through core.Live one slot at a time and returns
// the per-slot step times in microseconds, split into full slots (the
// policy planned) and fast slots (no Plan call: the event-driven fast path
// skipped planning), plus the finalized Result.
func slotTimes(cfg core.Config, tr *Tracer, c *planCounters) (full, fast []float64, res *core.Result, err error) {
	tr.nextRun()
	cfg.Policy = wrapPolicy(cfg.Policy, tr, c)
	cfg.Forecaster = wrapForecaster(cfg.Forecaster, tr, c)
	id := tr.begin("core.NewLive")
	l, err := core.NewLive(cfg)
	tr.end(id)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("core.NewLive: %w", err)
	}
	for !l.Drained() {
		slot := l.NextSlot()
		calls := c.planCalls
		t0 := time.Now()
		id := tr.begin("core.StepTo")
		err := l.StepTo(slot) //lint:allow applypath a benchmark-only Live that no journal backs and nothing recovers
		tr.end(id)
		d := us(time.Since(t0))
		if err != nil {
			return nil, nil, nil, fmt.Errorf("Live.StepTo(%d): %w", slot, err)
		}
		if l.NextSlot() == slot {
			break // overrun bound reached; Finalize closes the books
		}
		if c.planCalls > calls {
			full = append(full, d)
		} else {
			fast = append(fast, d)
		}
	}
	id = tr.begin("core.Finalize")
	res, err = l.Finalize() //lint:allow applypath a benchmark-only Live that no journal backs and nothing recovers
	tr.end(id)
	c.endRun()
	if err != nil {
		return nil, nil, nil, fmt.Errorf("Live.Finalize: %w", err)
	}
	return full, fast, res, nil
}

// restoreMid checkpoints a live run of cfg halfway through its slots,
// restores the snapshot with core.RestoreLive (the simulator half of
// gmserve's crash recovery) and finishes the restored run. Its Result must
// equal the uninterrupted batch Result.
func restoreMid(cfg core.Config, slots int) (*core.Result, error) {
	l, err := core.NewLive(cfg)
	if err != nil {
		return nil, fmt.Errorf("core.NewLive: %w", err)
	}
	if err := l.StepTo(slots/2 - 1); err != nil { //lint:allow applypath a benchmark-only Live that no journal backs and nothing recovers
		return nil, fmt.Errorf("Live.StepTo: %w", err)
	}
	snap, err := l.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("Live.Snapshot: %w", err)
	}
	l2, err := core.RestoreLive(cfg, snap)
	if err != nil {
		return nil, fmt.Errorf("core.RestoreLive: %w", err)
	}
	res, err := l2.Finalize() //lint:allow applypath a benchmark-only Live that no journal backs and nothing recovers
	if err != nil {
		return nil, fmt.Errorf("restored Live.Finalize: %w", err)
	}
	return res, nil
}

// resultDigest is the sha256 of a Result's JSON encoding: any change to a
// simulated number, FastSlots included, changes it.
func resultDigest(res *core.Result) (string, error) {
	h := sha256.New()
	if err := addResult(h, res); err != nil {
		return "", err
	}
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}

func addResult(h hash.Hash, res *core.Result) error {
	b, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encoding Result: %w", err)
	}
	h.Write(b)
	return nil
}
