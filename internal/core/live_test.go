package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/audit"
	"repro/internal/fault"
	"repro/internal/workload"
)

// liveFinalize runs a live scheduler to completion, failing the test on
// error.
func liveFinalize(t *testing.T, l *Live) *Result {
	t.Helper()
	res, err := l.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestLiveMatchesRun pins the central live/batch equivalence: a Live built
// over a config's trace and finalized produces the same Result and the
// same audit-trace bytes as a batch Run of that config — with and without
// a fault schedule, across the policy arena.
func TestLiveMatchesRun(t *testing.T) {
	for _, withFaults := range []bool{false, true} {
		for _, seed := range []int64{1001, 1004, 1007} {
			name := fmt.Sprintf("seed=%d/faults=%v", seed, withFaults)
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				build := func() (Config, *bytes.Buffer) {
					cfg := chaosConfig(seed)
					if withFaults {
						cfg.Faults = fault.Generate(seed, fault.GenSpec{
							Slots: 200, Nodes: cfg.Cluster.Nodes, AllowMTBF: true,
						})
					}
					var buf bytes.Buffer
					cfg.Observer = audit.NewJSONL(&buf)
					return cfg, &buf
				}

				bcfg, bbuf := build()
				want := run(t, bcfg)

				lcfg, lbuf := build()
				l, err := NewLive(lcfg)
				if err != nil {
					t.Fatal(err)
				}
				got := liveFinalize(t, l)

				if !reflect.DeepEqual(want, got) {
					t.Fatalf("live result differs from batch run:\nbatch %+v\nlive  %+v", want, got)
				}
				if !bytes.Equal(bbuf.Bytes(), lbuf.Bytes()) {
					t.Fatalf("live trace differs from batch run (%d vs %d bytes)",
						bbuf.Len(), lbuf.Len())
				}
			})
		}
	}
}

// TestLiveStepGranularityInvariant pins that how the run is sliced into
// StepTo calls cannot matter: one slot at a time, odd strides, and one big
// Finalize all produce identical results and bytes.
func TestLiveStepGranularityInvariant(t *testing.T) {
	type variant struct {
		name string
		step func(l *Live) error
	}
	variants := []variant{
		{"finalize-only", func(l *Live) error { return nil }},
		{"one-slot", func(l *Live) error {
			for !l.Drained() {
				if err := l.StepTo(l.NextSlot()); err != nil {
					return err
				}
			}
			return nil
		}},
		{"stride-7", func(l *Live) error {
			for !l.Drained() {
				if err := l.StepTo(l.NextSlot() + 6); err != nil {
					return err
				}
			}
			return nil
		}},
	}
	var wantRes *Result
	var wantTrace []byte
	for _, v := range variants {
		cfg := chaosConfig(1002)
		cfg.Faults = fault.Generate(1002, fault.GenSpec{
			Slots: 200, Nodes: cfg.Cluster.Nodes, AllowMTBF: true,
		})
		var buf bytes.Buffer
		cfg.Observer = audit.NewJSONL(&buf)
		l, err := NewLive(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := v.step(l); err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		res := liveFinalize(t, l)
		if wantRes == nil {
			wantRes, wantTrace = res, buf.Bytes()
			continue
		}
		if !reflect.DeepEqual(wantRes, res) {
			t.Fatalf("%s: result differs from %s", v.name, variants[0].name)
		}
		if !bytes.Equal(wantTrace, buf.Bytes()) {
			t.Fatalf("%s: trace differs from %s", v.name, variants[0].name)
		}
	}
}

// TestLiveSubmitMatchesTrace pins the daemon ingestion path: a Live built
// with an empty trace and fed the same jobs through Submit before any slot
// executes is byte-identical to the batch run of the full trace — in trace
// order, and with the slots submitted out of order (latest slot first,
// trace order kept within a slot), which gmserve accepts.
func TestLiveSubmitMatchesTrace(t *testing.T) {
	cfg := chaosConfig(1003)

	var bbuf bytes.Buffer
	bcfg := cfg
	bcfg.Observer = audit.NewJSONL(&bbuf)
	want := run(t, bcfg)

	// reverseSlots regroups the trace by submit slot, latest slot first.
	reverseSlots := func(tr workload.Trace) []workload.Job {
		var out []workload.Job
		for end := len(tr); end > 0; {
			start := end - 1
			for start > 0 && tr[start-1].Submit == tr[end-1].Submit {
				start--
			}
			out = append(out, tr[start:end]...)
			end = start
		}
		return out
	}
	orders := []struct {
		name string
		jobs []workload.Job
	}{
		{"trace-order", cfg.Trace},
		{"reverse-slots", reverseSlots(cfg.Trace)},
	}
	for _, o := range orders {
		t.Run(o.name, func(t *testing.T) {
			lcfg := cfg
			lcfg.Trace = nil
			var lbuf bytes.Buffer
			lcfg.Observer = audit.NewJSONL(&lbuf)
			l, err := NewLive(lcfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, j := range o.jobs {
				if err := l.Submit(j); err != nil {
					t.Fatal(err)
				}
			}
			got := liveFinalize(t, l)

			if !reflect.DeepEqual(want, got) {
				t.Fatalf("submitted run differs from batch run:\nbatch %+v\nlive  %+v", want, got)
			}
			if !bytes.Equal(bbuf.Bytes(), lbuf.Bytes()) {
				t.Fatalf("submitted-run trace differs from batch run (%d vs %d bytes)",
					bbuf.Len(), lbuf.Len())
			}
		})
	}
}

// TestLiveSnapshotRoundTrip is the crash-recovery kernel test: run live to
// a mid-run boundary, snapshot (through a JSON round trip, as a checkpoint
// file would), restore into a fresh scheduler, and require the restored
// run's Result and remaining trace bytes to complete the original exactly.
func TestLiveSnapshotRoundTrip(t *testing.T) {
	for _, seed := range []int64{1001, 1005, 1006} {
		for _, cut := range []int{1, 17, 64} {
			t.Run(fmt.Sprintf("seed=%d/cut=%d", seed, cut), func(t *testing.T) {
				t.Parallel()
				build := func() (Config, *bytes.Buffer) {
					cfg := chaosConfig(seed)
					cfg.Faults = fault.Generate(seed, fault.GenSpec{
						Slots: 200, Nodes: cfg.Cluster.Nodes, AllowMTBF: true,
					})
					var buf bytes.Buffer
					cfg.Observer = audit.NewJSONL(&buf)
					return cfg, &buf
				}

				cfg, buf := build()
				l, err := NewLive(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := l.StepTo(cut - 1); err != nil {
					t.Fatal(err)
				}
				snap, err := l.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				prefix := append([]byte(nil), buf.Bytes()...)

				// The original keeps running: a snapshot must not disturb it.
				wantRes := liveFinalize(t, l)
				wantTrace := buf.Bytes()

				// Checkpoint-file fidelity: restore from the JSON encoding,
				// not the in-memory value.
				blob, err := json.Marshal(snap)
				if err != nil {
					t.Fatal(err)
				}
				var decoded LiveSnapshot
				if err := json.Unmarshal(blob, &decoded); err != nil {
					t.Fatal(err)
				}

				rcfg, rbuf := build()
				r, err := RestoreLive(rcfg, &decoded)
				if err != nil {
					t.Fatal(err)
				}
				gotRes := liveFinalize(t, r)

				if !reflect.DeepEqual(wantRes, gotRes) {
					t.Fatalf("restored result differs:\noriginal %+v\nrestored %+v", wantRes, gotRes)
				}
				gotTrace := append(prefix, rbuf.Bytes()...)
				if !bytes.Equal(wantTrace, gotTrace) {
					t.Fatalf("restored trace differs (%d vs %d bytes)", len(wantTrace), len(gotTrace))
				}
			})
		}
	}
}

// TestLiveRestoreAnywhereInFastStreak checkpoints a sparse spin-down run
// after every fast slot, restores each checkpoint (through JSON) into a
// fresh scheduler and finishes it: every restored Result must be
// byte-identical to the batch run. A restored simulator starts with its
// quiet-draw cache invalid and refills it from the restored cluster on its
// first slot; a cache that claimed validity across a restore would settle
// a stale draw in the middle of a fast streak.
func TestLiveRestoreAnywhereInFastStreak(t *testing.T) {
	for _, reads := range []float64{0.1, 0.5} {
		t.Run(fmt.Sprintf("reads=%v", reads), func(t *testing.T) {
			build := func() Config {
				cfg := sparseTraceConfig()
				cfg.ReadsPerSlot = reads
				return cfg
			}
			want, err := json.Marshal(run(t, build()))
			if err != nil {
				t.Fatal(err)
			}
			l, err := NewLive(build())
			if err != nil {
				t.Fatal(err)
			}
			cuts := 0
			for !l.Drained() {
				slot, fast := l.NextSlot(), l.sim.fastSlots
				if err := l.StepTo(slot); err != nil {
					t.Fatal(err)
				}
				if l.NextSlot() == slot {
					t.Fatalf("slot %d: run stopped before draining", slot)
				}
				if l.sim.fastSlots == fast {
					continue
				}
				snap, err := l.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				blob, err := json.Marshal(snap)
				if err != nil {
					t.Fatal(err)
				}
				var decoded LiveSnapshot
				if err := json.Unmarshal(blob, &decoded); err != nil {
					t.Fatal(err)
				}
				r, err := RestoreLive(build(), &decoded)
				if err != nil {
					t.Fatal(err)
				}
				got, err := json.Marshal(liveFinalize(t, r))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(want, got) {
					t.Fatalf("restored after fast slot %d: Result differs from the batch run", slot)
				}
				cuts++
			}
			if cuts < 50 {
				t.Fatalf("checkpointed after %d fast slots; want >= 50", cuts)
			}
		})
	}
}

// TestLiveSnapshotWithPendingSubmissions pins that not-yet-admitted
// submissions survive a snapshot: jobs submitted for future slots — a
// far-future one before a nearer one, and one for an already executed slot,
// which is admitted at the next slot — are in the restored run's arrivals,
// and the restored run finishes exactly like the original.
func TestLiveSnapshotWithPendingSubmissions(t *testing.T) {
	job := func(id, submit int) workload.Job {
		return workload.Job{
			ID: id, Class: workload.Batch,
			Submit: submit, Duration: 2, Deadline: submit + 40, CPU: 1, RAMGB: 1,
		}
	}
	far, near, past := job(100000, 150), job(100001, 80), job(100002, 3)

	build := func() (Config, *bytes.Buffer) {
		c := chaosConfig(1001)
		var buf bytes.Buffer
		c.Observer = audit.NewJSONL(&buf)
		return c, &buf
	}

	lcfg, buf := build()
	l, err := NewLive(lcfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range []workload.Job{far, near} {
		if err := l.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.StepTo(9); err != nil {
		t.Fatal(err)
	}
	if err := l.Submit(past); err != nil {
		t.Fatal(err)
	}
	snap, err := l.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	pending := map[int]float64{}
	for _, p := range snap.Pending {
		pending[p.Job.ID] = p.At
	}
	for _, j := range []workload.Job{far, near, past} {
		if _, ok := pending[j.ID]; !ok {
			t.Fatalf("submission %d missing from snapshot pending list", j.ID)
		}
	}
	if want := 10 * lcfg.ApplyDefaults().SlotHours; pending[past.ID] != want {
		t.Fatalf("past-slot submission pending at %v h, want the next slot boundary %v h", pending[past.ID], want)
	}
	prefix := append([]byte(nil), buf.Bytes()...)
	wantRes := liveFinalize(t, l)
	wantTrace := buf.Bytes()
	if wantRes.SLA.Submitted != len(lcfg.Trace)+3 {
		t.Fatalf("original run admitted %d jobs, want %d", wantRes.SLA.Submitted, len(lcfg.Trace)+3)
	}

	blob, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var decoded LiveSnapshot
	if err := json.Unmarshal(blob, &decoded); err != nil {
		t.Fatal(err)
	}
	// Restore must not depend on the order of the pending list: take it as
	// written and in submission order (trace jobs, then far, near, past).
	bySubmission := decoded
	bySubmission.Pending = nil
	var submitted []PendingSnap
	for _, p := range decoded.Pending {
		if p.Job.ID >= far.ID {
			submitted = append(submitted, p)
		} else {
			bySubmission.Pending = append(bySubmission.Pending, p)
		}
	}
	sort.Slice(submitted, func(i, j int) bool { return submitted[i].Job.ID < submitted[j].Job.ID })
	bySubmission.Pending = append(bySubmission.Pending, submitted...)

	for _, rsnap := range []*LiveSnapshot{&decoded, &bySubmission} {
		rcfg, rbuf := build()
		r, err := RestoreLive(rcfg, rsnap)
		if err != nil {
			t.Fatal(err)
		}
		gotRes := liveFinalize(t, r)
		if !reflect.DeepEqual(wantRes, gotRes) {
			t.Fatalf("restored result differs:\noriginal %+v\nrestored %+v", wantRes, gotRes)
		}
		gotTrace := append(append([]byte(nil), prefix...), rbuf.Bytes()...)
		if !bytes.Equal(wantTrace, gotTrace) {
			t.Fatalf("restored trace differs (%d vs %d bytes)", len(wantTrace), len(gotTrace))
		}
	}
}

// TestLiveInjectFault pins live fault injection: injecting the schedule's
// events over the Live API before the run starts matches compiling them
// into the config, and past-slot injection is rejected.
func TestLiveInjectFault(t *testing.T) {
	events := []fault.Event{
		{Kind: fault.KindNodeCrash, At: 10, Nodes: []int{2}, Duration: 8},
		{Kind: fault.KindPVDerate, At: 20, Duration: 30, Magnitude: 0.5},
	}

	bcfg := chaosConfig(1001)
	bcfg.Faults = fault.Config{Events: events}
	var bbuf bytes.Buffer
	bcfg.Observer = audit.NewJSONL(&bbuf)
	want := run(t, bcfg)

	lcfg := chaosConfig(1001)
	var lbuf bytes.Buffer
	lcfg.Observer = audit.NewJSONL(&lbuf)
	l, err := NewLive(lcfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		if err := l.InjectFault(ev); err != nil {
			t.Fatal(err)
		}
	}
	got := liveFinalize(t, l)

	if !reflect.DeepEqual(want, got) {
		t.Fatalf("injected run differs from compiled run:\ncompiled %+v\ninjected %+v", want, got)
	}
	if !bytes.Equal(bbuf.Bytes(), lbuf.Bytes()) {
		t.Fatalf("injected-run trace differs from compiled run (%d vs %d bytes)",
			bbuf.Len(), lbuf.Len())
	}
}

// TestLiveRejections pins the API edges: past-slot faults, submissions
// after drain, and operations after finalize all error cleanly.
func TestLiveRejections(t *testing.T) {
	l, err := NewLive(chaosConfig(1001))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.StepTo(4); err != nil {
		t.Fatal(err)
	}
	if err := l.InjectFault(fault.Event{Kind: fault.KindPVDropout, At: 2, Duration: 1}); err == nil {
		t.Error("past-slot fault injection should be rejected")
	}
	if err := l.Submit(workload.Job{}); err == nil {
		t.Error("invalid job should be rejected")
	}
	if _, err := l.Finalize(); err != nil {
		t.Fatal(err)
	}
	if !l.Finished() {
		t.Fatal("Finished() false after Finalize")
	}
	if err := l.Submit(workload.Job{ID: 1, Submit: 0, Duration: 1, Deadline: 5, CPU: 1}); err == nil {
		t.Error("submit after finalize should be rejected")
	}
	if err := l.StepTo(1000); err == nil {
		t.Error("step after finalize should be rejected")
	}
	if _, err := l.Snapshot(); err == nil {
		t.Error("snapshot after finalize should be rejected")
	}
	// Finalize is idempotent.
	if _, err := l.Finalize(); err != nil {
		t.Fatal(err)
	}
}
