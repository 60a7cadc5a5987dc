package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/expt"
	"repro/internal/forecast"
	"repro/internal/sched"
)

// equivalent runs cfg untraced and with the traced Policy and Forecaster
// and fails unless the two Results are byte-identical, FastSlots included.
// It returns the traced Result.
func equivalent(t *testing.T, name string, cfg core.Config) *core.Result {
	t.Helper()
	plain, _, _, err := simulate(cfg, nil, nil)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var c planCounters
	traced, _, _, err := simulate(cfg, newTracer(), &c)
	if err != nil {
		t.Fatalf("%s traced: %v", name, err)
	}
	want, err := resultDigest(plain)
	if err != nil {
		t.Fatal(err)
	}
	got, err := resultDigest(traced)
	if err != nil {
		t.Fatal(err)
	}
	if got != want || traced.FastSlots != plain.FastSlots {
		t.Errorf("%s: traced Result differs from untraced (fast slots %d vs %d)", name, traced.FastSlots, plain.FastSlots)
	}
	if c.planCalls == 0 || c.forecastCalls == 0 {
		t.Errorf("%s: wrappers saw %d Plan and %d forecast calls", name, c.planCalls, c.forecastCalls)
	}
	return traced
}

func TestTracedArenaIdentical(t *testing.T) {
	scs, err := arenaScenarios(defaultSeed, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	fast := 0
	for _, ns := range scs {
		cfg, err := ns.sc.Compile()
		if err != nil {
			t.Fatal(err)
		}
		for _, pol := range expt.ArenaPolicies() {
			cfg.Policy = pol
			fast += equivalent(t, ns.name+"/"+pol.Name(), cfg).FastSlots
		}
	}
	if fast == 0 {
		t.Error("no arena run took the fast path; the check cannot tell a dropped QuiescentPlanner")
	}
}

func TestTracedArchiveIdentical(t *testing.T) {
	cfg, err := compileArchive(archiveScenario(defaultSeed), archiveBursts(defaultSeed), nil)
	if err != nil {
		t.Fatal(err)
	}
	res := equivalent(t, "archive", cfg)
	if res.FastSlots < res.Slots*9/10 {
		t.Errorf("archive: only %d of %d slots on the fast path", res.FastSlots, res.Slots)
	}
}

// TestTracedServeIdentical checks the batch equivalent of a serve run: the
// scenario the service is initialized with and the jobs of a schedule.
func TestTracedServeIdentical(t *testing.T) {
	sched := buildSchedule(rand.New(rand.NewSource(defaultSeed)), nominalRate, 2*time.Second, "t")
	var acc []accepted
	for i, r := range sched {
		if r.kind == kindSubmit {
			acc = append(acc, accepted{seq: uint64(i), job: r.job})
		}
	}
	cfg, err := batchConfig(initRequest(defaultSeed), acc)
	if err != nil {
		t.Fatal(err)
	}
	equivalent(t, "serve", cfg)
}

func TestWrappersKeepOptionalInterfaces(t *testing.T) {
	var c planCounters
	for _, p := range append(expt.ArenaPolicies(), plainPolicy{}) {
		_, want := p.(sched.QuiescentPlanner)
		_, got := wrapPolicy(p, nil, &c).(sched.QuiescentPlanner)
		if got != want {
			t.Errorf("%s: wrapped QuiescentPlanner %v, policy %v", p.Name(), got, want)
		}
	}
	for _, f := range []forecast.Forecaster{forecast.Perfect{}, forecast.Persistence{}, forecast.EWMA{}} {
		if _, ok := wrapForecaster(f, nil, &c).(forecast.IntoPredictor); !ok {
			t.Errorf("%s: wrapped forecaster lost IntoPredictor", f.Name())
		}
	}
}

// plainPolicy implements no optional interface.
type plainPolicy struct{}

func (plainPolicy) Name() string                   { return "plain" }
func (plainPolicy) Plan(sched.View) sched.Decision { return sched.Decision{} }

func TestSelfTime(t *testing.T) {
	tr := &Tracer{spans: []Span{
		{Name: "core.Run", Start: 0, End: 100, Parent: -1},
		{Name: "sched.Plan", Start: 10, End: 40, Parent: 0},
		{Name: "forecast.Predict", Start: 50, End: 60, Parent: 0},
		{Name: "core.Run", Start: 200, End: 250, Parent: -1},
	}}
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-15 }
	if got := tr.self("core.Run"); !near(got, 110e-9) {
		t.Errorf("core.Run self time %v, want 110ns", got)
	}
	layers := tr.selfByLayer()
	if !near(layers["core"], 110e-9) || !near(layers["sched"], 30e-9) || !near(layers["forecast"], 10e-9) {
		t.Errorf("self time by layer %v", layers)
	}
}

// TestNominalPhaseChecks runs a short nominal serve phase end to end: live
// HTTP service, crash image, recovery and the batch comparison must all
// pass.
func TestNominalPhaseChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a live service with fsync")
	}
	var tl tally
	p, err := runNominal(options{seed: defaultSeed}, 0, t.TempDir(), 2, 2*time.Second, &tl)
	if err != nil {
		t.Fatal(err)
	}
	if tl.failed != 0 {
		t.Fatalf("%d of %d operations or checks failed", tl.failed, tl.attempted)
	}
	if len(p.cfg.Trace) == 0 || len(p.recovery) != recoveryCopies {
		t.Fatalf("admitted %d jobs, %d recoveries", len(p.cfg.Trace), len(p.recovery))
	}
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json names exactly the
// metrics this program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] = %s %s, program reports %s %s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s %s, program reports %s %s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not implemented", w.Name)
		}
	}
}
