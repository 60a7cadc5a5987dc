package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/forecast"
	"repro/internal/match"
	"repro/internal/sched"
	"repro/internal/solar"
	"repro/internal/units"
)

// Span is one timed call into a layer, recorded from this package around
// the call; nothing inside the program under test is instrumented. Times
// are nanoseconds since the tracer was created. Parent is the index of the
// enclosing span (-1 at the top level) and Run groups the spans of one
// simulation run or one request stream.
type Span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Run    int    `json:"run"`
}

// Tracer keeps spans in memory until the benchmark writes them out. A nil
// *Tracer records nothing, which is how the untraced runs call the same
// code paths.
type Tracer struct {
	epoch time.Time
	spans []Span
	stack []int
	run   int
}

func newTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// nextRun starts a new run id for the spans that follow.
func (t *Tracer) nextRun() {
	if t != nil {
		t.run++
	}
}

// begin opens a span nested in the innermost open one and returns its id.
func (t *Tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, Span{Name: name, Start: int64(time.Since(t.epoch)), Parent: parent, Run: t.run})
	id := len(t.spans) - 1
	t.stack = append(t.stack, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *Tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.epoch))
	t.stack = t.stack[:len(t.stack)-1]
}

// add records an already-measured span at the top level; the load
// generator uses it for requests whose start is their intended send time.
func (t *Tracer) add(name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, Span{Name: name, Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)), Parent: -1, Run: t.run})
}

// selfNs returns each span's self time: its duration minus the part
// covered by its direct children.
func (t *Tracer) selfNs() []int64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// selfByLayer returns the total self time in seconds per layer, the span
// name up to its first dot.
func (t *Tracer) selfByLayer() map[string]float64 {
	out := make(map[string]float64)
	for i, ns := range t.selfNs() {
		layer, _, _ := strings.Cut(t.spans[i].Name, ".")
		out[layer] += float64(ns) / 1e9
	}
	return out
}

// self returns the summed self time in seconds of every span named name.
func (t *Tracer) self(name string) float64 {
	var ns int64
	for i, d := range t.selfNs() {
		if t.spans[i].Name == name {
			ns += d
		}
	}
	return float64(ns) / 1e9
}

// total returns the summed duration in seconds of every span named name.
func (t *Tracer) total(name string) float64 {
	var ns int64
	for _, s := range t.spans {
		if s.Name == name {
			ns += s.End - s.Start
		}
	}
	return float64(ns) / 1e9
}

// write stores the spans as JSON lines at path.
func (t *Tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// planCounters accumulates what the wrapped Policy and Forecaster observe
// across runs.
type planCounters struct {
	planCalls     int
	forecastCalls int
	solver        match.SolverStats // summed over finished runs
	runSolver     match.SolverStats // latest reading of the current run
}

// endRun folds the current run's solver counters into the totals.
func (c *planCounters) endRun() {
	c.solver.ColdSolves += c.runSolver.ColdSolves
	c.solver.MemoHits += c.runSolver.MemoHits
	c.solver.ArcRepairs += c.runSolver.ArcRepairs
	c.runSolver = match.SolverStats{}
}

// tracedPolicy times every Plan call and reads the run's solver counters
// from View.Scratch, which the simulator threads through every Plan.
type tracedPolicy struct {
	inner sched.Policy
	tr    *Tracer
	c     *planCounters
}

func (p tracedPolicy) Name() string { return p.inner.Name() }

func (p tracedPolicy) Plan(v sched.View) sched.Decision {
	id := p.tr.begin("sched.Plan")
	d := p.inner.Plan(v)
	p.tr.end(id)
	p.c.planCalls++
	if v.Scratch != nil {
		p.c.runSolver = v.Scratch.SolverStats()
	}
	return d
}

// tracedQuiescentPolicy also forwards sched.QuiescentPlanner. Dropping it
// would silently turn off the simulator's slot skipping, so a wrapped
// policy keeps exactly the optional interfaces of the policy it wraps.
type tracedQuiescentPolicy struct {
	tracedPolicy
	q sched.QuiescentPlanner
}

func (p tracedQuiescentPolicy) QuiescentDecision() sched.Decision { return p.q.QuiescentDecision() }

func wrapPolicy(p sched.Policy, tr *Tracer, c *planCounters) sched.Policy {
	tp := tracedPolicy{inner: p, tr: tr, c: c}
	if q, ok := p.(sched.QuiescentPlanner); ok {
		return tracedQuiescentPolicy{tracedPolicy: tp, q: q}
	}
	return tp
}

// tracedForecaster times every prediction.
type tracedForecaster struct {
	inner forecast.Forecaster
	tr    *Tracer
	c     *planCounters
}

func (f tracedForecaster) Name() string { return f.inner.Name() }

func (f tracedForecaster) Predict(actual solar.Provider, now, horizon int) []units.Power {
	id := f.tr.begin("forecast.Predict")
	out := f.inner.Predict(actual, now, horizon)
	f.tr.end(id)
	f.c.forecastCalls++
	return out
}

// tracedIntoForecaster also forwards forecast.IntoPredictor, the
// allocation-free path the simulator probes for.
type tracedIntoForecaster struct {
	tracedForecaster
	ip forecast.IntoPredictor
}

func (f tracedIntoForecaster) PredictInto(dst []units.Power, actual solar.Provider, now, horizon int) []units.Power {
	id := f.tr.begin("forecast.Predict")
	out := f.ip.PredictInto(dst, actual, now, horizon)
	f.tr.end(id)
	f.c.forecastCalls++
	return out
}

func wrapForecaster(f forecast.Forecaster, tr *Tracer, c *planCounters) forecast.Forecaster {
	tf := tracedForecaster{inner: f, tr: tr, c: c}
	if ip, ok := f.(forecast.IntoPredictor); ok {
		return tracedIntoForecaster{tracedForecaster: tf, ip: ip}
	}
	return tf
}

// spanPath is where a traced run writes its spans, inside the checkout.
func spanPath(workload string, seed int64) string {
	return filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
}
