package main

import (
	"sort"
	"time"
)

// perLayer lists every per-layer metric a traced run reports, on every
// workload; BENCHMARK.json's per_layer list is checked against it.
var perLayer = []struct{ name, unit string }{
	{"scenario.compile_s", "s"},
	{"storage.new_cluster_s", "s"},
	{"core.new_s", "s"},
	{"core.kernel_s", "s"},
	{"core.slot_full_us_p50", "us"},
	{"core.slot_full_us_p99", "us"},
	{"core.slot_fast_us_p50", "us"},
	{"core.slot_fast_us_p99", "us"},
	{"core.fast_slot_frac", "fraction"},
	{"oracle.solve_s", "s"},
	{"sched.plan_s", "s"},
	{"sched.plan_calls", "count"},
	{"match.cold_solves", "count"},
	{"match.memo_hits", "count"},
	{"match.arc_repairs", "count"},
	{"forecast.predict_s", "s"},
	{"forecast.calls", "count"},
	{"serve.submit_ms_p50", "ms"},
	{"serve.submit_ms_p99", "ms"},
	{"serve.tick_ms_p50", "ms"},
	{"serve.tick_ms_p99", "ms"},
	{"serve.checkpoint_ms_p50", "ms"},
	{"serve.checkpoint_ms_p99", "ms"},
	{"serve.checkpoint_bytes", "bytes"},
	{"serve.journal_append_ms_p50", "ms"},
	{"serve.journal_append_ms_p99", "ms"},
	{"serve.journal_bytes_per_op", "bytes"},
	{"serve.http_queue_ms", "ms"},
	{"serve.open_journal_s", "s"},
	{"serve.shed_count", "count"},
	{"serve.gen_late_p99_ms", "ms"},
	{"scenario.self_s", "s"},
	{"storage.self_s", "s"},
	{"core.self_s", "s"},
	{"oracle.self_s", "s"},
	{"sched.self_s", "s"},
	{"forecast.self_s", "s"},
	{"serve.self_s", "s"},
	{"trace.cpu_s", "s"},
	{"trace.overhead_s", "s"},
}

// layerRun is what a traced run hands fillLayers besides its spans.
type layerRun struct {
	// plainCPU and tracedCPU are the CPU time of the same simulations
	// untraced and traced.
	plainCPU, tracedCPU time.Duration
	// counters come from the wrapped Policy and Forecaster of the traced
	// work; slots and fastSlots from its Results.
	counters         planCounters
	slots, fastSlots int
	// full and fast are per-slot core.Live step times in microseconds.
	full, fast []float64
	// per divides span totals and counts: the number of identical units
	// of work the traced run repeated (0 or 1 means one).
	per int
	// serve holds the serve-layer figures of one side pass; they are not
	// divided by per.
	serve serveLayers
}

// serveLayers are the serve-layer figures of a traced run.
type serveLayers struct {
	submitMs, tickMs, checkpointMs, appendMs []float64
	checkpointBytes, journalBytesPerOp       float64
	httpQueueMs, openJournalS, genLateP99    float64
	selfS                                    float64 // serve-layer self time of the pass
	shed                                     int
}

// fillLayers writes every per-layer metric into m. A layer the workload
// does not exercise reports 0.
func fillLayers(m map[string]metric, tr *Tracer, r layerRun) {
	per := float64(r.per)
	if per < 1 {
		per = 1
	}
	for _, l := range perLayer {
		m[l.name] = metric{0, l.unit}
	}
	set := func(name string, v float64) { m[name] = metric{v, m[name].Unit} }
	set("scenario.compile_s", tr.total("scenario.Compile")/per)
	set("storage.new_cluster_s", tr.total("storage.NewCluster")/per)
	set("core.new_s", tr.total("core.New")/per)
	set("core.kernel_s", tr.self("core.Run")/per)
	set("core.slot_full_us_p50", quantile(r.full, 0.50))
	set("core.slot_full_us_p99", quantile(r.full, 0.99))
	set("core.slot_fast_us_p50", quantile(r.fast, 0.50))
	set("core.slot_fast_us_p99", quantile(r.fast, 0.99))
	if r.slots > 0 {
		set("core.fast_slot_frac", float64(r.fastSlots)/float64(r.slots))
	}
	set("oracle.solve_s", tr.total("oracle.Solve")/per)
	set("sched.plan_s", tr.total("sched.Plan")/per)
	set("sched.plan_calls", float64(r.counters.planCalls)/per)
	set("match.cold_solves", float64(r.counters.solver.ColdSolves)/per)
	set("match.memo_hits", float64(r.counters.solver.MemoHits)/per)
	set("match.arc_repairs", float64(r.counters.solver.ArcRepairs)/per)
	set("forecast.predict_s", tr.total("forecast.Predict")/per)
	set("forecast.calls", float64(r.counters.forecastCalls)/per)

	s := r.serve
	set("serve.submit_ms_p50", quantile(s.submitMs, 0.50))
	set("serve.submit_ms_p99", quantile(s.submitMs, 0.99))
	set("serve.tick_ms_p50", quantile(s.tickMs, 0.50))
	set("serve.tick_ms_p99", quantile(s.tickMs, 0.99))
	set("serve.checkpoint_ms_p50", quantile(s.checkpointMs, 0.50))
	set("serve.checkpoint_ms_p99", quantile(s.checkpointMs, 0.99))
	set("serve.checkpoint_bytes", s.checkpointBytes)
	set("serve.journal_append_ms_p50", quantile(s.appendMs, 0.50))
	set("serve.journal_append_ms_p99", quantile(s.appendMs, 0.99))
	set("serve.journal_bytes_per_op", s.journalBytesPerOp)
	set("serve.http_queue_ms", s.httpQueueMs)
	set("serve.open_journal_s", s.openJournalS)
	set("serve.shed_count", float64(s.shed))
	set("serve.gen_late_p99_ms", s.genLateP99)

	for layer, self := range tr.selfByLayer() {
		if _, ok := m[layer+".self_s"]; ok {
			set(layer+".self_s", self/per)
		}
	}
	set("serve.self_s", s.selfS)
	set("trace.cpu_s", r.tracedCPU.Seconds())
	set("trace.overhead_s", (r.tracedCPU - r.plainCPU).Seconds())
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
