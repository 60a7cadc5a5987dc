// Command perfbench is the repository benchmark: one command that runs a
// named workload against the simulator or the gmserve service, checks that
// every output is correct, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer metrics) as one JSON object on the last line of
// standard output. See README.md for the workloads, the metrics and the
// layer-to-metric map.
//
//	go build -o perfbench . && ./perfbench --workload arena --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// defaultSeed is the seed whose Result digests digests.json records.
const defaultSeed = 1

// endToEnd lists every end-to-end metric an untraced arena or archive run
// reports; BENCHMARK.json's end_to_end list is checked against it. Their
// times are CPU times (see cpuTime).
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"cpu_s", "s"},
	{"slots_per_s", "1/s"},
	{"alloc_mb", "MB"},
	{"max_rss_mb", "MB"},
	{"ok_frac", "fraction"},
}

// serveMetrics lists what an untraced serve run reports: wall-clock
// latencies and rates of a request stream.
var serveMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"slots_per_s", "1/s"},
	{"req_p50_ms", "ms"},
	{"req_p99_ms", "ms"},
	{"max_rate_rps", "1/s"},
	{"recovery_s", "s"},
	{"alloc_mb", "MB"},
	{"max_rss_mb", "MB"},
	{"ok_frac", "fraction"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts attempted and failed operations. Output checks count as
// operations, so a failed check shows in failed and in ok_frac.
type tally struct {
	attempted, failed int
}

// op records one operation; a non-nil err marks it failed and is reported
// on standard error.
func (t *tally) op(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		fmt.Fprintf(os.Stderr, "perfbench: FAIL: %v\n", err)
	}
}

// check records one output check.
func (t *tally) check(ok bool, format string, args ...any) {
	if ok {
		t.op(nil)
		return
	}
	t.op(fmt.Errorf(format, args...))
}

// workloadFunc runs one named workload and fills in its metrics.
type workloadFunc func(opt options, t *tally, m map[string]metric) error

type options struct {
	seed    int64
	seconds float64
	trace   bool
}

var workloads = map[string]workloadFunc{
	"arena":   runArena,
	"archive": runArchive,
	"serve":   runServe,
}

func main() {
	name := flag.String("workload", "", "workload to run: arena, archive or serve")
	seed := flag.Int64("seed", defaultSeed, "workload seed")
	seconds := flag.Float64("seconds", 20, "measurement budget in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload arena|archive|serve --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	opt := options{seed: *seed, seconds: *seconds, trace: *trace == 1}
	var t tally
	m := make(map[string]metric)
	if err := run(opt, &t, m); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if !opt.trace {
		m["max_rss_mb"] = metric{maxRSSMB(), "MB"}
		m["ok_frac"] = metric{1 - float64(t.failed)/float64(t.attempted), "fraction"}
	}
	want := endToEnd
	switch {
	case opt.trace:
		want = perLayer
	case *name == "serve":
		want = serveMetrics
	}
	if len(m) != len(want) {
		fmt.Fprintf(os.Stderr, "perfbench: %s reported %d metrics, want %d\n", *name, len(m), len(want))
		os.Exit(1)
	}
	for _, w := range want {
		if got, ok := m[w.name]; !ok || got.Unit != w.unit {
			fmt.Fprintf(os.Stderr, "perfbench: %s did not report %s in %s\n", *name, w.name, w.unit)
			os.Exit(1)
		}
	}
	for _, k := range sortedKeys(m) {
		fmt.Printf("%-28s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
	out, err := json.Marshal(report{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding report: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// maxRSSMB is the process's resident-set high-water mark.
func maxRSSMB() float64 { return float64(rusage().Maxrss) / 1024 } // Linux reports KiB

// allocMeter measures bytes allocated between start and the reading.
type allocMeter struct{ start uint64 }

func startAlloc() allocMeter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return allocMeter{start: ms.TotalAlloc}
}

func (a allocMeter) mb() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc-a.start) / (1 << 20)
}

// deadline returns the wall time by which a run should stop starting new
// passes.
func (o options) deadline(start time.Time) time.Time {
	return start.Add(time.Duration(o.seconds * float64(time.Second)))
}
