package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/workload"
)

// The sparse cold-archive shape: the full reference fleet with a slim
// catalog, short batch bursts every archiveGap slots over an
// archiveHorizon-slot horizon, and near-zero read traffic, so the
// simulator's event-driven fast path carries almost every slot.
const (
	archiveHorizon = 40000
	archiveGap     = 200
	archiveTraced  = 10
)

// archiveScenario is the archive's cluster, supply and policy; the trace
// is replaced by archiveBursts after compiling.
func archiveScenario(seed int64) scenario.Scenario {
	return scenario.Scenario{
		Name:          "sparse-archive",
		Seed:          seed,
		Objects:       300,
		WorkloadScale: 0.01,
		Source:        "solar",
		AreaM2:        165.6,
		SupplySlots:   archiveHorizon,
		Policy:        "greenmatch",
		ReadsPerSlot:  0.1,
	}
}

// archiveBursts draws the burst trace from the seed: every archiveGap
// slots a burst of 2-6 tight-deadline batch jobs of 1-6 slots each. The
// seed shuffles a fixed multiset of burst sizes and job durations, so every
// seed brings the same amount of work in a different arrangement.
func archiveBursts(seed int64) workload.Trace {
	rng := rand.New(rand.NewSource(seed))
	var sizes []int
	for submit := 0; submit+archiveGap/2 < archiveHorizon; submit += archiveGap {
		sizes = append(sizes, 2+len(sizes)%5)
	}
	rng.Shuffle(len(sizes), func(a, b int) { sizes[a], sizes[b] = sizes[b], sizes[a] })
	jobs := 0
	for _, n := range sizes {
		jobs += n
	}
	durations := make([]int, jobs)
	for i := range durations {
		durations[i] = 1 + i%6
	}
	rng.Shuffle(len(durations), func(a, b int) { durations[a], durations[b] = durations[b], durations[a] })
	tr := make(workload.Trace, 0, jobs)
	for i, n := range sizes {
		submit := i * archiveGap
		for j := 0; j < n; j++ {
			d := durations[len(tr)]
			tr = append(tr, workload.Job{
				ID: len(tr), Class: workload.Batch, Submit: submit,
				Duration: d, Deadline: submit + d, CPU: 1, RAMGB: 2,
			})
		}
	}
	return tr
}

// compileArchive builds the archive's core.Config.
func compileArchive(sc scenario.Scenario, bursts workload.Trace, tr *Tracer) (core.Config, error) {
	id := tr.begin("scenario.Compile")
	cfg, err := sc.Compile()
	tr.end(id)
	if err != nil {
		return cfg, fmt.Errorf("scenario.Compile: %w", err)
	}
	cfg.Trace = bursts
	return cfg, nil
}

type archivePass struct {
	setup, run, cpu time.Duration // CPU time of set-up, of Simulator.Run and of the whole run
	wall            time.Duration
	res             *core.Result
	cfg             core.Config
}

func runArchivePass(sc scenario.Scenario, bursts workload.Trace, tr *Tracer, c *planCounters, t *tally) (archivePass, error) {
	var p archivePass
	start, cpu0 := time.Now(), cpuTime()
	cfg, err := compileArchive(sc, bursts, tr)
	compile := cpuTime() - cpu0
	if err != nil {
		return p, err
	}
	res, newDur, runDur, err := simulate(cfg, tr, c)
	t.op(err)
	if err != nil {
		return p, err
	}
	p.setup, p.run = compile+newDur, runDur
	p.cpu, p.wall = cpuTime()-cpu0, time.Since(start)
	p.res, p.cfg = res, cfg
	return p, nil
}

func runArchive(opt options, t *tally, m map[string]metric) error {
	sc := archiveScenario(opt.seed)
	bursts := archiveBursts(opt.seed)
	if opt.trace {
		return traceArchive(opt, sc, bursts, t, m)
	}
	start := time.Now()
	stop := opt.deadline(start)
	alloc := startAlloc()
	var setup, cpu, wall, slotRates []float64
	var first archivePass
	var digest string
	for n := 0; n == 0 || time.Now().Before(stop); n++ {
		runtime.GC() // every run starts from a collected heap
		p, err := runArchivePass(sc, bursts, nil, nil, t)
		if err != nil {
			return err
		}
		setup = append(setup, p.setup.Seconds())
		cpu = append(cpu, p.cpu.Seconds())
		wall = append(wall, p.wall.Seconds())
		slotRates = append(slotRates, float64(p.res.Slots)/p.run.Seconds())
		d, err := resultDigest(p.res)
		if err != nil {
			return err
		}
		if n == 0 {
			first, digest = p, d
		}
		t.check(d == digest, "archive: Result differs between runs of one seed")
	}
	allocMB := alloc.mb() / float64(len(wall))
	checkDigest(t, "archive", opt.seed, digest)

	res, err := restoreMid(first.cfg, first.res.Slots)
	t.op(err)
	if err != nil {
		return err
	}
	got, err := resultDigest(res)
	if err != nil {
		return err
	}
	t.check(got == digest, "archive: restored run diverged from the batch run")
	fmt.Printf("archive: %d runs of %d slots (%d fast), seed %d: %.4f CPU s in %.4f s of wall time per run (median)\n",
		len(wall), first.res.Slots, first.res.FastSlots, opt.seed, median(cpu), median(wall))
	m["setup_s"] = metric{median(setup), "s"}
	m["cpu_s"] = metric{median(cpu), "s"}
	m["slots_per_s"] = metric{median(slotRates), "1/s"}
	m["alloc_mb"] = metric{allocMB, "MB"}
	return nil
}

// traceArchive repeats the archive run archiveTraced times untraced and
// traced (the traced Results must be byte-identical), with side calls for
// placement and per-slot timing; figures are per run. The oracle is not
// run: its time-expanded flow over a 40k-slot horizon takes minutes, and
// the archive exists to measure the fast path, not the oracle.
func traceArchive(opt options, sc scenario.Scenario, bursts workload.Trace, t *tally, m map[string]metric) error {
	tr := newTracer()
	var c, sc2 planCounters
	var plain, traced []float64
	var full, fast []float64
	slots, fastSlots := 0, 0
	for i := 0; i < archiveTraced; i++ {
		runtime.GC()
		p, err := runArchivePass(sc, bursts, nil, nil, t)
		if err != nil {
			return err
		}
		runtime.GC()
		q, err := runArchivePass(sc, bursts, tr, &c, t)
		if err != nil {
			return err
		}
		plain = append(plain, p.cpu.Seconds())
		traced = append(traced, q.cpu.Seconds())
		slots += q.res.Slots
		fastSlots += q.res.FastSlots
		want, err := resultDigest(p.res)
		if err != nil {
			return err
		}
		got, err := resultDigest(q.res)
		if err != nil {
			return err
		}
		t.check(got == want, "archive: traced Result differs from the untraced one")
		if i == 0 {
			checkDigest(t, "archive", opt.seed, want)
		}
		if err := sideNewCluster(q.cfg, tr); err != nil {
			return err
		}
		f, s, res, err := slotTimes(q.cfg, tr, &sc2)
		t.op(err)
		if err != nil {
			return err
		}
		full = append(full, f...)
		fast = append(fast, s...)
		got, err = resultDigest(res)
		if err != nil {
			return err
		}
		t.check(got == want, "archive: live run diverged from the batch run")
	}
	// The serve layer is measured here, by a side pass of the live
	// service on its own schedule: the serve workload's latencies are not
	// steady enough on a shared machine to gate changes (README.md).
	base := filepath.Join(".bench_build", fmt.Sprintf("archive-%d", os.Getpid()))
	defer os.RemoveAll(base)
	_, sl, err := serveLayerPass(opt, "archive", base, runtime.NumCPU(), t)
	if err != nil {
		return err
	}
	fillLayers(m, tr, layerRun{
		plainCPU:  secondsDur(median(plain)),
		tracedCPU: secondsDur(median(traced)),
		counters:  c, slots: slots, fastSlots: fastSlots,
		full: full, fast: fast, per: archiveTraced, serve: sl,
	})
	return tr.write(spanPath("archive", opt.seed))
}

func secondsDur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
