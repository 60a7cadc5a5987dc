package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/expt"
	"repro/internal/oracle"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/scenarios"
)

// arenaScale is the scale every shipped scenario runs at: paper scale.
const arenaScale = 1.0

// namedScenario is one arena scenario with the benchmark seed applied.
type namedScenario struct {
	name string
	sc   scenario.Scenario
}

// arenaScenarios reads every shipped scenario at the given scale with its
// seed overridden by the benchmark seed.
func arenaScenarios(seed int64, scale float64) ([]namedScenario, error) {
	var out []namedScenario
	for _, name := range scenarios.Names() {
		raw, err := scenarios.Bytes(name)
		if err != nil {
			return nil, err
		}
		sc, err := scenario.Read(bytes.NewReader(raw))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		sc.Seed = seed
		out = append(out, namedScenario{name: name, sc: sc.Scaled(scale)})
	}
	return out, nil
}

// arenaPass is one researcher's sweep: for each scenario compile once,
// solve the oracle once, then build and run every arena policy, one run at
// a time.
type arenaPass struct {
	setup, cpu  time.Duration // CPU time of all set-up, and of the whole sweep
	wall        time.Duration
	slots, fast int
	slotRates   []float64 // slots per CPU second of Simulator.Run per policy run
	digest      string    // over every Result in sweep order
	gm          []gmRun   // the GreenMatch run of each scenario
	cfgs        []core.Config
}

// gmRun remembers one scenario's GreenMatch run for the live-path checks.
type gmRun struct {
	name   string
	cfg    core.Config
	slots  int
	digest string
}

// greenMatchIndex is the position of the paper's policy in the arena.
func greenMatchIndex(pols []sched.Policy) int {
	for i, p := range pols {
		if g, ok := p.(sched.GreenMatch); ok && g.Fraction == 0 {
			return i
		}
	}
	return 0
}

// twinTimes accumulates, in a traced sweep, the build-and-run CPU time of
// each policy run untraced and, right after it, traced.
type twinTimes struct{ plain, traced time.Duration }

// runArenaPass runs one sweep. With a tracer, calls are recorded as spans;
// with twin also set, every policy run is first repeated untraced, and its
// Result must be byte-identical to the traced one.
func runArenaPass(scs []namedScenario, pols []sched.Policy, tr *Tracer, c *planCounters, twin *twinTimes, t *tally) (arenaPass, error) {
	var p arenaPass
	h := sha256.New()
	gmi := greenMatchIndex(pols)
	start, cpu0 := time.Now(), cpuTime()
	for _, ns := range scs {
		t0 := cpuTime()
		id := tr.begin("scenario.Compile")
		cfg, err := ns.sc.Compile()
		tr.end(id)
		p.setup += cpuTime() - t0
		if err != nil {
			return p, fmt.Errorf("%s: scenario.Compile: %w", ns.name, err)
		}
		p.cfgs = append(p.cfgs, cfg)
		id = tr.begin("oracle.Solve")
		rep, err := oracle.Solve(cfg)
		tr.end(id)
		if err != nil {
			return p, fmt.Errorf("%s: oracle.Solve: %w", ns.name, err)
		}
		var scSlots, scFast int
		var scNew, scRun time.Duration
		for i, pol := range pols {
			runtime.GC() // every policy run starts from a collected heap
			c1 := cfg
			c1.Policy = pol
			var plain *core.Result
			if twin != nil {
				res, newDur, runDur, err := simulate(c1, nil, nil)
				t.op(err)
				if err != nil {
					return p, fmt.Errorf("%s/%s: %w", ns.name, pol.Name(), err)
				}
				twin.plain += newDur + runDur
				plain = res
				runtime.GC()
			}
			res, newDur, runDur, err := simulate(c1, tr, c)
			t.op(err)
			if err != nil {
				return p, fmt.Errorf("%s/%s: %w", ns.name, pol.Name(), err)
			}
			if twin != nil {
				twin.traced += newDur + runDur
				want, err := resultDigest(plain)
				if err != nil {
					return p, err
				}
				got, err := resultDigest(res)
				if err != nil {
					return p, err
				}
				t.check(got == want, "arena %s/%s: traced Result differs from the untraced one", ns.name, pol.Name())
			}
			p.setup += newDur
			scNew += newDur
			scRun += runDur
			scSlots += res.Slots
			scFast += res.FastSlots
			p.slotRates = append(p.slotRates, float64(res.Slots)/runDur.Seconds())
			p.slots += res.Slots
			p.fast += res.FastSlots
			t.check(res.Energy.Brown.Wh() >= rep.Brown.Wh()-oracleTolWh,
				"arena %s/%s: policy brown %v below oracle bound %v", ns.name, pol.Name(), res.Energy.Brown, rep.Brown)
			if err := addResult(h, res); err != nil {
				return p, err
			}
			if i == gmi {
				d, err := resultDigest(res)
				if err != nil {
					return p, err
				}
				p.gm = append(p.gm, gmRun{name: ns.name, cfg: c1, slots: res.Slots, digest: d})
			}
		}
		fmt.Printf("arena %-20s %6d slots (%4d fast)  CPU s: core.New %7.3f  Run %7.3f  %7.0f slots/s\n",
			ns.name, scSlots, scFast, scNew.Seconds(), scRun.Seconds(), float64(scSlots)/scRun.Seconds())
	}
	p.wall, p.cpu = time.Since(start), cpuTime()-cpu0
	p.digest = fmt.Sprintf("%x", h.Sum(nil))
	return p, nil
}

func runArena(opt options, t *tally, m map[string]metric) error {
	scs, err := arenaScenarios(opt.seed, arenaScale)
	if err != nil {
		return err
	}
	pols := expt.ArenaPolicies()
	if opt.trace {
		return traceArena(opt, scs, pols, t, m)
	}
	start := time.Now()
	stop := opt.deadline(start)
	alloc := startAlloc()
	var passes []arenaPass
	for {
		p, err := runArenaPass(scs, pols, nil, nil, nil, t)
		if err != nil {
			return err
		}
		passes = append(passes, p)
		if time.Now().Add(p.wall).After(stop) {
			break
		}
	}
	allocMB := alloc.mb() / float64(len(passes))
	first := passes[0]
	for _, p := range passes[1:] {
		t.check(p.digest == first.digest, "arena: sweep digests differ between passes of one run")
	}
	checkDigest(t, "arena", opt.seed, first.digest)

	// Each scenario's GreenMatch run, checkpointed halfway and restored,
	// must finish with the batch Result.
	for _, g := range first.gm {
		res, err := restoreMid(g.cfg, g.slots)
		t.op(err)
		if err != nil {
			return fmt.Errorf("%s: %w", g.name, err)
		}
		got, err := resultDigest(res)
		if err != nil {
			return err
		}
		t.check(got == g.digest, "arena %s: restored run diverged from the batch run", g.name)
	}

	var setup, cpu, wall, slotRates []float64
	for _, p := range passes {
		setup = append(setup, p.setup.Seconds())
		cpu = append(cpu, p.cpu.Seconds())
		wall = append(wall, p.wall.Seconds())
		slotRates = append(slotRates, p.slotRates...)
	}
	fmt.Printf("arena: %d sweep(s) of %d scenarios x %d policies, seed %d: %.3f CPU s in %.3f s of wall time per sweep (median)\n",
		len(passes), len(scs), len(pols), opt.seed, median(cpu), median(wall))
	m["setup_s"] = metric{median(setup), "s"}
	m["cpu_s"] = metric{median(cpu), "s"}
	m["slots_per_s"] = metric{geomean(slotRates), "1/s"}
	m["alloc_mb"] = metric{allocMB, "MB"}
	return nil
}

// traceArena is the traced arena run: one sweep with spans and wrapped
// Policy/Forecaster, each policy run preceded by its untraced twin (the
// Results must be byte-identical), then side calls for placement and
// per-slot timing.
func traceArena(opt options, scs []namedScenario, pols []sched.Policy, t *tally, m map[string]metric) error {
	tr := newTracer()
	var c planCounters
	var twin twinTimes
	traced, err := runArenaPass(scs, pols, tr, &c, &twin, t)
	if err != nil {
		return err
	}
	checkDigest(t, "arena", opt.seed, traced.digest)

	for _, cfg := range traced.cfgs {
		for range pols {
			if err := sideNewCluster(cfg, tr); err != nil {
				return err
			}
		}
	}
	var sc planCounters
	var full, fast []float64
	for _, g := range traced.gm {
		f, q, res, err := slotTimes(g.cfg, tr, &sc)
		t.op(err)
		if err != nil {
			return fmt.Errorf("%s: %w", g.name, err)
		}
		full = append(full, f...)
		fast = append(fast, q...)
		got, err := resultDigest(res)
		if err != nil {
			return err
		}
		t.check(got == g.digest, "arena %s: live run diverged from the batch run", g.name)
	}
	fillLayers(m, tr, layerRun{
		plainCPU: twin.plain, tracedCPU: twin.traced,
		counters: c, slots: traced.slots, fastSlots: traced.fast,
		full: full, fast: fast,
	})
	return tr.write(spanPath("arena", opt.seed))
}
