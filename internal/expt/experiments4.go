package expt

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/units"
)

func init() {
	register(Experiment{
		ID:    "E14",
		Title: "Table VII — failure resilience: node crashes, repair traffic and green scheduling",
		Kind:  "table",
		Run:   runE14,
	})
}

// runE14 stresses the massive-storage failure path: node crashes evict
// jobs, degrade replica redundancy (PartialCover keeps what is coverable),
// and synthesize I/O-bound Repair jobs with tight deadlines that compete
// with the green schedule. The table sweeps the failure rate for Baseline
// and GreenMatch; the shape claims are that (a) both policies absorb
// moderate failure rates with near-zero misses, and (b) GreenMatch's brown
// advantage survives the repair traffic.
func runE14(p Params) ([]*metrics.Table, error) {
	mtbfs := []float64{0, 2000, 500}
	pols := []sched.Policy{sched.Baseline{}, sched.GreenMatch{}}
	var points []gridPoint
	for _, mtbf := range mtbfs {
		for _, pol := range pols {
			points = append(points, gridPoint{
				label: fmt.Sprintf("mtbf=%g policy=%s", mtbf, pol.Name()),
				build: func() core.Config {
					cfg := baseScenario(p)
					cfg.Green = greenFor(p, ReferenceAreaM2)
					cfg.BatteryCapacityWh = units.Energy(40_000 * p.scale())
					cfg.Policy = pol
					cfg.Faults.CrashMTBFHours = mtbf
					return cfg
				},
			})
		}
	}
	results, err := sweep("E14", p, points)
	if err != nil {
		return nil, err
	}

	t := &metrics.Table{
		Title: "E14: failure resilience (40 kWh LI ESD, reference solar)",
		Headers: []string{"mtbf_h", "policy", "failures", "evictions", "repair_jobs",
			"brown_kwh", "misses", "unserved_reads"},
	}
	for mi, mtbf := range mtbfs {
		for pi, pol := range pols {
			res := results[mi*len(pols)+pi]
			t.AddRow(mtbf, pol.Name(),
				res.SLA.NodeFailures, res.SLA.Evictions, res.SLA.RepairJobsGenerated,
				res.Energy.Brown.KWh(), res.SLA.DeadlineMisses, res.SLA.UnservedReads)
		}
	}
	return []*metrics.Table{t}, nil
}
