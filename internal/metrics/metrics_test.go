package metrics

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/audit"
	"repro/internal/units"
)

func balancedAccount() EnergyAccount {
	return EnergyAccount{
		Demand:             10000,
		MigrationOverhead:  100,
		TransitionOverhead: 50,
		GreenDirect:        4000,
		BatteryOut:         2000,
		Brown:              4150,
		GreenProduced:      7000,
		BatteryInAccepted:  2500,
		GreenLost:          500,
		BatteryEffLoss:     375,
		BatterySelfLoss:    25,
	}
}

func TestConservationOnBalancedAccount(t *testing.T) {
	a := balancedAccount()
	if err := a.ConservationError(); err > 1e-9 {
		t.Fatalf("balanced account reports conservation error %v", err)
	}
}

func TestConservationDetectsImbalance(t *testing.T) {
	a := balancedAccount()
	a.Brown -= 100
	if a.ConservationError() < 99 {
		t.Fatal("conservation check missed a 100 Wh hole")
	}
	b := balancedAccount()
	b.GreenLost += 77
	if b.ConservationError() < 76 {
		t.Fatal("conservation check missed a production-side hole")
	}
}

func TestDerivedRatios(t *testing.T) {
	a := balancedAccount()
	if got := a.TotalLoad(); got != 10150 {
		t.Errorf("TotalLoad %v", got)
	}
	if got := a.TotalSupplied(); got != 10150 {
		t.Errorf("TotalSupplied %v", got)
	}
	wantGU := float64(4000+2000) / 7000
	if got := a.GreenUtilization(); got != wantGU {
		t.Errorf("GreenUtilization %v, want %v", got, wantGU)
	}
	wantBF := 4150.0 / 10150
	if got := a.BrownFraction(); got != wantBF {
		t.Errorf("BrownFraction %v, want %v", got, wantBF)
	}
	if got := a.TotalLosses(); got != units.Energy(375+25+500+100+50) {
		t.Errorf("TotalLosses %v", got)
	}
}

func TestZeroDivisionGuards(t *testing.T) {
	var a EnergyAccount
	if a.GreenUtilization() != 0 || a.BrownFraction() != 0 {
		t.Error("empty account ratios should be zero")
	}
}

func TestSLAAccount(t *testing.T) {
	s := SLAAccount{Submitted: 100, Completed: 80, DeadlineMisses: 5, TotalWaitSlots: 160}
	if s.MeanWaitSlots() != 2 {
		t.Errorf("mean wait %v", s.MeanWaitSlots())
	}
	if s.MissRate() != 0.05 {
		t.Errorf("miss rate %v", s.MissRate())
	}
	var zero SLAAccount
	if zero.MeanWaitSlots() != 0 || zero.MissRate() != 0 {
		t.Error("zero SLA account should report zero rates")
	}
}

func TestTimeSeriesOrderEnforced(t *testing.T) {
	var ts TimeSeries
	ts.Add(SlotSample{Slot: 0})
	ts.Add(SlotSample{Slot: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order slot did not panic")
		}
	}()
	ts.Add(SlotSample{Slot: 1})
}

func TestTimeSeriesColumns(t *testing.T) {
	var ts TimeSeries
	ts.Add(SlotSample{Slot: 0, DemandW: 100, GreenW: 50, BrownW: 60, BatterySoC: 0.5, NodesOn: 3, JobsRunning: 7})
	ts.Add(SlotSample{Slot: 1, DemandW: 200, GreenW: 70, BrownW: 10, BatterySoC: 0.6, NodesOn: 4, JobsRunning: 9})
	for name, want := range map[string][]float64{
		"demand":       {100, 200},
		"green":        {50, 70},
		"brown":        {60, 10},
		"soc":          {0.5, 0.6},
		"nodes_on":     {3, 4},
		"jobs_running": {7, 9},
	} {
		got, err := ts.Column(name)
		if err != nil {
			t.Fatalf("Column(%q): %v", name, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Column(%q) = %v, want %v", name, got, want)
			}
		}
	}
	if _, err := ts.Column("nope"); err == nil {
		t.Error("unknown column should error")
	}
}

func TestTimeSeriesObserveSlot(t *testing.T) {
	var ts TimeSeries
	var obs audit.Observer = &ts // the series is an audit observer
	tr := audit.SlotTrace{
		Slot: 3, SlotHours: 0.5,
		LoadWh: 60, GreenAvailWh: 40, GreenDirectWh: 30,
		BatteryOutWh: 10, BatteryInWh: 6, BrownWh: 20, GreenLostWh: 4,
		BatterySoC: 0.25, NodesOn: 5, DisksSpun: 17,
		JobsRunning: 2, JobsWaiting: 9,
	}
	obs.ObserveSlot(tr)
	want := SlotSample{
		Slot: 3, DemandW: 120, GreenW: 80, GreenUsedW: 60,
		BatteryOutW: 20, BatteryInW: 12, BrownW: 40, GreenLostW: 8,
		BatterySoC: 0.25, NodesOn: 5, DisksSpun: 17,
		JobsRunning: 2, JobsWaiting: 9,
	}
	if len(ts.Samples) != 1 || ts.Samples[0] != want {
		t.Fatalf("ObserveSlot recorded %+v, want %+v", ts.Samples, want)
	}
	// The W values are exactly Energy.Rate of the trace's Wh flows.
	tr.Slot, tr.SlotHours, tr.LoadWh = 4, 1.0/3, 0.1
	obs.ObserveSlot(tr)
	if got, rate := ts.Samples[1].DemandW, units.Energy(0.1).Rate(1.0/3).Watts(); got != rate {
		t.Fatalf("DemandW = %v, want Energy.Rate %v", got, rate)
	}
}

func TestTableText(t *testing.T) {
	tb := Table{Title: "T", Headers: []string{"a", "long-header", "c"}}
	tb.AddRow("x", 1.23456, 42)
	tb.AddRow("yyyyy", "z", 3.0)
	var buf bytes.Buffer
	if err := tb.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "long-header") || !strings.Contains(out, "1.235") {
		t.Fatalf("text table missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("want 5 lines, got %d:\n%s", len(lines), out)
	}
}

func TestTableCSV(t *testing.T) {
	tb := Table{Headers: []string{"a", "b"}}
	tb.AddRow(1, 2)
	var buf bytes.Buffer
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "a,b\n1,2\n" {
		t.Fatalf("csv = %q", got)
	}
}

func TestTableRaggedRejected(t *testing.T) {
	tb := Table{Headers: []string{"a", "b"}}
	tb.Rows = append(tb.Rows, []string{"only-one"})
	var buf bytes.Buffer
	if err := tb.WriteText(&buf); err == nil {
		t.Error("ragged table should fail")
	}
	if err := tb.WriteCSV(&buf); err == nil {
		t.Error("ragged CSV should fail")
	}
	if !strings.Contains(tb.String(), "invalid table") {
		t.Error("String should surface the error")
	}
}
