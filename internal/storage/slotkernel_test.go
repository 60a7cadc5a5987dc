package storage

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/power"
	"repro/internal/rng"
	"repro/internal/units"
)

// referenceResetSlot is the full-fleet sweep the busy-list ResetSlot must
// reproduce: every spinning disk settles to Active if it was busy this slot
// and Idle otherwise, and every busy marker is cleared.
func referenceResetSlot(c *Cluster) {
	for _, n := range c.nodes {
		for _, d := range n.Disks {
			if d.SpunUp() {
				if d.busy {
					d.State = power.DiskActive
				} else {
					d.State = power.DiskIdle
				}
			}
			d.busy = false
		}
	}
	c.busy = c.busy[:0]
}

// referenceSlotDraw sums the slot's draw through Profile.Draw of each
// disk's steady state, in the node-major order SlotDrawUtil must keep.
func referenceSlotDraw(c *Cluster, cpuUtil []float64) units.Power {
	var total units.Power
	for _, n := range c.nodes {
		if !n.Powered {
			continue
		}
		u := 0.0
		if n.ID < len(cpuUtil) {
			u = cpuUtil[n.ID]
		}
		total += n.Server.Draw(u)
		for _, d := range n.Disks {
			state := power.DiskIdle
			switch {
			case !d.SpunUp():
				state = power.DiskStandby
			case d.busy:
				state = power.DiskActive
			}
			total += d.Profile.Draw(state)
		}
	}
	return total
}

// TestResetSlotMatchesFullSweep drives a busy-list cluster and a reference
// cluster through the same random sequences of marks, spin transitions,
// node crashes, power cycles, resets and checkpoint round trips, and
// requires identical state and draw after every step.
func TestResetSlotMatchesFullSweep(t *testing.T) {
	r := rng.New(3, "slot-kernel-reset")
	activeSeen := 0
	for k := 0; k < 120; k++ {
		cfg := randomTopology(r)
		got, want := MustNewCluster(cfg), MustNewCluster(cfg)
		for step := 0; step < 200; step++ {
			op := r.Intn(10)
			node := r.Intn(len(got.nodes))
			disk := r.Intn(len(got.nodes[node].Disks))
			for _, c := range []*Cluster{got, want} {
				d := c.nodes[node].Disks[disk]
				switch op {
				case 0, 1, 2:
					c.MarkBusy(d)
				case 3:
					d.SpinUp()
				case 4:
					d.SpinDown()
				case 5:
					c.FailNode(node)
				case 6:
					c.RepairNode(node)
				case 7:
					if node%2 == 0 {
						c.PowerOnNode(node)
					} else {
						c.PowerOffNode(node)
					}
				}
			}
			switch op {
			case 8:
				got.ResetSlot()
				referenceResetSlot(want)
			case 9:
				// Checkpoint round trip, onto a fresh cluster or in place
				// (the latter with busy marks possibly pending).
				st := got.State()
				if r.Bernoulli(0.5) {
					got = MustNewCluster(cfg)
				}
				if err := got.RestoreState(st); err != nil {
					t.Fatal(err)
				}
				if err := want.RestoreState(want.State()); err != nil {
					t.Fatal(err)
				}
			}
			if a, b := got.SlotDrawUtil(nil), referenceSlotDraw(want, nil); a != b {
				t.Fatalf("case %d step %d (op %d): draw %v, reference %v", k, step, op, a, b)
			}
			if a, b := got.State(), want.State(); !reflect.DeepEqual(a, b) {
				t.Fatalf("case %d step %d (op %d): state diverged from the full sweep", k, step, op)
			}
			for _, d := range got.active {
				if d.State == power.DiskActive {
					activeSeen++
				}
			}
		}
	}
	if activeSeen == 0 {
		t.Fatal("generator never left a disk Active")
	}
}

// TestSlotDrawUtilMatchesProfileDraw requires SlotDrawUtil to be
// bit-identical to the Profile.Draw sum on homogeneous and tiered clusters
// under random power, spin, busy and utilization states.
func TestSlotDrawUtilMatchesProfileDraw(t *testing.T) {
	r := rng.New(4, "slot-kernel-draw")
	for k := 0; k < 300; k++ {
		c := MustNewCluster(randomTopology(r))
		pOff, pDown, pBusy := r.Float64()*0.5, r.Float64(), r.Float64()
		for _, n := range c.nodes {
			switch {
			case r.Bernoulli(pOff / 3):
				c.FailNode(n.ID)
			case r.Bernoulli(pOff):
				c.PowerOffNode(n.ID)
			}
			for _, d := range n.Disks {
				if r.Bernoulli(pDown) {
					d.SpinDown()
				}
				if r.Bernoulli(pBusy) {
					c.MarkBusy(d)
				}
			}
		}
		util := make([]float64, r.Intn(len(c.nodes)+2))
		for i := range util {
			util[i] = r.Uniform(-0.2, 1.2)
		}
		got, want := c.SlotDrawUtil(util), referenceSlotDraw(c, util)
		if math.Float64bits(float64(got)) != math.Float64bits(float64(want)) {
			t.Fatalf("case %d: SlotDrawUtil %v, reference %v", k, got, want)
		}
	}
}

func TestSlotKernelAllocFree(t *testing.T) {
	c := MustNewCluster(DefaultConfig())
	util := make([]float64, len(c.nodes))
	disks := []*Disk{c.Node(0).Disks[0], c.Node(7).Disks[3], c.Node(29).Disks[11]}
	allocs := testing.AllocsPerRun(100, func() {
		for _, d := range disks {
			c.MarkBusy(d)
			c.MarkBusy(d)
		}
		c.SlotDrawUtil(util)
		c.ResetSlot()
	})
	if allocs != 0 {
		t.Fatalf("MarkBusy+SlotDrawUtil+ResetSlot allocate %v times per slot, want 0", allocs)
	}
}

// drawSink keeps the benchmarked draws live so the calls are not elided.
var drawSink units.Power

func BenchmarkSlotDrawUtil(b *testing.B) {
	c := paperCluster(b, false)
	util := make([]float64, len(c.nodes))
	for i := range util {
		util[i] = 0.5
	}
	c.MarkBusy(c.Node(3).Disks[4])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drawSink = c.SlotDrawUtil(util)
	}
}

// BenchmarkResetSlot times one quiet slot of the sparse archive: a single
// read marks one disk busy, then the slot resets.
func BenchmarkResetSlot(b *testing.B) {
	c := paperCluster(b, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := c.nodes[i%len(c.nodes)]
		c.MarkBusy(n.Disks[i%len(n.Disks)])
		c.ResetSlot()
	}
}
