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

// SlotDrawUtil is the reference walk the quiet-draw cache must reproduce:
// the cluster's power draw this slot, given per-node CPU utilization in
// [0,1] indexed by node id (a short slice reads as zero utilization for
// the missing tail). Powered-off nodes draw nothing. The sum runs
// node-major: each node's server term, then its disks in slot order.
func (c *Cluster) SlotDrawUtil(cpuUtil []float64) units.Power {
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
			total += d.SlotDraw()
		}
	}
	return total
}

// quietWalk is SlotDrawUtil with every busy flag cleared for the walk: the
// total a fill must cache.
func quietWalk(c *Cluster, cpuUtil []float64) units.Power {
	for _, d := range c.busy {
		d.busy = false
	}
	total := c.SlotDrawUtil(cpuUtil)
	for _, d := range c.busy {
		d.busy = true
	}
	return total
}

// fleetCounts counts the spinning disks on powered nodes and the powered
// nodes by a full-fleet walk.
func fleetCounts(c *Cluster) (spun, powered int) {
	for _, n := range c.nodes {
		if !n.Powered {
			continue
		}
		powered++
		for _, d := range n.Disks {
			if d.SpunUp() {
				spun++
			}
		}
	}
	return spun, powered
}

// randomUtil draws a utilization vector for c, possibly shorter or longer
// than the node count and possibly outside [0,1].
func randomUtil(r *rng.Stream, c *Cluster) []float64 {
	util := make([]float64, r.Intn(len(c.nodes)+2))
	for i := range util {
		util[i] = r.Uniform(-0.2, 1.2)
	}
	return util
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

// TestSlotDrawUtilMatchesProfileDraw requires the reference walk and a
// freshly filled quiet-draw cache to be bit-identical to the Profile.Draw
// sum on homogeneous and tiered clusters under random power, spin, busy
// and utilization states.
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
		util := randomUtil(r, c)
		got, want := c.SlotDrawUtil(util), referenceSlotDraw(c, util)
		if math.Float64bits(float64(got)) != math.Float64bits(float64(want)) {
			t.Fatalf("case %d: SlotDrawUtil %v, reference %v", k, got, want)
		}
		c.FillDraw(util)
		if got := c.Draw(); math.Float64bits(float64(got)) != math.Float64bits(float64(want)) {
			t.Fatalf("case %d: cached Draw %v, reference %v", k, got, want)
		}
	}
}

// TestQuietDrawMatchesWalk drives the quiet-draw cache through random
// sequences of spin transitions, crashes, repairs, power cycles, disk-plan
// masks, busy sets, slot resets and checkpoint round trips on homogeneous
// and tiered clusters. It refills the cache after every step that changes
// power or spin state, as the simulator does, and requires the filled
// quiet total, every Draw (quiet or resumed at the first busy node) and
// the counts to equal a full walk bit for bit.
func TestQuietDrawMatchesWalk(t *testing.T) {
	r := rng.New(5, "slot-kernel-quiet-draw")
	resumes := 0
	for k := 0; k < 120; k++ {
		cfg := randomTopology(r)
		c := MustNewCluster(cfg)
		util := randomUtil(r, c)
		stale := true
		for step := 0; step < 200; step++ {
			if stale {
				c.FillDraw(util)
				if a, b := c.draw.quiet, quietWalk(c, util); math.Float64bits(float64(a)) != math.Float64bits(float64(b)) {
					t.Fatalf("case %d step %d: filled quiet total %v, walk %v", k, step, a, b)
				}
				stale = false
			}
			if a, b := c.Draw(), c.SlotDrawUtil(util); math.Float64bits(float64(a)) != math.Float64bits(float64(b)) {
				t.Fatalf("case %d step %d: Draw %v, walk %v (%d busy)", k, step, a, b, len(c.busy))
			}
			if len(c.busy) > 0 {
				resumes++
			}
			spun, powered := c.DrawCounts()
			if ws, wp := fleetCounts(c); spun != ws || powered != wp {
				t.Fatalf("case %d step %d: counts (%d, %d), full fleet (%d, %d)", k, step, spun, powered, ws, wp)
			}

			node := r.Intn(len(c.nodes))
			d := c.nodes[node].Disks[r.Intn(len(c.nodes[node].Disks))]
			switch op := r.Intn(10); op {
			case 0:
				d.SpinUp()
				stale = true
			case 1:
				d.SpinDown()
				stale = true
			case 2:
				c.FailNode(node)
				stale = true
			case 3:
				c.RepairNode(node) // a repaired node stays powered off
			case 4:
				if r.Bernoulli(0.5) {
					c.PowerOnNode(node)
				} else {
					c.PowerOffNode(node)
				}
				stale = true
			case 5:
				keep := make([]bool, c.TotalDisks())
				p := r.Float64()
				for i := range keep {
					keep[i] = r.Bernoulli(p)
				}
				c.ApplyDiskPlanMask(keep)
				stale = true
			case 6, 7:
				// A busy set of random density, on any node, spinning or
				// not: marks leave the cache valid.
				p := r.Float64() * 0.3
				for _, n := range c.nodes {
					for _, d := range n.Disks {
						if r.Bernoulli(p) {
							c.MarkBusy(d)
						}
					}
				}
			case 8:
				c.ResetSlot()
			case 9:
				// Checkpoint round trip, onto a fresh cluster or in place
				// (the latter with busy marks possibly pending), with new
				// utilization.
				st := c.State()
				if r.Bernoulli(0.5) {
					c = MustNewCluster(cfg)
				}
				if err := c.RestoreState(st); err != nil {
					t.Fatal(err)
				}
				util = randomUtil(r, c)
				stale = true
			}
		}
	}
	if resumes == 0 {
		t.Fatal("generator never resumed a draw over busy disks")
	}
}

func TestSlotKernelAllocFree(t *testing.T) {
	c := MustNewCluster(DefaultConfig())
	util := make([]float64, len(c.nodes))
	disks := []*Disk{c.Node(0).Disks[0], c.Node(7).Disks[3], c.Node(29).Disks[11]}
	allocs := testing.AllocsPerRun(100, func() {
		c.FillDraw(util)
		drawSink = c.Draw()
		for _, d := range disks {
			c.MarkBusy(d)
			c.MarkBusy(d)
		}
		drawSink = c.Draw()
		c.ResetSlot()
	})
	if allocs != 0 {
		t.Fatalf("FillDraw+MarkBusy+Draw+ResetSlot allocate %v times per slot, want 0", allocs)
	}
}

// drawSink keeps the benchmarked draws live so the calls are not elided.
var drawSink units.Power

// BenchmarkFillDraw times one refill of the quiet-draw cache at paper
// scale: the walk a slot pays after the fleet's power or spin state
// changed.
func BenchmarkFillDraw(b *testing.B) {
	c := paperCluster(b, false)
	util := make([]float64, len(c.nodes))
	for i := range util {
		util[i] = 0.5
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.FillDraw(util)
	}
	drawSink = c.Draw()
}

// BenchmarkDrawBusy times one warm-read slot of the sparse archive on a
// filled cache: a single read marks one disk busy, the draw resumes at its
// node, and the slot resets. The busy disk cycles through the fleet, so the
// resumed tail averages half of it.
func BenchmarkDrawBusy(b *testing.B) {
	c := paperCluster(b, false)
	util := make([]float64, len(c.nodes))
	for i := range util {
		util[i] = 0.5
	}
	c.FillDraw(util)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := c.nodes[i%len(c.nodes)]
		c.MarkBusy(n.Disks[i%len(n.Disks)])
		drawSink = c.Draw()
		c.ResetSlot()
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
