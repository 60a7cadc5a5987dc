package storage

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/power"
	"repro/internal/rng"
)

// referenceCover is the textbook greedy set cover the incremental-gain
// greedyCover must reproduce exactly: every pick rescans every allowed disk
// for its count of still-uncovered objects and takes the first maximum in
// DiskID order. Objects with no replica on an allowed node are counted as
// uncoverable and left out.
func referenceCover(c *Cluster, allowed []bool) ([]DiskID, int) {
	ok := func(node int) bool { return node < len(allowed) && allowed[node] }
	uncovered := make([]bool, len(c.placement))
	remaining, uncoverable := 0, 0
	for obj, reps := range c.placement {
		if len(reps) == 0 {
			continue
		}
		has := false
		for _, id := range reps {
			has = has || ok(id.Node)
		}
		if !has {
			uncoverable++
			continue
		}
		uncovered[obj] = true
		remaining++
	}
	var chosen []DiskID
	for remaining > 0 {
		var best *Disk
		bestGain := 0
		for _, n := range c.nodes {
			if !ok(n.ID) {
				continue
			}
			for _, d := range n.Disks {
				gain := 0
				for _, obj := range d.Objects {
					if uncovered[obj] {
						gain++
					}
				}
				if gain > bestGain {
					best, bestGain = d, gain
				}
			}
		}
		if best == nil {
			break
		}
		chosen = append(chosen, best.ID)
		for _, obj := range best.Objects {
			if uncovered[obj] {
				uncovered[obj] = false
				remaining--
			}
		}
	}
	slices.SortFunc(chosen, func(a, b DiskID) int {
		if a.Node != b.Node {
			return a.Node - b.Node
		}
		return a.Disk - b.Disk
	})
	return chosen, uncoverable
}

// randomTopology draws a homogeneous or two/three-tier cluster config with
// 1..16 disks per node and replication 1..4 (clamped to what the smallest
// tier can hold).
func randomTopology(r *rng.Stream) Config {
	cfg := DefaultConfig()
	cfg.NodeProfile.DisksPerNode = 1 + r.Intn(16)
	cfg.Replicas = 1 + r.Intn(4)
	cfg.Objects = r.Intn(400)
	minDisks := 0
	if r.Bernoulli(0.5) {
		cfg.Nodes = 1 + r.Intn(12)
		minDisks = cfg.Nodes * cfg.NodeProfile.DisksPerNode
	} else {
		tiers := 2 + r.Intn(2)
		disks := []power.DiskProfile{power.EnterpriseHDD(), power.ArchiveHDD(), power.EnterpriseHDD()}
		share := 1.0
		for i := 0; i < tiers; i++ {
			s := share / 2
			if i == tiers-1 {
				s = share
			}
			share -= s
			cfg.Tiers = append(cfg.Tiers, Tier{
				Name: fmt.Sprintf("t%d", i), Nodes: 1 + r.Intn(6),
				Server: power.R720(), Disk: disks[i], ObjectShare: s,
			})
			if d := cfg.Tiers[i].Nodes * cfg.NodeProfile.DisksPerNode; minDisks == 0 || d < minDisks {
				minDisks = d
			}
		}
	}
	if cfg.Replicas > minDisks {
		cfg.Replicas = minDisks
	}
	return cfg
}

// randomMask draws a node mask for c: every node, none, a random subset of
// random density, the healthy set after random crashes, or a mask shorter
// than the node count.
func randomMask(r *rng.Stream, c *Cluster) []bool {
	n := len(c.nodes)
	m := make([]bool, n)
	switch r.Intn(5) {
	case 0:
		m = allNodes(c)
	case 1:
	case 2:
		p := r.Float64()
		for i := range m {
			m[i] = r.Bernoulli(p)
		}
	case 3:
		for i := range m {
			if r.Bernoulli(0.3) {
				c.FailNode(i)
			}
			m[i] = !c.nodes[i].Failed
		}
	case 4:
		m = m[:r.Intn(n+1)]
		for i := range m {
			m[i] = r.Bernoulli(0.8)
		}
	}
	return m
}

func TestGreedyCoverMatchesReference(t *testing.T) {
	r := rng.New(1, "coverage-differential")
	const cases = 300
	uncoverableSeen, failedSeen := 0, 0
	for k := 0; k < cases; k++ {
		cfg := randomTopology(r)
		c, err := NewCluster(cfg)
		if err != nil {
			t.Fatalf("case %d: %v", k, err)
		}
		want, _ := referenceCover(c, allNodes(c))
		if got := c.MinimalCover(); !slices.Equal(got, want) {
			t.Fatalf("case %d MinimalCover:\n got %v\nwant %v", k, got, want)
		}
		for m := 0; m < 8; m++ {
			mask := randomMask(r, c)
			want, wantUnc := referenceCover(c, mask)
			got, gotUnc := c.PartialCoverOnNodeMask(mask)
			if !slices.Equal(got, want) || gotUnc != wantUnc {
				t.Fatalf("case %d mask %v PartialCoverOnNodeMask:\n got %v (%d uncoverable)\nwant %v (%d uncoverable)",
					k, mask, got, gotUnc, want, wantUnc)
			}
			full, ok := c.CoverOnNodeMask(mask)
			if ok != (wantUnc == 0) {
				t.Fatalf("case %d mask %v CoverOnNodeMask ok=%v with %d uncoverable", k, mask, ok, wantUnc)
			}
			if ok && !slices.Equal(full, want) {
				t.Fatalf("case %d mask %v CoverOnNodeMask:\n got %v\nwant %v", k, mask, full, want)
			}
			if !ok && full != nil {
				t.Fatalf("case %d mask %v: failed CoverOnNodeMask returned %v", k, mask, full)
			}
			if wantUnc > 0 {
				uncoverableSeen++
			}
			for _, n := range c.nodes {
				if n.Failed {
					failedSeen++
					c.RepairNode(n.ID)
				}
			}
		}
	}
	if uncoverableSeen == 0 || failedSeen == 0 {
		t.Fatalf("generator never produced uncoverable (%d) or failed (%d) cases", uncoverableSeen, failedSeen)
	}
}

func TestSpinningCoverageMatchesCoverageOK(t *testing.T) {
	r := rng.New(2, "coverage-spinning")
	verdicts := map[bool]int{}
	for k := 0; k < 300; k++ {
		c := MustNewCluster(randomTopology(r))
		pOff, pDown := r.Float64()*0.5, r.Float64()
		for _, n := range c.nodes {
			switch {
			case r.Bernoulli(pOff / 3):
				c.FailNode(n.ID)
			case r.Bernoulli(pOff):
				c.PowerOffNode(n.ID)
			default:
				for _, d := range n.Disks {
					if r.Bernoulli(pDown) {
						d.SpinDown()
					}
				}
			}
		}
		active := make(map[DiskID]bool)
		for _, n := range c.nodes {
			for _, d := range n.Disks {
				if n.Powered && d.SpunUp() {
					active[d.ID] = true
				}
			}
		}
		want := c.CoverageOK(active)
		if got := c.SpinningCoverageOK(); got != want {
			t.Fatalf("case %d: SpinningCoverageOK = %v, CoverageOK = %v", k, got, want)
		}
		verdicts[want]++
	}
	if verdicts[true] == 0 || verdicts[false] == 0 {
		t.Fatalf("generator produced one-sided verdicts: %v", verdicts)
	}
}

// paperCluster is the reference fleet (30 nodes x 12 disks, 3000 objects at
// r=3), or its 9000-object two-tier hot/cold variant.
func paperCluster(b *testing.B, tiered bool) *Cluster {
	cfg := DefaultConfig()
	if tiered {
		cfg.Objects = 9000
		cfg.Tiers = []Tier{
			{Name: "hot", Nodes: 10, Server: power.R720(), Disk: power.EnterpriseHDD(), ObjectShare: 0.2},
			{Name: "cold", Nodes: 20, Server: power.R720(), Disk: power.ArchiveHDD(), ObjectShare: 0.8},
		}
	}
	c, err := NewCluster(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// coverSink keeps the benchmarked covers live so the calls are not elided.
var coverSink []DiskID

func BenchmarkCoverOnNodeMask(b *testing.B) {
	for _, tiered := range []bool{false, true} {
		b.Run(fmt.Sprintf("tiered=%v", tiered), func(b *testing.B) {
			c := paperCluster(b, tiered)
			mask := allNodes(c)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var ok bool
				if coverSink, ok = c.CoverOnNodeMask(mask); !ok {
					b.Fatal("full fleet must cover")
				}
			}
		})
	}
}

func BenchmarkPartialCoverOnNodeMask(b *testing.B) {
	for _, tiered := range []bool{false, true} {
		b.Run(fmt.Sprintf("tiered=%v", tiered), func(b *testing.B) {
			c := paperCluster(b, tiered)
			// Three crashed nodes (3-5), the failure-storm shape: in the
			// tiered fleet some hot objects lose every replica, and the rest
			// must still be covered.
			mask := make([]bool, len(c.nodes))
			for i := range mask {
				mask[i] = i < 3 || i > 5
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				coverSink, _ = c.PartialCoverOnNodeMask(mask)
			}
		})
	}
}

func TestSpinningCoverageAllocFree(t *testing.T) {
	c := MustNewCluster(DefaultConfig())
	if allocs := testing.AllocsPerRun(100, func() { c.SpinningCoverageOK() }); allocs != 0 {
		t.Fatalf("SpinningCoverageOK allocates %v times per call, want 0", allocs)
	}
}
