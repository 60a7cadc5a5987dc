package storage

import (
	"repro/internal/units"
)

// SpinningCoverageOK reports whether the cluster's current state covers
// every object: each object with at least one replica has one on a spun-up
// disk of a powered node. It reads the disk and node states directly
// instead of a materialized active set, so per-slot callers allocate
// nothing.
func (c *Cluster) SpinningCoverageOK() bool {
	// Flatten the spin state into a mask (node*DisksPerNode+disk) first:
	// the per-replica test is then one byte load instead of a chase
	// through node and disk pointers. The fixed-size backing stays on the
	// stack for any fleet up to its size.
	perNode := c.cfg.NodeProfile.DisksPerNode
	var buf [2048]bool
	var spinning []bool
	if n := len(c.nodes) * perNode; n <= len(buf) {
		spinning = buf[:n]
	} else {
		spinning = make([]bool, n)
	}
	for _, n := range c.nodes {
		if !n.Powered {
			continue
		}
		for k, d := range n.Disks {
			spinning[n.ID*perNode+k] = d.SpunUp()
		}
	}
	for _, reps := range c.placement {
		covered := len(reps) == 0
		for _, id := range reps {
			if spinning[id.Node*perNode+id.Disk] {
				covered = true
				break
			}
		}
		if !covered {
			return false
		}
	}
	return true
}

// greedyCover runs the classic greedy set-cover heuristic (ln n
// approximation) over the disks of the nodes allowed by the mask (indexed
// by node id; a short mask reads as false for the missing tail):
// repeatedly take the disk covering the most still-uncovered objects, ties
// broken on lowest DiskID for determinism. It returns the cover sorted by
// DiskID and the number of uncoverable objects — those with every replica
// on a disallowed node. Unless partial is set, it gives up with
// (nil, uncoverable>0) at the first such object.
//
// Gains are maintained incrementally: each allowed disk starts at its
// object count (every object on an allowed disk is coverable), and covering
// an object decrements the gain of each of its replica disks. A pick is
// then one pass over the flat gain array (node*DisksPerNode+disk, i.e.
// DiskID order), taking the first maximum — the same disk the textbook
// full rescan picks, so the cover is identical disk for disk.
func (c *Cluster) greedyCover(allowed []bool, partial bool) ([]DiskID, int) {
	ok := func(node int) bool { return node < len(allowed) && allowed[node] }
	uncovered := make([]bool, len(c.placement))
	remaining, uncoverable := 0, 0
	for obj, reps := range c.placement {
		if len(reps) == 0 {
			continue
		}
		has := false
		for _, id := range reps {
			if ok(id.Node) {
				has = true
				break
			}
		}
		if !has {
			uncoverable++
			if !partial {
				return nil, uncoverable
			}
			continue
		}
		uncovered[obj] = true
		remaining++
	}
	perNode := c.cfg.NodeProfile.DisksPerNode
	gain := make([]int32, len(c.nodes)*perNode)
	for _, n := range c.nodes {
		if !ok(n.ID) {
			continue
		}
		for _, d := range n.Disks {
			gain[n.ID*perNode+d.ID.Disk] = int32(len(d.Objects))
		}
	}
	picked, picks := make([]bool, len(gain)), 0
	for remaining > 0 {
		best, bestGain := -1, int32(0)
		for i, g := range gain {
			if g > bestGain {
				best, bestGain = i, g
			}
		}
		if best < 0 {
			// Unreachable for a well-formed placement: every uncovered
			// object has a replica on some allowed disk.
			break
		}
		picked[best] = true
		picks++
		for _, obj := range c.nodes[best/perNode].Disks[best%perNode].Objects {
			if !uncovered[obj] {
				continue
			}
			uncovered[obj] = false
			remaining--
			// Disallowed disks start at 0 and only go negative, so they
			// are never picked and need no mask check here.
			for _, id := range c.placement[obj] {
				gain[id.Node*perNode+id.Disk]--
			}
		}
	}
	// Flat order is DiskID order, so the cover comes out sorted.
	cover := make([]DiskID, 0, picks)
	for i, p := range picked {
		if p {
			cover = append(cover, DiskID{Node: i / perNode, Disk: i % perNode})
		}
	}
	return cover, uncoverable
}

// MinimalCover computes a small set of disks that covers every object,
// considering all nodes regardless of power state (the caller powers the
// hosting nodes as needed).
func (c *Cluster) MinimalCover() []DiskID {
	all := make([]bool, len(c.nodes))
	for i := range all {
		all[i] = true
	}
	cover, _ := c.greedyCover(all, false)
	return cover
}

// CoverOnNodeMask computes a cover restricted to the node set given as a
// mask indexed by node id (a short mask reads as false for the missing
// tail). The second return is false when the node set cannot cover all
// objects (some object has no replica there); policies use this to check
// whether a consolidation plan is compatible with availability.
func (c *Cluster) CoverOnNodeMask(nodes []bool) ([]DiskID, bool) {
	cover, uncoverable := c.greedyCover(nodes, false)
	if uncoverable > 0 {
		return nil, false
	}
	return cover, true
}

// PartialCoverOnNodeMask covers every object that still has a replica on a
// node of the mask and reports how many objects are uncoverable (all
// replicas on disallowed — e.g. failed — nodes). Used by the
// failure-injection path, where full coverage may be temporarily
// impossible.
func (c *Cluster) PartialCoverOnNodeMask(nodes []bool) ([]DiskID, int) {
	return c.greedyCover(nodes, true)
}

// ApplyDiskPlan spins disks up or down so that exactly the disks in keep
// (plus any on powered-off nodes, which stay parked) are spinning on
// powered nodes. It returns the total transition energy charged.
func (c *Cluster) ApplyDiskPlan(keep map[DiskID]bool) units.Energy {
	var e units.Energy
	for _, n := range c.nodes {
		if !n.Powered {
			continue
		}
		for _, d := range n.Disks {
			if keep[d.ID] {
				e += d.SpinUp()
			} else {
				e += d.SpinDown()
			}
		}
	}
	return e
}

// ApplyDiskPlanMask is ApplyDiskPlan with the keep set given as a mask over
// flat disk indices (node*DisksPerNode + disk), the representation the
// simulator's per-slot scratch state uses. The mask must span every disk.
func (c *Cluster) ApplyDiskPlanMask(keep []bool) units.Energy {
	perNode := c.cfg.NodeProfile.DisksPerNode
	var e units.Energy
	for _, n := range c.nodes {
		if !n.Powered {
			continue
		}
		base := n.ID * perNode
		for _, d := range n.Disks {
			if keep[base+d.ID.Disk] {
				e += d.SpinUp()
			} else {
				e += d.SpinDown()
			}
		}
	}
	return e
}
