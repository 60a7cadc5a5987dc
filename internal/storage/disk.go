// Package storage models the massive storage substrate GreenMatch schedules
// against: nodes full of disks, data objects replicated across disks, a
// replica-coverage constraint that limits how many disks may be spun down,
// and a Zipf read-traffic model that charges spin-up penalties when cold
// data is touched.
package storage

import (
	"fmt"

	"repro/internal/power"
	"repro/internal/units"
)

// DiskID identifies a disk globally as (node, slot-in-node).
type DiskID struct {
	Node int
	Disk int
}

// String renders the id as n<node>/d<disk>.
func (id DiskID) String() string { return fmt.Sprintf("n%d/d%d", id.Node, id.Disk) }

// DiskStats accumulates per-disk activity over a run.
type DiskStats struct {
	// SpinUps and SpinDowns count completed transitions.
	SpinUps   int
	SpinDowns int
	// TransitionEnergy is the energy spent in spin transients.
	TransitionEnergy units.Energy
	// Reads counts read operations served.
	Reads int
	// ColdReads counts reads that had to wake a standby disk.
	ColdReads int
}

// Disk is one spindle: a power-state machine plus placement membership.
// Its mutable state is mirrored by the cluster-level snapshot (DiskSnap
// inside ClusterState).
//
//gm:statemirror Cluster.State Cluster.RestoreState
type Disk struct {
	// ID locates the disk in the cluster.
	ID DiskID //gm:ephemeral identity, fixed by Config topology
	// Profile is the power model.
	Profile power.DiskProfile //gm:ephemeral configuration, not state
	// State is the current power state. Transitions are slot-granular:
	// spin transients are much shorter than a slot, so the simulator
	// charges their energy at the transition and holds the steady state
	// for the rest of the slot.
	State power.DiskState
	// Objects is the sorted list of object ids with a replica here.
	Objects []int //gm:ephemeral placement, a pure function of Config
	// Stats accumulates activity.
	Stats DiskStats
	// busy marks the disk as having served I/O in the current slot; the
	// cluster sets it in MarkBusy, uses it to decide Active vs Idle draw,
	// and clears it in ResetSlot.
	busy bool //gm:ephemeral per-slot scratch, always clear at slot boundaries
}

// SpunUp reports whether the disk platters are spinning (can serve I/O
// without a wake-up).
func (d *Disk) SpunUp() bool {
	return d.State == power.DiskActive || d.State == power.DiskIdle
}

// SpinDown parks the disk. It is a no-op if already in standby. The
// transition energy is charged to the disk's stats and returned so the
// caller can attribute it to the slot's overhead.
func (d *Disk) SpinDown() units.Energy {
	if d.State == power.DiskStandby {
		return 0
	}
	d.State = power.DiskStandby
	d.Stats.SpinDowns++
	e := d.Profile.SpinDownEnergy()
	d.Stats.TransitionEnergy += e
	return e
}

// SpinUp wakes the disk into the idle state. It is a no-op if already
// spinning. The transition energy is charged and returned.
func (d *Disk) SpinUp() units.Energy {
	if d.SpunUp() {
		return 0
	}
	d.State = power.DiskIdle
	d.Stats.SpinUps++
	e := d.Profile.SpinUpEnergy()
	d.Stats.TransitionEnergy += e
	return e
}

// SlotDraw returns the steady-state power draw for the current slot, given
// whether the disk served I/O. It reads the profile's fields in place
// rather than through DiskProfile.Draw, which copies the profile and does
// not inline.
func (d *Disk) SlotDraw() units.Power {
	if !d.SpunUp() {
		return d.Profile.StandbyW
	}
	if d.busy {
		return d.Profile.ActiveW
	}
	return d.Profile.IdleW
}
