package vessel

import (
	"vessel/internal/smas"
	"vessel/internal/uproc"
	ivessel "vessel/internal/vessel"
)

// This file is the mechanism-level public API: boot a simulated machine
// with a shared memory address space, build small programs, launch them as
// uProcesses, and step the cores. Every instruction executes with the
// architectural page-permission ∧ PKRU check; context switches really go
// through the call gate.

type (
	// Manager is VESSEL's control plane over one scheduling domain
	// (§5.1); its methods are documented on internal/vessel.Manager.
	Manager = ivessel.Manager
	// ProgramBuilder assembles small applications against a manager's
	// call gates without exposing the instruction set.
	ProgramBuilder = ivessel.ProgramBuilder
	// UProc is a launched uProcess.
	UProc = uproc.UProc
	// Program is a loadable application image.
	Program = smas.Program
)

// NewManager boots a scheduling domain with the given core count. A nil
// cost model uses DefaultCosts.
func NewManager(cores int, costs *CostModel) (*Manager, error) {
	return ivessel.NewManager(cores, costs)
}

// NewManagerVirtual boots a scheduling domain with libmpk-style
// virtualized protection keys: uProcess density is no longer capped by
// the 13 hardware app keys — virtual keys are multiplexed onto the slots
// with LRU eviction and lazy re-tagging (DESIGN.md §14).
func NewManagerVirtual(cores int, costs *CostModel) (*Manager, error) {
	return ivessel.NewManagerVirtual(cores, costs)
}
