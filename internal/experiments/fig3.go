package experiments

import (
	"fmt"

	"vessel/internal/cpu"
	"vessel/internal/sim"
)

// Fig3Phase is one phase of Caladan's core-reallocation timeline.
type Fig3Phase struct {
	Name     string
	Duration sim.Duration
}

// Fig3 reproduces Figure 3: the timeline of a Caladan core reallocation —
// the kernel-mediated path whose total the paper measures at 5.3 µs, versus
// VESSEL's pure-userspace switch.
type Fig3 struct {
	Phases []Fig3Phase
	Total  sim.Duration
	// VesselPreempt is the corresponding uProcess path (Uintr → gate →
	// switch) for contrast.
	VesselPreempt sim.Duration
}

// Figure3 derives the timeline from the cost model (the phases sum to
// CostModel.CaladanReallocTotal, which the Caladan simulator charges on
// every core reallocation).
func Figure3() Fig3 {
	cm := cpu.Default()
	phases := []Fig3Phase{
		{"scheduler: ioctl syscall", cm.CaladanIoctl},
		{"IPI delivery to victim core", cm.CaladanIPI},
		{"victim: kernel trap + SIGUSR to runtime", cm.CaladanTrapSig},
		{"runtime: save current task state", cm.CaladanUserSave},
		{"kernel: switch structures + page table", cm.CaladanKernSwap},
		{"restore to new application task", cm.CaladanRestore},
	}
	var total sim.Duration
	for _, p := range phases {
		total += p.Duration
	}
	return Fig3{
		Phases:        phases,
		Total:         total,
		VesselPreempt: cm.UintrDeliver + cm.VesselPreemptSwitch,
	}
}

// String renders the timeline.
func (f Fig3) String() string {
	rows := make([][]string, 0, len(f.Phases))
	var cum sim.Duration
	for _, p := range f.Phases {
		start := cum
		cum += p.Duration
		rows = append(rows, []string{
			p.Name,
			fmt.Sprintf("%v", p.Duration),
			fmt.Sprintf("%v → %v", start, cum),
		})
	}
	s := table("Figure 3 — Caladan core-reallocation timeline", []string{"phase", "cost", "interval"}, rows)
	s += fmt.Sprintf("total: %v (paper: 5.3µs average)\n", f.Total)
	s += fmt.Sprintf("VESSEL preemption path for contrast: %v (Uintr delivery + gate switch)\n", f.VesselPreempt)
	return s
}
