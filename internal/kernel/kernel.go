// Package kernel models the slice of Linux that the paper's systems
// interact with: kernel processes (kProcesses), user↔kernel crossings,
// POSIX-style signals, an in-memory file system with per-process descriptor
// tables and access control (for the §5.2.4 syscall-interposition
// scenarios), the CFS runqueue used by the Linux baseline, and a cgroup CPU
// quota controller (Figure 13b comparator).
//
// The kernel's role in the reproduction is to charge the costs that
// kernel-mediated scheduling pays and uProcess avoids: every operation
// returns the virtual time it consumes, derived from the cost model.
package kernel

import (
	"fmt"

	"vessel/internal/cpu"
	"vessel/internal/mem"
	"vessel/internal/sim"
)

// PID identifies a kProcess.
type PID int

// Signal numbers (the subset the reproduction uses).
type Signal int

// Signals used by the paper's mechanisms: SIGUSR1 drives Caladan's
// preemption path; SIGSEGV is the fault uProcess's runtime intercepts to
// shrink the blast radius (§4.3); SIGKILL/SIGTERM terminate uProcesses.
const (
	SIGUSR1 Signal = 10
	SIGSEGV Signal = 11
	SIGKILL Signal = 9
	SIGTERM Signal = 15
)

func (s Signal) String() string {
	switch s {
	case SIGUSR1:
		return "SIGUSR1"
	case SIGSEGV:
		return "SIGSEGV"
	case SIGKILL:
		return "SIGKILL"
	case SIGTERM:
		return "SIGTERM"
	default:
		return fmt.Sprintf("signal(%d)", int(s))
	}
}

// SignalHandler is a registered userspace handler.
type SignalHandler func(p *KProcess, sig Signal)

// KProcess is a kernel process: address space, descriptor table, scheduling
// attributes, and signal dispositions. uProcesses are hosted by kProcesses
// created by the VESSEL manager (§5.1).
type KProcess struct {
	PID      PID
	AS       *mem.AddressSpace
	Nice     int // -20..19
	UID      int
	handlers map[Signal]SignalHandler
	fds      *FDTable
	Alive    bool
	// ExitSignal records what killed the process, if anything.
	ExitSignal Signal
}

// Kernel is the simulated kernel instance.
type Kernel struct {
	Costs   *cpu.CostModel
	Eng     *sim.Engine
	nextPID PID
	procs   map[PID]*KProcess
	fs      *FS

	// Accounting of time spent inside the kernel, by reason.
	KernelNs map[string]sim.Duration
}

// New creates a kernel over the given engine and cost model.
func New(eng *sim.Engine, costs *cpu.CostModel) *Kernel {
	if costs == nil {
		costs = cpu.Default()
	}
	return &Kernel{
		Costs:    costs,
		Eng:      eng,
		nextPID:  1,
		procs:    make(map[PID]*KProcess),
		fs:       NewFS(),
		KernelNs: make(map[string]sim.Duration),
	}
}

// FS returns the kernel's file system.
func (k *Kernel) FS() *FS { return k.fs }

// charge records kernel time under a reason label and returns it.
func (k *Kernel) charge(reason string, d sim.Duration) sim.Duration {
	k.KernelNs[reason] += d
	return d
}

// Fork creates a kProcess with a fresh address space over the given
// physical memory (the booting-program step of uProcess creation, §5.1).
// The returned duration is the syscall cost.
func (k *Kernel) Fork(phys *mem.Physical, uid, nice int) (*KProcess, sim.Duration) {
	p := &KProcess{
		PID:      k.nextPID,
		AS:       mem.NewAddressSpace(phys),
		Nice:     nice,
		UID:      uid,
		handlers: make(map[Signal]SignalHandler),
		fds:      NewFDTable(),
		Alive:    true,
	}
	k.nextPID++
	k.procs[p.PID] = p
	// fork() is two crossings plus substantial kernel work; the constant
	// is coarse because process creation is off the hot paths measured.
	d := 2*k.Costs.UserKernelCross + 50*sim.Microsecond
	return p, k.charge("fork", d)
}

// Process looks up a kProcess by pid.
func (k *Kernel) Process(pid PID) (*KProcess, bool) {
	p, ok := k.procs[pid]
	return p, ok
}

// RegisterHandler installs a userspace signal handler (sigaction).
func (k *Kernel) RegisterHandler(p *KProcess, sig Signal, h SignalHandler) sim.Duration {
	p.handlers[sig] = h
	return k.charge("sigaction", 2*k.Costs.UserKernelCross)
}

// SendSignal delivers sig to p. The default disposition for SIGSEGV,
// SIGKILL and SIGTERM is termination; a registered handler (other than for
// SIGKILL, which cannot be caught) runs instead. The returned duration is
// the full kernel delivery cost — trap in, frame setup, handler dispatch.
func (k *Kernel) SendSignal(p *KProcess, sig Signal) sim.Duration {
	d := 2*k.Costs.UserKernelCross + k.Costs.SignalDeliver
	k.charge("signal:"+sig.String(), d)
	if !p.Alive {
		return d
	}
	if h, ok := p.handlers[sig]; ok && sig != SIGKILL {
		h(p, sig)
		return d
	}
	switch sig {
	case SIGSEGV, SIGKILL, SIGTERM:
		p.Alive = false
		p.ExitSignal = sig
	}
	return d
}

// Syscall charges a generic syscall round trip plus the given service time.
func (k *Kernel) Syscall(name string, service sim.Duration) sim.Duration {
	return k.charge("sys:"+name, 2*k.Costs.UserKernelCross+service)
}

// Kill terminates a process.
func (k *Kernel) Kill(p *KProcess, sig Signal) sim.Duration {
	return k.SendSignal(p, sig)
}
