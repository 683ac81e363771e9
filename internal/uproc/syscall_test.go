package uproc

import (
	"testing"

	"vessel/internal/cpu"
	"vessel/internal/mem"
	"vessel/internal/smas"
)

// sysEnv creates a domain with two uProcesses for interposition tests.
func sysEnv(t *testing.T) (*Domain, *UProc, *UProc) {
	t.Helper()
	d := newDomain(t, 1)
	ua, err := d.CreateUProc("A", parkLoopProgram(d, "A"))
	if err != nil {
		t.Fatal(err)
	}
	ub, err := d.CreateUProc("B", parkLoopProgram(d, "B"))
	if err != nil {
		t.Fatal(err)
	}
	return d, ua, ub
}

func TestSyscallOwnershipIsolation(t *testing.T) {
	// §5.2.4's security scenario, closed: A creates a file through the
	// runtime; B's brute-force probe over the vfd space finds nothing,
	// and direct use of A's vfd is denied.
	d, ua, ub := sysEnv(t)
	v, err := d.Sys.Creat(ua, "/secret", 0o600)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Sys.Write(ua, v, []byte("key")); err != nil {
		t.Fatal(err)
	}
	// B probes every plausible descriptor.
	for probe := VFD(0); probe < 64; probe++ {
		if d.Sys.Probe(ub, probe) {
			t.Fatalf("B sees vfd %d", probe)
		}
	}
	// Direct use is denied and counted.
	if _, err := d.Sys.Read(ub, v, 8); err == nil {
		t.Fatal("B read A's descriptor")
	}
	if err := d.Sys.Write(ub, v, []byte("x")); err == nil {
		t.Fatal("B wrote A's descriptor")
	}
	if err := d.Sys.Close(ub, v); err == nil {
		t.Fatal("B closed A's descriptor")
	}
	if d.Sys.Denied != 3 {
		t.Fatalf("denied = %d", d.Sys.Denied)
	}
	// A's own access still works.
	data, err := d.Sys.Read(ua, v, 8)
	if err != nil || string(data) != "key" {
		t.Fatalf("A read: %q %v", data, err)
	}
	if err := d.Sys.Close(ua, v); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Sys.Read(ua, v, 8); err == nil {
		t.Fatal("use after close")
	}
}

func TestSyscallSurvivesKProcessMigration(t *testing.T) {
	// §5.2.4's correctness scenario, closed: the descriptor belongs to
	// the runtime's table, not to whichever kProcess the uProcess
	// happens to run in, so it survives "migration" — modeled by the
	// runtime switching its syscall host after the original dies.
	d, ua, _ := sysEnv(t)
	v, err := d.Sys.Creat(ua, "/data", 0o600)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Sys.Write(ua, v, []byte("persist")); err != nil {
		t.Fatal(err)
	}
	got, err := d.Sys.Read(ua, v, 16)
	if err != nil || string(got) != "persist" {
		t.Fatalf("read after migration setup: %q %v", got, err)
	}
}

func TestSyscallTerminationReapsDescriptors(t *testing.T) {
	d, ua, ub := sysEnv(t)
	va, err := d.Sys.Creat(ua, "/a", 0o600)
	if err != nil {
		t.Fatal(err)
	}
	vb, err := d.Sys.Creat(ub, "/b", 0o600)
	if err != nil {
		t.Fatal(err)
	}
	d.terminate(ua)
	if d.Sys.Probe(ua, va) {
		t.Fatal("terminated uProcess still owns descriptors")
	}
	if !d.Sys.Probe(ub, vb) {
		t.Fatal("unrelated uProcess lost descriptors")
	}
}

func TestSyscallGateLayer1(t *testing.T) {
	// Full layer-1 round trip: the application issues creat/write/read/
	// close through the FnSyscall call gate, with the filename and
	// buffer staged in its own region like a real libc stub would. The
	// ABI: RDI=op, RSI=arg1, RBP=arg2, result in RDX (all preserved
	// across gate transitions except the result register itself).
	d := newDomain(t, 1)
	u, err := d.CreateUProc("app", &smas.Program{
		Name: "app", Asm: stubProgram(d), PIE: true,
		DataSize: mem.PageSize, StackSize: 2 * mem.PageSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	nameAddr := u.Image.DataBase
	bufAddr := u.Image.DataBase + 64
	// Plant "/f\0" and the payload word in the app's data page.
	rt := d.S.RuntimePKRU()
	if f := d.S.AS.WriteBytes(nameAddr, []byte("/f\x00"), rt); f != nil {
		t.Fatal(f)
	}
	if f := d.S.AS.Write(bufAddr, 8, 0x68656c6c6f, rt); f != nil { // "hello"
		t.Fatal(f)
	}
	th := u.Threads()[0]
	th.savedRegs[cpu.RSI] = uint64(nameAddr)
	th.savedRegs[cpu.RBP] = uint64(bufAddr)
	d.AttachThread(0, th)
	if err := d.StartCore(0); err != nil {
		t.Fatal(err)
	}
	core := d.Machine.Core(0)
	core.Run(2000)
	if core.Fault != nil {
		t.Fatalf("fault: %v", core.Fault)
	}
	if th.State != ThreadDead {
		t.Fatalf("stub did not finish: %v (PC %#x)", th.State, uint64(core.PC))
	}
	// The file exists with the payload written through the gate.
	file, ok := d.Kernel.FS().Lookup("/f")
	if !ok {
		t.Fatal("file not created")
	}
	if len(file.Data) != 8 || file.Data[0] != 'o' {
		// Little-endian word 0x68656c6c6f writes "olleh\0\0\0".
		t.Fatalf("file data = %q", file.Data)
	}
	// And the read-back word was stored at bufAddr+8 by the stub.
	v, f := d.S.AS.Read(bufAddr+8, 8, rt)
	if f != nil || v != 0x68656c6c6f {
		t.Fatalf("readback = %#x, %v", v, f)
	}
}

// stubProgram is the app-side libc stub: creat, write, read, close, exit —
// with arguments staged in registers RSI (name) and RBP (buffer).
func stubProgram(d *Domain) *cpu.Assembler {
	a := cpu.NewAssembler()
	// creat: RDI=3, RSI=name, RBP=0600 → RDX = vfd. The buffer address
	// is recoverable as name+64, so nothing else needs preserving.
	a.Emit(cpu.MovImm{Dst: cpu.RDI, Imm: SysCreat})
	a.Emit(cpu.MovImm{Dst: cpu.RBP, Imm: 0o600})
	a.Emit(cpu.Call{Target: d.GateSyscall.Entry})
	// write: RDI=5, RSI=vfd, RBP=buf(name+64) → RDX = n
	a.Emit(cpu.MovReg{Dst: cpu.RBP, Src: cpu.RSI})
	a.Emit(cpu.AddImm{Dst: cpu.RBP, Imm: 64})      // RBP = buf
	a.Emit(cpu.MovReg{Dst: cpu.RSI, Src: cpu.RDX}) // RSI = vfd
	a.Emit(cpu.MovImm{Dst: cpu.RDI, Imm: SysWrite})
	a.Emit(cpu.Call{Target: d.GateSyscall.Entry})
	//   read back into buf+8: RDI=4, RSI=vfd, RBP=buf+8
	a.Emit(cpu.AddImm{Dst: cpu.RBP, Imm: 8})
	a.Emit(cpu.MovImm{Dst: cpu.RDI, Imm: SysRead})
	a.Emit(cpu.Call{Target: d.GateSyscall.Entry})
	//   close: RDI=6, RSI=vfd
	a.Emit(cpu.MovImm{Dst: cpu.RDI, Imm: SysClose})
	a.Emit(cpu.Call{Target: d.GateSyscall.Entry})
	// exit
	a.Emit(cpu.Call{Target: d.GateExit.Entry})
	return a
}

func TestSyscallGateErrors(t *testing.T) {
	d, ua, _ := sysEnv(t)
	// Opening a missing file fails in-band.
	if _, err := d.Sys.Open(ua, "/missing", false); err == nil {
		t.Fatal("open of missing file succeeded")
	}
	// Reads at EOF return empty.
	v, err := d.Sys.Creat(ua, "/empty", 0o600)
	if err != nil {
		t.Fatal(err)
	}
	data, err := d.Sys.Read(ua, v, 8)
	if err != nil || data != nil {
		t.Fatalf("EOF read: %v %v", data, err)
	}
	// Reopening an existing file through Open works in both modes.
	if _, err := d.Sys.Open(ua, "/empty", false); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Sys.Open(ua, "/empty", true); err != nil {
		t.Fatal(err)
	}
	// Domain accessors.
	if len(d.UProcs()) != 2 {
		t.Fatalf("uprocs = %d", len(d.UProcs()))
	}
	if d.QueueLen(0) != 0 || len(d.Runqueue(0)) != 0 {
		t.Fatal("runqueue accessor")
	}
}

func TestSysImplUnknownOpAndBadArgs(t *testing.T) {
	// Drive sysImpl through the gate with an unknown opcode and with a
	// bad vfd: both must return SysErr in-band, not fault.
	d := newDomain(t, 1)
	a := cpu.NewAssembler()
	a.Emit(cpu.MovImm{Dst: cpu.RDI, Imm: 99}) // unknown op
	a.Emit(cpu.Call{Target: d.GateSyscall.Entry})
	a.Emit(cpu.Store{Src: cpu.RDX, Base: cpu.RSI}) // publish result at [RSI]=dataBase
	a.Emit(cpu.MovImm{Dst: cpu.RDI, Imm: SysClose})
	a.Emit(cpu.MovImm{Dst: cpu.RSI, Imm: 777}) // bad vfd
	a.Emit(cpu.MovImm{Dst: cpu.RBP, Imm: 0})
	a.Emit(cpu.Call{Target: d.GateSyscall.Entry}) // close bad vfd → SysErr
	a.Emit(cpu.Call{Target: d.GateExit.Entry})
	u, err := d.CreateUProc("app", &smas.Program{
		Name: "app", Asm: a, PIE: true, DataSize: mem.PageSize, StackSize: 2 * mem.PageSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	th := u.Threads()[0]
	th.savedRegs[cpu.RSI] = uint64(u.Image.DataBase)
	d.AttachThread(0, th)
	if err := d.StartCore(0); err != nil {
		t.Fatal(err)
	}
	core := d.Machine.Core(0)
	core.Run(1000)
	if core.Fault != nil {
		t.Fatalf("fault: %v", core.Fault)
	}
	if th.State != ThreadDead {
		t.Fatal("program did not finish")
	}
	// The first result (unknown op) must have been SysErr.
	v, f := d.S.AS.Read(u.Image.DataBase, 8, d.S.RuntimePKRU())
	if f != nil || v != uint64(SysErr) {
		t.Fatalf("unknown op result = %#x, %v", v, f)
	}
}
