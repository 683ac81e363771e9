package mem

import (
	"testing"
	"testing/quick"

	"vessel/internal/mpk"
)

func newAS(t *testing.T) *AddressSpace {
	t.Helper()
	return NewAddressSpace(NewPhysical())
}

func TestMapReadWrite(t *testing.T) {
	as := newAS(t)
	if err := as.MapRange(0x1000, 2*PageSize, PermRW, 1); err != nil {
		t.Fatal(err)
	}
	pkru := mpk.AllowAllValue
	if f := as.Write(0x1008, 8, 0xdeadbeefcafe, pkru); f != nil {
		t.Fatal(f)
	}
	v, f := as.Read(0x1008, 8, pkru)
	if f != nil {
		t.Fatal(f)
	}
	if v != 0xdeadbeefcafe {
		t.Fatalf("read %#x", v)
	}
	// Second page independently writable.
	if f := as.Write(0x2000, 4, 0x1234, pkru); f != nil {
		t.Fatal(f)
	}
}

func TestUnmappedFault(t *testing.T) {
	as := newAS(t)
	_, f := as.Read(0x5000, 8, mpk.AllowAllValue)
	if f == nil || f.Kind != FaultNotMapped {
		t.Fatalf("fault = %v", f)
	}
	if f.Error() == "" {
		t.Fatal("fault must format")
	}
}

func TestPagePermFault(t *testing.T) {
	as := newAS(t)
	if err := as.MapRange(0x1000, PageSize, PermRead, 0); err != nil {
		t.Fatal(err)
	}
	if f := as.Write(0x1000, 8, 1, mpk.AllowAllValue); f == nil || f.Kind != FaultPerm {
		t.Fatalf("write to read-only page: fault=%v", f)
	}
	// Exec-only text: reads must fault even with a permissive PKRU.
	if err := as.MapRange(0x2000, PageSize, PermXOnly, 0); err != nil {
		t.Fatal(err)
	}
	if _, f := as.Read(0x2000, 8, mpk.AllowAllValue); f == nil || f.Kind != FaultPerm {
		t.Fatalf("read of exec-only page: fault=%v", f)
	}
	if _, f := as.Check(0x2000, mpk.AccessExec, mpk.AllowNoneValue); f != nil {
		t.Fatalf("exec of exec-only page must pass regardless of PKRU: %v", f)
	}
}

func TestPKUFault(t *testing.T) {
	as := newAS(t)
	if err := as.MapRange(0x1000, PageSize, PermRW, 3); err != nil {
		t.Fatal(err)
	}
	denied := mpk.AllowNoneValue
	if _, f := as.Read(0x1000, 8, denied); f == nil || f.Kind != FaultPKU {
		t.Fatalf("PKU read: fault=%v", f)
	}
	readOnly := mpk.AllowNoneValue.WithAccess(3, true, false)
	if _, f := as.Read(0x1000, 8, readOnly); f != nil {
		t.Fatalf("read with RO key: %v", f)
	}
	if f := as.Write(0x1000, 8, 1, readOnly); f == nil || f.Kind != FaultPKU {
		t.Fatalf("write with RO key: fault=%v", f)
	}
}

func TestBothChecksApply(t *testing.T) {
	// Paper §4.1: page permissions AND MPK are both checked. An
	// exec-only page with the uProcess's own key must still refuse
	// data reads.
	as := newAS(t)
	if err := as.MapRange(0x3000, PageSize, PermXOnly, 2); err != nil {
		t.Fatal(err)
	}
	ownKey := mpk.AllowNoneValue.WithAccess(2, true, true)
	if _, f := as.Read(0x3000, 8, ownKey); f == nil {
		t.Fatal("data read of own exec-only text must fault")
	}
}

func TestProtectAndSetPKey(t *testing.T) {
	as := newAS(t)
	if err := as.MapRange(0x1000, 4*PageSize, PermRW, 1); err != nil {
		t.Fatal(err)
	}
	if err := as.Protect(0x2000, 2*PageSize, PermRead); err != nil {
		t.Fatal(err)
	}
	pkru := mpk.AllowAllValue
	if f := as.Write(0x1000, 8, 1, pkru); f != nil {
		t.Fatal("page 1 should stay writable")
	}
	if f := as.Write(0x2000, 8, 1, pkru); f == nil {
		t.Fatal("page 2 should be read-only now")
	}
	if err := as.SetPKey(0x1000, PageSize, 7); err != nil {
		t.Fatal(err)
	}
	pte, ok := as.Lookup(0x1000)
	if !ok || pte.PKey != 7 {
		t.Fatalf("pkey = %v", pte.PKey)
	}
	if err := as.Protect(0x9000, PageSize, PermRead); err == nil {
		t.Fatal("protect of unmapped range must fail")
	}
	if err := as.SetPKey(0x9000, PageSize, 1); err == nil {
		t.Fatal("SetPKey of unmapped range must fail")
	}
}

func TestShareRange(t *testing.T) {
	phys := NewPhysical()
	manager := NewAddressSpace(phys)
	if err := manager.MapRange(0x10000, 2*PageSize, PermRW, 4); err != nil {
		t.Fatal(err)
	}
	if f := manager.Write(0x10010, 8, 42, mpk.AllowAllValue); f != nil {
		t.Fatal(f)
	}
	kproc := NewAddressSpace(phys)
	if err := kproc.ShareRange(manager, 0x10000, 2*PageSize); err != nil {
		t.Fatal(err)
	}
	v, f := kproc.Read(0x10010, 8, mpk.AllowAllValue)
	if f != nil || v != 42 {
		t.Fatalf("shared read: v=%d f=%v", v, f)
	}
	// Writes through one mapping are visible through the other.
	if f := kproc.Write(0x10010, 8, 99, mpk.AllowAllValue); f != nil {
		t.Fatal(f)
	}
	if v, _ := manager.Read(0x10010, 8, mpk.AllowAllValue); v != 99 {
		t.Fatalf("write not shared: %d", v)
	}
	// PTEs are copied by value: re-keying or unmapping the source leaves
	// the shared mapping's tags alone.
	if err := manager.SetPKey(0x10000, 2*PageSize, 5); err != nil {
		t.Fatal(err)
	}
	manager.Unmap(0x10000, PageSize)
	for _, a := range []Addr{0x10000, 0x11000} {
		if pte, ok := kproc.Lookup(a); !ok || pte.PKey != 4 {
			t.Fatalf("shared page %#x: %+v, %v; want key 4", uint64(a), pte, ok)
		}
	}
	if err := kproc.ShareRange(manager, 0x50000, PageSize); err == nil {
		t.Fatal("sharing unmapped source must fail")
	}
}

func TestUnmap(t *testing.T) {
	as := newAS(t)
	if err := as.MapRange(0x1000, 2*PageSize, PermRW, 0); err != nil {
		t.Fatal(err)
	}
	as.Unmap(0x1000, PageSize)
	if as.Mapped(0x1000) {
		t.Fatal("page still mapped")
	}
	if !as.Mapped(0x2000) {
		t.Fatal("wrong page unmapped")
	}
}

func TestReadWriteBytes(t *testing.T) {
	as := newAS(t)
	if err := as.MapRange(0x1000, 2*PageSize, PermRW, 0); err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 5000) // crosses a page boundary
	for i := range data {
		data[i] = byte(i)
	}
	if f := as.WriteBytes(0x1000, data, mpk.AllowAllValue); f != nil {
		t.Fatal(f)
	}
	got, f := as.ReadBytes(0x1000, len(data), mpk.AllowAllValue)
	if f != nil {
		t.Fatal(f)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("byte %d: %d != %d", i, got[i], data[i])
		}
	}
}

func TestCrossPageWordAccessRejected(t *testing.T) {
	as := newAS(t)
	if err := as.MapRange(0x1000, 2*PageSize, PermRW, 0); err != nil {
		t.Fatal(err)
	}
	if _, f := as.Read(0x1FFC, 8, mpk.AllowAllValue); f == nil {
		t.Fatal("cross-page word read should fault")
	}
	if f := as.Write(0x1FFC, 8, 1, mpk.AllowAllValue); f == nil {
		t.Fatal("cross-page word write should fault")
	}
	if _, f := as.Read(0x1000, 0, mpk.AllowAllValue); f == nil {
		t.Fatal("zero-size read should fault")
	}
}

func TestMapValidation(t *testing.T) {
	as := newAS(t)
	if err := as.Map(0x1001, as.phys.AllocFrame(), PermRW, 0); err == nil {
		t.Fatal("unaligned map must fail")
	}
	if err := as.Map(0x1000, nil, PermRW, 0); err == nil {
		t.Fatal("nil frame must fail")
	}
	if err := as.MapRange(0x1001, PageSize, PermRW, 0); err == nil {
		t.Fatal("unaligned MapRange must fail")
	}
}

func TestPermString(t *testing.T) {
	if PermRW.String() != "rw-" || PermXOnly.String() != "--x" || PermNone.String() != "---" {
		t.Fatalf("perm strings: %s %s %s", PermRW, PermXOnly, PermNone)
	}
}

func TestFaultKindString(t *testing.T) {
	for _, k := range []FaultKind{FaultNotMapped, FaultPerm, FaultPKU, FaultKind(9)} {
		if k.String() == "" {
			t.Fatal("empty fault kind string")
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	// Property: any word written is read back identically under a
	// permissive PKRU, for any in-page offset and size.
	as := newAS(t)
	if err := as.MapRange(0, 16*PageSize, PermRW, 1); err != nil {
		t.Fatal(err)
	}
	f := func(page uint8, off uint16, sizeRaw uint8, val uint64) bool {
		size := int(sizeRaw%8) + 1
		o := uint64(off) % (PageSize - uint64(size))
		a := Addr(uint64(page%16)*PageSize + o)
		want := val
		if size < 8 {
			want &= (1 << (8 * size)) - 1
		}
		if fl := as.Write(a, size, val, mpk.AllowAllValue); fl != nil {
			return false
		}
		got, fl := as.Read(a, size, mpk.AllowAllValue)
		return fl == nil && got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIsolationProperty(t *testing.T) {
	// Property: with PKRU granting only key A, no access to a key-B page
	// ever succeeds (the uProcess isolation invariant of §4.1).
	as := newAS(t)
	if err := as.MapRange(0x0000, PageSize, PermRW, 1); err != nil {
		t.Fatal(err)
	}
	if err := as.MapRange(0x1000, PageSize, PermRW, 2); err != nil {
		t.Fatal(err)
	}
	onlyA := mpk.AllowNoneValue.WithAccess(1, true, true)
	f := func(off uint16, write bool, val uint64) bool {
		a := Addr(0x1000 + uint64(off)%(PageSize-8))
		if write {
			return as.Write(a, 8, val, onlyA) != nil
		}
		_, fl := as.Read(a, 8, onlyA)
		return fl != nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestGenerationSkipsSetPKey checks which mutations bump the generation:
// every mapping change does, since it can change a page's frame or
// permissions or drop its PTE, while SetPKey does not — a TLB reads the
// key through the PTE it cached, and no fetch consults the key, so a
// re-tag leaves every cache tagged on the generation warm.
func TestGenerationSkipsSetPKey(t *testing.T) {
	phys := NewPhysical()
	as := NewAddressSpace(phys)
	src := NewAddressSpace(phys)
	if err := src.MapRange(0x3000, PageSize, PermRW, 0); err != nil {
		t.Fatal(err)
	}
	mutators := []struct {
		name string
		do   func() error
		bump bool
	}{
		{"Map", func() error { return as.Map(0x1000, phys.AllocFrame(), PermRX, 0) }, true},
		{"MapRange", func() error { return as.MapRange(0x2000, PageSize, PermRW, 0) }, true},
		{"SetPKey", func() error { return as.SetPKey(0x2000, PageSize, 5) }, false},
		{"Protect", func() error { return as.Protect(0x2000, PageSize, PermRead) }, true},
		{"ShareRange", func() error { return as.ShareRange(src, 0x3000, PageSize) }, true},
		{"Unmap", func() error { as.Unmap(0x2000, PageSize); return nil }, true},
	}
	for _, m := range mutators {
		gen := as.Generation()
		if err := m.do(); err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		if bumped := as.Generation() != gen; bumped != m.bump {
			t.Errorf("%s bumped the generation = %v, want %v", m.name, bumped, m.bump)
		}
	}
}
