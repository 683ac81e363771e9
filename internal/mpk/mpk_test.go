package mpk

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestPKRUDefaults(t *testing.T) {
	if !AllowAllValue.CanRead(3) || !AllowAllValue.CanWrite(15) {
		t.Fatal("AllowAll should permit everything")
	}
	for k := PKey(0); k < NumKeys; k++ {
		if AllowNoneValue.CanRead(k) || AllowNoneValue.CanWrite(k) {
			t.Fatalf("AllowNone permits key %d", k)
		}
	}
}

func TestWithAccess(t *testing.T) {
	p := AllowNoneValue
	p = p.WithAccess(5, true, true)
	if !p.CanRead(5) || !p.CanWrite(5) {
		t.Fatal("rw grant failed")
	}
	if p.CanRead(4) || p.CanRead(6) {
		t.Fatal("grant leaked to neighbouring keys")
	}
	p = p.WithAccess(5, true, false)
	if !p.CanRead(5) || p.CanWrite(5) {
		t.Fatal("read-only downgrade failed")
	}
	p = p.WithAccess(5, false, true) // read=false dominates
	if p.CanRead(5) || p.CanWrite(5) {
		t.Fatal("revoke failed")
	}
}

func TestCheckExecAlwaysPasses(t *testing.T) {
	// MPK does not mediate instruction fetch; the paper's shared
	// executable-only text region depends on this.
	for k := PKey(0); k < NumKeys; k++ {
		if !AllowNoneValue.Check(k, AccessExec) {
			t.Fatalf("exec check failed for key %d", k)
		}
	}
	if AllowNoneValue.Check(1, AccessRead) || AllowNoneValue.Check(1, AccessWrite) {
		t.Fatal("AllowNone permitted a data access")
	}
}

func TestPKRUString(t *testing.T) {
	p := AllowNoneValue.WithAccess(0, true, true).WithAccess(1, true, false)
	s := p.String()
	if s[0] != 'W' || s[1] != 'R' || s[2] != '-' {
		t.Fatalf("String() = %q", s)
	}
}

func TestAccessKindString(t *testing.T) {
	if AccessRead.String() != "read" || AccessWrite.String() != "write" || AccessExec.String() != "exec" {
		t.Fatal("AccessKind strings wrong")
	}
	if AccessKind(99).String() == "" {
		t.Fatal("unknown kind should still format")
	}
}

func TestAllocator(t *testing.T) {
	a := NewAllocator()
	if !a.InUse(0) {
		t.Fatal("key 0 must start reserved")
	}
	if a.Available() != 15 {
		t.Fatalf("available = %d, want 15", a.Available())
	}
	seen := map[PKey]bool{}
	for i := 0; i < 15; i++ {
		k, err := a.Alloc()
		if err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
		if k == 0 || seen[k] {
			t.Fatalf("bad key %d", k)
		}
		seen[k] = true
	}
	if _, err := a.Alloc(); err == nil {
		t.Fatal("16th alloc should fail")
	}
	if err := a.Free(5); err != nil {
		t.Fatal(err)
	}
	if k, err := a.Alloc(); err != nil || k != 5 {
		t.Fatalf("realloc got %d, %v", k, err)
	}
	if err := a.Free(0); err == nil {
		t.Fatal("freeing key 0 must fail")
	}
	if err := a.Free(20); err == nil {
		t.Fatal("freeing out-of-range key must fail")
	}
	a2 := NewAllocator()
	if err := a2.Free(3); err == nil {
		t.Fatal("freeing unallocated key must fail")
	}
}

// TestAllocExhaustedIsSentinel checks that a full allocator reports the
// ErrNoKeys sentinel and that the failing path allocates nothing — the
// virtual-key table probes the allocator before every eviction.
func TestAllocExhaustedIsSentinel(t *testing.T) {
	a := NewAllocator()
	for i := 0; i < NumKeys-1; i++ {
		if _, err := a.Alloc(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.Alloc(); !errors.Is(err, ErrNoKeys) {
		t.Fatalf("exhausted Alloc error = %v, want ErrNoKeys", err)
	}
	if n := testing.AllocsPerRun(100, func() { a.Alloc() }); n != 0 {
		t.Fatalf("exhausted Alloc allocates %v times per call, want 0", n)
	}
}

func TestWithAccessRoundTripProperty(t *testing.T) {
	// Property: WithAccess followed by Key returns exactly what was set,
	// and never disturbs other keys.
	f := func(init uint32, kRaw uint8, read, write bool) bool {
		p := PKRU(init)
		k := PKey(kRaw % NumKeys)
		q := p.WithAccess(k, read, write)
		gr, gw := q.Key(k)
		wantR := read
		wantW := read && write
		if gr != wantR || gw != wantW {
			return false
		}
		for other := PKey(0); other < NumKeys; other++ {
			if other == k {
				continue
			}
			or1, ow1 := p.Key(other)
			or2, ow2 := q.Key(other)
			if or1 != or2 || ow1 != ow2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWriteImpliesReadProperty(t *testing.T) {
	// Architectural invariant: a key that is writable is also readable
	// (WD without AD clear is meaningless).
	f := func(raw uint32, kRaw uint8) bool {
		p := PKRU(raw)
		k := PKey(kRaw % NumKeys)
		if p.CanWrite(k) && !p.CanRead(k) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
