package vessel

import (
	"fmt"
	"testing"

	conformance "vessel/internal/conformance"
)

// TestDenseClusterHundredUProcessesOneDomain is the density acceptance
// demo: with virtualized protection keys a single scheduling domain
// hosts well over a hundred uProcesses — an order of magnitude past the
// architectural 13-key budget — with every isolation oracle holding.
func TestDenseClusterHundredUProcessesOneDomain(t *testing.T) {
	m, err := NewManagerVirtual(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	launch := func(name string, core int) {
		t.Helper()
		prog, err := buildParkLoop(m)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Launch(name, prog, core); err != nil {
			t.Fatalf("launch %s: %v", name, err)
		}
	}
	const n = 110
	for i := 0; i < n; i++ {
		launch(fmt.Sprintf("dense-%03d", i), i%2)
	}
	for core := 0; core < 2; core++ {
		if err := m.Start(core); err != nil {
			t.Fatal(err)
		}
		m.Step(core, 120_000)
	}
	// Every uProcess made progress: parks only happen after a full
	// gate crossing through the uProcess's own (virtual) key.
	for core := 0; core < 2; core++ {
		parks, _ := m.Stats(core)
		if parks < n/2 {
			t.Fatalf("core %d parks = %d, want ≥ %d", core, parks, n/2)
		}
	}
	vt := m.VPkey()
	if vt == nil {
		t.Fatal("dense domain did not virtualize keys")
	}
	if vt.Live() != n {
		t.Fatalf("live virtual keys = %d, want %d", vt.Live(), n)
	}
	if vt.Evictions == 0 || vt.Refills == 0 {
		t.Fatalf("density without eviction pressure: evictions=%d refills=%d",
			vt.Evictions, vt.Refills)
	}
	if vs := conformance.CheckVPkeyLifecycle("dense-cluster", m.Domain.S); len(vs) != 0 {
		t.Fatalf("lifecycle oracles flagged:\n%v", vs)
	}
	// Churn: destroy a third (each kill drained and its region reaped),
	// relaunch, oracles still hold.
	for i := 0; i < n; i += 3 {
		if err := m.Destroy(fmt.Sprintf("dense-%03d", i)); err != nil {
			t.Fatal(err)
		}
		if _, err := m.DrainZombies(0); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Reap(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		launch(fmt.Sprintf("refill-%02d", i), i%2)
	}
	for core := 0; core < 2; core++ {
		m.Step(core, 20_000)
	}
	if want := n - (n+2)/3 + 10; vt.Live() != want {
		t.Fatalf("live virtual keys after churn = %d, want %d", vt.Live(), want)
	}
	if vs := conformance.CheckVPkeyLifecycle("dense-cluster", m.Domain.S); len(vs) != 0 {
		t.Fatalf("lifecycle oracles flagged after churn:\n%v", vs)
	}
}
