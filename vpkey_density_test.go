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
	c, err := NewDenseCluster(1, 2, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	const n = 110
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("dense-%03d", i)
		if _, err := c.Launch(name, buildParkLoop, i%2); err != nil {
			t.Fatalf("launch %s: %v", name, err)
		}
		if d, ok := c.DomainOf(name); !ok || d != 0 {
			t.Fatalf("%s placed in domain %d, want the single domain 0", name, d)
		}
	}
	for core := 0; core < 2; core++ {
		if err := c.Start(core); err != nil {
			t.Fatal(err)
		}
		c.Step(core, 120_000)
	}
	m := c.Manager(0)
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
		t.Fatal("dense cluster did not virtualize keys")
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
	// Churn: destroy a third, relaunch, oracles still hold.
	for i := 0; i < n; i += 3 {
		if err := c.Destroy(fmt.Sprintf("dense-%03d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if _, err := c.Launch(fmt.Sprintf("refill-%02d", i), buildParkLoop, i%2); err != nil {
			t.Fatalf("relaunch %d: %v", i, err)
		}
	}
	for core := 0; core < 2; core++ {
		c.Step(core, 20_000)
	}
	if vs := conformance.CheckVPkeyLifecycle("dense-cluster", m.Domain.S); len(vs) != 0 {
		t.Fatalf("lifecycle oracles flagged after churn:\n%v", vs)
	}
}
