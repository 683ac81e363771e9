package faultinject

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"vessel/internal/sim"
)

func TestPlanCodecRoundTrip(t *testing.T) {
	p := Plan{
		Seed: 42,
		Faults: []Fault{
			{Kind: WildWrite, Target: "a", At: sim.Time(30 * sim.Microsecond)},
			{Kind: CoreStall, Core: 2, At: sim.Time(5 * sim.Microsecond)},
			{Kind: DomainCrash, At: sim.Time(40 * sim.Microsecond)},
			{Kind: PolicyPanic, Delay: 12345},
			{Kind: UintrStorm, Delay: 7 * sim.Microsecond},
			{Kind: PkeyLeak, At: sim.Time(sim.Microsecond)},
		},
		Random:        3,
		RandomKinds:   []Kind{DropUintr, CoreStall, PkeyLeak},
		RandomTargets: []string{"a", "b"},
		RandomCores:   4,
		RandomWindow:  50 * sim.Microsecond,
	}
	data, err := EncodePlan(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodePlan(data)
	if err != nil {
		t.Fatalf("decoding own encoding: %v\n%s", err, data)
	}
	if !reflect.DeepEqual(got, p) {
		t.Fatalf("round trip mutated the plan:\n got %+v\nwant %+v", got, p)
	}
	if !reflect.DeepEqual(got.Expand(), p.Expand()) {
		t.Fatal("decoded plan expands differently")
	}
}

func TestDecodePlanRejects(t *testing.T) {
	cases := []struct {
		name, in, wantErr string
	}{
		{"unknown kind", `{"faults":[{"kind":"meteor"}]}`, "unknown fault kind"},
		{"removed wedgequeue kind", `{"faults":[{"kind":"wedgequeue","target":"rx"}]}`, `unknown fault kind "wedgequeue"`},
		{"removed wedgequeue random kind", `{"random":1,"random_kinds":["wedgequeue"]}`, `unknown fault kind "wedgequeue"`},
		{"unknown field", `{"faults":[{"kind":"wildwrite","frobnicate":1}]}`, "frobnicate"},
		{"negative at", `{"faults":[{"kind":"corestall","at_ns":-1}]}`, "negative"},
		{"negative delay", `{"faults":[{"kind":"uintrstorm","delay_ns":-5}]}`, "negative"},
		{"negative core", `{"faults":[{"kind":"corestall","core":-2}]}`, "negative"},
		{"negative random", `{"random":-1,"random_kinds":["wildwrite"]}`, "negative"},
		{"random without kinds", `{"random":3}`, "no random_kinds"},
		{"random overflow", `{"random":9999999,"random_kinds":["wildwrite"]}`, "exceeds limit"},
		{"trailing data", `{"seed":1} {"seed":2}`, "trailing"},
		{"not json", `hello`, "decoding plan"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodePlan([]byte(tc.in))
			if err == nil {
				t.Fatalf("decoded invalid plan %q", tc.in)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

func TestParseKindCoversAllKinds(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Fatalf("ParseKind(%q) = (%v, %v), want %v", k.String(), got, err, k)
		}
	}
	if _, err := ParseKind("Kind(99)"); err == nil {
		t.Fatal("ParseKind accepted the unknown-kind placeholder")
	}
}

// FuzzPlanDecode holds the decoder's contract under arbitrary input: it
// must never panic, and any plan it accepts must re-encode canonically —
// decode∘encode∘decode is the identity, and Expand on the result is safe
// and deterministic.
func FuzzPlanDecode(f *testing.F) {
	seeds := [][]byte{
		[]byte(`{}`),
		[]byte(`{"seed":7,"faults":[{"kind":"wildwrite","target":"a","at_ns":1000}]}`),
		[]byte(`{"random":2,"random_kinds":["corestall","pkeyleak"],"random_cores":4,"random_window_ns":50000}`),
		[]byte(`{"faults":[{"kind":"domaincrash"},{"kind":"policypanic","delay_ns":500},{"kind":"uintrstorm","delay_ns":20000}]}`),
		[]byte(`{"faults":[{"kind":"meteor"}]}`),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p1, err := DecodePlan(data)
		if err != nil {
			return // rejected input: fine, as long as we did not panic
		}
		enc1, err := EncodePlan(p1)
		if err != nil {
			t.Fatalf("accepted plan failed to encode: %v (%+v)", err, p1)
		}
		p2, err := DecodePlan(enc1)
		if err != nil {
			t.Fatalf("own encoding rejected: %v\n%s", err, enc1)
		}
		if !reflect.DeepEqual(p1, p2) {
			t.Fatalf("decode/encode/decode not identity:\n p1=%+v\n p2=%+v", p1, p2)
		}
		enc2, err := EncodePlan(p2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("encoding not canonical:\n%s\n%s", enc1, enc2)
		}
		s1, s2 := p1.Expand(), p1.Expand()
		if !reflect.DeepEqual(s1, s2) {
			t.Fatal("Expand nondeterministic on decoded plan")
		}
	})
}
