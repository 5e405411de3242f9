package serve

import (
	"context"
	"strings"
	"testing"
)

func mustDecode(t *testing.T, src string) *JobSpec {
	t.Helper()
	s, err := DecodeSpec([]byte(src))
	if err != nil {
		t.Fatalf("DecodeSpec(%s): %v", src, err)
	}
	return s
}

func digestOf(t *testing.T, src string) Digest {
	t.Helper()
	_, d, err := mustDecode(t, src).Canonical()
	if err != nil {
		t.Fatalf("Canonical: %v", err)
	}
	return d
}

func TestDecodeSpecInfersKind(t *testing.T) {
	s := mustDecode(t, `{"sweep":{"protocol":"can","berStar":0.01}}`)
	if s.Kind != KindSweep {
		t.Fatalf("inferred kind = %q, want %q", s.Kind, KindSweep)
	}
	if s.Version != SpecVersion {
		t.Fatalf("defaulted version = %d, want %d", s.Version, SpecVersion)
	}
	if s.Sweep.Nodes != 5 || s.Sweep.Frames != 1000 || s.Sweep.Seeds != 1 {
		t.Fatalf("sweep defaults not filled: %+v", s.Sweep)
	}
}

func TestDecodeSpecRejectsUnknownFields(t *testing.T) {
	if _, err := DecodeSpec([]byte(`{"sweep":{"protocol":"can","bogus":1}}`)); err == nil {
		t.Fatal("unknown field accepted; typos would silently change the job digest")
	}
	if _, err := DecodeSpec([]byte(`{"sweep":{"protocol":"can"}} trailing`)); err == nil {
		t.Fatal("trailing data accepted")
	}
}

// Specs whose allocations alone would exhaust memory must be refused as
// errors, never executed: a service journals a job before it runs it, so
// a spec that kills the process would kill it again on every restart.
func TestHostileSpecsFail(t *testing.T) {
	for _, src := range []string{
		`{"sweep":{"protocol":"can","nodes":5,"frames":2000000000}}`,
		`{"sweep":{"protocol":"can","nodes":2000000000}}`,
		`{"sweep":{"protocol":"can","seeds":2000000000}}`,
		`{"verify":{"protocol":"can","maxFlips":2000000000}}`,
		`{"verify":{"protocol":"can","maxFlips":37}}`,
		`{"verify":{"protocol":"can","stations":2000000000}}`,
		`{"verify":{"protocol":"can","positions":2000000000}}`,
		`{"verify":{"protocol":"majorcan_1000000000"}}`,
		`{"verify":{"protocol":"can","positions":-1}}`,
		`{"verify":{"protocol":"can","slotsBudget":-1}}`,
	} {
		spec, err := DecodeSpec([]byte(src))
		if err == nil {
			_, err = Execute(context.Background(), spec, ExecOptions{Parallelism: 1})
		}
		if err == nil {
			t.Errorf("%s: accepted and executed", src)
		}
	}
}

func TestDecodeSpecRejectsAmbiguousPayloads(t *testing.T) {
	_, err := DecodeSpec([]byte(`{"sweep":{"protocol":"can"},"verify":{"protocol":"can"}}`))
	if err == nil || !strings.Contains(err.Error(), "exactly one") {
		t.Fatalf("two payloads accepted (err=%v)", err)
	}
	_, err = DecodeSpec([]byte(`{"kind":"campaign","sweep":{"protocol":"can"}}`))
	if err == nil {
		t.Fatal("kind/payload mismatch accepted")
	}
	_, err = DecodeSpec([]byte(`{"kind":"sweep"}`))
	if err == nil {
		t.Fatal("empty payload accepted")
	}
}

func TestDigestNormalization(t *testing.T) {
	// Spelled-out defaults and omitted defaults are the same job.
	implicit := digestOf(t, `{"sweep":{"protocol":"can","berStar":0.01}}`)
	explicit := digestOf(t, `{"version":1,"kind":"sweep","sweep":{"protocol":"can","nodes":5,"frames":1000,"seeds":1,"seed":0,"berStar":0.01,"eofOnly":false,"resetCounters":false}}`)
	if implicit != explicit {
		t.Fatalf("defaults perturb the digest:\n  implicit %s\n  explicit %s", implicit, explicit)
	}
	// A semantic change is a different job.
	other := digestOf(t, `{"sweep":{"protocol":"can","berStar":0.01,"seed":9}}`)
	if other == implicit {
		t.Fatal("different seeds hash to the same digest")
	}
}

func TestDigestCampaignListCanonicalisation(t *testing.T) {
	a := digestOf(t, `{"campaign":{"protocol":"can","kinds":["mute","crash","mute"],"probes":["liveness","ab"]}}`)
	b := digestOf(t, `{"campaign":{"protocol":"can","kinds":["crash","mute"],"probes":["ab","liveness"]}}`)
	if a != b {
		t.Fatalf("list order/duplicates perturb the digest:\n  a %s\n  b %s", a, b)
	}
}

func TestDigestShort(t *testing.T) {
	d := digestOf(t, `{"sweep":{"protocol":"can"}}`)
	if len(d) != 64 {
		t.Fatalf("digest length %d, want 64 hex digits", len(d))
	}
	if len(d.Short()) != 12 {
		t.Fatalf("Short() length %d, want 12", len(d.Short()))
	}
}

func TestDecodeSpecVerifyAndScriptKinds(t *testing.T) {
	v := mustDecode(t, `{"verify":{"protocol":"majorcan_3","stations":4,"maxFlips":1}}`)
	if v.Kind != KindVerify {
		t.Fatalf("kind = %q, want %q", v.Kind, KindVerify)
	}
	s := mustDecode(t, `{"script":{"protocol":"can","nodes":5,"frames":1}}`)
	if s.Kind != KindScript {
		t.Fatalf("kind = %q, want %q", s.Kind, KindScript)
	}
	if s.Script.Version == 0 {
		t.Fatal("script version not defaulted")
	}
}
