package serve

import (
	"bytes"
	"os"
	"testing"

	"repro/internal/experiments"
	"repro/internal/rng"
)

const geantCkpt = "../../examples/gate/geant-quick.ckpt"

// TestBuildFromCheckpointMatchesLoadSetup shows that the daemon's
// traffic-free load builds the same target as the full LoadSetup the CLI
// uses: same shape and box, and bitwise the same pipeline value and true
// ratio on random points, white-box and gray-box.
func TestBuildFromCheckpointMatchesLoadSetup(t *testing.T) {
	ckpt, err := os.ReadFile(geantCkpt)
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range []Scenario{{}, {Opaque: true}} {
		got, _, err := BuildFromCheckpoint(&JobSpec{Checkpoint: ckpt, Scenario: sc})
		if err != nil {
			t.Fatal(err)
		}
		st, err := experiments.LoadSetup(bytes.NewReader(ckpt))
		if err != nil {
			t.Fatal(err)
		}
		want := st.Target
		if sc.Opaque {
			want.Pipeline = st.Model.OpaqueRoutingPipeline().Grayboxed(1e-4)
		}
		if got.InputDim != want.InputDim || got.DemandStart != want.DemandStart ||
			got.DemandLen != want.DemandLen || got.MaxDemand != want.MaxDemand {
			t.Fatalf("opaque=%v: target shape differs: got %d/%d/%d/%v, LoadSetup %d/%d/%d/%v", sc.Opaque,
				got.InputDim, got.DemandStart, got.DemandLen, got.MaxDemand,
				want.InputDim, want.DemandStart, want.DemandLen, want.MaxDemand)
		}
		r := rng.New(11)
		x := make([]float64, got.InputDim)
		for trial := 0; trial < 4; trial++ {
			for i := range x {
				x[i] = r.Uniform(0, got.MaxDemand)
			}
			if a, b := got.Pipeline.EvalScalar(x), want.Pipeline.EvalScalar(x); a != b {
				t.Fatalf("opaque=%v trial %d: pipeline %v, LoadSetup's %v", sc.Opaque, trial, a, b)
			}
			if trial > 0 {
				continue // one LP-backed ratio per scenario is enough
			}
			ra, _, _, err := got.Ratio(x)
			if err != nil {
				t.Fatal(err)
			}
			rb, _, _, err := want.Ratio(x)
			if err != nil {
				t.Fatal(err)
			}
			if ra != rb {
				t.Fatalf("opaque=%v: ratio %v, LoadSetup's %v", sc.Opaque, ra, rb)
			}
		}
	}
}

// BenchmarkBuildFromCheckpointGeant is the load part of one daemon job on
// the checked-in GÉANT gate checkpoint (gray-box, as the gate runs it):
// read and decode the checkpoint, rebuild the K=4 path set and the model,
// and wrap the target.
func BenchmarkBuildFromCheckpointGeant(b *testing.B) {
	spec := &JobSpec{CheckpointPath: geantCkpt, Scenario: Scenario{Opaque: true}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := BuildFromCheckpoint(spec); err != nil {
			b.Fatal(err)
		}
	}
}
