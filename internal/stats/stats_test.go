package stats

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestSummarizeKnown(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 {
		t.Fatalf("summary wrong: %+v", s)
	}
	if s.P50 != 3 {
		t.Fatalf("p50 = %v, want 3", s.P50)
	}
	if math.Abs(s.StdDev-math.Sqrt(2)) > 1e-12 {
		t.Fatalf("sd = %v, want sqrt(2)", s.StdDev)
	}
}

// TestSummarizeLargeMean is the regression test for the catastrophic
// cancellation in the old sumSq/n − mean² variance: on 1e9 + {0,1,2} that
// formula computes a non-positive variance in float64 (the squares agree in
// their leading ~18 digits and the true variance lives below the ulp), which
// the old guard silently rounded to StdDev = 0. Welford must recover the
// exact population variance 2/3.
func TestSummarizeLargeMean(t *testing.T) {
	xs := []float64{1e9, 1e9 + 1, 1e9 + 2}

	// The old formula, verbatim, to prove the sample actually triggers the
	// bug this test guards against.
	sum, sumSq := 0.0, 0.0
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	mean := sum / float64(len(xs))
	if naive := sumSq/float64(len(xs)) - mean*mean; naive > 0 {
		t.Fatalf("naive variance = %g; sample no longer triggers cancellation, pick a harder one", naive)
	}

	s := Summarize(xs)
	want := math.Sqrt(2.0 / 3.0)
	if math.Abs(s.StdDev-want) > 1e-9 {
		t.Fatalf("StdDev = %g, want %g (Welford)", s.StdDev, want)
	}
	if s.Mean != mean {
		t.Fatalf("Mean = %g, want %g", s.Mean, mean)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.String() != "n=0" {
		t.Fatalf("empty summary: %+v", s)
	}
}

func TestPercentileEdges(t *testing.T) {
	sorted := []float64{10, 20, 30, 40}
	if Percentile(sorted, 0) != 10 || Percentile(sorted, 1) != 40 {
		t.Fatal("edge percentiles wrong")
	}
	if Percentile(sorted, 0.5) != 20 {
		t.Fatalf("p50 = %v, want 20 (nearest rank)", Percentile(sorted, 0.5))
	}
	if Percentile(sorted, 0.75) != 30 {
		t.Fatal("p75 wrong")
	}
}

// TestPercentileEmpty pins the empty-sample contract: NaN, never a panic.
// An all-faulted restart set reaches the report layers with zero samples,
// and a crash there used to take the whole report down with it.
func TestPercentileEmpty(t *testing.T) {
	for _, p := range []float64{0, 0.5, 0.95, 1} {
		if v := Percentile(nil, p); !math.IsNaN(v) {
			t.Fatalf("Percentile(nil, %v) = %v, want NaN", p, v)
		}
		if v := Percentile([]float64{}, p); !math.IsNaN(v) {
			t.Fatalf("Percentile([], %v) = %v, want NaN", p, v)
		}
	}
}

func TestPercentilePropertyMonotone(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.Intn(50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64()
		}
		s := Summarize(xs)
		return s.Min <= s.P50 && s.P50 <= s.P95 && s.P95 <= s.P99 && s.P99 <= s.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
