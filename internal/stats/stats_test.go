package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentileInterpolation(t *testing.T) {
	sorted := []float64{1, 2, 3, 4}
	cases := []struct{ p, want float64 }{
		{0, 1},     // boundary: minimum
		{100, 4},   // boundary: maximum
		{-5, 1},    // clamped below
		{150, 4},   // clamped above
		{50, 2.5},  // midpoint interpolates between 2 and 3
		{25, 1.75}, // rank 0.75 between 1 and 2
		{75, 3.25},
		{99, 3.97}, // near-boundary interpolation, not snapped to max
	}
	for _, c := range cases {
		if got := percentileSorted(sorted, c.p); !almostEqual(got, c.want) {
			t.Errorf("percentileSorted(%v, %v) = %v, want %v", sorted, c.p, got, c.want)
		}
	}
	if got := percentileSorted(nil, 50); got != 0 {
		t.Errorf("percentile of the empty sample = %v, want 0", got)
	}
	if got := percentileSorted([]float64{7}, 99); got != 7 {
		t.Errorf("percentile of a singleton = %v, want 7", got)
	}
}

func TestAggregateEmpty(t *testing.T) {
	a := AggregateSamples(nil)
	if a.Count != 0 || a.Mean != 0 || a.CILow != 0 || a.CIHigh != 0 || a.P99 != 0 {
		t.Errorf("empty aggregate should be zero, got %+v", a)
	}
}

func TestAggregateSingleTrial(t *testing.T) {
	a := AggregateSamples([]float64{42})
	if a.Count != 1 || a.Mean != 42 || a.Min != 42 || a.Max != 42 {
		t.Errorf("singleton aggregate wrong: %+v", a)
	}
	if a.StdDev != 0 {
		t.Errorf("singleton stddev = %v, want 0", a.StdDev)
	}
	if a.CILow != 42 || a.CIHigh != 42 || a.CIHalfWidth() != 0 {
		t.Errorf("singleton CI must collapse to the mean: %+v", a)
	}
	if a.P50 != 42 || a.P95 != 42 || a.P99 != 42 {
		t.Errorf("singleton percentiles wrong: %+v", a)
	}
}

func TestAggregateConstantSeries(t *testing.T) {
	a := AggregateSamples([]float64{5, 5, 5, 5, 5, 5})
	if a.StdDev != 0 {
		t.Errorf("constant-series stddev = %v, want 0", a.StdDev)
	}
	if a.CILow != 5 || a.CIHigh != 5 {
		t.Errorf("zero-variance CI must be zero width: [%v, %v]", a.CILow, a.CIHigh)
	}
}

func TestAggregateKnownValues(t *testing.T) {
	// Sample 2,4,4,4,5,5,7,9: mean 5, sample stddev sqrt(32/7).
	a := AggregateSamples([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if a.Count != 8 || !almostEqual(a.Mean, 5) {
		t.Errorf("count/mean wrong: %+v", a)
	}
	wantSD := math.Sqrt(32.0 / 7.0)
	if !almostEqual(a.StdDev, wantSD) {
		t.Errorf("sample stddev = %v, want %v", a.StdDev, wantSD)
	}
	// 95% CI with df = 7: mean ± 2.365·sd/√8.
	half := 2.365 * wantSD / math.Sqrt(8)
	if !almostEqual(a.CIHalfWidth(), half) {
		t.Errorf("CI half-width = %v, want %v", a.CIHalfWidth(), half)
	}
	if !almostEqual(a.P50, 4.5) {
		t.Errorf("p50 = %v, want 4.5", a.P50)
	}
}

// TestSummarizeKnownValues checks the plain summary fields of AggregateSamples
// (count, min, max, mean, stddev, median) on a sample with known values.
func TestSummarizeKnownValues(t *testing.T) {
	a := AggregateSamples([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if a.Count != 8 || a.Min != 2 || a.Max != 9 {
		t.Errorf("count/min/max wrong: %+v", a)
	}
	if !almostEqual(a.Mean, 5) {
		t.Errorf("mean = %v, want 5", a.Mean)
	}
	// Aggregate reports the sample (n-1) deviation, sqrt(32/7), where the
	// population deviation of this sample is 2.
	if !almostEqual(a.StdDev, math.Sqrt(32.0/7.0)) {
		t.Errorf("stddev = %v, want sqrt(32/7)", a.StdDev)
	}
	if !almostEqual(a.P50, 4.5) {
		t.Errorf("median = %v, want 4.5", a.P50)
	}
}

func TestSummarizeOddMedian(t *testing.T) {
	if a := AggregateSamples([]float64{9, 1, 5}); !almostEqual(a.P50, 5) {
		t.Errorf("median = %v, want 5", a.P50)
	}
}

func TestAggregateInts(t *testing.T) {
	a := AggregateInts([]int{1, 2, 3})
	if a.Count != 3 || !almostEqual(a.Mean, 2) || !almostEqual(a.StdDev, 1) {
		t.Errorf("AggregateInts = %+v", a)
	}
}

func TestAggregateString(t *testing.T) {
	str := AggregateSamples([]float64{1, 2, 3}).String()
	for _, want := range []string{"n=3", "mean=2.0", "p50=2.0"} {
		if !strings.Contains(str, want) {
			t.Errorf("aggregate string %q missing %q", str, want)
		}
	}
}

func TestTQuantile975(t *testing.T) {
	cases := []struct {
		df   int
		want float64
	}{
		{1, 12.706}, {2, 4.303}, {7, 2.365}, {30, 2.042},
		{40, 2.021}, {60, 2.000}, {120, 1.980},
	}
	for _, c := range cases {
		if got := TQuantile975(c.df); !almostEqual(got, c.want) {
			t.Errorf("TQuantile975(%d) = %v, want %v", c.df, got, c.want)
		}
	}
	// Between table entries the value interpolates monotonically.
	if got := TQuantile975(50); got <= 2.000 || got >= 2.021 {
		t.Errorf("TQuantile975(50) = %v, want within (2.000, 2.021)", got)
	}
	// Beyond the table the value decays toward the normal limit.
	if got := TQuantile975(1000); got <= 1.960 || got >= 1.980 {
		t.Errorf("TQuantile975(1000) = %v, want within (1.960, 1.980)", got)
	}
	if got := TQuantile975(0); got != 0 {
		t.Errorf("TQuantile975(0) = %v, want 0", got)
	}
}

func TestQuickAggregateBounds(t *testing.T) {
	// The CI always contains the mean, percentiles are ordered and bounded.
	f := func(raw []float64) bool {
		var samples []float64
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e6 {
				samples = append(samples, x)
			}
		}
		if len(samples) == 0 {
			return true
		}
		a := AggregateSamples(samples)
		return a.CILow <= a.Mean+1e-9 && a.Mean <= a.CIHigh+1e-9 &&
			a.Min <= a.P50+1e-9 && a.P50 <= a.P95+1e-9 &&
			a.P95 <= a.P99+1e-9 && a.P99 <= a.Max+1e-9 &&
			a.StdDev >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLinearFitExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{3, 5, 7, 9} // y = 2x + 1
	fit := LinearFit(xs, ys)
	if !almostEqual(fit.Slope, 2) || !almostEqual(fit.Intercept, 1) || !almostEqual(fit.R2, 1) {
		t.Errorf("fit = %+v, want slope 2, intercept 1, R² 1", fit)
	}
}

func TestLinearFitDegenerate(t *testing.T) {
	if fit := LinearFit([]float64{1}, []float64{2}); fit.Slope != 0 || fit.R2 != 0 {
		t.Errorf("a single point cannot be fitted: %+v", fit)
	}
	if fit := LinearFit([]float64{2, 2, 2}, []float64{1, 2, 3}); fit.Slope != 0 {
		t.Errorf("identical x values cannot be fitted: %+v", fit)
	}
	if fit := LinearFit([]float64{1, 2}, []float64{1}); fit.Slope != 0 {
		t.Errorf("mismatched lengths cannot be fitted: %+v", fit)
	}
}

func TestGrowthExponent(t *testing.T) {
	// y = 5·x² gives exponent 2 in log-log space.
	xs := []float64{2, 4, 8, 16}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 5 * x * x
	}
	if got := GrowthExponent(xs, ys); !almostEqual(got, 2) {
		t.Errorf("exponent = %v, want 2", got)
	}
	// Non-positive samples are ignored; too few points give 0.
	if got := GrowthExponent([]float64{0, -1}, []float64{1, 1}); got != 0 {
		t.Errorf("exponent of unusable samples = %v, want 0", got)
	}
}

func TestRatio(t *testing.T) {
	if Ratio(6, 3) != 2 || Ratio(5, 0) != 0 {
		t.Error("Ratio must divide and guard against zero denominators")
	}
}

func TestQuickSummaryBounds(t *testing.T) {
	// Mean and median always lie between min and max; stddev is non-negative.
	f := func(raw []float64) bool {
		var samples []float64
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e6 {
				samples = append(samples, x)
			}
		}
		if len(samples) == 0 {
			return true
		}
		a := AggregateSamples(samples)
		return a.Min <= a.Mean+1e-9 && a.Mean <= a.Max+1e-9 &&
			a.Min <= a.P50+1e-9 && a.P50 <= a.Max+1e-9 &&
			a.StdDev >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickLinearFitRecoversLines(t *testing.T) {
	// Fitting exact lines recovers slope and intercept with R² = 1.
	f := func(slopeRaw, interceptRaw int8) bool {
		slope := float64(slopeRaw) / 4
		intercept := float64(interceptRaw) / 4
		xs := []float64{1, 2, 3, 5, 8}
		ys := make([]float64, len(xs))
		for i, x := range xs {
			ys[i] = slope*x + intercept
		}
		fit := LinearFit(xs, ys)
		return math.Abs(fit.Slope-slope) < 1e-6 && math.Abs(fit.Intercept-intercept) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
