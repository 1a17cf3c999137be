// Package stats provides the small statistical helpers the benchmark harness
// and the experiment reports rely on: aggregates of samples (min / mean / max
// / percentiles / confidence interval) and least-squares fits used to check
// the growth shape of measured costs against the paper's asymptotic bounds.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// percentileSorted returns the p-th percentile (0 ≤ p ≤ 100) of an
// ascending-sorted sample using linear interpolation between closest ranks
// (the R-7 method used by numpy and spreadsheets): rank = p/100·(n-1),
// interpolated between the two surrounding order statistics. p ≤ 0 returns
// the minimum, p ≥ 100 the maximum, and an empty sample returns 0.
func percentileSorted(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if p <= 0 || n == 1 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	frac := rank - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// Aggregate is the statistics record of a sample: its moments, tail
// percentiles and a two-sided 95% confidence interval of the mean. StdDev is
// the sample (n-1) standard deviation, the one the CI is built from.
type Aggregate struct {
	// Count is the number of samples.
	Count int `json:"count"`
	// Min, Max and Mean summarise the sample.
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	Mean float64 `json:"mean"`
	// StdDev is the sample (n-1) standard deviation; 0 for fewer than two
	// samples.
	StdDev float64 `json:"stddev"`
	// P50, P95 and P99 are linearly interpolated percentiles.
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
	// CILow and CIHigh bound the two-sided Student-t 95% confidence interval
	// of the mean. For fewer than two samples the interval collapses to
	// [Mean, Mean]; callers that stop sampling on CI width must therefore
	// enforce their own minimum sample count.
	CILow  float64 `json:"ci_low"`
	CIHigh float64 `json:"ci_high"`
}

// AggregateSamples computes the Aggregate of the samples. It returns a zero
// Aggregate for an empty sample and does not modify the input.
func AggregateSamples(samples []float64) Aggregate {
	if len(samples) == 0 {
		return Aggregate{}
	}
	n := len(samples)
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	a := Aggregate{
		Count: n,
		Min:   sorted[0],
		Max:   sorted[n-1],
		P50:   percentileSorted(sorted, 50),
		P95:   percentileSorted(sorted, 95),
		P99:   percentileSorted(sorted, 99),
	}
	sum := 0.0
	for _, x := range sorted {
		sum += x
	}
	a.Mean = sum / float64(n)
	a.CILow, a.CIHigh = a.Mean, a.Mean
	if n < 2 {
		return a
	}
	varSum := 0.0
	for _, x := range sorted {
		d := x - a.Mean
		varSum += d * d
	}
	a.StdDev = math.Sqrt(varSum / float64(n-1))
	half := TQuantile975(n-1) * a.StdDev / math.Sqrt(float64(n))
	a.CILow, a.CIHigh = a.Mean-half, a.Mean+half
	return a
}

// AggregateInts is AggregateSamples over integer samples.
func AggregateInts(samples []int) Aggregate {
	floats := make([]float64, len(samples))
	for i, x := range samples {
		floats[i] = float64(x)
	}
	return AggregateSamples(floats)
}

// CIHalfWidth returns half the width of the 95% confidence interval.
func (a Aggregate) CIHalfWidth() float64 {
	return (a.CIHigh - a.CILow) / 2
}

// String renders the aggregate compactly.
func (a Aggregate) String() string {
	return fmt.Sprintf("n=%d mean=%.1f±%.1f sd=%.1f p50=%.1f p95=%.1f p99=%.1f",
		a.Count, a.Mean, a.CIHalfWidth(), a.StdDev, a.P50, a.P95, a.P99)
}

// tTable holds two-sided 95% Student-t critical values t_{0.975,df} at the
// listed degrees of freedom; intermediate df interpolate linearly in 1/df,
// which is accurate to three decimals over this range.
var tTableDF = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15,
	16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 40, 60, 120}

var tTableVal = []float64{12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365,
	2.306, 2.262, 2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110,
	2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052,
	2.048, 2.045, 2.042, 2.021, 2.000, 1.980}

// TQuantile975 returns the two-sided 95% Student-t critical value
// t_{0.975,df} (the multiplier of the standard error in a 95% confidence
// interval) for df ≥ 1 degrees of freedom, via table lookup with 1/df
// interpolation and the normal limit 1.96 beyond df = 120.
func TQuantile975(df int) float64 {
	if df < 1 {
		return 0
	}
	if df <= 30 {
		return tTableVal[df-1]
	}
	if df >= 120 {
		// Interpolate toward the normal limit 1.960 in 1/df (df = ∞ maps to
		// frac = 1).
		frac := (1/120.0 - 1/float64(df)) / (1 / 120.0)
		return 1.980 + frac*(1.960-1.980)
	}
	// 30 < df < 120: find the surrounding table entries.
	i := sort.SearchInts(tTableDF, df)
	if tTableDF[i] == df {
		return tTableVal[i]
	}
	loDF, hiDF := float64(tTableDF[i-1]), float64(tTableDF[i])
	frac := (1/loDF - 1/float64(df)) / (1/loDF - 1/hiDF)
	return tTableVal[i-1] + frac*(tTableVal[i]-tTableVal[i-1])
}

// Fit is a least-squares fit y ≈ Slope·x + Intercept with its coefficient of
// determination.
type Fit struct {
	Slope     float64
	Intercept float64
	R2        float64
}

// LinearFit fits y ≈ a·x + b by least squares. It returns a zero fit when
// fewer than two points are supplied or all x values coincide.
func LinearFit(xs, ys []float64) Fit {
	if len(xs) != len(ys) || len(xs) < 2 {
		return Fit{}
	}
	n := float64(len(xs))
	var sumX, sumY, sumXX, sumXY float64
	for i := range xs {
		sumX += xs[i]
		sumY += ys[i]
		sumXX += xs[i] * xs[i]
		sumXY += xs[i] * ys[i]
	}
	den := n*sumXX - sumX*sumX
	if den == 0 {
		return Fit{}
	}
	slope := (n*sumXY - sumX*sumY) / den
	intercept := (sumY - slope*sumX) / n

	meanY := sumY / n
	var ssRes, ssTot float64
	for i := range xs {
		pred := slope*xs[i] + intercept
		ssRes += (ys[i] - pred) * (ys[i] - pred)
		ssTot += (ys[i] - meanY) * (ys[i] - meanY)
	}
	r2 := 1.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	}
	return Fit{Slope: slope, Intercept: intercept, R2: r2}
}

// GrowthExponent estimates the exponent p of a power-law relationship
// y ≈ c·x^p by fitting a line in log-log space. It ignores non-positive
// samples and returns 0 when fewer than two usable points remain. The
// experiment reports use it to compare measured growth against the paper's
// asymptotic bounds (e.g. moves growing roughly like n² for U ∘ SDR).
func GrowthExponent(xs, ys []float64) float64 {
	var lx, ly []float64
	for i := range xs {
		if i < len(ys) && xs[i] > 0 && ys[i] > 0 {
			lx = append(lx, math.Log(xs[i]))
			ly = append(ly, math.Log(ys[i]))
		}
	}
	if len(lx) < 2 {
		return 0
	}
	return LinearFit(lx, ly).Slope
}

// Ratio returns a/b, or 0 when b is 0; it keeps benchmark tables free of
// division-by-zero special cases.
func Ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
