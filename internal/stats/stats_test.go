package stats

import (
	"encoding/binary"
	"errors"
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSumMean(t *testing.T) {
	if got := Sum([]float64{1, 2, 3.5}); got != 6.5 {
		t.Errorf("Sum = %v", got)
	}
	if got := Mean([]float64{2, 4, 6}); got != 4 {
		t.Errorf("Mean = %v", got)
	}
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v", got)
	}
}

func TestVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almostEq(got, 4, 1e-12) {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); !almostEq(got, 2, 1e-12) {
		t.Errorf("StdDev = %v, want 2", got)
	}
	if got := Variance([]float64{5}); got != 0 {
		t.Errorf("Variance of singleton = %v", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5}, {-5, 1}, {200, 5},
	}
	for _, c := range cases {
		got, err := Percentile(xs, c.p)
		if err != nil || !almostEq(got, c.want, 1e-12) {
			t.Errorf("Percentile(%v) = %v, %v; want %v", c.p, got, err, c.want)
		}
	}
	// Interpolation between ranks.
	got, _ := Percentile([]float64{10, 20}, 50)
	if !almostEq(got, 15, 1e-12) {
		t.Errorf("interp percentile = %v, want 15", got)
	}
	if _, err := Percentile(nil, 50); err != ErrEmpty {
		t.Errorf("expected ErrEmpty, got %v", err)
	}
	// A NaN percentile has no rank: an error, never an index panic.
	if _, err := Percentile([]float64{1, 2, 3}, math.NaN()); !errors.Is(err, ErrNaNPercentile) {
		t.Errorf("Percentile(NaN) error = %v, want ErrNaNPercentile", err)
	}
	if _, err := Quantiles([]float64{1, 2, 3}, 50, math.NaN()); !errors.Is(err, ErrNaNPercentile) {
		t.Errorf("Quantiles(50, NaN) error = %v, want ErrNaNPercentile", err)
	}
	var out [1]float64
	if err := QuantilesInPlace([]float64{1, 2, 3}, out[:], math.NaN()); !errors.Is(err, ErrNaNPercentile) {
		t.Errorf("QuantilesInPlace(NaN) error = %v, want ErrNaNPercentile", err)
	}
	// Input must not be reordered.
	in := []float64{3, 1, 2}
	Percentile(in, 50)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Error("Percentile mutated its input")
	}
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("odd median = %v", got)
	}
	if got := Median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := Median(nil); got != 0 {
		t.Errorf("Median(nil) = %v", got)
	}
}

func TestQuantiles(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	qs, err := Quantiles(xs, 10, 50, 90)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(qs[1], 5.5, 1e-12) {
		t.Errorf("median via Quantiles = %v", qs[1])
	}
	if qs[0] >= qs[1] || qs[1] >= qs[2] {
		t.Errorf("quantiles not monotone: %v", qs)
	}
	if _, err := Quantiles(nil, 50); err != ErrEmpty {
		t.Error("expected ErrEmpty")
	}
}

func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(xs []float64, a, b uint8) bool {
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		p1 := float64(a % 101)
		p2 := float64(b % 101)
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		v1, _ := Percentile(clean, p1)
		v2, _ := Percentile(clean, p2)
		return v1 <= v2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPearson(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if r, _ := Pearson(xs, xs); !almostEq(r, 1, 1e-12) {
		t.Errorf("self correlation = %v", r)
	}
	neg := []float64{5, 4, 3, 2, 1}
	if r, _ := Pearson(xs, neg); !almostEq(r, -1, 1e-12) {
		t.Errorf("anti correlation = %v", r)
	}
	if r, _ := Pearson(xs, []float64{7, 7, 7, 7, 7}); r != 0 {
		t.Errorf("zero-variance correlation = %v", r)
	}
	if _, err := Pearson(xs, []float64{1}); err != ErrEmpty {
		t.Error("length mismatch should error")
	}
	if _, err := Pearson(nil, nil); err != ErrEmpty {
		t.Error("empty should error")
	}
}

func TestPearsonBoundsProperty(t *testing.T) {
	f := func(pairs [][2]float64) bool {
		if len(pairs) < 2 {
			return true
		}
		xs := make([]float64, len(pairs))
		ys := make([]float64, len(pairs))
		for i, p := range pairs {
			if math.IsNaN(p[0]) || math.IsNaN(p[1]) || math.IsInf(p[0], 0) || math.IsInf(p[1], 0) {
				return true
			}
			// Bound magnitudes to avoid float overflow artifacts.
			if math.Abs(p[0]) > 1e100 || math.Abs(p[1]) > 1e100 {
				return true
			}
			xs[i], ys[i] = p[0], p[1]
		}
		r, err := Pearson(xs, ys)
		if err != nil {
			return false
		}
		return r >= -1.0000001 && r <= 1.0000001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestOLS(t *testing.T) {
	// Perfect line y = 3 + 2x.
	xs := []float64{0, 1, 2, 3, 4}
	ys := []float64{3, 5, 7, 9, 11}
	fit, err := OLS(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(fit.Slope, 2, 1e-9) || !almostEq(fit.Intercept, 3, 1e-9) {
		t.Errorf("fit = %+v", fit)
	}
	if !almostEq(fit.R2, 1, 1e-9) {
		t.Errorf("r² = %v, want 1", fit.R2)
	}
	// Noisy line has r² < 1 but positive slope.
	ys2 := []float64{3, 6, 6, 10, 10}
	fit2, _ := OLS(xs, ys2)
	if fit2.R2 >= 1 || fit2.R2 <= 0.5 {
		t.Errorf("noisy r² = %v", fit2.R2)
	}
	if _, err := OLS([]float64{1, 1}, []float64{2, 3}); err == nil {
		t.Error("degenerate x should error")
	}
	if _, err := OLS([]float64{1}, []float64{2}); err != ErrEmpty {
		t.Error("short input should be ErrEmpty")
	}
}

func TestDeltaPercent(t *testing.T) {
	if got := DeltaPercent(110, 100); !almostEq(got, 10, 1e-12) {
		t.Errorf("DeltaPercent = %v", got)
	}
	if got := DeltaPercent(75, 100); !almostEq(got, -25, 1e-12) {
		t.Errorf("DeltaPercent = %v", got)
	}
	if got := DeltaPercent(5, 0); got != 0 {
		t.Errorf("zero baseline should yield 0, got %v", got)
	}
	s := DeltaPercentSeries([]float64{100, 50, 150}, 100)
	want := []float64{0, -50, 50}
	for i := range want {
		if !almostEq(s[i], want[i], 1e-12) {
			t.Errorf("series[%d] = %v, want %v", i, s[i], want[i])
		}
	}
}

func TestMinMaxArg(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	min, max, err := MinMax(xs)
	if err != nil || min != -1 || max != 7 {
		t.Errorf("MinMax = %v, %v, %v", min, max, err)
	}
	if _, _, err := MinMax(nil); err != ErrEmpty {
		t.Error("expected ErrEmpty")
	}
	if got := ArgMin(xs); got != 1 {
		t.Errorf("ArgMin = %d", got)
	}
	if got := ArgMax(xs); got != 2 {
		t.Errorf("ArgMax = %d", got)
	}
	if ArgMin(nil) != -1 || ArgMax(nil) != -1 {
		t.Error("Arg* of empty should be -1")
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 3) != 3 || Clamp(-2, 0, 3) != 0 || Clamp(1, 0, 3) != 1 {
		t.Error("Clamp misbehaves")
	}
}

// sortedPercentile is the sort-based percentile definition the
// selection machinery must reproduce: sort.Float64s (NaN first), then
// closed-form interpolation between the closest ranks.
func sortedPercentile(xs []float64, p float64) float64 {
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	if len(cp) == 1 {
		return cp[0]
	}
	rank := p / 100 * float64(len(cp)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return cp[lo]
	}
	frac := rank - float64(lo)
	return cp[lo]*(1-frac) + cp[hi]*frac
}

// sameValue is == with NaN equal to NaN.
func sameValue(a, b float64) bool { return a == b || (math.IsNaN(a) && math.IsNaN(b)) }

// TestPercentileSelectMatchesSort pins the selection-based percentile
// machinery to the sort-based definition it replaced: for adversarial
// inputs (duplicates, constants, already-sorted, reversed, NaN at every
// position, mixes of ±0, ±Inf and NaN) and a deterministic random sweep,
// every percentile must equal percentile-of-sorted (NaN treated as
// smaller than every number, as sort.Float64s orders it), through
// Quantiles, Percentile and QuantilesInPlace alike.
func TestPercentileSelectMatchesSort(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	negZero := math.Copysign(0, -1)
	cases := [][]float64{
		{1},
		{2, 1},
		{5, 5, 5, 5, 5, 5, 5, 5},
		{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18},
		{18, 17, 16, 15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1},
		{nan, 3, 1, nan, 2},
		{nan, nan, nan},
		{0, -0.0, 1e-300, -1e300, math.Inf(1), math.Inf(-1)},
		{negZero, 0, nan, inf, -inf, negZero, 0, nan},
		{inf, -inf, inf, -inf, nan, inf, -inf},
		{negZero, negZero, 0, negZero, 0, 0, negZero},
	}
	// NaN at every position of an array below and one above the
	// insertion cutoff.
	for _, size := range []int{7, 40} {
		for pos := 0; pos < size; pos++ {
			xs := make([]float64, size)
			for i := range xs {
				xs[i] = float64((i*7)%size) / 3
			}
			xs[pos] = nan
			cases = append(cases, xs)
		}
	}
	// ±0, ±Inf and NaN mixed into a tie-heavy array above the cutoff.
	specials := []float64{negZero, 0, inf, -inf, nan}
	for shift := range specials {
		xs := make([]float64, 33)
		for i := range xs {
			if i%3 == 0 {
				xs[i] = specials[(i/3+shift)%len(specials)]
			} else {
				xs[i] = float64(i % 4)
			}
		}
		cases = append(cases, xs)
	}
	// Deterministic LCG sweep: sizes crossing the insertion cutoff, heavy
	// duplicate mass.
	state := uint64(1)
	next := func() uint64 { state = state*6364136223846793005 + 1442695040888963407; return state }
	for size := 1; size <= 257; size += 16 {
		xs := make([]float64, size)
		for i := range xs {
			xs[i] = float64(next()%23) / 7
		}
		cases = append(cases, xs)
	}
	ps := []float64{0, 3.7, 10, 25, 50, 74.9, 90, 99, 100}
	for ci, xs := range cases {
		orig := make([]float64, len(xs))
		copy(orig, xs)
		got, err := Quantiles(xs, ps...)
		if err != nil {
			t.Fatalf("case %d: %v", ci, err)
		}
		inPlace := make([]float64, len(ps))
		if err := QuantilesInPlace(append([]float64(nil), xs...), inPlace, ps...); err != nil {
			t.Fatalf("case %d: %v", ci, err)
		}
		for pi, p := range ps {
			want := sortedPercentile(orig, p)
			if !sameValue(got[pi], want) {
				t.Errorf("case %d p=%v: Quantiles = %v, want %v", ci, p, got[pi], want)
			}
			if !sameValue(inPlace[pi], want) {
				t.Errorf("case %d p=%v: QuantilesInPlace = %v, want %v", ci, p, inPlace[pi], want)
			}
			one, err := Percentile(orig, p)
			if err != nil {
				t.Fatalf("case %d: %v", ci, err)
			}
			if !sameValue(one, want) {
				t.Errorf("case %d p=%v: Percentile = %v, want %v", ci, p, one, want)
			}
		}
		for i := range xs {
			if !sameValue(xs[i], orig[i]) {
				t.Fatalf("case %d: input mutated at %d", ci, i)
			}
		}
	}
}

// FuzzQuantilesInPlace checks the in-place selection against the sort
// reference on arbitrary inputs: bytes become float64s (NaN and ±Inf
// included), p is any float64, and every requested percentile must
// equal percentile-of-sorted (NaN results as "both NaN"); a NaN p must
// be refused with ErrNaNPercentile.
func FuzzQuantilesInPlace(f *testing.F) {
	f.Add([]byte{}, 50.0)
	f.Add(binary.LittleEndian.AppendUint64(nil, math.Float64bits(2.5)), 10.0)
	f.Add(make([]byte, 8*40), 90.0)
	f.Fuzz(func(t *testing.T, data []byte, p float64) {
		var xs []float64
		for ; len(data) >= 8; data = data[8:] {
			xs = append(xs, math.Float64frombits(binary.LittleEndian.Uint64(data)))
		}
		orig := append([]float64(nil), xs...)
		ps := []float64{p, 50, 10, 90}
		var out [4]float64
		err := QuantilesInPlace(xs, out[:], ps...)
		switch {
		case len(xs) == 0:
			if err != ErrEmpty {
				t.Fatalf("empty input: error %v, want ErrEmpty", err)
			}
			return
		case math.IsNaN(p):
			if err != ErrNaNPercentile {
				t.Fatalf("NaN p: error %v, want ErrNaNPercentile", err)
			}
			return
		case err != nil:
			t.Fatal(err)
		}
		for i, q := range ps {
			if want := sortedPercentile(orig, min(max(q, 0), 100)); !sameValue(out[i], want) {
				t.Fatalf("p=%v: QuantilesInPlace = %v, sort reference %v (input %v)", q, out[i], want, orig)
			}
		}
	})
}
