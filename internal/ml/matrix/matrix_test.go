package matrix

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/ml"
)

func TestConstantFeatureSingleBin(t *testing.T) {
	xs := [][]float64{{7, 1}, {7, 2}, {7, 3}}
	m, err := Build(xs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumBins(0) != 1 {
		t.Fatalf("constant feature has %d bins, want 1", m.NumBins(0))
	}
	if m.NumBins(1) != 3 {
		t.Fatalf("3-distinct feature has %d bins, want 3", m.NumBins(1))
	}
	for _, b := range m.Column(0) {
		if b != 0 {
			t.Fatalf("constant feature binned to %d", b)
		}
	}
}

func TestFewerDistinctThanBinsIsLossless(t *testing.T) {
	// 5 distinct values, 256-bin budget: one bin per value, and the
	// cut between adjacent bins is the midpoint between the values —
	// the exact splitter's threshold.
	vals := []float64{-2, -0.5, 0, 1.25, 9}
	r := rand.New(rand.NewSource(1))
	xs := make([][]float64, 200)
	for i := range xs {
		xs[i] = []float64{vals[r.Intn(len(vals))]}
	}
	m, err := Build(xs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumBins(0) != len(vals) {
		t.Fatalf("bins = %d, want %d", m.NumBins(0), len(vals))
	}
	for i := range xs {
		b := int(m.Column(0)[i])
		if vals[b] != xs[i][0] {
			t.Fatalf("row %d value %g binned to bin %d (value %g)", i, xs[i][0], b, vals[b])
		}
	}
	for b := 0; b < len(vals)-1; b++ {
		want := (vals[b] + vals[b+1]) / 2
		if got := m.CutBetween(0, b, b+1); got != want {
			t.Fatalf("cut %d = %g, want %g", b, got, want)
		}
	}
}

func TestQuantileBinningCapsBins(t *testing.T) {
	// 10k distinct values must compress into at most maxBins bins,
	// monotonically: higher values never land in lower bins.
	r := rand.New(rand.NewSource(2))
	xs := make([][]float64, 10000)
	for i := range xs {
		xs[i] = []float64{r.NormFloat64()}
	}
	for _, maxBins := range []int{16, 255, 256, 1000} {
		m, err := Build(xs, maxBins)
		if err != nil {
			t.Fatal(err)
		}
		limit := maxBins
		if limit > MaxBins {
			limit = MaxBins
		}
		if nb := m.NumBins(0); nb > limit || nb < 2 {
			t.Fatalf("maxBins %d produced %d bins", maxBins, nb)
		}
		type pair struct {
			v float64
			b uint8
		}
		pairs := make([]pair, len(xs))
		for i := range xs {
			pairs[i] = pair{xs[i][0], m.Column(0)[i]}
		}
		for i := range pairs {
			for j := range pairs {
				if pairs[i].v < pairs[j].v && pairs[i].b > pairs[j].b {
					t.Fatalf("binning not monotone: %g→%d but %g→%d",
						pairs[i].v, pairs[i].b, pairs[j].v, pairs[j].b)
				}
			}
			if i > 50 { // O(n²) check on a prefix is plenty
				break
			}
		}
	}
}

func TestQuantileBinsRoughlyBalanced(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	n := 8192
	xs := make([][]float64, n)
	for i := range xs {
		xs[i] = []float64{r.Float64()}
	}
	m, err := Build(xs, 64)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, m.NumBins(0))
	for _, b := range m.Column(0) {
		counts[b]++
	}
	per := n / 64
	for b, c := range counts {
		if c == 0 {
			t.Fatalf("bin %d empty at build time", b)
		}
		if c > 4*per {
			t.Fatalf("bin %d holds %d rows (target %d)", b, c, per)
		}
	}
}

func TestBuildRejectsNaN(t *testing.T) {
	xs := [][]float64{{1, 2}, {3, math.NaN()}}
	if _, err := Build(xs, 0); err == nil {
		t.Fatal("NaN input accepted")
	}
}

func TestBuildRejectsEmptyAndRagged(t *testing.T) {
	if _, err := Build(nil, 0); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, err := Build([][]float64{{}}, 0); err == nil {
		t.Fatal("zero-width input accepted")
	}
	if _, err := Build([][]float64{{1, 2}, {3}}, 0); err == nil {
		t.Fatal("ragged input accepted")
	}
}

func TestBuildWorkersDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	xs := make([][]float64, 500)
	for i := range xs {
		xs[i] = []float64{r.NormFloat64(), r.NormFloat64() * 10, float64(r.Intn(5))}
	}
	serial, err := BuildWorkers(xs, 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallelM, err := BuildWorkers(xs, 32, 8)
	if err != nil {
		t.Fatal(err)
	}
	for f := 0; f < serial.Cols(); f++ {
		if serial.NumBins(f) != parallelM.NumBins(f) {
			t.Fatalf("feature %d: bins differ across worker counts", f)
		}
		for i := range xs {
			if serial.Column(f)[i] != parallelM.Column(f)[i] {
				t.Fatalf("feature %d row %d: bin differs across worker counts", f, i)
			}
		}
	}
}

func TestFromSamples(t *testing.T) {
	samples := []ml.Sample{
		{X: []float64{1, 5}, Y: 0},
		{X: []float64{2, 5}, Y: 1},
		{X: []float64{3, 5}, Y: 0},
	}
	m, err := FromSamples(samples, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows() != 3 || m.Cols() != 2 {
		t.Fatalf("shape = %d×%d", m.Rows(), m.Cols())
	}
	if m.NumBins(1) != 1 {
		t.Fatalf("constant column bins = %d", m.NumBins(1))
	}
}

// TestDenseCensusMatchesSort pins the dense-histogram fast path to the
// sort-based general path: integer columns (narrow and budget-
// exceeding cardinality alike) must produce identical bins and cuts,
// and fractional or wide-range columns must fall back.
func TestDenseCensusMatchesSort(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	cases := map[string][]float64{
		"narrow":   make([]float64, 5000),
		"manyVals": make([]float64, 5000),
		"negative": make([]float64, 3000),
	}
	for i := range cases["narrow"] {
		cases["narrow"][i] = float64(r.Intn(12))
	}
	for i := range cases["manyVals"] {
		cases["manyVals"][i] = float64(r.Intn(2000)) // > 256 distinct: quantile regime
	}
	for i := range cases["negative"] {
		cases["negative"][i] = float64(r.Intn(40) - 20)
	}
	cases["halves"] = make([]float64, 4000)
	for i := range cases["halves"] {
		cases["halves"][i] = float64(r.Intn(50)) / 2 // the cleaner's window-mean grid
	}
	for name, col := range cases {
		gotBins, gotLo, gotHi, ok := binColumnDense(col, MaxBins)
		if !ok {
			t.Fatalf("%s: dense path refused an integer column", name)
		}
		sorted := append([]float64(nil), col...)
		sort.Float64s(sorted)
		var vals []float64
		var cnts []int
		for i := 0; i < len(sorted); {
			j := i
			for j < len(sorted) && sorted[j] == sorted[i] {
				j++
			}
			vals = append(vals, sorted[i])
			cnts = append(cnts, j-i)
			i = j
		}
		wantLo, wantHi := cutsFrom(vals, cnts, len(col), MaxBins)
		if !reflect.DeepEqual(gotLo, wantLo) || !reflect.DeepEqual(gotHi, wantHi) {
			t.Fatalf("%s: dense cuts differ: lo %v vs %v, hi %v vs %v", name, gotLo, wantLo, gotHi, wantHi)
		}
		for i, v := range col {
			want := uint8(sort.SearchFloat64s(wantHi, v))
			if gotBins[i] != want {
				t.Fatalf("%s: row %d (value %v): dense bin %d, sort bin %d", name, i, v, gotBins[i], want)
			}
		}
	}

	if _, _, _, ok := binColumnDense([]float64{0.3, 1, 2}, MaxBins); ok {
		t.Fatal("off-grid fractional column took the dense path")
	}
	if _, _, _, ok := binColumnDense([]float64{0, 1 << 20}, MaxBins); ok {
		t.Fatal("wide-range column took the dense path")
	}
}

// TestRadixSortMatchesComparisonSort exercises the radix path above
// and below the pass-skipping shortcut, including negatives and
// duplicated values.
func TestRadixSortMatchesComparisonSort(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	cases := [][]float64{
		make([]float64, 5000),
		make([]float64, 5000),
		make([]float64, 3000),
	}
	for i := range cases[0] {
		cases[0][i] = r.NormFloat64() * 1e6
	}
	for i := range cases[1] {
		cases[1][i] = float64(r.Intn(64)) // heavy duplication, many constant bytes
	}
	for i := range cases[2] {
		cases[2][i] = r.Float64() - 0.5
	}
	for ci, col := range cases {
		want := append([]float64(nil), col...)
		sort.Float64s(want)
		got := append([]float64(nil), col...)
		radixSortFloats(got)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: radix order diverges from comparison sort", ci)
		}
	}
}

// TestSharedFromSetRejectsWindowedSet asserts a windowed set — whose
// overlapping rows are no rows×width arena — is refused, not binned.
func TestSharedFromSetRejectsWindowedSet(t *testing.T) {
	x := []float64{0, 1, 2, 3, 4, 5}
	set, err := ml.NewWindowedSampleSet(4, x, []int{0, 2}, []int8{0, 1}, []int32{1, 2}, []string{"a", "a"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SharedFromSet(set, 0, 1); err == nil {
		t.Fatal("windowed set binned")
	}
}
