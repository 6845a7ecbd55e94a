package ml

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

func setSamples(n, width int, seed int64) []Sample {
	r := rand.New(rand.NewSource(seed))
	out := make([]Sample, n)
	for i := range out {
		x := make([]float64, width)
		for j := range x {
			x[j] = r.NormFloat64()
		}
		out[i] = Sample{X: x, Y: r.Intn(2), Day: r.Intn(60), SN: fmt.Sprintf("sn%02d", i%9)}
	}
	return out
}

func TestFromSamplesRoundTrip(t *testing.T) {
	samples := setSamples(57, 4, 1)
	set, err := FromSamples(samples)
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != len(samples) || set.Width() != 4 {
		t.Fatalf("set is %d×%d, want %d×4", set.Len(), set.Width(), len(samples))
	}
	back := set.All().Materialize()
	for i := range samples {
		if back[i].Y != samples[i].Y || back[i].Day != samples[i].Day || back[i].SN != samples[i].SN {
			t.Fatalf("row %d metadata mismatch: %+v vs %+v", i, back[i], samples[i])
		}
		for j := range samples[i].X {
			if back[i].X[j] != samples[i].X[j] {
				t.Fatalf("row %d feature %d: %v, want %v", i, j, back[i].X[j], samples[i].X[j])
			}
		}
	}
}

func TestNewSampleSetValidates(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	if _, err := NewSampleSet(0, x, []int8{0, 0}, []int32{1, 2}, []string{"a", "b"}); err == nil {
		t.Fatal("width 0 accepted")
	}
	if _, err := NewSampleSet(2, x, nil, nil, nil); err == nil {
		t.Fatal("empty set accepted")
	}
	if _, err := NewSampleSet(2, x[:3], []int8{0, 0}, []int32{1, 2}, []string{"a", "b"}); err == nil {
		t.Fatal("short arena accepted")
	}
	if _, err := NewSampleSet(2, x, []int8{0, 2}, []int32{1, 2}, []string{"a", "b"}); err == nil {
		t.Fatal("label 2 accepted")
	}
	if _, err := NewSampleSet(2, x, []int8{0, 0}, []int32{1}, []string{"a", "b"}); err == nil {
		t.Fatal("short day column accepted")
	}
}

// TestRowIsCapped asserts appending to one row's vector cannot clobber
// the next row in the shared arena.
func TestRowIsCapped(t *testing.T) {
	set, err := FromSamples(setSamples(5, 3, 2))
	if err != nil {
		t.Fatal(err)
	}
	r0 := set.Row(0)
	if cap(r0) != set.Width() {
		t.Fatalf("row cap %d, want %d", cap(r0), set.Width())
	}
	next := set.Row(1)[0]
	_ = append(r0, 999)
	if set.Row(1)[0] != next {
		t.Fatal("append to row 0 clobbered row 1")
	}
}

func TestViewRowsAndCols(t *testing.T) {
	samples := setSamples(20, 4, 3)
	set, err := FromSamples(samples)
	if err != nil {
		t.Fatal(err)
	}
	v := set.All().WithRows([]int32{7, 2, 11})
	if v.Len() != 3 || v.Width() != 4 {
		t.Fatalf("view is %d×%d, want 3×4", v.Len(), v.Width())
	}
	for i, r := range []int{7, 2, 11} {
		if v.Y(i) != samples[r].Y || v.Day(i) != samples[r].Day || v.SN(i) != samples[r].SN {
			t.Fatalf("position %d does not select arena row %d", i, r)
		}
	}

	// Column sub-views keep full-width Row access (trees index features
	// globally) but materialise masked copies.
	cv := v.WithCols([]int{3, 1})
	if cv.Width() != 2 {
		t.Fatalf("column view width %d, want 2", cv.Width())
	}
	if len(cv.Row(0)) != 4 {
		t.Fatalf("column view Row is masked; want full-width arena row")
	}
	masked := cv.Materialize()
	for i, r := range []int{7, 2, 11} {
		want := []float64{samples[r].X[3], samples[r].X[1]}
		if masked[i].X[0] != want[0] || masked[i].X[1] != want[1] {
			t.Fatalf("masked row %d = %v, want %v", i, masked[i].X, want)
		}
	}
}

// TestXsAliasesArena asserts batch-scoring headers point into the
// arena rather than copying feature data.
func TestXsAliasesArena(t *testing.T) {
	set, err := FromSamples(setSamples(6, 3, 4))
	if err != nil {
		t.Fatal(err)
	}
	xs := set.All().WithRows([]int32{4, 1}).Xs()
	if &xs[0][0] != &set.Arena()[4*3] || &xs[1][0] != &set.Arena()[1*3] {
		t.Fatal("Xs copied feature data instead of aliasing the arena")
	}
}

func TestMaterializeHeaderOnly(t *testing.T) {
	set, err := FromSamples(setSamples(6, 3, 5))
	if err != nil {
		t.Fatal(err)
	}
	out := set.All().Materialize()
	if &out[2].X[0] != &set.Arena()[2*3] {
		t.Fatal("full-width Materialize copied feature data")
	}
}

func TestLabelsFloatSharedAndCorrect(t *testing.T) {
	set, err := FromSamples(setSamples(40, 2, 6))
	if err != nil {
		t.Fatal(err)
	}
	yf := set.LabelsFloat()
	for i := range yf {
		if yf[i] != float64(set.Y(i)) {
			t.Fatalf("label %d: %v != %d", i, yf[i], set.Y(i))
		}
	}
	if &yf[0] != &set.LabelsFloat()[0] {
		t.Fatal("LabelsFloat rebuilt instead of caching")
	}
}

func TestCachedBuildsOncePerKey(t *testing.T) {
	set, err := FromSamples(setSamples(10, 2, 7))
	if err != nil {
		t.Fatal(err)
	}
	var builds atomic.Int32
	var wg sync.WaitGroup
	results := make([]any, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			v, err := set.Cached(42, func() (any, error) {
				builds.Add(1)
				return &struct{ int }{42}, nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			results[g] = v
		}(g)
	}
	wg.Wait()
	if builds.Load() != 1 {
		t.Fatalf("build ran %d times, want 1", builds.Load())
	}
	for g := 1; g < 16; g++ {
		if results[g] != results[0] {
			t.Fatal("concurrent callers saw different cached values")
		}
	}
	// A different key builds separately.
	if _, err := set.Cached(43, func() (any, error) { builds.Add(1); return 2, nil }); err != nil {
		t.Fatal(err)
	}
	if builds.Load() != 2 {
		t.Fatalf("second key reused first key's artefact")
	}
}

func TestCachedPropagatesErrorWithoutCaching(t *testing.T) {
	set, err := FromSamples(setSamples(10, 2, 8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := set.Cached(1, func() (any, error) { return nil, fmt.Errorf("boom") }); err == nil {
		t.Fatal("build error swallowed")
	}
	v, err := set.Cached(1, func() (any, error) { return "ok", nil })
	if err != nil || v != "ok" {
		t.Fatalf("failed build was cached: %v %v", v, err)
	}
}

func TestValidateView(t *testing.T) {
	if err := ValidateView(View{}, false); err == nil {
		t.Fatal("zero view accepted")
	}
	onlyNeg := []Sample{{X: []float64{1}, Y: 0}, {X: []float64{2}, Y: 0}}
	set, err := FromSamples(onlyNeg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateView(set.All(), false); err != nil {
		t.Fatalf("single-class view rejected without requireBothClasses: %v", err)
	}
	if err := ValidateView(set.All(), true); err == nil {
		t.Fatal("single-class view accepted with requireBothClasses")
	}
	if err := ValidateView(set.All().WithRows([]int32{}), false); err == nil {
		t.Fatal("empty row selection accepted")
	}
}

func TestTrainOnFallsBackForNonViewTrainers(t *testing.T) {
	samples := setSamples(60, 3, 9)
	set, err := FromSamples(samples)
	if err != nil {
		t.Fatal(err)
	}
	tr := &recordingTrainer{}
	if _, err := TrainOn(tr, set.All().WithRows([]int32{3, 1, 8})); err != nil {
		t.Fatal(err)
	}
	if tr.got != 3 {
		t.Fatalf("fallback trained on %d samples, want 3", tr.got)
	}
}

type recordingTrainer struct{ got int }

func (r *recordingTrainer) Train(s []Sample) (Classifier, error) {
	r.got = len(s)
	return constClassifier(0.5), nil
}

func (r *recordingTrainer) Name() string { return "recording" }

// TestWindowedSampleSet checks the windowed layout: rows are capped,
// possibly overlapping subslices at their start offsets, views and
// materialisation read through them, and bad offsets are rejected.
func TestWindowedSampleSet(t *testing.T) {
	x := []float64{0, 1, 2, 3, 4, 5, 6, 7}
	set, err := NewWindowedSampleSet(4, x, []int{0, 2, 4}, []int8{0, 1, 0}, []int32{3, 4, 5}, []string{"a", "a", "a"})
	if err != nil {
		t.Fatal(err)
	}
	if !set.Windowed() || set.Len() != 3 || set.Width() != 4 {
		t.Fatalf("windowed=%v shape %dx%d", set.Windowed(), set.Len(), set.Width())
	}
	for i, want := range []float64{0, 2, 4} {
		row := set.Row(i)
		if len(row) != 4 || cap(row) != 4 || row[0] != want || &row[0] != &x[int(want)] {
			t.Fatalf("row %d = %v (cap %d), want 4 values from arena[%g]", i, row, cap(row), want)
		}
	}
	got := set.All().WithRows([]int32{2, 1}).Materialize()
	if got[0].X[3] != 7 || got[1].Y != 1 || got[1].Day != 4 {
		t.Fatalf("materialised %+v", got)
	}
	for _, start := range [][]int{{0, 2}, {0, 2, 5}, {-1, 2, 4}} {
		if _, err := NewWindowedSampleSet(4, x, start, []int8{0, 1, 0}, []int32{3, 4, 5}, []string{"a", "a", "a"}); err == nil {
			t.Fatalf("offsets %v accepted", start)
		}
	}
	if flat, _ := FromSamples(setSamples(3, 2, 1)); flat.Windowed() {
		t.Fatal("flat set reports windowed")
	}
}
