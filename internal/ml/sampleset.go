package ml

import (
	"fmt"
	"sync"
)

// SampleSet is the columnar in-memory sample representation: one flat
// row-major float64 arena plus parallel label/day/serial columns. It
// is built once per prepared fleet (features.BuildSampleSet fills the
// arena with no per-row allocations) and then shared read-only by
// every downstream consumer — splits, under-sampling, CV folds, grid
// search, and feature selection all operate on Views (int32 row-index
// slices) instead of copying sample data per candidate.
//
// A windowed set (NewWindowedSampleSet) carries a per-row start offset
// instead: row i is the width values starting at start[i], so rows may
// overlap and share arena data — the CNN_LSTM's sliding sequence
// windows over one per-record feature arena. Flat sets have a nil
// start column and row i at i*width.
//
// A SampleSet is immutable after construction and safe for concurrent
// readers; the Cached hook lets derived artefacts (notably the
// quantile-binned matrix, see internal/ml/matrix.SharedFromSet) be
// computed once and shared across candidates.
type SampleSet struct {
	width int
	x     []float64 // len = rows*width, row-major (flat sets)
	start []int     // per-row arena offset; nil for flat sets
	y     []int8    // 0 or 1
	day   []int32
	sn    []string

	yfOnce sync.Once
	yf     []float64

	cacheMu sync.Mutex
	cache   map[int64]any
}

// NewSampleSet assembles a set from pre-filled parallel columns. The
// arena x must hold len(y)*width values row-major; labels must be 0/1.
// The slices are retained (not copied) and must not be mutated after.
func NewSampleSet(width int, x []float64, y []int8, day []int32, sn []string) (*SampleSet, error) {
	if err := checkColumns(width, y, day, sn); err != nil {
		return nil, err
	}
	if len(x) != len(y)*width {
		return nil, fmt.Errorf("ml: arena holds %d values, want %d rows × %d", len(x), len(y), width)
	}
	return &SampleSet{width: width, x: x, y: y, day: day, sn: sn}, nil
}

// NewWindowedSampleSet assembles a set whose row i is the width values
// of x starting at start[i]; rows may overlap. The slices are retained
// (not copied) and must not be mutated after.
func NewWindowedSampleSet(width int, x []float64, start []int, y []int8, day []int32, sn []string) (*SampleSet, error) {
	if err := checkColumns(width, y, day, sn); err != nil {
		return nil, err
	}
	if len(start) != len(y) {
		return nil, fmt.Errorf("ml: %d row offsets for %d rows", len(start), len(y))
	}
	for i, o := range start {
		if o < 0 || o > len(x)-width {
			return nil, fmt.Errorf("ml: row %d at offset %d overruns the %d-value arena", i, o, len(x))
		}
	}
	return &SampleSet{width: width, x: x, start: start, y: y, day: day, sn: sn}, nil
}

// checkColumns validates the shape and labels shared by both layouts.
func checkColumns(width int, y []int8, day []int32, sn []string) error {
	if width <= 0 {
		return fmt.Errorf("ml: sample set width %d must be > 0", width)
	}
	rows := len(y)
	if rows == 0 {
		return fmt.Errorf("ml: empty sample set")
	}
	if len(day) != rows || len(sn) != rows {
		return fmt.Errorf("ml: column lengths %d/%d/%d disagree", rows, len(day), len(sn))
	}
	for i, v := range y {
		if v != 0 && v != 1 {
			return fmt.Errorf("ml: sample %d has label %d, want 0 or 1", i, v)
		}
	}
	return nil
}

// FromSamples copies a legacy []Sample slice into columnar form — the
// compatibility adapter for call sites that still build row-structs.
func FromSamples(samples []Sample) (*SampleSet, error) {
	if err := ValidateSamples(samples, false); err != nil {
		return nil, err
	}
	width := len(samples[0].X)
	x := make([]float64, 0, len(samples)*width)
	y := make([]int8, len(samples))
	day := make([]int32, len(samples))
	sn := make([]string, len(samples))
	for i := range samples {
		x = append(x, samples[i].X...)
		y[i] = int8(samples[i].Y)
		day[i] = int32(samples[i].Day)
		sn[i] = samples[i].SN
	}
	return NewSampleSet(width, x, y, day, sn)
}

// Len returns the number of rows.
func (s *SampleSet) Len() int { return len(s.y) }

// Width returns the feature vector length.
func (s *SampleSet) Width() int { return s.width }

// Windowed reports whether rows are per-row offsets into the arena
// (NewWindowedSampleSet) rather than its consecutive rows×width blocks.
func (s *SampleSet) Windowed() bool { return s.start != nil }

// Arena returns the shared feature arena. Read-only. It is the
// row-major rows×width matrix only for flat sets; a windowed set's
// rows overlap in it.
func (s *SampleSet) Arena() []float64 { return s.x }

// Row returns row i's feature vector: a capped subslice of the arena
// (appending to it cannot clobber the next row). Read-only.
func (s *SampleSet) Row(i int) []float64 {
	o := i * s.width
	if s.start != nil {
		o = s.start[i]
	}
	return s.x[o : o+s.width : o+s.width]
}

// Y returns row i's label.
func (s *SampleSet) Y(i int) int { return int(s.y[i]) }

// Day returns row i's observation day.
func (s *SampleSet) Day(i int) int { return int(s.day[i]) }

// SN returns row i's drive serial number.
func (s *SampleSet) SN(i int) string { return s.sn[i] }

// LabelsFloat returns (building once) the labels as float64 training
// targets, indexed by arena row. The slice is shared; read-only.
func (s *SampleSet) LabelsFloat() []float64 {
	s.yfOnce.Do(func() {
		s.yf = make([]float64, len(s.y))
		for i, v := range s.y {
			s.yf[i] = float64(v)
		}
	})
	return s.yf
}

// Cached returns (computing once per key) a derived artefact of the
// set, such as the set-wide binned matrix. Concurrent callers with the
// same key share a single build; build must not call Cached itself.
func (s *SampleSet) Cached(key int64, build func() (any, error)) (any, error) {
	s.cacheMu.Lock()
	defer s.cacheMu.Unlock()
	if v, ok := s.cache[key]; ok {
		return v, nil
	}
	v, err := build()
	if err != nil {
		return nil, err
	}
	if s.cache == nil {
		s.cache = make(map[int64]any)
	}
	s.cache[key] = v
	return v, nil
}

// All returns the view over every row and feature.
func (s *SampleSet) All() View { return View{set: s} }

// View is a zero-copy selection of a SampleSet: a row-index slice
// (nil = all rows, in arena order) and an optional feature-column
// subset (nil = all features). Views are values — cheap to pass and
// slice — and never copy feature data; the sampling package's split,
// under-sample, and CV primitives all produce Views, so every search
// candidate shares one arena. A View must not contain duplicate rows.
type View struct {
	set  *SampleSet
	rows []int32
	cols []int
}

// Set returns the underlying SampleSet.
func (v View) Set() *SampleSet { return v.set }

// Len returns the number of selected rows.
func (v View) Len() int {
	if v.rows == nil {
		return v.set.Len()
	}
	return len(v.rows)
}

// Width returns the selected feature count.
func (v View) Width() int {
	if v.cols == nil {
		return v.set.Width()
	}
	return len(v.cols)
}

// Cols returns the feature-column subset (nil = all). Read-only.
func (v View) Cols() []int { return v.cols }

// RowIndex maps view position i to its arena row.
func (v View) RowIndex(i int) int32 {
	if v.rows == nil {
		return int32(i)
	}
	return v.rows[i]
}

// Row returns position i's full-width feature vector straight from the
// arena. Column subsets are not applied — consumers that honour Cols
// (the tree growers) index it by global feature id.
func (v View) Row(i int) []float64 { return v.set.Row(int(v.RowIndex(i))) }

// Y returns position i's label.
func (v View) Y(i int) int { return v.set.Y(int(v.RowIndex(i))) }

// Day returns position i's observation day.
func (v View) Day(i int) int { return v.set.Day(int(v.RowIndex(i))) }

// SN returns position i's drive serial number.
func (v View) SN(i int) string { return v.set.SN(int(v.RowIndex(i))) }

// Indices returns a fresh copy of the selected arena rows, in view
// order.
func (v View) Indices() []int32 {
	out := make([]int32, v.Len())
	for i := range out {
		out[i] = v.RowIndex(i)
	}
	return out
}

// WithRows returns a view over the given arena rows (view order =
// slice order), keeping the column subset. The slice is retained.
func (v View) WithRows(rows []int32) View { return View{set: v.set, rows: rows, cols: v.cols} }

// WithCols returns a view restricted to the feature columns in keep,
// keeping the row selection. The slice is retained.
func (v View) WithCols(keep []int) View { return View{set: v.set, rows: v.rows, cols: keep} }

// ClassCounts returns the number of negative and positive rows.
func (v View) ClassCounts() (neg, pos int) {
	n := v.Len()
	for i := 0; i < n; i++ {
		if v.Y(i) == 1 {
			pos++
		} else {
			neg++
		}
	}
	return neg, pos
}

// MaxDay returns the latest observation day in the view (0 if empty).
func (v View) MaxDay() int {
	last := 0
	n := v.Len()
	for i := 0; i < n; i++ {
		if d := v.Day(i); d > last {
			last = d
		}
	}
	return last
}

// Xs returns the selected rows as full-width vector headers into the
// arena — one pointer-slice allocation, no feature copies. It is the
// batch-scoring adapter; column subsets are not applied.
func (v View) Xs() [][]float64 {
	out := make([][]float64, v.Len())
	for i := range out {
		out[i] = v.Row(i)
	}
	return out
}

// Materialize converts the view to the legacy []Sample representation.
// Without a column subset the X vectors are capped arena subslices
// (header-only — no feature data is copied), honouring the Trainer
// contract that inputs are never mutated; with a column subset each X
// is a fresh masked copy.
func (v View) Materialize() []Sample {
	n := v.Len()
	out := make([]Sample, n)
	if v.cols == nil {
		for i := 0; i < n; i++ {
			r := int(v.RowIndex(i))
			out[i] = Sample{X: v.set.Row(r), Y: v.set.Y(r), SN: v.set.SN(r), Day: v.set.Day(r)}
		}
		return out
	}
	flat := make([]float64, n*len(v.cols))
	for i := 0; i < n; i++ {
		r := int(v.RowIndex(i))
		x := flat[i*len(v.cols) : (i+1)*len(v.cols) : (i+1)*len(v.cols)]
		row := v.set.Row(r)
		for j, c := range v.cols {
			x[j] = row[c]
		}
		out[i] = Sample{X: x, Y: v.set.Y(r), SN: v.set.SN(r), Day: v.set.Day(r)}
	}
	return out
}

// ValidateView checks that a view forms a usable training set:
// non-empty and, when requireBothClasses is set, holding at least one
// row of each class (the columnar counterpart of ValidateSamples; the
// arena representation makes width and label checks structural).
func ValidateView(v View, requireBothClasses bool) error {
	if v.Set() == nil || v.Len() == 0 {
		return fmt.Errorf("ml: empty sample view")
	}
	if requireBothClasses {
		neg, pos := v.ClassCounts()
		if pos == 0 || neg == 0 {
			return fmt.Errorf("ml: need both classes, have %d positive and %d negative", pos, neg)
		}
	}
	return nil
}

// ViewTrainer is implemented by trainers that can consume a zero-copy
// View directly — the tree ensembles train on row-masked views of the
// set-wide binned matrix (bin-once), and honour the view's column
// subset without re-extracting features.
type ViewTrainer interface {
	Trainer
	// TrainView fits a model on the view's rows (and, when set, only
	// its feature columns). The view and its set must stay unmutated.
	TrainView(v View) (Classifier, error)
}

// TrainOn trains t on v through the fastest path it offers: the
// zero-copy view path when t implements ViewTrainer, otherwise the
// legacy slice path on a materialised (header-only, or masked when the
// view has a column subset) sample slice.
func TrainOn(t Trainer, v View) (Classifier, error) {
	if vt, ok := t.(ViewTrainer); ok {
		return vt.TrainView(v)
	}
	return t.Train(v.Materialize())
}
