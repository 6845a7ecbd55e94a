package sampling

import (
	"testing"
	"testing/quick"

	"repro/internal/ml"
)

// mk builds a sample with the given label and day.
func mk(y, day int) ml.Sample {
	return ml.Sample{X: []float64{float64(day)}, Y: y, Day: day, SN: "sn"}
}

func series(pos, neg int) []ml.Sample {
	var out []ml.Sample
	for i := 0; i < pos; i++ {
		out = append(out, mk(1, i))
	}
	for i := 0; i < neg; i++ {
		out = append(out, mk(0, pos+i))
	}
	return out
}

// viewOf wraps samples in a SampleSet and returns the view of all rows.
func viewOf(t *testing.T, samples []ml.Sample) ml.View {
	t.Helper()
	set, err := ml.FromSamples(samples)
	if err != nil {
		t.Fatal(err)
	}
	return set.All()
}

func TestUnderSampleRatio(t *testing.T) {
	out, err := UnderSampleView(viewOf(t, series(10, 100)), 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	neg, pos := out.ClassCounts()
	if pos != 10 {
		t.Fatalf("positives = %d, want all 10", pos)
	}
	if neg != 30 {
		t.Fatalf("negatives = %d, want 30", neg)
	}
}

func TestUnderSampleKeepsOrder(t *testing.T) {
	out, err := UnderSampleView(viewOf(t, series(5, 50)), 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < out.Len(); i++ {
		if out.Day(i) < out.Day(i-1) {
			t.Fatal("under-sampling reordered samples")
		}
	}
}

func TestUnderSampleFewNegatives(t *testing.T) {
	out, err := UnderSampleView(viewOf(t, series(10, 5)), 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 15 {
		t.Fatalf("len = %d, want all 15 when negatives are scarce", out.Len())
	}
}

func TestUnderSampleDeterministic(t *testing.T) {
	v := viewOf(t, series(10, 100))
	a, _ := UnderSampleView(v, 3, 42)
	b, _ := UnderSampleView(v, 3, 42)
	if a.Len() != b.Len() {
		t.Fatal("lengths differ")
	}
	for i := 0; i < a.Len(); i++ {
		if a.Day(i) != b.Day(i) {
			t.Fatal("same seed produced different subsets")
		}
	}
	c, _ := UnderSampleView(v, 3, 43)
	same := true
	for i := 0; i < a.Len(); i++ {
		if a.Day(i) != c.Day(i) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical subsets")
	}
}

func TestUnderSampleRejectsBadRatio(t *testing.T) {
	if _, err := UnderSampleView(viewOf(t, series(1, 1)), 0, 1); err == nil {
		t.Fatal("zero ratio accepted")
	}
}

func TestSplitAtDay(t *testing.T) {
	train, test := SplitAtDayView(viewOf(t, []ml.Sample{mk(0, 1), mk(0, 5), mk(1, 6), mk(0, 9)}), 5)
	if train.Len() != 2 || test.Len() != 2 {
		t.Fatalf("split = %d/%d", train.Len(), test.Len())
	}
	if train.MaxDay() > 5 {
		t.Fatal("future sample in training set")
	}
}

func TestSplitFractionChronological(t *testing.T) {
	train, test := SplitFractionView(viewOf(t, []ml.Sample{mk(0, 9), mk(0, 1), mk(0, 5), mk(0, 3)}), 0.5)
	if train.Len() != 2 || test.Len() != 2 {
		t.Fatalf("split = %d/%d", train.Len(), test.Len())
	}
	maxTrain := train.MaxDay()
	for i := 0; i < test.Len(); i++ {
		if test.Day(i) < maxTrain {
			t.Fatalf("test sample day %d before train max %d", test.Day(i), maxTrain)
		}
	}
}

func TestRandomSplitSizes(t *testing.T) {
	train, test := RandomSplitView(viewOf(t, series(10, 10)), 0.25, 1)
	if test.Len() != 5 || train.Len() != 15 {
		t.Fatalf("split = %d/%d", train.Len(), test.Len())
	}
}

func TestTimeSeriesCVNeverTrainsOnFuture(t *testing.T) {
	folds, err := TimeSeriesCVView(viewOf(t, series(20, 20)), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(folds) != 4 {
		t.Fatalf("folds = %d, want 4", len(folds))
	}
	for fi, fold := range folds {
		maxTrain := fold.Train.MaxDay()
		for i := 0; i < fold.Val.Len(); i++ {
			if fold.Val.Day(i) < maxTrain {
				t.Fatalf("fold %d: validation day %d before training day %d", fi, fold.Val.Day(i), maxTrain)
			}
		}
	}
}

func TestTimeSeriesCVErrors(t *testing.T) {
	v := viewOf(t, series(1, 1))
	if _, err := TimeSeriesCVView(v, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := TimeSeriesCVView(v, 5); err == nil {
		t.Fatal("too few samples accepted")
	}
}

func TestKFoldCVPartitions(t *testing.T) {
	v := viewOf(t, series(6, 6))
	folds, err := KFoldCVView(v, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(folds) != 3 {
		t.Fatalf("folds = %d", len(folds))
	}
	totalVal := 0
	for _, f := range folds {
		totalVal += f.Val.Len()
		if f.Train.Len()+f.Val.Len() != v.Len() {
			t.Fatal("fold does not cover the sample set")
		}
	}
	if totalVal != v.Len() {
		t.Fatalf("validation folds cover %d samples, want %d", totalVal, v.Len())
	}
}

func TestKFoldCVErrors(t *testing.T) {
	if _, err := KFoldCVView(viewOf(t, series(1, 1)), 1, 1); err == nil {
		t.Fatal("k=1 accepted")
	}
	if _, err := KFoldCVView(viewOf(t, series(1, 0)), 3, 1); err == nil {
		t.Fatal("too few samples accepted")
	}
}

func TestChunkProperty(t *testing.T) {
	f := func(rawN, rawK uint8) bool {
		n := int(rawN)%200 + 10
		k := int(rawK)%8 + 2
		if n < k {
			n = k
		}
		bounds := chunkBounds(n, k)
		if len(bounds) != k+1 || bounds[0] != 0 || bounds[k] != n {
			return false
		}
		for i := 1; i < k; i++ {
			if bounds[i+1]-bounds[i] > bounds[i]-bounds[i-1] {
				return false // earlier chunks must be at least as large
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
