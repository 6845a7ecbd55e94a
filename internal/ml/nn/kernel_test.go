package nn

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/ml"
)

// kernelShapes covers the architectures the workspace kernel must
// reproduce bit for bit: Fig. 10's CNN_LSTM, the gradient-check net,
// Fig. 18's SMART-LSTM baseline, a window shorter than the kernel (all
// but the centre taps padded) and an even kernel (asymmetric padding).
var kernelShapes = []struct {
	name string
	cfg  CNNLSTMTrainer
}{
	{"fig10", CNNLSTMTrainer{SeqLen: 5, Features: 45, Filters: 16, Kernel: 3, Hidden: 32}},
	{"tiny", CNNLSTMTrainer{SeqLen: 4, Features: 3, Filters: 2, Kernel: 3, Hidden: 3}},
	{"smart-lstm", CNNLSTMTrainer{SeqLen: 1, Features: 16, Filters: 8, Kernel: 1, Hidden: 16}},
	{"seq-below-kernel", CNNLSTMTrainer{SeqLen: 2, Features: 3, Filters: 5, Kernel: 5, Hidden: 4}},
	{"even-kernel", CNNLSTMTrainer{SeqLen: 6, Features: 4, Filters: 7, Kernel: 4, Hidden: 5}},
}

// randomNet builds a freshly initialised network with a random input
// scaler, so scaling is not the identity.
func randomNet(cfg CNNLSTMTrainer, seed int64) *Model {
	r := rand.New(rand.NewSource(seed))
	m := newModel(&cfg, r)
	m.mean = make([]float64, cfg.Features)
	m.std = make([]float64, cfg.Features)
	for f := range m.mean {
		m.mean[f] = r.NormFloat64()
		m.std[f] = 0.5 + r.Float64()
	}
	return m
}

// randomRows draws n inputs; every fourth one is scaled up so the conv
// ReLU sees negative pre-activations and the gates saturate.
func randomRows(cfg CNNLSTMTrainer, n int, seed int64) [][]float64 {
	r := rand.New(rand.NewSource(seed))
	xs := make([][]float64, n)
	for i := range xs {
		scale := 1.0
		if i%4 == 3 {
			scale = 8
		}
		xs[i] = make([]float64, cfg.SeqLen*cfg.Features)
		for j := range xs[i] {
			xs[i][j] = r.NormFloat64() * scale
		}
	}
	return xs
}

// cloneNet copies a network's weights and scaler with cleared
// gradients and optimiser moments.
func cloneNet(t *testing.T, m *Model) *Model {
	t.Helper()
	c, err := Import(m.Export())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// assertKernelMatchesOracle runs the workspace kernel on a and the
// oracle on b (identical weights) over xs, one reused workspace for
// every sample, and compares the probability and every gradient
// element bit for bit after each sample. Gradients accumulate across
// samples, as they do within a training minibatch.
func assertKernelMatchesOracle(t *testing.T, a, b *Model, xs [][]float64) {
	t.Helper()
	names := []string{"convW", "convB", "lstmW", "lstmB", "outW", "outB"}
	ws := newWorkspace(&a.cfg)
	for i, x := range xs {
		y := float64(i % 2)
		a.backward(ws, x, y)
		b.backwardOracle(x, y)
		if got, want := ws.prob, b.forwardOracle(x).prob; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("sample %d: probability %v, oracle %v", i, got, want)
		}
		for pi, p := range a.params() {
			q := b.params()[pi]
			for j := range p.g {
				if math.Float64bits(p.g[j]) != math.Float64bits(q.g[j]) {
					t.Fatalf("sample %d: %s.g[%d] = %v, oracle %v", i, names[pi], j, p.g[j], q.g[j])
				}
			}
		}
	}
}

// trainOracle is CNNLSTMTrainer.Train's loop driven by the oracle's
// backward pass.
func trainOracle(cfg CNNLSTMTrainer, samples []ml.Sample) *Model {
	r := rand.New(rand.NewSource(cfg.Seed + 42))
	m := newModel(&cfg, r)
	m.fitScaler(samples)
	opt := newAdam(cfg.LearningRate)
	order := make([]int, len(samples))
	for i := range order {
		order[i] = i
	}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for start := 0; start < len(order); start += cfg.Batch {
			end := min(start+cfg.Batch, len(order))
			for _, i := range order[start:end] {
				m.backwardOracle(samples[i].X, float64(samples[i].Y))
			}
			opt.update(m.params(), end-start)
		}
	}
	return m
}

func TestKernelMatchesOracle(t *testing.T) {
	for si, shape := range kernelShapes {
		seed := int64(100 * (si + 1))
		t.Run(shape.name+"/random", func(t *testing.T) {
			a, b := randomNet(shape.cfg, seed), randomNet(shape.cfg, seed)
			assertKernelMatchesOracle(t, a, b, randomRows(shape.cfg, 60, seed+1))
		})
		t.Run(shape.name+"/trained", func(t *testing.T) {
			cfg := shape.cfg
			cfg.Epochs, cfg.Batch, cfg.LearningRate, cfg.Seed = 3, 8, 1e-2, seed
			samples := seqBlobs(20, cfg.SeqLen, cfg.Features, seed+2)
			clf, err := cfg.Train(samples)
			if err != nil {
				t.Fatal(err)
			}
			m := clf.(*Model)
			// Training drives the kernel's backward pass through
			// every epoch; the oracle loop must land on the same
			// weights.
			ref := trainOracle(cfg, samples)
			for pi, p := range m.params() {
				q := ref.params()[pi]
				for j := range p.w {
					if math.Float64bits(p.w[j]) != math.Float64bits(q.w[j]) {
						t.Fatalf("param %d weight %d = %v after training, oracle %v", pi, j, p.w[j], q.w[j])
					}
				}
			}
			assertKernelMatchesOracle(t, cloneNet(t, m), cloneNet(t, m), randomRows(cfg, 40, seed+3))
		})
	}
}

// TestConcurrentScoring scores from several goroutines at once, both
// directly through PredictProba and through ml.ScoreBatch's parallel
// fan-out, so the workspace pool is shared across goroutines; run it
// under -race.
func TestConcurrentScoring(t *testing.T) {
	shape := kernelShapes[0].cfg
	m := randomNet(shape, 11)
	xs := randomRows(shape, 131, 12)
	want := make([]float64, len(xs))
	for i, x := range xs {
		want[i] = m.PredictProba(x)
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got := make([]float64, len(xs))
			if g%2 == 0 {
				for i, x := range xs {
					got[i] = m.PredictProba(x)
				}
			} else {
				ml.ScoreBatch(m, xs, got, 2)
			}
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Errorf("goroutine %d row %d: %v, want %v", g, i, got[i], want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestBackwardAllocatesNothing pins the steady-state training step: a
// backward pass on a warmed workspace allocates nothing.
func TestBackwardAllocatesNothing(t *testing.T) {
	shape := kernelShapes[0].cfg
	m := randomNet(shape, 13)
	x := randomRows(shape, 1, 14)[0]
	ws := newWorkspace(&m.cfg)
	m.backward(ws, x, 1)
	if allocs := testing.AllocsPerRun(20, func() { m.backward(ws, x, 1) }); allocs != 0 {
		t.Fatalf("backward allocated %v times per run", allocs)
	}
}
