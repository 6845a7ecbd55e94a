// Package nn implements the small neural-network stack needed for the
// paper's CNN_LSTM candidate model: a 1-D convolution over the time
// axis, an LSTM layer, a dense sigmoid head, binary cross-entropy loss,
// and the Adam optimiser — all from scratch with full backpropagation
// through time.
//
// The forward and backward passes run on a workspace: flat, row-major
// T×F, T×C and T×H activation and gradient buffers that are allocated
// once and reused for every sample. Training holds one workspace for
// all epochs; PredictProba borrows one from a per-model sync.Pool, so it
// allocates nothing in steady state and is safe for concurrent use,
// which is how ml.ScoreBatch fans rows out over internal/parallel. A
// steady-state training step allocates nothing.
//
// The kernel keeps a fixed floating-point accumulation order, so its
// results do not depend on how rows are scheduled:
//   - each conv output starts at its bias and adds the in-range taps
//     k-major, f-minor, skipping zero-padded taps;
//   - each LSTM gate sum starts at 0 and adds the C conv inputs, then
//     the H recurrent inputs, in index order;
//   - gradients accumulate per sample, with t descending through BPTT
//     and t ascending through the conv layer.
//
// oracle_test.go keeps the original per-sample kernel, and tests pin
// the workspace kernel's probabilities and gradients to it bit for bit.
package nn

import (
	"math"
	"math/rand"
)

// param is one learnable tensor flattened to a vector, with its
// gradient accumulator and Adam moment estimates.
type param struct {
	w, g, m, v []float64
}

func newParam(n int) *param {
	return &param{
		w: make([]float64, n),
		g: make([]float64, n),
		m: make([]float64, n),
		v: make([]float64, n),
	}
}

// initUniform fills the weights with U(−scale, +scale).
func (p *param) initUniform(r *rand.Rand, scale float64) {
	for i := range p.w {
		p.w[i] = (2*r.Float64() - 1) * scale
	}
}

// zeroGrad clears the gradient accumulator.
func (p *param) zeroGrad() {
	for i := range p.g {
		p.g[i] = 0
	}
}

// adam holds optimiser state shared across parameters.
type adam struct {
	lr, beta1, beta2, eps float64
	step                  int
}

func newAdam(lr float64) *adam {
	return &adam{lr: lr, beta1: 0.9, beta2: 0.999, eps: 1e-8}
}

// update applies one Adam step to every parameter, scaling gradients by
// 1/batchSize, then clears them.
func (a *adam) update(params []*param, batchSize int) {
	a.step++
	bc1 := 1 - math.Pow(a.beta1, float64(a.step))
	bc2 := 1 - math.Pow(a.beta2, float64(a.step))
	inv := 1 / float64(batchSize)
	for _, p := range params {
		for i := range p.w {
			g := p.g[i] * inv
			p.m[i] = a.beta1*p.m[i] + (1-a.beta1)*g
			p.v[i] = a.beta2*p.v[i] + (1-a.beta2)*g*g
			mHat := p.m[i] / bc1
			vHat := p.v[i] / bc2
			p.w[i] -= a.lr * mHat / (math.Sqrt(vHat) + a.eps)
		}
		p.zeroGrad()
	}
}

func sigmoid(z float64) float64 { return 1 / (1 + math.Exp(-z)) }

func tanh(z float64) float64 { return math.Tanh(z) }
