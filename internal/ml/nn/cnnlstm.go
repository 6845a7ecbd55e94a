package nn

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/ml"
)

// CNNLSTMTrainer trains the paper's CNN_LSTM model: conv1d over the
// time axis → ReLU → LSTM → dense sigmoid head. Samples carry a window
// of SeqLen consecutive observations flattened time-major into X
// (len(X) == SeqLen*Features); the sampling layer produces exactly this
// layout. Zero-valued hyper-parameters select the defaults below;
// negative ones are rejected by Train.
type CNNLSTMTrainer struct {
	// SeqLen is the number of timesteps per sample. Required.
	SeqLen int
	// Features is the per-timestep feature count. Required.
	Features int
	// Filters is the number of conv1d output channels; 0 selects 16.
	Filters int
	// Kernel is the conv window length in timesteps; 0 selects 3.
	Kernel int
	// Hidden is the LSTM state size; 0 selects 32.
	Hidden int
	// Epochs is the number of training passes; 0 selects 30.
	Epochs int
	// Batch is the minibatch size; 0 selects 32.
	Batch int
	// LearningRate for Adam; 0 selects 1e-3.
	LearningRate float64
	// Seed drives initialisation and shuffling.
	Seed int64
}

// Name implements ml.Trainer.
func (t *CNNLSTMTrainer) Name() string { return "CNN_LSTM" }

// Train implements ml.Trainer.
func (t *CNNLSTMTrainer) Train(samples []ml.Sample) (ml.Classifier, error) {
	if err := ml.ValidateSamples(samples, true); err != nil {
		return nil, err
	}
	if t.SeqLen <= 0 || t.Features <= 0 {
		return nil, fmt.Errorf("nn: SeqLen and Features must be set (have %d, %d)", t.SeqLen, t.Features)
	}
	if want := t.SeqLen * t.Features; len(samples[0].X) != want {
		return nil, fmt.Errorf("nn: sample width %d, want SeqLen*Features = %d", len(samples[0].X), want)
	}
	cfg := *t
	if cfg.Filters == 0 {
		cfg.Filters = 16
	}
	if cfg.Kernel == 0 {
		cfg.Kernel = 3
	}
	if cfg.Hidden == 0 {
		cfg.Hidden = 32
	}
	if cfg.Epochs == 0 {
		cfg.Epochs = 30
	}
	if cfg.Batch == 0 {
		cfg.Batch = 32
	}
	if cfg.LearningRate == 0 {
		cfg.LearningRate = 1e-3
	}
	if cfg.Filters < 0 || cfg.Kernel < 0 || cfg.Hidden < 0 || cfg.Epochs < 0 || cfg.Batch < 0 {
		return nil, fmt.Errorf("nn: Filters, Kernel, Hidden, Epochs and Batch must not be negative (have %d, %d, %d, %d, %d)",
			cfg.Filters, cfg.Kernel, cfg.Hidden, cfg.Epochs, cfg.Batch)
	}
	if !(cfg.LearningRate > 0) || math.IsInf(cfg.LearningRate, 1) {
		return nil, fmt.Errorf("nn: LearningRate must be positive and finite (have %g)", cfg.LearningRate)
	}

	r := rand.New(rand.NewSource(cfg.Seed + 42))
	m := newModel(&cfg, r)
	m.fitScaler(samples)

	opt := newAdam(cfg.LearningRate)
	params := m.params()
	ws := newWorkspace(&cfg)
	order := make([]int, len(samples))
	for i := range order {
		order[i] = i
	}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for start := 0; start < len(order); start += cfg.Batch {
			end := start + cfg.Batch
			if end > len(order) {
				end = len(order)
			}
			for _, i := range order[start:end] {
				m.backward(ws, samples[i].X, float64(samples[i].Y))
			}
			opt.update(params, end-start)
		}
	}
	return m, nil
}

// Model is a fitted CNN_LSTM network.
type Model struct {
	cfg CNNLSTMTrainer

	// Conv1d: convW[c][k*F+f], convB[c].
	convW, convB *param
	// LSTM packed gates in i,f,o,g order: lstmW[gate*H+h][C+H], lstmB.
	lstmW, lstmB *param
	// Dense head.
	outW, outB *param

	// Input z-score scaler, fitted on training data.
	mean, std []float64

	// pool recycles forward workspaces so that PredictProba allocates
	// nothing in steady state and stays safe for concurrent use.
	pool sync.Pool
}

func newModel(cfg *CNNLSTMTrainer, r *rand.Rand) *Model {
	F, C, K, H := cfg.Features, cfg.Filters, cfg.Kernel, cfg.Hidden
	m := &Model{
		cfg:   *cfg,
		convW: newParam(C * K * F),
		convB: newParam(C),
		lstmW: newParam(4 * H * (C + H)),
		lstmB: newParam(4 * H),
		outW:  newParam(H),
		outB:  newParam(1),
	}
	m.convW.initUniform(r, math.Sqrt(2/float64(K*F)))
	m.lstmW.initUniform(r, math.Sqrt(1/float64(C+H)))
	m.outW.initUniform(r, math.Sqrt(1/float64(H)))
	// Forget-gate bias starts at 1 so early training retains memory.
	for h := 0; h < H; h++ {
		m.lstmB.w[H+h] = 1
	}
	return m
}

func (m *Model) params() []*param {
	return []*param{m.convW, m.convB, m.lstmW, m.lstmB, m.outW, m.outB}
}

func (m *Model) fitScaler(samples []ml.Sample) {
	F := m.cfg.Features
	m.mean = make([]float64, F)
	m.std = make([]float64, F)
	n := 0
	for i := range samples {
		for j, v := range samples[i].X {
			m.mean[j%F] += v
		}
		n += m.cfg.SeqLen
	}
	for f := range m.mean {
		m.mean[f] /= float64(n)
	}
	for i := range samples {
		for j, v := range samples[i].X {
			d := v - m.mean[j%F]
			m.std[j%F] += d * d
		}
	}
	for f := range m.std {
		m.std[f] = math.Sqrt(m.std[f] / float64(n))
		if m.std[f] < 1e-12 {
			m.std[f] = 1
		}
	}
}

// workspace holds every activation and gradient buffer one sample's
// forward and backward passes need, flattened row-major: T×F, T×C and
// T×H. A workspace serves one goroutine at a time and is reused from
// sample to sample: forward overwrites every activation it later
// reads, and backward clears its gradient buffers before accumulating.
type workspace struct {
	x            []float64 // scaled input, T×F
	convZ, convA []float64 // conv pre-activation and ReLU output, T×C
	// LSTM gates, cell state, tanh(cell) and hidden state, all T×H.
	gi, gf, gout, gg []float64
	cell, cellTanh   []float64
	hidden           []float64
	zeros            []float64 // H zeros: the state before the first step

	dH     []float64 // dL/dh_t, T×H
	dA     []float64 // dL/d convA, T×C
	dCNext []float64 // dL/dc_{t+1}, H

	prob float64 // output of the last forward pass
}

func newWorkspace(cfg *CNNLSTMTrainer) *workspace {
	T, F, C, H := cfg.SeqLen, cfg.Features, cfg.Filters, cfg.Hidden
	backing := make([]float64, T*F+3*T*C+8*T*H+2*H)
	take := func(n int) []float64 {
		s := backing[:n:n]
		backing = backing[n:]
		return s
	}
	return &workspace{
		x:     take(T * F),
		convZ: take(T * C), convA: take(T * C),
		gi: take(T * H), gf: take(T * H), gout: take(T * H), gg: take(T * H),
		cell: take(T * H), cellTanh: take(T * H), hidden: take(T * H),
		zeros: take(H),
		dH:    take(T * H), dA: take(T * C), dCNext: take(H),
	}
}

// forward runs the network on raw input x, leaving the activations
// backward needs in ws and the output probability in ws.prob.
func (m *Model) forward(ws *workspace, x []float64) {
	T, F, C, K, H := m.cfg.SeqLen, m.cfg.Features, m.cfg.Filters, m.cfg.Kernel, m.cfg.Hidden

	// z-score the input.
	for t := 0; t < T; t++ {
		src := x[t*F : t*F+F]
		dst := ws.x[t*F:][:len(src)]
		mean, std := m.mean[:len(src)], m.std[:len(src)]
		for f, v := range src {
			dst[f] = (v - mean[f]) / std[f]
		}
	}

	// Conv1d with zero ("same") padding: taps outside [0, T) are
	// skipped, so each channel starts at its bias and adds the in-range
	// taps k-major, f-minor.
	half := K / 2
	kf := K * F
	cw, cb := m.convW.w, m.convB.w[:C]
	for t := 0; t < T; t++ {
		kLo, kHi := max(0, half-t), min(K, T+half-t)
		z := ws.convZ[t*C:][:C]
		for c := range z {
			zc := cb[c]
			for k := kLo; k < kHi; k++ {
				row := ws.x[(t+k-half)*F:][:F]
				w := cw[c*kf+k*F:][:len(row)]
				for f, v := range row {
					zc += w[f] * v
				}
			}
			z[c] = zc
		}
		a := ws.convA[t*C:][:len(z)]
		for c, v := range z {
			if v > 0 {
				a[c] = v
			} else {
				a[c] = 0
			}
		}
	}

	// LSTM over T steps. Each gate sum starts at 0 and adds the C conv
	// inputs, then the H recurrent ones.
	in := C + H
	lw, lb := m.lstmW.w, m.lstmB.w[:4*H]
	prevH, prevC := ws.zeros, ws.zeros
	for t := 0; t < T; t++ {
		a := ws.convA[t*C:][:C]
		gi, gf, gout, gg := ws.gi[t*H:][:H], ws.gf[t*H:][:H], ws.gout[t*H:][:H], ws.gg[t*H:][:H]
		cell, cellTanh, hidden := ws.cell[t*H:][:H], ws.cellTanh[t*H:][:H], ws.hidden[t*H:][:H]
		for h := 0; h < H; h++ {
			wi := lw[(0*H+h)*in:][:in]
			wf := lw[(1*H+h)*in:][:in]
			wo := lw[(2*H+h)*in:][:in]
			wg := lw[(3*H+h)*in:][:in]
			var zi, zf, zo, zg float64
			ai, af, ao, ag := wi[:len(a)], wf[:len(a)], wo[:len(a)], wg[:len(a)]
			for j, v := range a {
				zi += ai[j] * v
				zf += af[j] * v
				zo += ao[j] * v
				zg += ag[j] * v
			}
			ri, rf, ro, rg := wi[C:][:len(prevH)], wf[C:][:len(prevH)], wo[C:][:len(prevH)], wg[C:][:len(prevH)]
			for j, v := range prevH {
				zi += ri[j] * v
				zf += rf[j] * v
				zo += ro[j] * v
				zg += rg[j] * v
			}
			i := sigmoid(zi + lb[0*H+h])
			f := sigmoid(zf + lb[1*H+h])
			o := sigmoid(zo + lb[2*H+h])
			g := tanh(zg + lb[3*H+h])
			c := f*prevC[h] + i*g
			ct := tanh(c)
			gi[h], gf[h], gout[h], gg[h] = i, f, o, g
			cell[h], cellTanh[h] = c, ct
			hidden[h] = o * ct
		}
		prevH, prevC = hidden, cell
	}

	// Dense sigmoid head on the final hidden state.
	z := m.outB.w[0]
	ow := m.outW.w[:len(prevH)]
	for h, v := range prevH {
		z += ow[h] * v
	}
	ws.prob = sigmoid(z)
}

// backward accumulates gradients of the BCE loss for one sample into
// the parameters' g buffers, using ws for activations and scratch.
func (m *Model) backward(ws *workspace, x []float64, y float64) {
	T, F, C, K, H := m.cfg.SeqLen, m.cfg.Features, m.cfg.Filters, m.cfg.Kernel, m.cfg.Hidden
	m.forward(ws, x)
	clear(ws.dH)
	clear(ws.dA)
	clear(ws.dCNext)

	// dL/dlogit for BCE + sigmoid.
	dz := ws.prob - y
	m.outB.g[0] += dz
	last := ws.hidden[(T-1)*H:][:H]
	dLast := ws.dH[(T-1)*H:][:len(last)]
	ow, og := m.outW.w[:len(last)], m.outW.g[:len(last)]
	for h, v := range last {
		og[h] += dz * v
		dLast[h] += dz * ow[h]
	}

	// BPTT.
	in := C + H
	lw, lg, bg := m.lstmW.w, m.lstmW.g, m.lstmB.g[:4*H]
	dCNext := ws.dCNext[:H]
	for t := T - 1; t >= 0; t-- {
		prevH, prevC := ws.zeros, ws.zeros
		var dPrev []float64 // dL/dh_{t-1}; none before the first step
		if t > 0 {
			prevH = ws.hidden[(t-1)*H:][:H]
			prevC = ws.cell[(t-1)*H:][:H]
			dPrev = ws.dH[(t-1)*H:][:H]
		}
		a := ws.convA[t*C:][:C]
		dA := ws.dA[t*C:][:len(a)]
		dH := ws.dH[t*H:][:H]
		gis, gfs, gos, ggs := ws.gi[t*H:][:H], ws.gf[t*H:][:H], ws.gout[t*H:][:H], ws.gg[t*H:][:H]
		cts := ws.cellTanh[t*H:][:H]
		for h := 0; h < H; h++ {
			dh := dH[h]
			ct := cts[h]
			gout := gos[h]
			dc := dCNext[h] + dh*gout*(1-ct*ct)

			gi, gf, gg := gis[h], gfs[h], ggs[h]
			dzo := dh * ct * gout * (1 - gout)
			dzi := dc * gg * gi * (1 - gi)
			dzf := dc * prevC[h] * gf * (1 - gf)
			dzg := dc * gi * (1 - gg*gg)
			dCNext[h] = dc * gf

			bg[0*H+h] += dzi
			bg[1*H+h] += dzf
			bg[2*H+h] += dzo
			bg[3*H+h] += dzg

			wi := lw[(0*H+h)*in:][:in]
			wf := lw[(1*H+h)*in:][:in]
			wo := lw[(2*H+h)*in:][:in]
			wg := lw[(3*H+h)*in:][:in]
			gI := lg[(0*H+h)*in:][:in]
			gF := lg[(1*H+h)*in:][:in]
			gO := lg[(2*H+h)*in:][:in]
			gG := lg[(3*H+h)*in:][:in]

			ai, af, ao, ag := wi[:len(a)], wf[:len(a)], wo[:len(a)], wg[:len(a)]
			si, sf, so, sg := gI[:len(a)], gF[:len(a)], gO[:len(a)], gG[:len(a)]
			for j, v := range a {
				si[j] += dzi * v
				sf[j] += dzf * v
				so[j] += dzo * v
				sg[j] += dzg * v
				dA[j] += dzi*ai[j] + dzf*af[j] + dzo*ao[j] + dzg*ag[j]
			}

			ri, rf, ro, rg := wi[C:][:len(prevH)], wf[C:][:len(prevH)], wo[C:][:len(prevH)], wg[C:][:len(prevH)]
			si, sf, so, sg = gI[C:][:len(prevH)], gF[C:][:len(prevH)], gO[C:][:len(prevH)], gG[C:][:len(prevH)]
			for j, v := range prevH {
				si[j] += dzi * v
				sf[j] += dzf * v
				so[j] += dzo * v
				sg[j] += dzg * v
			}
			if dPrev != nil {
				dPrev := dPrev[:len(ri)]
				for j := range dPrev {
					dPrev[j] += dzi*ri[j] + dzf*rf[j] + dzo*ro[j] + dzg*rg[j]
				}
			}
		}
	}

	// Conv backward (ReLU mask; input gradient not needed).
	half := K / 2
	kf := K * F
	cg, cbg := m.convW.g, m.convB.g[:C]
	for t := 0; t < T; t++ {
		kLo, kHi := max(0, half-t), min(K, T+half-t)
		z := ws.convZ[t*C:][:len(cbg)]
		dA := ws.dA[t*C:][:len(z)]
		for c, zc := range z {
			if zc <= 0 {
				continue
			}
			g := dA[c]
			if g == 0 {
				continue
			}
			cbg[c] += g
			for k := kLo; k < kHi; k++ {
				row := ws.x[(t+k-half)*F:][:F]
				wg := cg[c*kf+k*F:][:len(row)]
				for f, v := range row {
					wg[f] += g * v
				}
			}
		}
	}
}

// PredictProba implements ml.Classifier. It is safe for concurrent
// use: each call borrows its own workspace from the model's pool.
func (m *Model) PredictProba(x []float64) float64 {
	ws, ok := m.pool.Get().(*workspace)
	if !ok {
		ws = newWorkspace(&m.cfg)
	}
	m.forward(ws, x)
	p := ws.prob
	m.pool.Put(ws)
	return p
}
