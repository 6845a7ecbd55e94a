package nn

import (
	"fmt"
	"math"
)

// Exported is the CNN_LSTM's serialisation form: the architecture
// hyper-parameters, all weight tensors flattened, and the fitted input
// scaler.
type Exported struct {
	SeqLen   int
	Features int
	Filters  int
	Kernel   int
	Hidden   int

	ConvW, ConvB []float64
	LSTMW, LSTMB []float64
	OutW, OutB   []float64

	Mean, Std []float64
}

// Export returns the network's serialisation form.
func (m *Model) Export() Exported {
	cp := func(p *param) []float64 { return append([]float64(nil), p.w...) }
	return Exported{
		SeqLen:   m.cfg.SeqLen,
		Features: m.cfg.Features,
		Filters:  m.cfg.Filters,
		Kernel:   m.cfg.Kernel,
		Hidden:   m.cfg.Hidden,
		ConvW:    cp(m.convW),
		ConvB:    cp(m.convB),
		LSTMW:    cp(m.lstmW),
		LSTMB:    cp(m.lstmB),
		OutW:     cp(m.outW),
		OutB:     cp(m.outB),
		Mean:     append([]float64(nil), m.mean...),
		Std:      append([]float64(nil), m.std...),
	}
}

// Import reconstructs a CNN_LSTM from its serialisation form. It
// rejects wrong tensor sizes, NaN or infinite values in any tensor or
// scaler column, and non-positive scaler stds.
func Import(e Exported) (*Model, error) {
	if e.SeqLen < 1 || e.Features < 1 || e.Filters < 1 || e.Kernel < 1 || e.Hidden < 1 {
		return nil, fmt.Errorf("nn: invalid architecture %d/%d/%d/%d/%d",
			e.SeqLen, e.Features, e.Filters, e.Kernel, e.Hidden)
	}
	tensors := []struct {
		name string
		vals []float64
		want int
	}{
		{"ConvW", e.ConvW, e.Filters * e.Kernel * e.Features},
		{"ConvB", e.ConvB, e.Filters},
		{"LSTMW", e.LSTMW, 4 * e.Hidden * (e.Filters + e.Hidden)},
		{"LSTMB", e.LSTMB, 4 * e.Hidden},
		{"OutW", e.OutW, e.Hidden},
		{"OutB", e.OutB, 1},
		{"Mean", e.Mean, e.Features},
		{"Std", e.Std, e.Features},
	}
	for _, t := range tensors {
		if len(t.vals) != t.want {
			return nil, fmt.Errorf("nn: %s has %d values, want %d", t.name, len(t.vals), t.want)
		}
		for i, v := range t.vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("nn: non-finite %s[%d] = %v", t.name, i, v)
			}
		}
	}
	for i, s := range e.Std {
		if s <= 0 {
			return nil, fmt.Errorf("nn: non-positive scaler std at %d", i)
		}
	}
	cfg := CNNLSTMTrainer{
		SeqLen: e.SeqLen, Features: e.Features,
		Filters: e.Filters, Kernel: e.Kernel, Hidden: e.Hidden,
	}
	m := &Model{
		cfg:   cfg,
		convW: paramFrom(e.ConvW),
		convB: paramFrom(e.ConvB),
		lstmW: paramFrom(e.LSTMW),
		lstmB: paramFrom(e.LSTMB),
		outW:  paramFrom(e.OutW),
		outB:  paramFrom(e.OutB),
		mean:  append([]float64(nil), e.Mean...),
		std:   append([]float64(nil), e.Std...),
	}
	return m, nil
}

func paramFrom(w []float64) *param {
	p := newParam(len(w))
	copy(p.w, w)
	return p
}
