package fl

import (
	"math"

	"venn/internal/stats"
)

// Model is multinomial (softmax) logistic regression: weights[class] is a
// feature-length vector plus a trailing bias term.
type Model struct {
	Classes  int
	Features int
	W        [][]float64 // Classes x (Features+1)
}

// NewModel returns a zero-initialized model.
func NewModel(classes, features int) *Model {
	w := make([][]float64, classes)
	for k := range w {
		w[k] = make([]float64, features+1)
	}
	return &Model{Classes: classes, Features: features, W: w}
}

// Clone deep-copies the model.
func (m *Model) Clone() *Model {
	n := NewModel(m.Classes, m.Features)
	for k := range m.W {
		copy(n.W[k], m.W[k])
	}
	return n
}

// logits computes class scores for x.
func (m *Model) logits(x []float64, out []float64) {
	for k := 0; k < m.Classes; k++ {
		w := m.W[k]
		s := w[m.Features] // bias
		for f := 0; f < m.Features; f++ {
			s += w[f] * x[f]
		}
		out[k] = s
	}
}

// softmax converts logits to probabilities in place.
func softmax(z []float64) {
	maxZ := z[0]
	for _, v := range z[1:] {
		if v > maxZ {
			maxZ = v
		}
	}
	sum := 0.0
	for i := range z {
		z[i] = math.Exp(z[i] - maxZ)
		sum += z[i]
	}
	for i := range z {
		z[i] /= sum
	}
}

// Accuracy returns classification accuracy over the examples.
func (m *Model) Accuracy(examples []Example) float64 {
	if len(examples) == 0 {
		return 0
	}
	correct := 0
	z := make([]float64, m.Classes)
	for _, ex := range examples {
		m.logits(ex.X, z)
		best, bestV := 0, z[0]
		for k, v := range z[1:] {
			if v > bestV {
				best, bestV = k+1, v
			}
		}
		if best == ex.Y {
			correct++
		}
	}
	return float64(correct) / float64(len(examples))
}

// TrainLocal runs epochs of shuffled SGD with the given learning rate and L2
// regularization, mutating the model in place.
func (m *Model) TrainLocal(examples []Example, epochs int, lr, l2 float64, rng *stats.RNG) {
	if len(examples) == 0 || epochs <= 0 {
		return
	}
	z := make([]float64, m.Classes)
	order := make([]int, len(examples))
	for i := range order {
		order[i] = i
	}
	for e := 0; e < epochs; e++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, idx := range order {
			ex := examples[idx]
			m.logits(ex.X, z)
			softmax(z)
			for k := 0; k < m.Classes; k++ {
				g := z[k]
				if k == ex.Y {
					g -= 1
				}
				w := m.W[k]
				for f := 0; f < m.Features; f++ {
					w[f] -= lr * (g*ex.X[f] + l2*w[f])
				}
				w[m.Features] -= lr * g
			}
		}
	}
}

// Sub returns m - other as a new model (the client update delta).
func (m *Model) Sub(other *Model) *Model {
	out := NewModel(m.Classes, m.Features)
	for k := range m.W {
		for i := range m.W[k] {
			out.W[k][i] = m.W[k][i] - other.W[k][i]
		}
	}
	return out
}

// AddScaled adds scale*delta to the model in place.
func (m *Model) AddScaled(delta *Model, scale float64) {
	for k := range m.W {
		for i := range m.W[k] {
			m.W[k][i] += scale * delta.W[k][i]
		}
	}
}

// FedAvg folds weighted client deltas into the global model: the standard
// federated-averaging update with weights proportional to sample counts.
func FedAvg(global *Model, deltas []*Model, weights []float64) {
	if len(deltas) == 0 {
		return
	}
	total := 0.0
	for _, w := range weights {
		total += w
	}
	if total <= 0 {
		total = float64(len(deltas))
		for i := range weights {
			weights[i] = 1
		}
	}
	for i, d := range deltas {
		global.AddScaled(d, weights[i]/total)
	}
}
