// Package nn implements the small dense-network substrate DDPG needs:
// fully-connected layers with ReLU/tanh/linear activations, exact
// backpropagation, and the Adam optimizer. Everything is float64 and
// allocation-simple — the networks here are tiny (two hidden layers of 64
// units, as in CDBTune's DDPG configuration).
package nn

import (
	"math"

	"relm/internal/simrand"
)

// Activation selects a layer non-linearity.
type Activation int

// Supported activations.
const (
	Linear Activation = iota
	ReLU
	Tanh
)

func actF(a Activation, v float64) float64 {
	switch a {
	case ReLU:
		if v < 0 {
			return 0
		}
		return v
	case Tanh:
		return math.Tanh(v)
	default:
		return v
	}
}

// actDF returns the derivative given the pre-activation value.
func actDF(a Activation, v float64) float64 {
	switch a {
	case ReLU:
		if v < 0 {
			return 0
		}
		return 1
	case Tanh:
		t := math.Tanh(v)
		return 1 - t*t
	default:
		return 1
	}
}

// Net is a fully-connected feed-forward network.
type Net struct {
	sizes []int
	acts  []Activation // one per layer transition
	w     [][]float64  // w[l][out*in+i]
	b     [][]float64

	// Adam state, allocated by the first AdamStep: the moments start at
	// zero, and a net that never trains (a target, an untrained actor)
	// never needs them.
	mw, vw, mb, vb [][]float64
	step           int
}

// NewNet builds a network with the given layer sizes. hidden applies to all
// transitions except the last, which uses output.
func NewNet(rng *simrand.Rand, sizes []int, hidden, output Activation) *Net {
	if len(sizes) < 2 {
		panic("nn: need at least input and output sizes")
	}
	n := &Net{sizes: append([]int(nil), sizes...)}
	layers := len(sizes) - 1
	for l := 0; l < layers; l++ {
		in, out := sizes[l], sizes[l+1]
		w := make([]float64, in*out)
		// Xavier/Glorot initialization.
		scale := math.Sqrt(2.0 / float64(in+out))
		for i := range w {
			w[i] = rng.Norm(0, scale)
		}
		n.w = append(n.w, w)
		n.b = append(n.b, make([]float64, out))
		act := hidden
		if l == layers-1 {
			act = output
		}
		n.acts = append(n.acts, act)
	}
	return n
}

// ParamCount returns the number of trainable parameters.
func (n *Net) ParamCount() int {
	c := 0
	for l := range n.w {
		c += len(n.w[l]) + len(n.b[l])
	}
	return c
}

// Tape stores the forward-pass intermediates needed by Backward.
type Tape struct {
	inputs  [][]float64 // input to each layer
	preacts [][]float64 // pre-activation of each layer
}

// Forward computes the network output; when tape is non-nil the
// intermediates are recorded for backpropagation.
func (n *Net) Forward(x []float64, tape *Tape) []float64 {
	cur := x
	for l := range n.w {
		in, out := n.sizes[l], n.sizes[l+1]
		pre := make([]float64, out)
		for o := 0; o < out; o++ {
			s := n.b[l][o]
			row := n.w[l][o*in : (o+1)*in]
			for i, v := range cur {
				s += row[i] * v
			}
			pre[o] = s
		}
		if tape != nil {
			tape.inputs = append(tape.inputs, cur)
			tape.preacts = append(tape.preacts, pre)
		}
		next := make([]float64, out)
		for o, v := range pre {
			next[o] = actF(n.acts[l], v)
		}
		cur = next
	}
	return cur
}

// Grads holds parameter gradients with the same shapes as the network.
type Grads struct {
	W [][]float64
	B [][]float64
}

// NewGrads allocates zeroed gradients for n.
func (n *Net) NewGrads() *Grads {
	g := &Grads{}
	for l := range n.w {
		g.W = append(g.W, make([]float64, len(n.w[l])))
		g.B = append(g.B, make([]float64, len(n.b[l])))
	}
	return g
}

// Backward accumulates parameter gradients for one example into g and
// returns the gradient with respect to the input. gradOut is dLoss/dOutput.
func (n *Net) Backward(tape *Tape, gradOut []float64, g *Grads) []float64 {
	grad := append([]float64(nil), gradOut...)
	for l := len(n.w) - 1; l >= 0; l-- {
		in, out := n.sizes[l], n.sizes[l+1]
		pre := tape.preacts[l]
		input := tape.inputs[l]
		// Through the activation.
		for o := 0; o < out; o++ {
			grad[o] *= actDF(n.acts[l], pre[o])
		}
		// Parameter gradients.
		for o := 0; o < out; o++ {
			row := g.W[l][o*in : (o+1)*in]
			for i := 0; i < in; i++ {
				row[i] += grad[o] * input[i]
			}
			g.B[l][o] += grad[o]
		}
		// Input gradient.
		next := make([]float64, in)
		for i := 0; i < in; i++ {
			var s float64
			for o := 0; o < out; o++ {
				s += n.w[l][o*in+i] * grad[o]
			}
			next[i] = s
		}
		grad = next
	}
	return grad
}

// AdamStep applies one Adam update with the accumulated gradients (scaled by
// 1/batch) and zeroes them.
func (n *Net) AdamStep(g *Grads, lr float64, batch int) {
	const (
		beta1 = 0.9
		beta2 = 0.999
		eps   = 1e-8
	)
	if n.mw == nil {
		for l := range n.w {
			n.mw = append(n.mw, make([]float64, len(n.w[l])))
			n.vw = append(n.vw, make([]float64, len(n.w[l])))
			n.mb = append(n.mb, make([]float64, len(n.b[l])))
			n.vb = append(n.vb, make([]float64, len(n.b[l])))
		}
	}
	n.step++
	bc1 := 1 - math.Pow(beta1, float64(n.step))
	bc2 := 1 - math.Pow(beta2, float64(n.step))
	scale := 1.0
	if batch > 0 {
		scale = 1 / float64(batch)
	}
	for l := range n.w {
		for i := range n.w[l] {
			grad := g.W[l][i] * scale
			n.mw[l][i] = beta1*n.mw[l][i] + (1-beta1)*grad
			n.vw[l][i] = beta2*n.vw[l][i] + (1-beta2)*grad*grad
			n.w[l][i] -= lr * (n.mw[l][i] / bc1) / (math.Sqrt(n.vw[l][i]/bc2) + eps)
			g.W[l][i] = 0
		}
		for i := range n.b[l] {
			grad := g.B[l][i] * scale
			n.mb[l][i] = beta1*n.mb[l][i] + (1-beta1)*grad
			n.vb[l][i] = beta2*n.vb[l][i] + (1-beta2)*grad*grad
			n.b[l][i] -= lr * (n.mb[l][i] / bc1) / (math.Sqrt(n.vb[l][i]/bc2) + eps)
			g.B[l][i] = 0
		}
	}
}

// CopyFrom hard-copies parameters from src (same architecture required).
func (n *Net) CopyFrom(src *Net) {
	for l := range n.w {
		copy(n.w[l], src.w[l])
		copy(n.b[l], src.b[l])
	}
}

// SoftUpdate moves parameters toward src: θ ← (1−τ)θ + τ·θ_src.
func (n *Net) SoftUpdate(src *Net, tau float64) {
	for l := range n.w {
		for i := range n.w[l] {
			n.w[l][i] = (1-tau)*n.w[l][i] + tau*src.w[l][i]
		}
		for i := range n.b[l] {
			n.b[l][i] = (1-tau)*n.b[l][i] + tau*src.b[l][i]
		}
	}
}

// Snapshot is the serializable form of a network's parameters.
type Snapshot struct {
	Sizes []int
	Acts  []Activation
	W     [][]float64
	B     [][]float64
}

// Snapshot captures the current parameters (weights and biases only; the
// Adam state is training-local).
func (n *Net) Snapshot() Snapshot {
	s := Snapshot{
		Sizes: append([]int(nil), n.sizes...),
		Acts:  append([]Activation(nil), n.acts...),
	}
	for l := range n.w {
		s.W = append(s.W, append([]float64(nil), n.w[l]...))
		s.B = append(s.B, append([]float64(nil), n.b[l]...))
	}
	return s
}

// Restore loads a snapshot into the network; the architecture must match.
func (n *Net) Restore(s Snapshot) error {
	if len(s.Sizes) != len(n.sizes) {
		return errMismatch
	}
	for i, v := range s.Sizes {
		if n.sizes[i] != v {
			return errMismatch
		}
	}
	for l := range n.w {
		if len(s.W[l]) != len(n.w[l]) || len(s.B[l]) != len(n.b[l]) {
			return errMismatch
		}
		copy(n.w[l], s.W[l])
		copy(n.b[l], s.B[l])
	}
	return nil
}

type mismatchError struct{}

func (mismatchError) Error() string { return "nn: snapshot architecture mismatch" }

var errMismatch = mismatchError{}

// Clone returns a deep copy (including a reset Adam state).
func (n *Net) Clone() *Net {
	c := &Net{sizes: append([]int(nil), n.sizes...), acts: append([]Activation(nil), n.acts...)}
	for l := range n.w {
		c.w = append(c.w, append([]float64(nil), n.w[l]...))
		c.b = append(c.b, append([]float64(nil), n.b[l]...))
	}
	return c
}
