package snn

// Equivalence tests pinning the sparse hot-path engine against the
// dense pre-optimization semantics. The reference implementation below
// reproduces the original update rules verbatim — dense per-step trace
// decay, dense STDP loops with nonzero-trace checks, the column-strided
// At/Set potentiation walk, unconditional LIF decays — and shares only
// the two deliberately reordered computations (the SumRows drive
// accumulation and the O(NExc) lateral inhibition; see EXPERIMENTS.md
// for their calibration record). Everything else must match the engine
// bit for bit: spike trains, weights, traces.
//
// The reference additionally maintains a transposed weight view through
// the tensor transpose-sync kernels, verifying that dual-layout
// STDP/normalization (TransposeInto, NormalizeRows, the scatter
// kernels) tracks the engine's weights exactly.

import (
	"math"
	"testing"

	"snnfi/internal/encoding"
	"snnfi/internal/mnist"
	"snnfi/internal/tensor"
)

// refLIF is the pre-optimization LIF group loop: unconditional decays,
// no idle skipping, dense drive.
type refLIF struct {
	cfg     LIFConfig
	v       tensor.Vector
	theta   tensor.Vector
	trace   tensor.Vector
	refrac  []int
	tscale  tensor.Vector
	gain    tensor.Vector
	decay   float64
	thDecay float64
	trDecay float64
	scratch []int
}

func newRefLIF(cfg LIFConfig) *refLIF {
	g := &refLIF{
		cfg: cfg, v: tensor.NewVector(cfg.N), theta: tensor.NewVector(cfg.N), trace: tensor.NewVector(cfg.N),
		refrac: make([]int, cfg.N), tscale: tensor.NewVector(cfg.N), gain: tensor.NewVector(cfg.N),
		decay: math.Exp(-cfg.Dt / cfg.TCDecay), thDecay: 1, trDecay: 1,
	}
	g.v.Fill(cfg.Rest)
	g.tscale.Fill(1)
	g.gain.Fill(1)
	if cfg.ThetaDecayTC > 0 {
		g.thDecay = math.Exp(-cfg.Dt / cfg.ThetaDecayTC)
	}
	if cfg.TraceTC > 0 {
		g.trDecay = math.Exp(-cfg.Dt / cfg.TraceTC)
	}
	return g
}

func (g *refLIF) reset() {
	g.v.Fill(g.cfg.Rest)
	g.trace.Zero()
	for i := range g.refrac {
		g.refrac[i] = 0
	}
}

func (g *refLIF) step(drive tensor.Vector) []int {
	cfg := g.cfg
	g.scratch = g.scratch[:0]
	for i := 0; i < cfg.N; i++ {
		g.v[i] = cfg.Rest + (g.v[i]-cfg.Rest)*g.decay
		g.trace[i] *= g.trDecay
		g.theta[i] *= g.thDecay
		if g.refrac[i] > 0 {
			g.refrac[i]--
			continue
		}
		g.v[i] += drive[i] * g.gain[i]
		if g.v[i] >= (cfg.Thresh+g.theta[i])*g.tscale[i] {
			g.scratch = append(g.scratch, i)
			g.v[i] = cfg.Reset
			g.refrac[i] = cfg.Refrac
			g.theta[i] += cfg.ThetaPlus
			g.trace[i] = 1
		}
	}
	return g.scratch
}

// refNet is the dense reference network. w is the input-major weight
// matrix; wt is its transposed view maintained through the tensor
// kernels.
type refNet struct {
	cfg        DiehlCookConfig
	driveScale float64
	w, wt      *tensor.Matrix
	exc, inh   *refLIF
	preTrace   tensor.Vector
	driveExc   tensor.Vector
	driveInh   tensor.Vector
	prevExc    []int
	prevInh    []int
}

func newRefNet(t *testing.T, cfg DiehlCookConfig) *refNet {
	t.Helper()
	// Clone the engine's initial weights so both start bit-identical.
	eng, err := NewDiehlCook(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := &refNet{
		cfg: cfg,
		w:   eng.W.Copy(), wt: tensor.NewMatrix(cfg.NExc, cfg.NInput),
		exc: newRefLIF(ExcConfig(cfg.NExc)), inh: newRefLIF(InhConfig(cfg.NInh)),
		driveScale: 1,
		preTrace:   tensor.NewVector(cfg.NInput),
		driveExc:   tensor.NewVector(cfg.NExc),
		driveInh:   tensor.NewVector(cfg.NInh),
	}
	r.w.TransposeInto(r.wt)
	return r
}

// newFrozenRefNet is the dense reference of n's frozen inference view:
// weights, theta and fault hooks copied from n, with theta neither
// decaying nor adapting.
func newFrozenRefNet(t *testing.T, n *DiehlCook) *refNet {
	t.Helper()
	r := newRefNet(t, n.Cfg)
	r.w = n.W.Copy()
	r.w.TransposeInto(r.wt)
	r.driveScale = n.InputDriveScale
	for _, l := range []struct {
		ref *refLIF
		g   *LIFGroup
	}{{r.exc, n.Exc}, {r.inh, n.Inh}} {
		copy(l.ref.theta, l.g.Theta)
		copy(l.ref.tscale, l.g.ThreshScale)
		copy(l.ref.gain, l.g.InputGain)
		l.ref.thDecay, l.ref.cfg.ThetaPlus = 1, 0
	}
	return r
}

func (r *refNet) normalize() {
	r.w.NormalizeCols(r.cfg.Norm)
	// The transposed layout normalizes by rows; both must stay in sync
	// bit for bit (checked by the test after every image).
	r.wt.NormalizeRows(r.cfg.Norm)
}

func (r *refNet) reset() {
	r.exc.reset()
	r.inh.reset()
	r.preTrace.Zero()
	r.prevExc = r.prevExc[:0]
	r.prevInh = r.prevInh[:0]
}

func (r *refNet) step(inputSpikes []int, learn bool) []int {
	cfg := &r.cfg
	// Shared-order drive accumulation and O(NExc) inhibition — the two
	// reordered summations, identical to the engine's.
	if r.driveScale != 1 {
		r.w.SumRowsScaled(inputSpikes, r.driveScale, r.driveExc)
	} else {
		r.w.SumRows(inputSpikes, r.driveExc)
	}
	if k := len(r.prevInh); k > 0 {
		sub := float64(k) * cfg.WInhExc
		for i := range r.driveExc {
			r.driveExc[i] -= sub
		}
		for _, j := range r.prevInh {
			r.driveExc[j] += cfg.WInhExc
		}
	}
	excSpikes := r.exc.step(r.driveExc)

	r.driveInh.Zero()
	for _, j := range r.prevExc {
		r.driveInh[j] += cfg.WExcInh
	}
	inhSpikes := r.inh.step(r.driveInh)

	// Dense pre-optimization STDP, mirrored into the transposed view.
	if learn {
		for _, i := range inputSpikes {
			row := r.w.Row(i)
			for j, tr := range r.exc.trace {
				if tr == 0 {
					continue
				}
				w := row[j] - cfg.NuPre*tr
				if w < 0 {
					w = 0
				}
				row[j] = w
				r.wt.Set(j, i, w)
			}
		}
		for _, j := range excSpikes {
			for i := 0; i < cfg.NInput; i++ {
				if tr := r.preTrace[i]; tr != 0 {
					w := r.w.At(i, j) + cfg.NuPost*tr
					if w > cfg.WMax {
						w = cfg.WMax
					}
					r.w.Set(i, j, w)
					r.wt.Set(j, i, w)
				}
			}
		}
	}

	// Dense per-step trace decay, then set on spike.
	r.preTrace.Scale(preTraceDecayPerMs)
	for _, i := range inputSpikes {
		r.preTrace[i] = 1
	}

	r.prevExc = append(r.prevExc[:0], excSpikes...)
	r.prevInh = append(r.prevInh[:0], inhSpikes...)
	return excSpikes
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestEngineMatchesDenseReference drives the sparse engine and the
// dense reference over identical spike trains and demands bit-identical
// spikes, traces and weights at every step, plus an exactly transposed
// weight view.
func TestEngineMatchesDenseReference(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NExc, cfg.NInh = 25, 25
	cfg.Steps = 100
	cfg.RestSteps = 5

	eng, err := NewDiehlCook(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefNet(t, cfg)
	if !eng.W.Equal(ref.w, 0) {
		t.Fatal("initial weights differ")
	}

	images := mnist.Synthetic(3, 9)
	enc := encoding.NewPoissonEncoder(11)
	totalSpikes := 0
	for imgIdx := range images {
		train := enc.Encode(&images[imgIdx], cfg.Steps)

		eng.NormalizeWeights()
		eng.ResetState()
		ref.normalize()
		ref.reset()

		for st, spikes := range train {
			es := eng.Step(spikes, true)
			rs := ref.step(spikes, true)
			if !sameInts(es, rs) {
				t.Fatalf("img %d step %d: exc spikes diverge: engine %v, reference %v", imgIdx, st, es, rs)
			}
			totalSpikes += len(es)
			// Lazy pre-trace must equal the dense per-step decay.
			for _, i := range spikes {
				if got, want := eng.PreTrace(i), ref.preTrace[i]; got != want {
					t.Fatalf("img %d step %d: pre-trace of pixel %d: engine %g, reference %g", imgIdx, st, i, got, want)
				}
			}
		}
		for st := 0; st < cfg.RestSteps; st++ {
			es := eng.Step(nil, false)
			rs := ref.step(nil, false)
			if !sameInts(es, rs) {
				t.Fatalf("img %d rest step %d: exc spikes diverge: engine %v, reference %v", imgIdx, st, es, rs)
			}
		}

		if !eng.W.Equal(ref.w, 0) {
			t.Fatalf("img %d: weights diverge from dense reference", imgIdx)
		}
		for j := 0; j < cfg.NExc; j++ {
			for i := 0; i < cfg.NInput; i++ {
				if ref.wt.At(j, i) != ref.w.At(i, j) {
					t.Fatalf("img %d: transposed view out of sync at (%d,%d)", imgIdx, j, i)
				}
			}
		}
	}
	if totalSpikes == 0 {
		t.Fatal("equivalence run produced no excitatory spikes; the comparison is vacuous")
	}
}

// TestRunImageStreamMatchesMaterialized pins the streaming encoder path
// against Encode+RunImage: same seed, bit-identical spike counts and
// weights.
func TestRunImageStreamMatchesMaterialized(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NExc, cfg.NInh = 30, 30
	cfg.Steps = 120

	n1, err := NewDiehlCook(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n2, err := NewDiehlCook(cfg)
	if err != nil {
		t.Fatal(err)
	}
	images := mnist.Synthetic(4, 3)
	encA := encoding.NewPoissonEncoder(7)
	encB := encoding.NewPoissonEncoder(7)

	for i := range images {
		c1 := n1.RunImage(encA.Encode(&images[i], cfg.Steps), true)
		encB.Begin(&images[i])
		c2 := n2.RunImageStream(encB.EncodeStep, true)
		for j := range c1 {
			if c1[j] != c2[j] {
				t.Fatalf("img %d: spike counts diverge at neuron %d: %g vs %g", i, j, c1[j], c2[j])
			}
		}
	}
	if !n1.W.Equal(n2.W, 0) {
		t.Fatal("weights diverge between materialized and streaming paths")
	}
}
