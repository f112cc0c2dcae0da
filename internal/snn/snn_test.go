package snn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"snnfi/internal/encoding"
	"snnfi/internal/mnist"
	"snnfi/internal/tensor"
)

// lifHarness runs one group the way a learning network runs its
// excitatory layer: theta adaptation around the shared LIF update.
type lifHarness struct {
	g      *LIFGroup
	gp     GroupParams
	v      tensor.Vector
	refrac []int
	spikes []int
}

func newLIFHarness(t *testing.T, cfg LIFConfig) *lifHarness {
	t.Helper()
	g, err := NewLIFGroup(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := &lifHarness{g: g, gp: freezeGroup(g), v: tensor.NewVector(cfg.N), refrac: make([]int, cfg.N)}
	h.v.Fill(cfg.Rest)
	return h
}

func excGroup(t *testing.T, n int) *lifHarness {
	t.Helper()
	return newLIFHarness(t, ExcConfig(n))
}

// step advances the group one timestep; a nil drive is the idle step.
func (h *lifHarness) step(drive tensor.Vector) []int {
	h.g.adapt(h.gp.EffThresh, decayPer(h.g.Cfg.Dt, h.g.Cfg.ThetaDecayTC))
	h.spikes = h.gp.step(h.v, h.refrac, drive, h.spikes)
	for _, j := range h.spikes {
		h.g.Theta[j] += h.g.Cfg.ThetaPlus
	}
	return h.spikes
}

func TestLIFConfigValidation(t *testing.T) {
	bad := ExcConfig(0)
	if _, err := NewLIFGroup(bad); err == nil {
		t.Fatal("N=0 must fail")
	}
	bad = ExcConfig(5)
	bad.Thresh = bad.Rest - 1
	if _, err := NewLIFGroup(bad); err == nil {
		t.Fatal("Thresh below Rest must fail")
	}
	bad = ExcConfig(5)
	bad.TCDecay = 0
	if _, err := NewLIFGroup(bad); err == nil {
		t.Fatal("zero TCDecay must fail")
	}
}

func TestLIFIntegratesAndFires(t *testing.T) {
	h := excGroup(t, 1)
	drive := tensor.Vector{3} // mV per step against a 13 mV threshold gap
	fired := false
	for step := 0; step < 50; step++ {
		if len(h.step(drive)) > 0 {
			fired = true
			break
		}
	}
	if !fired {
		t.Fatal("neuron never fired under steady suprathreshold drive")
	}
	if h.v[0] != h.g.Cfg.Reset {
		t.Fatalf("post-spike potential %v, want reset %v", h.v[0], h.g.Cfg.Reset)
	}
}

func TestLIFStaysQuietWithoutDrive(t *testing.T) {
	h := excGroup(t, 3)
	for step := 0; step < 200; step++ {
		if len(h.step(nil)) != 0 {
			t.Fatal("spontaneous spike with no drive")
		}
	}
}

func TestLIFRefractoryBlocksInput(t *testing.T) {
	h := excGroup(t, 1)
	drive := tensor.Vector{20}
	var spikes []int
	for step := 0; step < 12; step++ {
		spikes = append(spikes, len(h.step(drive)))
	}
	// With Refrac=5 and overwhelming drive, spikes must be ≥5 steps apart.
	last := -10
	for i, s := range spikes {
		if s == 0 {
			continue
		}
		if i-last <= h.g.Cfg.Refrac {
			t.Fatalf("spikes %d steps apart, refractory is %d", i-last, h.g.Cfg.Refrac)
		}
		last = i
	}
}

func TestLIFThetaAdaptation(t *testing.T) {
	h := excGroup(t, 1)
	drive := tensor.Vector{20}
	for step := 0; step < 30; step++ {
		h.step(drive)
	}
	if h.g.Theta[0] <= 0 {
		t.Fatal("theta should accumulate with spiking")
	}
	// Each spike adds exactly ThetaPlus (decay is negligible at 1e7 ms).
	spikes := math.Round(h.g.Theta[0] / h.g.Cfg.ThetaPlus)
	if spikes < 3 {
		t.Fatalf("implausible spike count from theta: %v", spikes)
	}
}

func TestLIFMembraneDecaysTowardRest(t *testing.T) {
	h := excGroup(t, 1)
	h.v[0] = h.g.Cfg.Rest + 10
	h.step(nil)
	if h.v[0] >= h.g.Cfg.Rest+10 {
		t.Fatal("membrane should decay toward rest")
	}
	if h.v[0] <= h.g.Cfg.Rest {
		t.Fatal("membrane should not undershoot rest")
	}
}

func TestThreshScaleConvention(t *testing.T) {
	// The fault hook scales the threshold VALUE (negative voltage), so a
	// scale of 0.8 ("−20%" in the paper) RAISES the firing threshold.
	g := excGroup(t, 2).g
	g.ThreshScale[1] = 0.8
	t0 := g.EffectiveThreshold(0)
	t1 := g.EffectiveThreshold(1)
	if !(t1 > t0) {
		t.Fatalf("scale 0.8 should raise the threshold: %v vs %v", t1, t0)
	}
	g.ThreshScale[1] = 1.2
	if !(g.EffectiveThreshold(1) < t0) {
		t.Fatal("scale 1.2 should lower the threshold")
	}
}

func TestInputGainScalesDrive(t *testing.T) {
	h := excGroup(t, 2)
	h.g.InputGain[0] = 0.5
	h.gp.load(h.g)
	h.step(tensor.Vector{4, 4})
	if !(h.v[0] < h.v[1]) {
		t.Fatalf("gain 0.5 should integrate less: %v vs %v", h.v[0], h.v[1])
	}
}

// TestGroupResetSemantics: the per-image ResetState restores membranes
// and traces but keeps learned theta.
func TestGroupResetSemantics(t *testing.T) {
	n, err := NewDiehlCook(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	active := []int{0, 1, 2, 3, 4, 5, 6, 7}
	for i := 0; i < 60; i++ {
		n.Step(active, false)
	}
	theta := n.Exc.Theta.Copy()
	if theta.Sum() == 0 || len(n.postActive) == 0 {
		t.Fatal("no excitatory spikes; the reset check is vacuous")
	}
	n.ResetState()
	for i, v := range n.st.vExc {
		if v != n.Exc.Cfg.Rest || n.st.refracExc[i] != 0 {
			t.Fatalf("neuron %d: ResetState left v=%v refrac=%d", i, v, n.st.refracExc[i])
		}
	}
	if n.postTrace.Sum() != 0 || len(n.postActive) != 0 {
		t.Fatal("ResetState must clear the post traces")
	}
	for j := range theta {
		if n.Exc.Theta[j] != theta[j] {
			t.Fatal("ResetState must keep learned theta")
		}
	}
}

func smallConfig() DiehlCookConfig {
	cfg := DefaultConfig()
	cfg.NExc, cfg.NInh = 20, 20
	cfg.Steps = 100
	return cfg
}

func TestDiehlCookConfigValidation(t *testing.T) {
	cfg := smallConfig()
	cfg.NInh = 10
	if _, err := NewDiehlCook(cfg); err == nil {
		t.Fatal("NInh != NExc must fail")
	}
	cfg = smallConfig()
	cfg.Steps = 0
	if _, err := NewDiehlCook(cfg); err == nil {
		t.Fatal("zero steps must fail")
	}
	cfg = smallConfig()
	cfg.Norm = 0
	if _, err := NewDiehlCook(cfg); err == nil {
		t.Fatal("zero norm must fail")
	}
}

func TestWeightsNormalizedAtInit(t *testing.T) {
	n, err := NewDiehlCook(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	sums := n.W.ColSum()
	for j, s := range sums {
		if math.Abs(s-n.Cfg.Norm) > 1e-6 {
			t.Fatalf("column %d sum %v, want %v", j, s, n.Cfg.Norm)
		}
	}
}

func TestSTDPPotentiatesActiveSynapses(t *testing.T) {
	cfg := smallConfig()
	n, err := NewDiehlCook(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Drive pixel 0 hard every step; neuron weights for pixel 0 should
	// grow relative to a never-active pixel on neurons that spike.
	before := n.W.Row(0).Copy()
	active := []int{0, 1, 2, 3, 4, 5, 6, 7}
	for step := 0; step < 200; step++ {
		n.Step(active, true)
	}
	grew := false
	for j := range before {
		if n.W.At(0, j) > before[j]+1e-6 {
			grew = true
			break
		}
	}
	if !grew {
		t.Fatal("no potentiation on persistently active synapse")
	}
}

func TestSTDPWeightsStayBounded(t *testing.T) {
	cfg := smallConfig()
	n, err := NewDiehlCook(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for step := 0; step < 500; step++ {
		var active []int
		for i := 0; i < cfg.NInput; i++ {
			if rng.Float64() < 0.03 {
				active = append(active, i)
			}
		}
		n.Step(active, true)
	}
	for _, w := range n.W.Data {
		if w < 0 || w > cfg.WMax {
			t.Fatalf("weight %v escaped [0, %v]", w, cfg.WMax)
		}
	}
}

func TestLateralInhibitionSparsifiesActivity(t *testing.T) {
	// With inhibition disabled, many excitatory neurons fire; with the
	// Diehl&Cook lateral inhibition, activity must be sparser.
	run := func(wInh float64) float64 {
		cfg := smallConfig()
		cfg.WInhExc = wInh
		n, err := NewDiehlCook(cfg)
		if err != nil {
			t.Fatal(err)
		}
		images := mnist.Synthetic(5, 3)
		enc := encoding.NewPoissonEncoder(8)
		total := 0.0
		for i := range images {
			counts := n.RunImage(enc.Encode(&images[i], cfg.Steps), false)
			for _, c := range counts {
				if c > 0 {
					total++
				}
			}
		}
		return total / float64(len(images))
	}
	withInh := run(120)
	without := run(0)
	if withInh >= without {
		t.Fatalf("inhibition should reduce distinct active neurons: %v vs %v", withInh, without)
	}
}

func TestRunImageDeterministicGivenSeeds(t *testing.T) {
	cfg := smallConfig()
	images := mnist.Synthetic(3, 3)
	run := func() tensor.Vector {
		n, err := NewDiehlCook(cfg)
		if err != nil {
			t.Fatal(err)
		}
		enc := encoding.NewPoissonEncoder(8)
		var last tensor.Vector
		for i := range images {
			last = n.RunImage(enc.Encode(&images[i], cfg.Steps), true)
		}
		return last
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("identical seeds must give identical spike counts")
		}
	}
}

func TestTrainImprovesOverChance(t *testing.T) {
	cfg := smallConfig()
	cfg.NExc, cfg.NInh = 30, 30
	n, err := NewDiehlCook(cfg)
	if err != nil {
		t.Fatal(err)
	}
	images := mnist.Synthetic(200, 7)
	enc := encoding.NewPoissonEncoder(42)
	res, err := Train(n, images, enc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accuracy < 0.25 {
		t.Fatalf("training accuracy %.3f, want well above 10%% chance", res.Accuracy)
	}
}

func TestTrainRejectsEmptyInput(t *testing.T) {
	n, err := NewDiehlCook(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	enc := encoding.NewPoissonEncoder(1)
	if _, err := Train(n, nil, enc); err == nil {
		t.Fatal("empty training set must fail")
	}
	if _, err := Evaluate(n, nil, enc, nil); err == nil {
		t.Fatal("empty evaluation set must fail")
	}
}

func TestAssignLabelsAndClassify(t *testing.T) {
	// Two neurons: neuron 0 fires for class 3, neuron 1 for class 5.
	perImage := []tensor.Vector{
		{5, 0}, {4, 1}, // class 3
		{0, 6}, {1, 7}, // class 5
	}
	labels := []uint8{3, 3, 5, 5}
	as := AssignLabels(perImage, labels, 2)
	if as[0] != 3 || as[1] != 5 {
		t.Fatalf("assignments = %v", as)
	}
	if got := Classify(tensor.Vector{9, 1}, as); got != 3 {
		t.Fatalf("Classify = %d, want 3", got)
	}
	if got := Classify(tensor.Vector{0, 2}, as); got != 5 {
		t.Fatalf("Classify = %d, want 5", got)
	}
	if got := Classify(tensor.Vector{0, 0}, as); got != -1 {
		t.Fatalf("silent network should classify as -1, got %d", got)
	}
}

func TestAssignLabelsSilentNeuron(t *testing.T) {
	perImage := []tensor.Vector{{0, 3}}
	labels := []uint8{2}
	as := AssignLabels(perImage, labels, 2)
	if as[0] != -1 {
		t.Fatalf("silent neuron assignment = %d, want -1", as[0])
	}
}

// Property: theta accumulation equals ThetaPlus × spike count (up to
// the negligible decay), for random drive patterns.
func TestThetaAccountingProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := excGroup(t, 1)
		spikes := 0
		for step := 0; step < 100; step++ {
			d := tensor.Vector{rng.Float64() * 10}
			spikes += len(h.step(d))
		}
		want := float64(spikes) * h.g.Cfg.ThetaPlus
		return math.Abs(h.g.Theta[0]-want) < 0.01*want+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: membrane potential never exceeds the maximum effective
// threshold before reset semantics kick in (spike ⇒ reset).
func TestSpikeImpliesResetProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := newLIFHarness(t, InhConfig(4))
		for step := 0; step < 200; step++ {
			d := tensor.NewVector(4)
			for i := range d {
				d[i] = rng.Float64() * 30
			}
			spiked := h.step(d)
			for _, j := range spiked {
				if h.v[j] != h.g.Cfg.Reset {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
