package snn

import (
	"fmt"

	"snnfi/internal/encoding"
	"snnfi/internal/mnist"
	"snnfi/internal/obs"
	"snnfi/internal/tensor"
)

// ProtocolVersion names the training/evaluation semantics trained
// results depend on, and belongs in every cache key that stores them
// (core experiment fingerprints, cmd/snn-train's result cache), so
// stale caches miss. Bump it whenever a trained result would change.
// v2 brought per-image seeding and the frozen assignment pass; v3 the
// skip-sampling encoder, dirty-column normalization (untouched columns
// keep their bits) and minibatch STDP.
const ProtocolVersion = "train-protocol-v3"

// TrainResult summarizes a training run. Every field comes from the
// read-only assignment pass over the frozen trained network.
type TrainResult struct {
	Assignments []int   // neuron → class (−1 for never-active neurons)
	Accuracy    float64 // fraction of images classified correctly
	TotalSpikes float64 // total excitatory spikes over the assignment pass
	PerImage    []tensor.Vector
	Labels      []uint8
}

// TrainOptions configures TrainWith beyond its data arguments.
type TrainOptions struct {
	// BeforeImage, when non-nil, runs before image i is presented in
	// the learning pass, e.g. to re-apply a fault to the parameters
	// every N images.
	BeforeImage func(i int)
	// Batch is the STDP minibatch size. ≤1 (the default) is the serial
	// protocol. Batch > 1 presents each group of Batch images against
	// the same frozen weights and thresholds, in parallel, and merges
	// their updates in image order (see trainMinibatch): a different
	// result for each Batch, bit-identical at every worker count.
	// Ignored when BeforeImage is set, since mid-pass fault hooks have
	// no frozen-batch meaning.
	Batch int
	// Workers sizes the minibatch pool and the assignment pass; ≤0
	// uses all CPUs. Results are bit-identical at every width.
	Workers int
	// Obs, when non-nil, records the "snn.stdp" (learning) and
	// "snn.assign" (assignment) spans plus the pools' metrics. Results
	// are identical with or without it.
	Obs *obs.Registry
	// OnProgress, when non-nil, observes each learning-pass image as
	// (done, total).
	OnProgress func(done, total int)
}

// Train presents the images once, learning with STDP, then labels each
// excitatory neuron with the class it spiked most for and scores the
// same images — the paper's protocol ("all experiments are conducted
// on 1000 Poisson-encoded training images").
func Train(n *DiehlCook, images []mnist.Image, enc *encoding.PoissonEncoder) (*TrainResult, error) {
	return TrainWith(n, images, enc, TrainOptions{})
}

// TrainWith runs the two-pass protocol:
//
//  1. Learning pass, serial or minibatched: image i is presented with
//     plasticity on, encoded from ImageSeed(enc.Seed(), i).
//  2. Assignment pass, parallel: the same images and seeds against the
//     frozen trained network. Its counts drive labeling and scoring,
//     so accuracy is a property of the finished network.
//
// The encoder supplies the base seed and rates; its base seed is
// restored on return.
func TrainWith(n *DiehlCook, images []mnist.Image, enc *encoding.PoissonEncoder, opt TrainOptions) (*TrainResult, error) {
	if len(images) == 0 {
		return nil, fmt.Errorf("snn: no training images")
	}
	base := enc.Seed()
	defer enc.Reseed(base)
	stdp := obs.Span(opt.Obs, "snn.stdp")
	if opt.Batch > 1 && opt.BeforeImage == nil {
		// Whatever wrote W before the pass predates the dirty tracking.
		n.NormalizeWeights()
		if err := trainMinibatch(n, images, enc, opt); err != nil {
			return nil, err
		}
	} else {
		for i := range images {
			// Fault hooks may write W directly, which the dirty-column
			// tracking cannot see: after them, and on the first image,
			// normalize in full.
			if opt.BeforeImage != nil {
				opt.BeforeImage(i)
			}
			if opt.BeforeImage != nil || i == 0 {
				n.NormalizeWeights()
			} else {
				n.normalizeDirty()
			}
			enc.Reseed(ImageSeed(base, i))
			enc.Begin(&images[i])
			n.present(enc.EncodeStep, true)
			if opt.OnProgress != nil {
				opt.OnProgress(i+1, len(images))
			}
		}
	}
	stdp.End()

	assign := obs.Span(opt.Obs, "snn.assign")
	counts, err := CountsParallel(n.Params(), images, EvalOptions{
		Workers: opt.Workers, Seed: base, MaxRate: enc.MaxRate, Dt: enc.Dt,
		Obs: opt.Obs,
	})
	assign.End()
	if err != nil {
		return nil, err
	}
	res := &TrainResult{
		PerImage: counts,
		Labels:   make([]uint8, 0, len(images)),
	}
	for i := range images {
		res.Labels = append(res.Labels, images[i].Label)
		res.TotalSpikes += counts[i].Sum()
	}
	res.Assignments = AssignLabels(res.PerImage, res.Labels, n.Cfg.NExc)
	correct := 0
	for i, c := range counts {
		if Classify(c, res.Assignments) == int(res.Labels[i]) {
			correct++
		}
	}
	res.Accuracy = float64(correct) / float64(len(images))
	return res, nil
}

// Evaluate presents images without learning and scores them against
// existing assignments: EvaluateParallel at width 1, bit-identical to
// any parallel run with the same base seed.
func Evaluate(n *DiehlCook, images []mnist.Image, enc *encoding.PoissonEncoder, assignments []int) (float64, error) {
	return EvaluateParallel(n.Params(), images, assignments, EvalOptions{
		Workers: 1, Seed: enc.Seed(), MaxRate: enc.MaxRate, Dt: enc.Dt,
	})
}

// AssignLabels implements Diehl&Cook "all activity" neuron labeling:
// each neuron is assigned the class for which its average spike count
// (per presentation of that class) is highest. Neurons that never spike
// get −1.
func AssignLabels(perImage []tensor.Vector, labels []uint8, nNeurons int) []int {
	const nClasses = 10
	sums := tensor.NewMatrix(nClasses, nNeurons)
	classCount := make([]float64, nClasses)
	for i, counts := range perImage {
		c := int(labels[i])
		classCount[c]++
		row := sums.Row(c)
		row.Add(counts)
	}
	assignments := make([]int, nNeurons)
	for j := 0; j < nNeurons; j++ {
		bestClass, bestRate := -1, 0.0
		for c := 0; c < nClasses; c++ {
			if classCount[c] == 0 {
				continue
			}
			rate := sums.At(c, j) / classCount[c]
			if rate > bestRate {
				bestRate, bestClass = rate, c
			}
		}
		assignments[j] = bestClass
	}
	return assignments
}

// Classify predicts the class of one presentation from per-neuron spike
// counts: the class whose assigned neurons fired most on average.
// Returns −1 when nothing fired and no class can be preferred.
func Classify(counts tensor.Vector, assignments []int) int {
	const nClasses = 10
	var sum [nClasses]float64
	var num [nClasses]float64
	for j, c := range assignments {
		if c < 0 || j >= len(counts) {
			continue
		}
		sum[c] += counts[j]
		num[c]++
	}
	best, bestRate := -1, 0.0
	for c := 0; c < nClasses; c++ {
		if num[c] == 0 {
			continue
		}
		rate := sum[c] / num[c]
		if rate > bestRate {
			bestRate, best = rate, c
		}
	}
	return best
}
