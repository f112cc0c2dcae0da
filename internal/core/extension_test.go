package core

import (
	"testing"
)

// runWeightFault runs one weight-fault cell through the campaign pool.
func runWeightFault(t *testing.T, e *Experiment, spec WeightFaultSpec) *Result {
	t.Helper()
	res, err := e.RunWeightFaults([]WeightFaultSpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	return res[0]
}

// runLearningRateFault runs one learning-rate-fault cell through the
// campaign pool.
func runLearningRateFault(t *testing.T, e *Experiment, spec LearningRateFaultSpec) *Result {
	t.Helper()
	res, err := e.RunLearningRateFaults([]LearningRateFaultSpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	return res[0]
}

func TestWeightFaultSpecValidation(t *testing.T) {
	if err := (WeightFaultSpec{Scale: 0, Fraction: 0.5}).Validate(); err == nil {
		t.Fatal("zero scale must fail")
	}
	if err := (WeightFaultSpec{Scale: 0.5, Fraction: 2}).Validate(); err == nil {
		t.Fatal("fraction > 1 must fail")
	}
	if err := (WeightFaultSpec{Scale: 0.5, Fraction: 0.5, EveryNImages: -1}).Validate(); err == nil {
		t.Fatal("negative cadence must fail")
	}
	if err := (WeightFaultSpec{Scale: 0.7, Fraction: 0.3, EveryNImages: 10}).Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

func TestLearningRateFaultSpecValidation(t *testing.T) {
	if err := (LearningRateFaultSpec{Scale: -1}).Validate(); err == nil {
		t.Fatal("negative scale must fail")
	}
	if err := (LearningRateFaultSpec{Scale: 0}).Validate(); err != nil {
		t.Fatal("zero scale (frozen learning) is a valid fault")
	}
}

func TestWeightFaultOneShotMild(t *testing.T) {
	// A one-shot pre-training drift is absorbed by STDP + normalization:
	// the fault hits random initial weights that learning overwrites.
	e := testExperiment(t, 200)
	res := runWeightFault(t, e, WeightFaultSpec{Scale: 0.7, Fraction: 0.3, Seed: 5})
	if res.RelChangePc < -35 {
		t.Fatalf("one-shot weight drift degraded %+.1f%%, expected mild", res.RelChangePc)
	}
}

func TestWeightFaultPersistentWorseThanOneShot(t *testing.T) {
	e := testExperiment(t, 200)
	once := runWeightFault(t, e, WeightFaultSpec{Scale: 0.5, Fraction: 0.5, Seed: 5})
	persistent := runWeightFault(t, e, WeightFaultSpec{Scale: 0.5, Fraction: 0.5, EveryNImages: 10, Seed: 5})
	// Re-applied drift keeps destroying what STDP learns; it must not do
	// better than the one-shot upset (generous margin for seed noise).
	if persistent.RelChangePc > once.RelChangePc+10 {
		t.Fatalf("persistent drift (%+.1f%%) should not beat one-shot (%+.1f%%)",
			persistent.RelChangePc, once.RelChangePc)
	}
}

func TestLearningRateFreezeDegrades(t *testing.T) {
	// Freezing STDP entirely leaves random weights: accuracy must fall
	// well below the trained baseline.
	e := testExperiment(t, 200)
	res := runLearningRateFault(t, e, LearningRateFaultSpec{Scale: 0})
	if res.RelChangePc > -20 {
		t.Fatalf("frozen learning degraded only %+.1f%%, expected substantial loss", res.RelChangePc)
	}
}

func TestLearningRateNominalIsNoOp(t *testing.T) {
	e := testExperiment(t, 200)
	res := runLearningRateFault(t, e, LearningRateFaultSpec{Scale: 1})
	if res.RelChangePc != 0 {
		t.Fatalf("scale 1 must reproduce the baseline exactly, got %+.2f%%", res.RelChangePc)
	}
}
