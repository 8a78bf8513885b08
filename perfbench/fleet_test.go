package main

import (
	"encoding/json"
	"testing"

	"repro/internal/service"
)

func TestJobPlanRepeatsEveryThirdSubmission(t *testing.T) {
	p := jobPlan{seed: 9, n: 100, steps: 2}
	seen := make(map[int64]bool)
	for k := 0; k < 60; k++ {
		spec, repeat := p.spec(k)
		again, _ := p.spec(k)
		if again != spec {
			t.Fatalf("submission %d is not reproducible", k)
		}
		if repeat != (k%fleetRepeatEvery == fleetRepeatEvery-1) {
			t.Fatalf("submission %d: repeat = %v", k, repeat)
		}
		if repeat != seen[spec.Seed] {
			t.Fatalf("submission %d: repeat = %v but seed seen before = %v", k, repeat, seen[spec.Seed])
		}
		seen[spec.Seed] = true
	}
	if len(seen) != 40 {
		t.Errorf("%d distinct specs in 60 submissions, want 40", len(seen))
	}
}

func TestSameResultExemptsOnlyMachineTime(t *testing.T) {
	enc := func(machine, energy float64) []byte {
		b, err := json.Marshal(&service.Result{Steps: 2, SimTime: 0.02, MachineTime: machine, KineticEnergy: energy})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if err := sameResult(enc(1.0, 0.5), enc(1.3, 0.5)); err != nil {
		t.Errorf("machine_time jitter rejected: %v", err)
	}
	if err := sameResult(enc(1.0, 0.5), enc(1.0, 0.5000001)); err == nil {
		t.Errorf("a changed kinetic energy was accepted")
	}
	if err := sameResult(enc(1.0, 0.5), enc(0, 0.5)); err == nil {
		t.Errorf("a zero machine_time was accepted")
	}
}
