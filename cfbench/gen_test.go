package main

import (
	"slices"
	"testing"

	"repro/internal/service"
)

func hashes(specs []service.RunSpec) []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Hash()
	}
	return out
}

func TestSweepSpecsFollowSeed(t *testing.T) {
	a, b := hashes(sweepSpecs(1)), hashes(sweepSpecs(1))
	if !slices.Equal(a, b) {
		t.Fatal("same seed gave different sweep specs")
	}
	if slices.Equal(a, hashes(sweepSpecs(2))) {
		t.Fatal("different seeds gave the same sweep specs")
	}
	for _, s := range sweepSpecs(1) {
		if err := s.Validate(); err != nil {
			t.Fatalf("generated spec invalid: %v", err)
		}
	}
}

// The K programs must share every phase but the last and keep one
// simulation deadline, or the memo tier has no prefix to reuse.
func TestSweepProgramsShareAllButLastPhase(t *testing.T) {
	defs := sweepDefs(3)
	if len(defs) != sweepPrograms {
		t.Fatalf("got %d programs, want %d", len(defs), sweepPrograms)
	}
	first := defs[0]
	n := len(first.Phases)
	if n != sweepShared+1 {
		t.Fatalf("got %d phases, want %d", n, sweepShared+1)
	}
	remote := map[float64]bool{}
	for _, d := range defs {
		for i := 0; i < n-1; i++ {
			if d.Phases[i].Instructions != first.Phases[i].Instructions ||
				d.Phases[i].MissPerInstr != first.Phases[i].MissPerInstr ||
				d.Phases[i].RemoteFrac != first.Phases[i].RemoteFrac {
				t.Fatalf("%s phase %d differs from %s's", d.Name, i, first.Name)
			}
		}
		if d.EstimateSeconds(sweepCores) != first.EstimateSeconds(sweepCores) {
			t.Fatalf("%s has a different deadline estimate", d.Name)
		}
		remote[d.Phases[n-1].RemoteFrac] = true
	}
	if len(remote) != sweepPrograms {
		t.Fatalf("last-phase remote_frac takes %d values, want %d distinct", len(remote), sweepPrograms)
	}
}

func TestHotSetFollowsSeed(t *testing.T) {
	a := hashes(hotSet(1))
	if !slices.Equal(a, hashes(hotSet(1))) {
		t.Fatal("same seed gave different hot sets")
	}
	if slices.Equal(a, hashes(hotSet(2))) {
		t.Fatal("different seeds gave the same hot set")
	}
	seen := map[string]bool{}
	for _, h := range a {
		if seen[h] {
			t.Fatalf("hot set repeats spec %s", h[:12])
		}
		seen[h] = true
	}
}

func TestRequestSequenceFollowsSeed(t *testing.T) {
	const n, m = 5000, 483
	a := requestSequence(7, n, m)
	if !slices.Equal(a, requestSequence(7, n, m)) {
		t.Fatal("same seed gave different request sequences")
	}
	if slices.Equal(a, requestSequence(8, n, m)) {
		t.Fatal("different seeds gave the same request sequence")
	}
	counts := make([]int, m)
	for _, i := range a {
		if i < 0 || int(i) >= m {
			t.Fatalf("request index %d outside the hot set", i)
		}
		counts[i]++
	}
	// Zipf: the hottest spec draws far more than a uniform share.
	if slices.Max(counts) < 5*n/m {
		t.Fatalf("hottest spec drew %d of %d requests; the sequence is not skewed", slices.Max(counts), n)
	}
}
