package machine

import (
	"testing"

	"repro/internal/workload"
)

// profiledRun executes a short workload with Profile on or off and returns
// the exact totals plus the profile.
func profiledRun(t *testing.T, profile bool) (instr, joules float64, p Profile) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Cores = 8
	cfg.Profile = profile
	m := MustNew(cfg)
	m.SetSource(newLaneSource(cfg.Cores, 10, workload.Segment{Instructions: 2e6, MissPerInstr: 0.02, IPC: 2}))
	m.Run(30)
	if !m.Finished() {
		t.Fatal("workload did not finish")
	}
	return m.TotalInstructions(), m.TotalEnergy(), m.Profile()
}

// TestProfileAccounting: with Profile on, the machine reports dispatch wall
// time, batch counts and quanta.
func TestProfileAccounting(t *testing.T) {
	_, _, p := profiledRun(t, true)
	if !p.Enabled {
		t.Fatal("profile not enabled")
	}
	if p.Batches <= 0 || p.Quanta <= 0 || p.RunWallNs <= 0 {
		t.Errorf("empty accounting %+v", p)
	}
	if p.Quanta < p.Batches {
		t.Errorf("%d quanta over %d batches: every batch runs at least one quantum", p.Quanta, p.Batches)
	}
}

// TestProfileDoesNotPerturbResults is the determinism-boundary contract at
// the engine layer: profiling must leave simulated state bit-identical.
func TestProfileDoesNotPerturbResults(t *testing.T) {
	refInstr, refJoules, refP := profiledRun(t, false)
	if refP != (Profile{}) {
		t.Fatalf("profile off must report a zero Profile, got %+v", refP)
	}
	instr, joules, _ := profiledRun(t, true)
	if instr != refInstr || joules != refJoules {
		t.Errorf("profiled run diverged: instr %v vs %v, joules %v vs %v",
			instr, refInstr, joules, refJoules)
	}
}
