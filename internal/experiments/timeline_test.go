package experiments

import (
	"bytes"
	"testing"

	"repro/internal/governor"
	"repro/internal/memo"
	"repro/internal/timeline"
)

// timelineTestOptions are shrunk like memoTestOptions but disable the
// daemon warmup so the shortened run still crosses real governor
// decisions (exploration, DVFS/UFS actuations) for the recorder to see.
func timelineTestOptions() Options {
	o := DefaultOptions()
	o.Scale = 0.02
	o.Reps = 2
	o.WarmupSec = -1
	return o
}

// runReportBytes builds the "run" report for the bursty scenario and
// returns its canonical encoding.
func runReportBytes(t *testing.T, opt Options) []byte {
	t.Helper()
	rep, err := RunOneReport("bursty", opt)
	if err != nil {
		t.Fatal(err)
	}
	data, err := rep.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestTimelineInvisibleToReports is the determinism-boundary contract:
// arming the flight recorder must not change a single canonical report
// byte, across the plain path and the memo-resume path (cold store and
// warm prefix restore). Run with -race this also exercises the
// recorder's locking under concurrent repetitions.
func TestTimelineInvisibleToReports(t *testing.T) {
	for _, gov := range []string{governor.Default, governor.Cuttlefish} {
		t.Run(gov, func(t *testing.T) {
			opt := timelineTestOptions()
			opt.Governor = gov
			plain := runReportBytes(t, opt)

			ton := opt
			ton.Timeline = timeline.New("test")
			if got := runReportBytes(t, ton); !bytes.Equal(plain, got) {
				t.Error("timeline-on report bytes differ from timeline-off")
			}

			// Memo path: cold execution stores snapshots, warm resumes from
			// the longest prefix — with the recorder armed both times.
			mopt := opt
			mopt.Memo = memo.New(0, nil)
			mopt.Timeline = timeline.New("cold")
			if got := runReportBytes(t, mopt); !bytes.Equal(plain, got) {
				t.Error("cold memo run with timeline diverges from plain")
			}
			mopt.Timeline = timeline.New("warm")
			if got := runReportBytes(t, mopt); !bytes.Equal(plain, got) {
				t.Error("warm memo resume with timeline diverges from plain")
			}
			// The warm recorder saw the restore marker.
			ex := mopt.Timeline.Export()
			found := false
			for _, ln := range ex.Lanes {
				for _, e := range ln.Events {
					if e.Kind == timeline.KindMemoRestore {
						found = true
					}
				}
			}
			if !found {
				t.Error("warm memo resume recorded no memo-restore event")
			}
		})
	}
}

// TestTimelineBitDeterministic pins the flight recorder's own output:
// two identical runs render byte-identical timelines (the same contract
// the engine gives report bytes).
func TestTimelineBitDeterministic(t *testing.T) {
	record := func() []byte {
		opt := timelineTestOptions()
		opt.Governor = governor.Cuttlefish
		rec := timeline.New("det")
		opt.Timeline = rec
		if _, err := RunOneReport("bursty", opt); err != nil {
			t.Fatal(err)
		}
		data, err := rec.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if a, b := record(), record(); !bytes.Equal(a, b) {
		t.Error("two identical runs rendered different timeline bytes")
	}
}

// TestTimelineConvergenceNonzero checks the recorder actually observes
// the cuttlefish daemon's exploration story: a fresh machine explores at
// least one slab before settling, which the convergence summary reports.
func TestTimelineConvergenceNonzero(t *testing.T) {
	opt := timelineTestOptions()
	opt.Governor = governor.Cuttlefish
	rec := timeline.New("conv")
	opt.Timeline = rec
	if _, err := RunOneReport("bursty", opt); err != nil {
		t.Fatal(err)
	}
	c := rec.Convergence()
	if c.Runs != opt.Reps {
		t.Errorf("convergence runs = %d, want %d (one per repetition lane)", c.Runs, opt.Reps)
	}
	if c.ExplorationQuanta == 0 {
		t.Error("cuttlefish run recorded no exploration quanta")
	}
	if c.TimeToStableSec <= 0 {
		t.Errorf("time-to-stable = %g, want > 0", c.TimeToStableSec)
	}
	if c.ExplorationEnergyJ <= 0 {
		t.Errorf("exploration energy = %g, want > 0", c.ExplorationEnergyJ)
	}
	// Samples landed in per-repetition lanes with machine state attached.
	ex := rec.Export()
	if len(ex.Lanes) != opt.Reps {
		t.Fatalf("lanes = %d, want %d", len(ex.Lanes), opt.Reps)
	}
	for _, ln := range ex.Lanes {
		if len(ln.Samples) < 2 {
			t.Errorf("lane %s has %d sample(s), want boundary samples", ln.Lane, len(ln.Samples))
		}
		last := ln.Samples[len(ln.Samples)-1]
		if last.EnergyJ <= 0 || last.Instr <= 0 || len(last.Cores) == 0 {
			t.Errorf("lane %s final sample lacks machine state: %+v", ln.Lane, last)
		}
	}
}
