package experiments

import (
	"errors"
	"testing"

	"repro/internal/bench"
	"repro/internal/governor"
	"repro/internal/machine"
	"repro/internal/msr"
	"repro/internal/obs"
	"repro/internal/timeline"
)

// machineRuns is how many machine runs each experiment makes at
// goldenOptions (one repetition), derived from the harness inputs.
func machineRuns() map[string]int {
	openmp, hclib, all := len(bench.Names()), len(bench.HClibNames()), len(bench.All())
	cmp := 1 + len(governor.CuttlefishVariants) // baseline + variants
	return map[string]int{
		"run":    1,
		"table1": all,
		"fig2":   len(Fig2Benchmarks),
		"fig3a":  3 * len(Fig2Benchmarks),
		"fig3b":  3 * len(Fig2Benchmarks),
		"fig10":  openmp * cmp,
		"fig11":  hclib * cmp,
		"table2": 2 * all,          // Cuttlefish + Default per benchmark
		"table3": openmp * (1 + 4), // Default + four Tinv settings
		// four benchmarks × (each variant + the Default baseline)
		"ablation": 4 * (len(AblationVariants) + 1),
		"ddcm":     4 * 3, // unthrottled, DVFS, DDCM
		// At Scale 0.02 the oracle's daemon run resolves no slab, so it
		// stops before its sweep; goldenSweep covers the grid points.
		"oracle":    1,
		goldenSweep: 3 * 4, // UTS at CF stride 4 × UF stride 6
	}
}

// TestEveryMachineRunIsTraced: a traced, profiled and recorded experiment
// gives one "simulate" span carrying the engine profile for every machine
// run — the census, DDCM, sweep and ablation runs as well as RunOne's —
// and still reports exactly the golden bytes.
func TestEveryMachineRunIsTraced(t *testing.T) {
	want, digests := machineRuns(), goldenDigests()
	for _, name := range goldenNames() {
		runs, ok := want[name]
		if !ok {
			t.Fatalf("%s: no expected machine-run count; add one", name)
		}
		t.Run(name, func(t *testing.T) {
			tr := obs.NewTrace(name)
			opt := goldenOptions()
			opt.Span, opt.Profile, opt.Timeline = tr.Root(), true, timeline.New(name)
			if d := digest(goldenBytes(name, opt)); d != digests[name] {
				t.Errorf("traced report digest %s, want the untraced %s", d, digests[name])
			}
			got := 0
			for _, sp := range tr.Export().Spans {
				if sp.Name != "simulate" {
					continue
				}
				if p, ok := sp.Args["profile"].(machine.Profile); !ok || !p.Enabled || p.Quanta == 0 {
					t.Errorf("simulate span %s has no engine profile: %v", sp.ID, sp.Args)
				}
				got++
			}
			if got != runs {
				t.Errorf("%d simulate spans, want one per machine run (%d)", got, runs)
			}
		})
	}
}

var errRestoreDenied = errors.New("restore denied")

// failingRestore is a static governor whose MSR restore fails: after
// pinning, it swaps the DVFS register's write handler for one that
// rejects every write, so Detach cannot put the machine back.
type failingRestore struct{}

func (failingRestore) Name() string { return "failing-restore" }

func (failingRestore) Attach(m *machine.Machine) (*governor.Attachment, error) {
	att, err := governor.NewStatic(0, 0).Attach(m)
	if err != nil {
		return nil, err
	}
	m.File().Install(msr.IA32PerfCtl, msr.Handler{Write: func(int, uint64) error { return errRestoreDenied }})
	return att, nil
}

// TestSimulateReturnsDetachError: a run that finishes but whose Detach
// fails must report the failure, not a good row — on the plain path and
// on the traced one.
func TestSimulateReturnsDetachError(t *testing.T) {
	spec := mustSpec(t, "UTS")
	for _, traced := range []bool{false, true} {
		opt := goldenOptions()
		if traced {
			opt.Span = obs.NewTrace("detach").Root()
		}
		_, err := simulate(opt, runPlan{
			name:    spec.Name,
			gov:     failingRestore{},
			maxSim:  spec.PaperSeconds*opt.Scale*6 + 30,
			prepare: benchSource(spec, opt, opt.Seed),
		})
		if !errors.Is(err, errRestoreDenied) {
			t.Errorf("traced=%v: err = %v, want the failed restore", traced, err)
		}
	}
}
