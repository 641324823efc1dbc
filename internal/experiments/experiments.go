// Package experiments regenerates every table and figure of the paper's
// evaluation: the Table 1 benchmark census, the Fig. 2 TIPI/JPI timelines,
// the Fig. 3 fixed-frequency JPI sweeps, the Fig. 10 (OpenMP) and Fig. 11
// (HClib) policy comparisons, the Table 2 frequency-settings report and the
// Table 3 Tinv sensitivity study.
//
// Every harness constructs its frequency-control strategy through the
// governor registry (repro/internal/governor): one RunOne path attaches a
// named governor, runs the benchmark and detaches — the msr-safe
// Save/Restore bracket and daemon teardown are uniform across success and
// error paths.
//
// Absolute joules and seconds are simulator outputs; the contract is shape
// fidelity (see EXPERIMENTS.md for the paper-vs-measured record).
package experiments

import (
	"context"
	"fmt"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/governor"
	"repro/internal/machine"
	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/timeline"
	"repro/internal/workload"
)

// Options configure an experiment run.
type Options struct {
	// Cores is the simulated core count (paper: 20).
	Cores int
	// Scale shrinks the paper's 60–80 s benchmark runs proportionally.
	// 1.0 reproduces paper-length runs; the default keeps CI fast while
	// leaving runs long enough (≈20 s) for exploration to amortise.
	Scale float64
	// Reps is the number of repetitions per point (paper: 10).
	Reps int
	// Seed is the base RNG seed; repetition r uses Seed+r.
	Seed int64
	// TinvSec is the daemon profiling interval.
	TinvSec float64
	// WarmupSec is the daemon warmup (§4.1): 0 keeps the paper's 2 s
	// default, negative disables the warmup (governor.Tuning semantics).
	WarmupSec float64
	// Model selects the parallel runtime for benchmarks that support both.
	Model bench.Model
	// Workers bounds concurrent simulations; 0 means GOMAXPROCS.
	Workers int
	// Governor overrides the execution environment of single-environment
	// harnesses (Table1); empty means each harness's paper default.
	Governor string
	// Scenario names a registered workload scenario for the "run"
	// experiment; empty means Benchmark (the benchName argument) selects
	// the workload.
	Scenario string
	// ScenarioDef is an inline scenario definition (cuttlefish
	// -scenario file.json, or a RunSpec's scenario_def); it takes
	// precedence over Scenario and the benchmark name.
	ScenarioDef *scenario.Definition
	// Governors is the comparison set Compare evaluates against Baseline;
	// empty means the paper's three Cuttlefish variants.
	Governors []string
	// Baseline is the reference environment of the comparisons; empty
	// means "default".
	Baseline string
	// Memo is the prefix-snapshot tier (internal/memo): when non-nil,
	// work-sharing scenario runs look up the longest memoized prefix of
	// their region schedule, restore it, and simulate only the suffix.
	// It is runtime wiring, not part of any run's identity — results are
	// byte-identical with or without it.
	Memo *memo.Tier
	// MemoStats, when non-nil, accumulates this request's memo activity
	// (runs, prefix hits, quanta saved); the service layer surfaces it as
	// the X-Memo response detail.
	MemoStats *memo.RunStats
	// Span is the parent trace span this run records under; nil disables
	// tracing. Like Memo it is runtime wiring, never part of a run's
	// identity: spans live strictly outside report bytes and cache keys.
	Span *obs.Span
	// Profile enables the engine's wall-clock self-accounting
	// (machine.Config.Profile); results are bit-identical either way, and
	// the numbers surface as span arguments when Span is set.
	Profile bool
	// Timeline is the flight recorder this run samples into; nil disables
	// recording. Like Span and Memo it is runtime wiring, never part of a
	// run's identity: timelines live strictly outside report bytes, spec
	// hashes and memo keys, and are themselves a pure function of
	// simulation state (two identical runs record identical timelines).
	Timeline *timeline.Recorder
}

// pool returns the shared bounded-concurrency pool every harness fans its
// independent simulations out on.
func (o Options) pool() runner.Pool { return runner.Pool{Workers: o.Workers} }

// machineConfig builds the simulated socket's configuration.
func (o Options) machineConfig() machine.Config {
	cfg := machine.DefaultConfig()
	cfg.Cores = o.Cores
	cfg.Profile = o.Profile
	return cfg
}

// tuning maps the run options onto the registry's per-run parameters.
func (o Options) tuning() governor.Tuning {
	return governor.Tuning{TinvSec: o.TinvSec, WarmupSec: o.WarmupSec}
}

// governorName resolves the single-environment strategy, falling back to
// the harness's paper default when -governor was not given.
func (o Options) governorName(paperDefault string) string {
	if o.Governor != "" {
		return o.Governor
	}
	return paperDefault
}

// comparisonSet resolves Compare's baseline and governor list.
func (o Options) comparisonSet() (baseline string, govs []string) {
	baseline = o.Baseline
	if baseline == "" {
		baseline = governor.Default
	}
	govs = o.Governors
	if len(govs) == 0 {
		govs = governor.CuttlefishVariants
	}
	return baseline, govs
}

// DefaultOptions returns a configuration that finishes the full evaluation
// in minutes on a laptop while preserving the paper's shapes.
func DefaultOptions() Options {
	return Options{
		Cores:     20,
		Scale:     0.30,
		Reps:      5,
		Seed:      1,
		TinvSec:   20e-3,
		WarmupSec: 2.0,
		Model:     bench.OpenMP,
	}
}

// RunResult is one benchmark execution.
type RunResult struct {
	// Governor is the registered strategy the run executed under.
	Governor string
	Seconds  float64
	Joules   float64
	EDP      float64
	// AvgUncoreGHz is the run's time-weighted uncore frequency.
	AvgUncoreGHz float64
	// Daemon carries the slab list for daemon-backed governors (nil
	// otherwise).
	Daemon *core.Daemon
}

// RunOne executes one benchmark under one registered governor. The
// governor's Attach/Detach brackets the run, so the MSR save/restore and
// daemon teardown happen on every path, including errors.
func RunOne(spec bench.Spec, gov string, opt Options, seed int64) (RunResult, error) {
	g, err := governor.New(gov, opt.tuning())
	if err != nil {
		return RunResult{}, err
	}
	return runGovernor(spec, g, opt, seed)
}

// RunEntry is RunOne for any workload in the scenario registry — a
// Table 1 benchmark, a built-in synthetic or an inline definition
// wrapped in an Entry. The run path (machine, governor bracket,
// deadline, report fields) is identical; only the workload construction
// differs.
func RunEntry(e scenario.Entry, gov string, opt Options, seed int64) (RunResult, error) {
	g, err := governor.New(gov, opt.tuning())
	if err != nil {
		return RunResult{}, err
	}
	if opt.Memo != nil && e.Def != nil {
		if res, handled, err := memoRun(e, g, opt, seed); handled {
			return res, err
		}
	}
	return runSource(e.Name, e.NominalSeconds, func(cores int) (workload.Source, error) {
		return e.Build(scenario.Params{Cores: cores, Scale: opt.Scale, Seed: seed, Model: string(opt.Model)})
	}, g, opt)
}

// runGovernor is RunOne for an already constructed strategy (the ablation
// study and sweeps build theirs directly).
func runGovernor(spec bench.Spec, g governor.Governor, opt Options, seed int64) (RunResult, error) {
	return runSource(spec.Name, spec.PaperSeconds, func(cores int) (workload.Source, error) {
		return spec.Build(bench.Params{Cores: cores, Scale: opt.Scale, Seed: seed, Model: opt.Model})
	}, g, opt)
}

// runSource executes one workload source under one attached governor:
// the single simulation path every benchmark and scenario run funnels
// through. nominalSec is the workload's approximate Default wall time at
// Scale 1; the simulation deadline derives from it with generous
// headroom.
func runSource(name string, nominalSec float64, build func(cores int) (workload.Source, error), g governor.Governor, opt Options) (RunResult, error) {
	cfg := opt.machineConfig()
	m, err := machine.New(cfg)
	if err != nil {
		return RunResult{}, err
	}
	m.SetTimeline(opt.Timeline)
	att, err := g.Attach(m)
	if err != nil {
		return RunResult{}, err
	}
	defer att.Detach() // uniform cleanup on every early return
	src, err := build(cfg.Cores)
	if err != nil {
		return RunResult{}, err
	}
	m.SetSource(src)
	maxSim := nominalSec*opt.Scale*6 + opt.WarmupSec + 30
	sp := opt.Span.Child("simulate")
	sp.Set("workload", name)
	sec := simulate(m, maxSim, sp, opt.Timeline)
	finishSpan(sp, m, sec)
	if !m.Finished() {
		return RunResult{}, fmt.Errorf("experiments: %s/%s did not finish in %.0f simulated seconds", name, g.Name(), maxSim)
	}
	if err := att.Detach(); err != nil {
		return RunResult{}, err
	}
	j := m.TotalEnergy()
	return RunResult{
		Governor:     g.Name(),
		Seconds:      sec,
		Joules:       j,
		EDP:          stats.EDP(j, sec),
		AvgUncoreGHz: m.AvgUncoreGHz(),
		Daemon:       att.Daemon(),
	}, nil
}

// maxRegionSpans caps per-region trace spans for one simulation: past a
// few dozen the Chrome timeline stops being readable and the span list
// stops being cheap.
const maxRegionSpans = 64

// simulate runs m to completion. With a trace span it drives the machine
// through RunBoundaries, recording one child span per region stretch (up
// to maxRegionSpans) — span names carry the boundary index, so the trace
// structure is a pure function of the workload's region schedule. With a
// flight recorder it samples the machine at entry, at every region
// boundary (the same quiescent cuts the spans use) and after the run;
// sampling continues past maxRegionSpans even though spans stop. Sources
// that count no boundaries (or a nil span and recorder) take the plain
// Run path with identical simulated results.
func simulate(m *machine.Machine, maxSim float64, sp *obs.Span, rec *timeline.Recorder) float64 {
	if sp == nil && rec == nil {
		return m.Run(maxSim)
	}
	if rec != nil {
		m.RecordTimeline()
	}
	var cur *obs.Span
	if sp != nil {
		cur = sp.Child("region-0")
	}
	count := 0
	sec := m.RunBoundaries(maxSim, func(n int) bool {
		if rec != nil {
			m.RecordTimeline()
		}
		if cur != nil {
			cur.Set("end_boundary", n)
			cur.End()
			count++
			if count >= maxRegionSpans {
				cur = nil
			} else {
				cur = sp.Child(fmt.Sprintf("region-%d", n))
			}
		}
		return cur != nil || rec != nil
	})
	cur.End()
	if rec != nil {
		m.RecordTimeline()
	}
	return sec
}

// finishSpan closes a simulate span, attaching the simulated time and —
// when the machine was built with Profile — the engine's wall-clock
// accounting (per-phase simulated vs wall time, per-worker busy/idle).
func finishSpan(sp *obs.Span, m *machine.Machine, simSec float64) {
	if sp == nil {
		return
	}
	sp.Set("sim_seconds", simSec)
	if p := m.Profile(); p.Enabled {
		sp.Set("profile", p)
	}
	sp.End()
}

// forEach fans n independent simulations out on the shared runner pool.
// All failures are aggregated (the private pool this replaced returned only
// the first error and dropped the rest).
func forEach(n int, opt Options, fn func(i int) error) error {
	return opt.pool().ForEach(context.Background(), n, func(_ context.Context, i int) error {
		return fn(i)
	})
}
