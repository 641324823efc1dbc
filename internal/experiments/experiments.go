// Package experiments regenerates every table and figure of the paper's
// evaluation: the Table 1 benchmark census, the Fig. 2 TIPI/JPI timelines,
// the Fig. 3 fixed-frequency JPI sweeps, the Fig. 10 (OpenMP) and Fig. 11
// (HClib) policy comparisons, the Table 2 frequency-settings report and the
// Table 3 Tinv sensitivity study.
//
// Every harness constructs its frequency-control strategy through the
// governor registry (repro/internal/governor), and every harness drives
// the machine through one driver, simulate: it attaches the governor,
// runs the workload and detaches — the msr-safe Save/Restore bracket,
// daemon teardown, simulate span, engine profile and flight recorder are
// uniform across harnesses and across success and error paths.
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
	// Instructions is the run's retired instruction count.
	Instructions float64
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
	return simulate(opt, runPlan{
		name:    spec.Name,
		gov:     g,
		maxSim:  spec.PaperSeconds*opt.Scale*6 + opt.WarmupSec + 30,
		prepare: benchSource(spec, opt, seed),
	})
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
	return simulate(opt, runPlan{
		name:   e.Name,
		gov:    g,
		maxSim: e.NominalSeconds*opt.Scale*6 + opt.WarmupSec + 30,
		prepare: func(r *run) (workload.Source, error) {
			return e.Build(scenario.Params{Cores: r.m.Config().Cores, Scale: opt.Scale, Seed: seed, Model: string(opt.Model)})
		},
	})
}

// benchSource is the prepare hook of a Table 1 benchmark run.
func benchSource(spec bench.Spec, opt Options, seed int64) func(*run) (workload.Source, error) {
	return func(r *run) (workload.Source, error) {
		return spec.Build(bench.Params{Cores: r.m.Config().Cores, Scale: opt.Scale, Seed: seed, Model: opt.Model})
	}
}

// runPlan is everything one harness varies about a machine run. The
// sequence itself — boot, attach, prepare, observe, run, detach — lives
// only in simulate.
type runPlan struct {
	// name labels the simulate span and the deadline error.
	name string
	gov  governor.Governor
	// maxSim is the simulated-second deadline, measured from boot. Each
	// harness keeps its own headroom: memo prefix keys hash it, and the
	// fuzz baseline can see runs that miss it.
	maxSim float64
	// prepare supplies the workload once the governor is attached; the
	// memo path also restores a snapshot into the machine here.
	prepare func(r *run) (workload.Source, error)
	// samples, when non-nil, collects a census profiler sample every Tinv.
	samples *[]TinvSample
	// boundary, when non-nil, is called at every region boundary with the
	// new count; returning false stops further calls, not the run.
	boundary func(r *run, n int) bool
}

// run is one machine in flight, as the driver hands it to a plan's hooks.
type run struct {
	m   *machine.Machine
	att *governor.Attachment
	// sp is the simulate span: nil before the simulation starts and
	// whenever the run is untraced.
	sp *obs.Span
}

// simulate is the one path every harness drives the machine through:
// boot, arm the flight recorder, attach the governor, prepare the
// workload, observe, run to completion under the plan's deadline, and
// detach — checking Detach's error, so a failed MSR restore never
// reports a good run. Every run gets the same simulate span, engine
// profile and timeline wiring from Options.
func simulate(opt Options, p runPlan) (RunResult, error) {
	m, err := machine.New(opt.machineConfig())
	if err != nil {
		return RunResult{}, err
	}
	// Arm the flight recorder before attach so the governor sees it and
	// records its decision events (nil stays nil: zero cost when off).
	m.SetTimeline(opt.Timeline)
	att, err := p.gov.Attach(m)
	if err != nil {
		return RunResult{}, err
	}
	defer att.Detach() // uniform cleanup on every early return
	r := &run{m: m, att: att}
	src, err := p.prepare(r)
	if err != nil {
		return RunResult{}, err
	}
	m.SetSource(src)
	if p.samples != nil {
		if err := observeTinv(m, opt.TinvSec, p.samples); err != nil {
			return RunResult{}, err
		}
	}
	start := m.Now()
	r.sp = opt.Span.Child("simulate")
	r.sp.Set("workload", p.name)
	if start > 0 {
		r.sp.Set("resume_sim_seconds", start)
	}
	if r.sp == nil && opt.Timeline == nil && p.boundary == nil {
		m.Run(p.maxSim - start)
	} else {
		runBoundaries(r, p.maxSim-start, opt.Timeline, p.boundary)
	}
	finishSpan(r.sp, m, m.Now()-start)
	if !m.Finished() {
		return RunResult{}, fmt.Errorf("experiments: %s/%s did not finish in %.0f simulated seconds", p.name, p.gov.Name(), p.maxSim)
	}
	if err := att.Detach(); err != nil {
		return RunResult{}, err
	}
	sec, j := m.Now(), m.TotalEnergy()
	return RunResult{
		Governor:     p.gov.Name(),
		Seconds:      sec,
		Joules:       j,
		EDP:          stats.EDP(j, sec),
		AvgUncoreGHz: m.AvgUncoreGHz(),
		Instructions: m.TotalInstructions(),
		Daemon:       att.Daemon(),
	}, nil
}

// observeTinv schedules the census observer: a core.Profiler that reads
// the quantized MSR counters every Tinv — the instrumentation behind
// Table 1 and Figs. 2–3 — and samples the flight recorder at the same
// cut. It is a pure observer, so any governor can drive the run.
func observeTinv(m *machine.Machine, tinv float64, out *[]TinvSample) error {
	prof, err := core.NewProfiler(m.Device(), m.Config().Cores)
	if err != nil {
		return err
	}
	if err := prof.Reset(); err != nil {
		return err
	}
	m.Schedule(&machine.Component{
		Period: tinv,
		Tick: func(now float64) float64 {
			m.RecordTimeline()
			s, err := prof.Sample()
			if err != nil || !s.OK {
				return 0
			}
			*out = append(*out, TinvSample{
				Time: now, TIPI: s.TIPI, JPI: s.JPI,
				CF: m.CoreRatio(0), UF: m.UncoreRatio(),
			})
			return 0
		},
	}, tinv)
	return nil
}

// maxRegionSpans caps per-region trace spans for one simulation: past a
// few dozen the Chrome timeline stops being readable and the span list
// stops being cheap.
const maxRegionSpans = 64

// runBoundaries drives the machine through RunBoundaries. With a trace
// span it records one child span per region stretch (up to
// maxRegionSpans) — span names carry the boundary index, so the trace
// structure is a pure function of the workload's region schedule. With a
// flight recorder it samples the machine at entry, at every region
// boundary (the same quiescent cuts the spans use) and after the run;
// sampling continues past maxRegionSpans even though spans stop. hook,
// when non-nil, sees every boundary until it returns false. The simulated
// results are identical to the plain Run path.
func runBoundaries(r *run, maxSim float64, rec *timeline.Recorder, hook func(*run, int) bool) {
	m, sp := r.m, r.sp
	if rec != nil {
		m.RecordTimeline()
	}
	var cur *obs.Span
	if sp != nil {
		cur = sp.Child("region-0")
	}
	count := 0
	m.RunBoundaries(maxSim, func(n int) bool {
		if rec != nil {
			m.RecordTimeline()
		}
		if hook != nil && !hook(r, n) {
			hook = nil
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
		return cur != nil || rec != nil || hook != nil
	})
	cur.End()
	if rec != nil {
		m.RecordTimeline()
	}
}

// finishSpan closes a simulate span, attaching the simulated time and —
// when the machine was built with Profile — the engine's wall-clock
// accounting (per-phase simulated vs wall time).
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
