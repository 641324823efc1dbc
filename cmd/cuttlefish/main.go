// Command cuttlefish regenerates the paper's evaluation: every table and
// figure has a subcommand that renders the corresponding report.
//
// Usage:
//
//	cuttlefish [flags] <experiment> [flags]
//
// Experiments: table1, fig2, fig3a, fig3b, fig10, fig11, table2, table3,
// ablation, ddcm, oracle, run, sweep, all
//
// Flags may appear before or after the experiment name. -governor runs the
// single-environment experiments (table1, run) under any registered
// strategy; -format renders every report as text, json or csv; -remote
// executes against a cfserve instance instead of in-process. The remaining
// flags select the run scale (1.0 = the paper's 60–80 s executions),
// repetition count and seeds; defaults finish the full set in minutes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/experiments"
	"repro/internal/fuzz"
	"repro/internal/governor"
	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/orchestrator"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/timeline"
)

var (
	format       = "text"
	remote       = ""
	benchName    = ""
	scenarioFile = ""
	sweepSpec    = ""
	storeDir     = ""
	memoFlag     = false
	memoDir      = ""
	memoMaxBytes = int64(0)
	traceOut     = ""
	timelineOut  = ""
	profileFlag  = false
	backends     stringList
	listGov      bool
	listScen     bool

	fuzzN         = 100
	baselineFile  = ""
	writeBaseline = ""
	replayPath    = ""
	corpusOut     = ""
	minimizeFlag  = false

	// setFlags records which flags the user spelled out, accumulated
	// across parseArgs's Parse calls; runFuzz consults it to override the
	// fuzzer's own scale/cores/reps defaults only on explicit request.
	setFlags = map[string]bool{}
)

// stringList collects a repeatable flag (-backend may be given once per
// cfserve instance).
type stringList []string

func (l *stringList) String() string { return strings.Join(*l, ",") }
func (l *stringList) Set(v string) error {
	*l = append(*l, v)
	return nil
}

// newFlagSet registers every CLI flag on a fresh flag set bound to the
// package-level option variables. ContinueOnError makes Parse return an
// error naming the offending flag instead of exiting, so the two-stage
// parse below can report it uniformly wherever the flag appeared.
func newFlagSet(opt *experiments.Options) *flag.FlagSet {
	fs := flag.NewFlagSet("cuttlefish", flag.ContinueOnError)
	fs.SetOutput(io.Discard) // main prints the error and usage itself
	fs.Float64Var(&opt.Scale, "scale", opt.Scale, "benchmark length relative to the paper's runs (1.0 ≈ 60-80s each)")
	fs.IntVar(&opt.Reps, "reps", opt.Reps, "repetitions per data point (paper: 10)")
	fs.IntVar(&opt.Cores, "cores", opt.Cores, "simulated core count")
	fs.Int64Var(&opt.Seed, "seed", opt.Seed, "base RNG seed")
	fs.Float64Var(&opt.TinvSec, "tinv", opt.TinvSec, "daemon profiling interval in seconds")
	fs.Float64Var(&opt.WarmupSec, "warmup", opt.WarmupSec, "cuttlefish daemon warmup before its first wake, in simulated seconds (negative = none; part of the spec identity)")
	fs.IntVar(&opt.Workers, "workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
	fs.StringVar(&opt.Governor, "governor", "", "registered governor for single-environment experiments (default: each experiment's paper environment; see -list-governors)")
	fs.StringVar(&format, "format", format, "report format: text | json | csv")
	fs.StringVar(&remote, "remote", remote, "execute against a cfserve instance at this URL instead of in-process (e.g. http://localhost:8080)")
	fs.StringVar(&benchName, "bench", benchName, "workload for the \"run\" experiment: a Table 1 benchmark or a registered scenario (see -list-scenarios)")
	fs.StringVar(&scenarioFile, "scenario", scenarioFile, "scenario definition file (JSON phase program) for the \"run\" experiment")
	fs.StringVar(&sweepSpec, "spec", sweepSpec, "sweep spec file (JSON) for the \"sweep\" subcommand")
	fs.Var(&backends, "backend", "cfserve URL the \"sweep\" subcommand dispatches to (repeatable; default: run in-process)")
	fs.StringVar(&storeDir, "store", storeDir, "persistent result store directory for in-process sweeps")
	fs.BoolVar(&memoFlag, "memo", memoFlag, "enable prefix-snapshot memoization for in-process runs: shared schedule prefixes simulate once and resume")
	fs.StringVar(&memoDir, "memo-dir", memoDir, "persistent snapshot directory below the memo LRU (implies -memo; survives invocations)")
	fs.Int64Var(&memoMaxBytes, "memo-max-bytes", memoMaxBytes, "memo LRU byte budget (0 = 64 MiB)")
	fs.StringVar(&traceOut, "trace-out", traceOut, "write the in-process run's span trace as Chrome trace-event JSON to this file (implies -profile)")
	fs.StringVar(&timelineOut, "timeline-out", timelineOut, "record the in-process run's flight-recorder timeline (per-quantum frequencies, IPC, energy, governor decisions) and write it to this file: JSON, or CSV when the path ends in .csv")
	fs.BoolVar(&profileFlag, "profile", profileFlag, "record per-phase wall time into the trace's simulate spans")
	fs.BoolVar(&listGov, "list-governors", false, "list registered governors and exit")
	fs.BoolVar(&listScen, "list-scenarios", false, "list registered workloads (benchmarks and scenarios) and exit")
	fs.IntVar(&fuzzN, "n", fuzzN, "scenarios the fuzz subcommand generates before hash-dedup")
	fs.StringVar(&baselineFile, "baseline", baselineFile, "baseline file the fuzz findings are diffed against (new findings or metric regressions exit 1)")
	fs.StringVar(&writeBaseline, "write-baseline", writeBaseline, "write the fuzz pass's snapshot (corpus digest, cells, findings) to this file")
	fs.StringVar(&replayPath, "replay", replayPath, "replay a corpus entry file or directory instead of generating (fuzz)")
	fs.StringVar(&corpusOut, "corpus-out", corpusOut, "write every corpus entry as a replayable JSON file into this directory (fuzz)")
	fs.BoolVar(&minimizeFlag, "minimize", minimizeFlag, "greedily shrink each finding-bearing scenario and persist the minimized form to -corpus-out (fuzz)")
	return fs
}

// parseArgs parses flags and the experiment name in one loop: every
// positional argument boundary re-enters Parse, so flags are accepted
// before and after the subcommand identically, and a bad flag fails with
// the same error (naming the flag) wherever it appears. The previous
// two-stage parse re-parsed only the tail after the subcommand, exiting
// without a message on errors there.
func parseArgs(fs *flag.FlagSet, args []string) (experiment string, err error) {
	rest := args
	for {
		if err := fs.Parse(rest); err != nil {
			return "", err
		}
		pos := fs.Args()
		if len(pos) == 0 {
			return experiment, nil
		}
		if experiment != "" {
			return "", fmt.Errorf("unexpected argument %q after experiment %q", pos[0], experiment)
		}
		experiment = pos[0]
		rest = pos[1:]
	}
}

func main() {
	opt := experiments.DefaultOptions()
	fs := newFlagSet(&opt)
	name, err := parseArgs(fs, os.Args[1:])
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			usage(fs)
			return
		}
		fmt.Fprintf(os.Stderr, "cuttlefish: %v\n", err)
		usage(fs)
		os.Exit(2)
	}
	fs.Visit(func(f *flag.Flag) { setFlags[f.Name] = true })
	if listGov {
		for _, info := range governor.List() {
			fmt.Printf("%-18s %s\n", info.Name, info.Description)
		}
		return
	}
	if listScen {
		for _, info := range scenario.List() {
			fmt.Printf("%-16s %-10s %s\n", info.Name, info.Kind, info.Description)
		}
		return
	}
	if name == "" {
		usage(fs)
		os.Exit(2)
	}
	if !report.ValidFormat(format) {
		fmt.Fprintf(os.Stderr, "cuttlefish: unknown format %q (want text, json or csv)\n", format)
		os.Exit(2)
	}
	if err := run(name, opt, format); err != nil {
		fmt.Fprintf(os.Stderr, "cuttlefish: %v\n", err)
		os.Exit(1)
	}
}

func usage(fs *flag.FlagSet) {
	fmt.Fprintf(os.Stderr, `usage: cuttlefish [flags] <experiment> [flags]

experiments:
  table1   benchmark census (time, TIPI range, slab counts)
  fig2     TIPI and JPI execution timelines
  fig3a    JPI per frequent TIPI at CF {1.2, 1.8, 2.3} GHz, UF max
  fig3b    JPI per frequent TIPI at UF {1.2, 2.1, 3.0} GHz, CF max
  fig10    OpenMP: energy / time / EDP vs Default for all three policies
  fig11    HClib: same comparison over the SOR and Heat variants
  table2   CFopt / UFopt per frequent TIPI range vs Default settings
  table3   Tinv sensitivity (10 / 20 / 40 / 60 ms)
  ablation cost of disabling the §4.4 / §4.5 / Algorithm-3 optimisations
  ddcm     DVFS vs duty-cycle modulation at matched throttle
  oracle   daemon's chosen optima vs exhaustive (CF,UF) sweep
  run      one workload under one governor (-bench <name> or
           -scenario <file.json>, Reps rows)
  sweep    expand a parameter grid (-spec file.json) across backends
  fuzz     generate -n scenarios from -seed, run each under every
           registered governor, report inversions/anomalies/errors
  all      everything above in sequence (fuzz excluded)

strategies are constructed through the governor registry; -governor swaps
the execution environment of single-environment experiments (table1), e.g.
  cuttlefish -governor=powersave table1 -format json
registered: %s

workloads come from the scenario registry: Table 1 benchmarks, built-in
synthetic scenarios (-list-scenarios) and JSON phase programs:
  cuttlefish run -bench bursty
  cuttlefish run -scenario examples/scenarios/bursty.json

-remote <url> ships any experiment to a cfserve instance instead of
running in-process; identical specs are served from the server's
content-addressed result cache:
  cuttlefish -remote http://localhost:8080 run -bench Heat-irt -format json

sweep fans a declarative parameter grid (governors × benchmarks ×
scenarios × tinv/cores/reps/seeds/scales, listed or sampled) across one
or more cfserve backends with least-loaded dispatch, retry and failover,
then aggregates a cross-product comparison (best-per-cell + Pareto rows):
  cuttlefish sweep -spec sweep.json -backend http://a:8080 -backend http://b:8080

fuzz samples whole scenario phase programs from seeded distributions —
bit-deterministic for equal (-n, -seed) — and runs each under every
registered governor, flagging execution errors, governor-ordering
inversions (cuttlefish losing to default/static on energy) and
anomalies. -baseline diffs the findings and cell metrics against a
committed snapshot (new findings or regressions exit 1);
-write-baseline refreshes it; -replay re-runs committed corpus files;
-minimize shrinks finding-bearing scenarios into -corpus-out:
  cuttlefish fuzz -n 1000 -seed 7 -format json
  cuttlefish fuzz -n 50 -seed 7 -baseline internal/fuzz/testdata/baseline-n50-seed7.json
  cuttlefish fuzz -replay internal/fuzz/testdata/corpus

-trace-out records the in-process run as a span tree — per-repetition
lanes, per-region simulate spans, per-phase engine time — and writes it
as Chrome trace-event JSON (open at chrome://tracing or
ui.perfetto.dev). Tracing never changes report bytes:
  cuttlefish run -bench bursty -trace-out trace.json

-timeline-out arms the deterministic flight recorder: the simulated
machine is sampled at every region boundary (per-core and uncore
frequency, IPC, instructions, RAPL energy) and every governor decision
(DVFS/UFS transitions, TIPI slab inserts, exploration phases) lands as
an event. The JSON file is a pure function of the spec — two runs
produce byte-identical timelines — and with -trace-out the counters are
also folded into the Chrome trace as Perfetto value tracks. A path
ending in .csv writes one flat CSV instead (sample and event rows):
  cuttlefish run -bench bursty -timeline-out timeline.json
  cuttlefish run -bench AMG -governor default -reps 1 -timeline-out amg.csv
  cuttlefish run -bench bursty -trace-out trace.json -timeline-out timeline.json

-memo adds a second cache tier for in-process execution: phase-boundary
machine snapshots keyed by schedule prefix, so a run whose schedule
shares a prefix with an earlier one (a re-run, or a scenario with a
tweaked tail) resumes from the last common boundary instead of
re-simulating from boot. Results stay byte-identical; -memo-dir
persists snapshots across invocations:
  cuttlefish run -bench bursty -memo-dir /tmp/cfmemo

flags (before or after the experiment):
`, strings.Join(governor.Names(), ", "))
	fs.SetOutput(os.Stderr)
	fs.PrintDefaults()
	fs.SetOutput(io.Discard)
}

// run executes one experiment — in-process, or against a cfserve
// instance when -remote is set — and renders its report in the chosen
// format.
func run(name string, opt experiments.Options, format string) error {
	if opt.Governor != "" {
		// Fail fast on typos before burning simulation time.
		if _, err := governor.New(opt.Governor, governor.Tuning{}); err != nil {
			return err
		}
	}
	if scenarioFile != "" {
		if name != "run" {
			return fmt.Errorf("-scenario only applies to the run experiment, not %q", name)
		}
		if benchName != "" {
			return fmt.Errorf("-bench and -scenario are mutually exclusive")
		}
		raw, err := os.ReadFile(scenarioFile)
		if err != nil {
			return err
		}
		def, err := scenario.ParseDefinition(raw)
		if err != nil {
			return err
		}
		opt.ScenarioDef = &def
	}
	if name == "run" && benchName == "" && opt.ScenarioDef == nil {
		return fmt.Errorf("the run experiment needs -bench <name> or -scenario <file.json>")
	}
	if name == "sweep" {
		return runSweep(opt, format)
	}
	if name == "fuzz" {
		return runFuzz(opt, format)
	}
	if name == "all" {
		for _, e := range []string{"table1", "fig2", "fig3a", "fig3b", "fig10", "fig11", "table2", "table3", "ablation", "ddcm"} {
			if err := run(e, opt, format); err != nil {
				return err
			}
			fmt.Println()
		}
		return nil
	}
	if remote != "" {
		if timelineOut != "" {
			return fmt.Errorf("-timeline-out records in-process runs; fetch a remote run's timeline from GET /v1/runs/{id}/timeline on a cfserve started with -timelines")
		}
		return runRemote(name, opt, format)
	}
	tier, err := buildMemoTier()
	if err != nil {
		return err
	}
	if tier != nil {
		rs := &memo.RunStats{}
		opt.Memo, opt.MemoStats = tier, rs
		defer func() {
			if v := rs.View(); v.Runs > 0 {
				fmt.Fprintf(os.Stderr, "cuttlefish: memo: %s\n", service.FormatMemoHeader(v))
			}
		}()
	}
	var tr *obs.Trace
	if traceOut != "" {
		if name == "all" {
			return fmt.Errorf("-trace-out traces one experiment at a time, not %q", name)
		}
		// The trace ID is the spec's content hash — the same ID cfserve
		// would assign this run — so a file traced locally and one fetched
		// from GET /v1/runs/{id}/trace name the same execution.
		tr = obs.NewTrace(service.SpecFromOptions(name, benchName, opt).Hash())
		opt.Span = tr.Root()
		opt.Profile = true
	}
	opt.Profile = opt.Profile || profileFlag
	var rec *timeline.Recorder
	if timelineOut != "" {
		if name == "all" {
			return fmt.Errorf("-timeline-out records one experiment at a time, not %q", name)
		}
		// The recorder's ID is the spec's content hash, same as the trace
		// ID — the timeline written here is byte-identical to the one a
		// cfserve started with -timelines would serve for this spec.
		rec = timeline.New(service.SpecFromOptions(name, benchName, opt).Hash())
		opt.Timeline = rec
	}
	rep, err := build(name, opt)
	if tr != nil {
		if err != nil {
			tr.Root().Set("error", err.Error())
		}
		tr.Root().End()
		// Fold the timeline's counter tracks and decision markers into
		// the span trace so one Perfetto file tells the whole story.
		obs.MergeTimeline(tr, rec)
		if werr := writeTrace(tr, traceOut); werr != nil && err == nil {
			err = werr
		}
	}
	if rec != nil && err == nil {
		if werr := writeTimeline(rec, timelineOut); werr != nil {
			err = werr
		}
	}
	if err != nil {
		return err
	}
	return rep.Write(os.Stdout, format)
}

// writeTrace dumps the completed trace as Chrome trace-event JSON
// (load it at chrome://tracing or ui.perfetto.dev).
func writeTrace(tr *obs.Trace, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "cuttlefish: trace written to %s\n", path)
	return nil
}

// writeTimeline dumps the flight recorder's export as indented JSON, or
// as CSV when path ends in .csv. The bytes are a pure function of the
// spec: two runs of one spec produce byte-identical files (the CI
// timeline-smoke job cmp's them).
func writeTimeline(rec *timeline.Recorder, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	write := rec.WriteJSON
	if strings.EqualFold(filepath.Ext(path), ".csv") {
		write = rec.WriteCSV
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	conv := rec.Convergence()
	fmt.Fprintf(os.Stderr, "cuttlefish: timeline written to %s (%s)\n", path, service.FormatTimelineHeader(conv))
	return nil
}

// buildMemoTier constructs the prefix-snapshot tier the -memo flags ask
// for; nil when memoization is off. With -memo-dir the tier persists
// snapshots across invocations, so a tweaked re-run of a long scenario
// resumes from the last shared phase boundary instead of re-simulating
// its whole prefix.
func buildMemoTier() (*memo.Tier, error) {
	if !memoFlag && memoDir == "" {
		return nil, nil
	}
	var disk *store.Store
	if memoDir != "" {
		var err error
		if disk, err = store.Open(memoDir, 0); err != nil {
			return nil, err
		}
	}
	return memo.New(memoMaxBytes, disk), nil
}

// runSweep expands a sweep spec and dispatches it over the configured
// backends — every -backend URL, plus -remote for symmetry with the
// other subcommands; with none it runs in-process (optionally with a
// persistent -store, so warm re-runs cost nothing there too). Progress
// and the operational summary go to stderr; the aggregated report —
// deterministic across backend topologies — goes to stdout in -format.
func runSweep(opt experiments.Options, format string) error {
	if sweepSpec == "" {
		return fmt.Errorf("the sweep subcommand needs -spec <file.json>")
	}
	raw, err := os.ReadFile(sweepSpec)
	if err != nil {
		return err
	}
	sweep, err := orchestrator.ParseSweepSpec(raw)
	if err != nil {
		return err
	}
	pool, cleanup, err := buildBackendPool(opt)
	if err != nil {
		return err
	}
	defer cleanup()
	var dupNoted bool // OnEvent calls are serialized by the orchestrator
	o, err := orchestrator.New(orchestrator.Config{
		Backends: pool,
		OnEvent: func(ev orchestrator.Event) {
			if ev.Duplicates > 0 && !dupNoted {
				dupNoted = true
				fmt.Fprintf(os.Stderr, "sweep: %d duplicate grid cell(s) collapsed by hash-dedup (cross-product %d)\n",
					ev.Duplicates, ev.Total+ev.Duplicates)
			}
			target := ev.Spec.Experiment
			switch {
			case ev.Spec.Benchmark != "":
				target += "/" + ev.Spec.Benchmark
			case ev.Spec.Scenario != "":
				target += "/" + ev.Spec.Scenario
			case ev.Spec.ScenarioDef != nil:
				target += "/" + ev.Spec.ScenarioDef.Name
			}
			if ev.Spec.Governor != "" {
				target += "/" + ev.Spec.Governor
			}
			if ev.Err != nil {
				fmt.Fprintf(os.Stderr, "sweep: attempt %d for %s failed on %s: %v\n", ev.Attempt, target, ev.Backend, ev.Err)
				return
			}
			line := fmt.Sprintf("sweep: %d/%d %s seed=%d (%s via %s)",
				ev.Done, ev.Total, target, ev.Spec.Seed, ev.Outcome, ev.Backend)
			if ev.Memo != nil && ev.Memo.PrefixHits > 0 {
				line += fmt.Sprintf(" [memo: %d/%d quanta skipped]", ev.Memo.QuantaSaved, ev.Memo.QuantaTotal)
			}
			fmt.Fprintln(os.Stderr, line)
		},
	})
	if err != nil {
		return err
	}
	res, err := o.Run(context.Background(), sweep)
	if res != nil {
		fmt.Fprintf(os.Stderr, "sweep: %s\n", res.Summary)
	}
	if err != nil {
		return err
	}
	rep, err := orchestrator.Aggregate(sweep.Name, res.Results)
	if err != nil {
		return err
	}
	return rep.Write(os.Stdout, format)
}

// buildBackendPool assembles the execution backends the sweep and fuzz
// subcommands dispatch over: every -backend URL plus -remote, or — with
// neither — one in-process service wired with the -store and -memo cache
// tiers. The cleanup func tears down whatever was built.
func buildBackendPool(opt experiments.Options) ([]orchestrator.Backend, func(), error) {
	urls := append(stringList(nil), backends...)
	if remote != "" {
		urls = append(urls, remote)
	}
	if len(urls) > 0 {
		var pool []orchestrator.Backend
		for _, u := range urls {
			pool = append(pool, orchestrator.NewRemoteBackend(u))
		}
		return pool, func() {}, nil
	}
	cfg := service.Config{Workers: opt.Workers, QueueDepth: 64}
	if storeDir != "" {
		st, err := store.Open(storeDir, 0)
		if err != nil {
			return nil, nil, err
		}
		cfg.Store = st
	}
	tier, err := buildMemoTier()
	if err != nil {
		return nil, nil, err
	}
	cfg.Memo = tier
	svc := service.New(cfg)
	return []orchestrator.Backend{&orchestrator.LocalBackend{Service: svc}}, svc.Close, nil
}

// runFuzz expands (or -replay loads) a scenario corpus and runs the
// differential pass over the backend pool. The findings report — byte
// identical across invocations, backends and cache temperatures — goes
// to stdout in -format; corpus statistics, cache outcomes and the
// baseline verdict go to stderr. Findings alone do not fail the command
// (they are the fuzzer's product); new findings or metric regressions
// against a -baseline do.
func runFuzz(opt experiments.Options, format string) error {
	cfg := fuzz.Config{N: fuzzN, Seed: opt.Seed, Workers: opt.Workers}
	// The fuzzer's own defaults (8 cores, 0.05 scale, 1 rep) are sized
	// for breadth, not paper fidelity; the shared flags override them
	// only when the user spelled them out.
	if setFlags["scale"] {
		cfg.Scale = opt.Scale
	}
	if setFlags["cores"] {
		cfg.Cores = opt.Cores
	}
	if setFlags["reps"] {
		cfg.Reps = opt.Reps
	}
	if setFlags["tinv"] {
		cfg.TinvSec = opt.TinvSec
	}
	var corpus *fuzz.Corpus
	var err error
	if replayPath != "" {
		if corpus, err = fuzz.LoadCorpus(replayPath); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "fuzz: replaying %d scenario(s) from %s\n", len(corpus.Entries), replayPath)
	} else {
		if corpus, err = fuzz.Generate(cfg); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "fuzz: corpus: %d scenario(s) from seed %d (%d duplicate(s) collapsed), digest %.12s…\n",
			len(corpus.Entries), cfg.Seed, corpus.Duplicates, corpus.Digest())
	}
	if corpusOut != "" {
		if err := os.MkdirAll(corpusOut, 0o755); err != nil {
			return err
		}
		for _, e := range corpus.Entries {
			if err := fuzz.WriteEntry(filepath.Join(corpusOut, e.Def.Name+".json"), e); err != nil {
				return err
			}
		}
		fmt.Fprintf(os.Stderr, "fuzz: wrote %d corpus entr(ies) to %s\n", len(corpus.Entries), corpusOut)
	}
	pool, cleanup, err := buildBackendPool(opt)
	if err != nil {
		return err
	}
	defer cleanup()
	ctx := context.Background()
	rep, err := fuzz.Run(ctx, pool, corpus, cfg)
	if err != nil {
		return err
	}
	outcomes := map[string]int{}
	for _, c := range rep.Cells {
		if c.Outcome != "" {
			outcomes[c.Outcome]++
		}
	}
	fmt.Fprintf(os.Stderr, "fuzz: %d cell(s) executed (%s), %d finding(s)\n",
		len(rep.Cells), formatOutcomes(outcomes), len(rep.Findings))
	if minimizeFlag {
		if err := minimizeFindings(ctx, pool, rep, corpus, cfg); err != nil {
			return err
		}
	}
	if err := rep.RunReport().Write(os.Stdout, format); err != nil {
		return err
	}
	if writeBaseline != "" {
		if err := fuzz.BaselineOf(rep, cfg).Save(writeBaseline); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "fuzz: baseline written to %s\n", writeBaseline)
	}
	if baselineFile != "" {
		base, err := fuzz.LoadBaseline(baselineFile)
		if err != nil {
			return err
		}
		violations, resolved, err := fuzz.Diff(base, rep, cfg)
		if err != nil {
			return err
		}
		for _, f := range resolved {
			fmt.Fprintf(os.Stderr, "fuzz: resolved vs baseline (refresh it with -write-baseline): %s/%s %s\n", f.Scenario, f.Kind, f.Detail)
		}
		if len(violations) > 0 {
			for _, f := range violations {
				fmt.Fprintf(os.Stderr, "fuzz: VIOLATION %s %s governor=%s ref=%s: %s\n", f.Scenario, f.Kind, f.Governor, f.Reference, f.Detail)
			}
			return fmt.Errorf("%d violation(s) vs baseline %s", len(violations), baselineFile)
		}
		fmt.Fprintf(os.Stderr, "fuzz: baseline %s holds (%d finding(s) match, no metric regressions)\n", baselineFile, len(base.Findings))
	}
	return nil
}

// minimizeFindings greedily shrinks every finding-bearing scenario (one
// per scenario, all its finding kinds at once) and persists the minimized
// entries to -corpus-out, or describes them on stderr without it.
func minimizeFindings(ctx context.Context, pool []orchestrator.Backend, rep *fuzz.Report, corpus *fuzz.Corpus, cfg fuzz.Config) error {
	kindsByScenario := map[string]map[string]bool{}
	for _, f := range rep.Findings {
		if kindsByScenario[f.Scenario] == nil {
			kindsByScenario[f.Scenario] = map[string]bool{}
		}
		kindsByScenario[f.Scenario][f.Kind] = true
	}
	runOne := func(ctx context.Context, e fuzz.Entry) ([]fuzz.Finding, error) {
		r, err := fuzz.Run(ctx, pool, &fuzz.Corpus{Requested: 1, Entries: []fuzz.Entry{e}}, cfg)
		if err != nil {
			return nil, err
		}
		return r.Findings, nil
	}
	for _, e := range corpus.Entries {
		kinds := kindsByScenario[e.Def.Name]
		if len(kinds) == 0 {
			continue
		}
		min, spent := fuzz.Minimize(ctx, e, kinds, runOne, 64)
		min.Note = fmt.Sprintf("minimized from %s (%d evaluation(s))", e.Def.Name, spent)
		fmt.Fprintf(os.Stderr, "fuzz: minimized %s -> %s: %d phase(s) x %d iteration(s) (%d evaluation(s))\n",
			e.Def.Name, min.Def.Name, len(min.Def.Phases), min.Def.Iterations, spent)
		if corpusOut != "" {
			if err := fuzz.WriteEntry(filepath.Join(corpusOut, "min-"+min.Def.Name+".json"), min); err != nil {
				return err
			}
		}
	}
	return nil
}

// formatOutcomes renders cache-outcome counts in a fixed order.
func formatOutcomes(counts map[string]int) string {
	var parts []string
	for _, k := range []string{"miss", "hit", "disk", "coalesced"} {
		if counts[k] > 0 {
			parts = append(parts, fmt.Sprintf("%d %s", counts[k], k))
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ", ")
}

// runRemote ships the experiment to a cfserve instance: the same flags
// become a RunSpec, the server's canonical report renders locally in any
// -format. The cache outcome goes to stderr so json/csv stay clean.
// With -trace-out the client records its own request span and
// propagates it as X-Trace-Parent, so the local trace file and the
// server's GET /v1/runs/{id}/trace stitch into one tree.
func runRemote(name string, opt experiments.Options, format string) error {
	spec := service.SpecFromOptions(name, benchName, opt)
	c := &service.Client{BaseURL: remote}
	var tr *obs.Trace
	if traceOut != "" {
		tr = obs.NewTrace(spec.Hash())
		c.Trace = tr
	}
	res, err := c.RunResult(context.Background(), spec)
	if tr != nil {
		if err != nil {
			tr.Root().Set("error", err.Error())
		}
		tr.Root().End()
		if werr := writeTrace(tr, traceOut); werr != nil && err == nil {
			err = werr
		}
	}
	if err != nil {
		return err
	}
	rep, err := report.Decode(res.Body)
	if err != nil {
		return err
	}
	note := fmt.Sprintf("cuttlefish: %s via %s (%s)", name, remote, res.Outcome)
	if res.Convergence != nil {
		note += " [" + service.FormatTimelineHeader(*res.Convergence) + "]"
	}
	fmt.Fprintln(os.Stderr, note)
	return rep.Write(os.Stdout, format)
}

// build runs the named experiment in-process and converts its rows to a
// report; the dispatch itself lives in experiments.BuildReport, shared
// with the cfserve executor.
func build(name string, opt experiments.Options) (*report.RunReport, error) {
	return experiments.BuildReport(name, benchName, opt)
}
