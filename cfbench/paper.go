package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/governor"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/timeline"
)

// paper-eval regenerates what the paper's readers regenerate: the Table 1
// census, then the Fig. 10 OpenMP comparison, in-process with no cache
// tier, at paper length (scale 1). Its inputs are the paper's canonical
// configuration, so the seed changes nothing the program sees; that is
// what lets the report bytes be checked against a committed digest.

//go:embed testdata/paper-eval.sha256
var committedDigests string

// paperExperiments are paper-eval's artefacts, in run order.
var paperExperiments = []string{"table1", "fig10"}

// paperOptions is the canonical paper-length configuration.
func paperOptions() experiments.Options {
	o := experiments.DefaultOptions()
	o.Scale = 1
	o.Reps = 1
	o.Workers = workers
	return o
}

// paperReports runs both artefacts and returns their canonical bytes and
// host seconds.
func paperReports(opt experiments.Options) (bodies [][]byte, secs []float64, err error) {
	for _, name := range paperExperiments {
		t0 := time.Now()
		rep, err := experiments.BuildReport(name, "", opt)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", name, err)
		}
		b, err := rep.Encode()
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", name, err)
		}
		bodies = append(bodies, b)
		secs = append(secs, time.Since(t0).Seconds())
	}
	return bodies, secs, nil
}

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// parseDigests reads "<sha256>  <experiment>" lines.
func parseDigests(s string) map[string]string {
	out := map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(s))
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) == 2 {
			out[f[1]] = f[0]
		}
	}
	return out
}

// paperOutcome is what one evaluation's output check extracts.
type paperOutcome struct {
	savingsPct, slowdownPct float64
	simSeconds              float64
	cells                   int
}

// checkPaper verifies one evaluation: report bytes against the committed
// digests, then the EXPERIMENTS.md Fig. 10 shapes. It also derives the
// simulated seconds the evaluation delivered (see README.md).
func checkPaper(bodies [][]byte) (paperOutcome, error) {
	want := parseDigests(committedDigests)
	var got strings.Builder
	ok := true
	for i, name := range paperExperiments {
		d := sha(bodies[i])
		ok = ok && d == want[name]
		fmt.Fprintf(&got, "%s  %s\n", d, name)
	}
	if !ok {
		// After an intended model change these lines are the new
		// testdata/paper-eval.sha256.
		return paperOutcome{}, fmt.Errorf("report digests differ from testdata/paper-eval.sha256; computed:\n%s", got.String())
	}
	t1, err := report.Decode(bodies[0])
	if err != nil {
		return paperOutcome{}, err
	}
	f10, err := report.Decode(bodies[1])
	if err != nil {
		return paperOutcome{}, err
	}
	rows := map[string]report.Row{}
	for _, r := range f10.Rows {
		rows[fmt.Sprint(r["benchmark"])] = r
	}
	num := func(r report.Row, col string) float64 {
		v, _ := r[col].(float64)
		return v
	}
	cf, cfCore := governor.Cuttlefish, governor.CuttlefishCore
	uts, geo := rows["UTS"], rows["geomean"]
	if uts == nil || geo == nil {
		return paperOutcome{}, fmt.Errorf("fig10 report lacks the UTS or geomean row")
	}
	// Full Cuttlefish saves most on memory-bound codes, more than on the
	// compute-bound UTS.
	for _, h := range []string{"Heat-irt", "Heat-rt", "Heat-ws"} {
		if num(rows[h], "energy_sav_pct:"+cf) <= num(uts, "energy_sav_pct:"+cf) {
			return paperOutcome{}, fmt.Errorf("fig10 shape: %s saves no more than UTS", h)
		}
	}
	// Cuttlefish-Core loses energy on compute-bound codes.
	if num(uts, "energy_sav_pct:"+cfCore) >= 0 {
		return paperOutcome{}, fmt.Errorf("fig10 shape: Cuttlefish-Core saves energy on UTS")
	}
	// Slowdowns stay small.
	for name, r := range rows {
		for _, g := range governor.CuttlefishVariants {
			if s := num(r, "slowdown_pct:"+g); s > 20 {
				return paperOutcome{}, fmt.Errorf("fig10 shape: %s/%s slowdown %.1f%%", name, g, s)
			}
		}
	}
	out := paperOutcome{savingsPct: num(geo, "energy_sav_pct:"+cf), slowdownPct: num(geo, "slowdown_pct:"+cf)}
	if out.savingsPct <= 0 {
		return paperOutcome{}, fmt.Errorf("fig10 shape: geomean Cuttlefish saving %.2f%% is not positive", out.savingsPct)
	}
	// Table 1 reports each benchmark's Default seconds; each Fig. 10 cell
	// ran that long times (1 + its slowdown).
	secs, err := t1.Floats("seconds")
	if err != nil {
		return paperOutcome{}, err
	}
	for i, r := range t1.Rows {
		def := secs[i]
		out.simSeconds += 2 * def // the census run and Fig. 10's Default run
		for _, g := range governor.CuttlefishVariants {
			out.simSeconds += def * (1 + num(rows[fmt.Sprint(r["benchmark"])], "slowdown_pct:"+g)/100)
		}
	}
	out.cells = len(t1.Rows) * (2 + len(governor.CuttlefishVariants))
	return out, nil
}

func runPaperEval(cfg runCfg, notes map[string]any) (result, error) {
	if cfg.trace {
		return tracePaperEval(cfg, notes)
	}
	opt := paperOptions()
	// Set-up warms the harness, allocator and registries with a short
	// evaluation before the clock starts.
	warm := opt
	warm.Scale = 0.05
	_, setupS, err := setupMedian(func() (struct{}, error) {
		_, _, err := paperReports(warm)
		return struct{}{}, err
	}, func(struct{}) {})
	if err != nil {
		return result{}, err
	}

	var lat, simRate, cellRate []float64
	var out paperOutcome
	attempted, failed := 0, 0
	alloc0, cpu0 := allocMB(), cpuSeconds()
	start := time.Now()
	for time.Since(start).Seconds() < cfg.seconds {
		t0 := time.Now()
		bodies, _, err := paperReports(opt)
		dt := time.Since(t0).Seconds()
		attempted++
		if err == nil {
			out, err = checkPaper(bodies)
		}
		if err != nil {
			failed++
			notes["error"] = err.Error()
			continue
		}
		lat = append(lat, dt*1e3)
		simRate = append(simRate, out.simSeconds/dt)
		cellRate = append(cellRate, float64(out.cells)/dt)
	}
	elapsed := time.Since(start).Seconds()
	alloc := allocMB() - alloc0
	notes["cpu_per_host_s"] = (cpuSeconds() - cpu0) / elapsed
	p95 := tailPercentile(lat, 0.95)
	notes["lat_p95"] = p95
	notes["op_ms"] = lat
	e := endToEnd{
		SetupS:       setupS,
		SimSPerHostS: median(simRate),
		CellsPerS:    median(cellRate),
		ReqPerS:      float64(attempted-failed) / elapsed,
		LatP50Ms:     median(lat),
		LatP95Ms:     p95.Value,
		AllocMB:      alloc / float64(attempted),
		SavingsPct:   out.savingsPct,
		SlowdownPct:  out.slowdownPct,
		Attempted:    attempted,
		Failed:       failed,
	}
	return e.result(), nil
}

// overheadEvals is how many interleaved untraced/traced evaluation pairs
// paper-eval's traced pass times.
const overheadEvals = 3

// tracePaperEval is paper-eval's traced pass. A first untraced evaluation
// warms the process. Then come interleaved pairs of untraced evaluations
// and evaluations with the existing span tracing, engine profiling and
// flight recorder on; every one's bytes must match the committed digest.
// Then every Fig. 10 cell is re-run through the public run-path pieces
// with each layer timed from here, and finally the Cuttlefish daemon's
// tick is timed. The re-run cells must reproduce the report's numbers
// exactly.
func tracePaperEval(cfg runCfg, notes map[string]any) (result, error) {
	opt := paperOptions()
	res := result{Correct: true}
	fail := func(err error) {
		res.Failed++
		res.Correct = false
		notes["error"] = err.Error()
	}
	layers := map[string]float64{}

	res.Attempted++
	bodies, _, err := paperReports(opt)
	if err == nil {
		_, err = checkPaper(bodies)
	}
	if err != nil {
		bodies = nil
		fail(err)
	}

	var spans []obs.SpanExport
	layers["obs.tracing_overhead_pct"] = pairedOverhead(overheadEvals, func(_ int, traced bool) (float64, bool) {
		o := opt
		var tr *obs.Trace
		var tl *timeline.Recorder
		if traced {
			tr, tl = obs.NewTrace("paper-eval"), timeline.New("paper-eval")
			o.Span, o.Profile, o.Timeline = tr.Root(), true, tl
		}
		res.Attempted++
		t0 := time.Now()
		b, secs, err := paperReports(o)
		dt := time.Since(t0).Seconds()
		if err == nil {
			_, err = checkPaper(b)
		}
		if err != nil {
			if traced {
				err = fmt.Errorf("traced evaluation: %w", err)
			}
			fail(err)
			return 0, false
		}
		if bodies == nil {
			bodies = b
		}
		if traced {
			layers["experiments.table1_s"] = secs[0]
			layers["experiments.fig10_s"] = secs[1]
			spans = tr.Export().Spans
			n := 0
			for _, ln := range tl.Export().Lanes {
				n += len(ln.Samples)
			}
			notes["timeline_samples"] = n
		}
		return dt, true
	})
	addMachineProfiles(layers, spans)

	res.Attempted++
	if bodies == nil {
		fail(fmt.Errorf("layer probe: no report to check the cells against"))
	} else if err := probeCells(opt, bodies, layers); err != nil {
		fail(fmt.Errorf("layer probe: %w", err))
	}
	res.Metrics = perLayer(layers)
	return res, nil
}

// cell is one (benchmark, governor) simulation of the Fig. 10 matrix.
type cell struct {
	spec    bench.Spec
	gov     string
	seconds float64
	joules  float64
}

// probeCells re-runs the Fig. 10 matrix cell by cell with the workload
// source, the governor bracket and the benchmark build timed, checks the
// results against the evaluation's report, then times the daemon tick.
func probeCells(opt experiments.Options, bodies [][]byte, layers map[string]float64) error {
	govs := append([]string{governor.Default}, governor.CuttlefishVariants...)
	var cells []*cell
	for _, spec := range bench.All() {
		for _, g := range govs {
			cells = append(cells, &cell{spec: spec, gov: g})
		}
	}
	mcfg := machine.DefaultConfig()
	mcfg.Cores = opt.Cores
	params := bench.Params{Cores: opt.Cores, Scale: opt.Scale, Seed: opt.Seed, Model: opt.Model}

	// Builds run serially so the process-wide allocation counter sees one
	// build at a time.
	sources := make([]*timedSource, len(cells))
	for i, c := range cells {
		a0 := allocMB()
		t0 := time.Now()
		src, err := c.spec.Build(params)
		layers["bench.build_s"] += time.Since(t0).Seconds()
		layers["bench.build_alloc_mb"] += allocMB() - a0
		if err != nil {
			return err
		}
		sources[i] = newTimedSource(src)
	}

	var mu sync.Mutex
	tuning := governor.Tuning{TinvSec: opt.TinvSec, WarmupSec: opt.WarmupSec}
	err := runner.Pool{Workers: workers}.ForEach(context.Background(), len(cells), func(_ context.Context, i int) error {
		c := cells[i]
		g, err := governor.New(c.gov, tuning)
		if err != nil {
			return err
		}
		m, err := machine.New(mcfg)
		if err != nil {
			return err
		}
		defer m.Close()
		t0 := time.Now()
		att, err := g.Attach(m)
		bracket := time.Since(t0)
		if err != nil {
			return err
		}
		defer att.Detach()
		m.SetSource(sources[i].forMachine())
		c.seconds = m.Run(deadline(c.spec, opt))
		if !m.Finished() {
			return fmt.Errorf("%s/%s did not finish", c.spec.Name, c.gov)
		}
		t0 = time.Now()
		err = att.Detach()
		bracket += time.Since(t0)
		if err != nil {
			return err
		}
		c.joules = m.TotalEnergy()
		mu.Lock()
		defer mu.Unlock()
		layers["governor.bracket_s"] += bracket.Seconds()
		if d := att.Daemon(); d != nil {
			layers["core.samples"] += float64(d.Samples())
			layers["core.exploration_samples"] += float64(d.ExplorationSamples())
		}
		return nil
	})
	if err != nil {
		return err
	}
	addSchedStats(layers, sources)
	if n := layers["core.samples"]; n > 0 {
		layers["core.explore_ratio"] = layers["core.exploration_samples"] / n
	}

	// The re-run cells must reproduce the report's per-benchmark numbers
	// bit for bit.
	f10, err := report.Decode(bodies[1])
	if err != nil {
		return err
	}
	rows := map[string]report.Row{}
	for _, r := range f10.Rows {
		rows[fmt.Sprint(r["benchmark"])] = r
	}
	byKey := map[string]*cell{}
	for _, c := range cells {
		byKey[c.spec.Name+"/"+c.gov] = c
	}
	for _, spec := range bench.All() {
		def := byKey[spec.Name+"/"+governor.Default]
		for _, g := range governor.CuttlefishVariants {
			c := byKey[spec.Name+"/"+g]
			row := rows[spec.Name]
			if stats.SavingsPercent(def.joules, c.joules) != row["energy_sav_pct:"+g] ||
				stats.SlowdownPercent(def.seconds, c.seconds) != row["slowdown_pct:"+g] {
				return fmt.Errorf("%s/%s: re-run cell differs from the fig10 report", spec.Name, g)
			}
		}
	}

	// Tick probe: the Cuttlefish daemon attached by hand, as the governor
	// attaches it, with each tick timed. Its runs must match the governor
	// path's exactly.
	var tickNs, ticks float64
	for _, spec := range bench.All() {
		want := byKey[spec.Name+"/"+governor.Cuttlefish]
		sec, j, ns, n, err := tickProbe(spec, opt, mcfg, params)
		if err != nil {
			return err
		}
		if sec != want.seconds || j != want.joules {
			return fmt.Errorf("%s: hand-attached daemon run differs from the governor's", spec.Name)
		}
		tickNs += ns
		ticks += n
	}
	if ticks > 0 {
		layers["governor.tick_ns"] = tickNs / ticks
	}
	return nil
}

// deadline is the simulation deadline the experiment harness gives a
// benchmark run.
func deadline(spec bench.Spec, opt experiments.Options) float64 {
	return spec.PaperSeconds*opt.Scale*6 + opt.WarmupSec + 30
}

// tickProbe runs one benchmark under a hand-attached full Cuttlefish
// daemon whose every tick is timed.
func tickProbe(spec bench.Spec, opt experiments.Options, mcfg machine.Config, p bench.Params) (sec, joules, tickNs, ticks float64, err error) {
	m, err := machine.New(mcfg)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	defer m.Close()
	dcfg := governor.Tuning{TinvSec: opt.TinvSec, WarmupSec: opt.WarmupSec}.DaemonConfig(core.PolicyBoth)
	dev := m.Device()
	dev.Save()
	defer dev.Restore()
	d, err := core.NewDaemon(dcfg, dev, mcfg.Cores, mcfg.CoreGrid, mcfg.UncoreGrid, m.Now())
	if err != nil {
		return 0, 0, 0, 0, err
	}
	comp := &machine.Component{Period: dcfg.TinvSec, Core: dcfg.PinnedCore, Tick: func(now float64) float64 {
		t0 := time.Now()
		tax := d.Tick(now)
		tickNs += float64(time.Since(t0).Nanoseconds())
		ticks++
		return tax
	}}
	m.Schedule(comp, m.Now()+dcfg.TinvSec)
	src, err := spec.Build(p)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	m.SetSource(src)
	sec = m.Run(deadline(spec, opt))
	d.Stop()
	m.Unschedule(comp)
	if err := d.Err(); err != nil {
		return 0, 0, 0, 0, err
	}
	if !m.Finished() {
		return 0, 0, 0, 0, fmt.Errorf("%s tick probe did not finish", spec.Name)
	}
	return sec, m.TotalEnergy(), tickNs, ticks, nil
}
