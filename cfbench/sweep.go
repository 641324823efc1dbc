package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
	"repro/internal/governor"
	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/orchestrator"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/timeline"
)

// sweep-incremental is the "tweak the last phase, re-sweep every
// governor" case: K programs sharing all but their last phase, crossed
// with every registered governor, dispatched by the orchestrator into a
// service with a fresh memo tier and disk store per op. Every cell is a
// result-cache miss that executes and writes through, so this is also
// the write path of service and store.

// memoBytes is the sweep's in-memory snapshot budget, ample for one
// sweep's snapshots.
const memoBytes = 64 << 20

// sweepRef is the memo-off reference for one invocation's sweep.
type sweepRef struct {
	specs       []service.RunSpec
	bodies      [][]byte
	simSeconds  float64
	prefixHits  int
	savingsPct  float64
	slowdownPct float64
}

// sweepReference executes every cell without any cache tier and derives
// what a correct sweep must return.
func sweepReference(seed int64) (*sweepRef, error) {
	ref := &sweepRef{specs: sweepSpecs(seed)}
	ref.bodies = make([][]byte, len(ref.specs))
	err := runner.Pool{Workers: workers}.ForEach(context.Background(), len(ref.specs), func(_ context.Context, i int) error {
		s := ref.specs[i]
		rep, err := experiments.BuildReport(s.Experiment, s.Benchmark, s.Options())
		if err == nil {
			ref.bodies[i], err = rep.Encode()
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	var baseJ, cfJ, baseS, cfS []float64
	for i, s := range ref.specs {
		sec, j, err := runCell(ref.bodies[i])
		if err != nil {
			return nil, err
		}
		ref.simSeconds += sec
		switch s.Governor {
		case governor.Default:
			baseJ, baseS = append(baseJ, j), append(baseS, sec)
		case governor.Cuttlefish:
			cfJ, cfS = append(cfJ, j), append(cfS, sec)
		}
	}
	ref.savingsPct, ref.slowdownPct = geoSavings(baseJ, cfJ, baseS, cfS)
	// Each governor's first program runs cold; the other K-1 resume from
	// the shared prefix.
	ref.prefixHits = (sweepPrograms - 1) * len(governor.Names())
	return ref, nil
}

// runCell reads the simulated seconds and joules of a one-rep run report.
func runCell(body []byte) (sec, joules float64, err error) {
	rep, err := report.Decode(body)
	if err != nil {
		return 0, 0, err
	}
	s, err := rep.Floats(experiments.RunColSeconds)
	if err != nil {
		return 0, 0, err
	}
	j, err := rep.Floats(experiments.RunColJoules)
	if err != nil {
		return 0, 0, err
	}
	if len(s) != 1 {
		return 0, 0, fmt.Errorf("run report has %d rows, want 1", len(s))
	}
	return s[0], j[0], nil
}

// sweepStack is one op's system under test.
type sweepStack struct {
	dir     string
	store   *store.Store
	tier    *memo.Tier
	svc     *service.Service
	backend *timedBackend
	orch    *orchestrator.Orchestrator
	traces  *obs.TraceStore
}

func newSweepStack(cfg runCfg, traced bool) (*sweepStack, error) {
	dir, err := cfg.subdir("sweep-store")
	if err != nil {
		return nil, err
	}
	st, err := store.Open(dir, 0)
	if err != nil {
		return nil, err
	}
	s := &sweepStack{dir: dir, store: st, tier: memo.New(memoBytes, nil)}
	scfg := service.Config{Workers: workers, Store: st, Memo: s.tier}
	if traced {
		s.traces = obs.NewTraceStore(sweepPrograms*len(governor.Names()), "")
		scfg.Traces = s.traces
		scfg.Profile = true
		scfg.Timelines = timeline.NewStore(sweepPrograms * len(governor.Names()))
	}
	s.svc = service.New(scfg)
	s.backend = &timedBackend{inner: &orchestrator.LocalBackend{Service: s.svc}}
	s.orch, err = orchestrator.New(orchestrator.Config{
		Backends:    []orchestrator.Backend{s.backend},
		Concurrency: workers,
		RetrySeed:   1,
	})
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *sweepStack) close() {
	_ = s.svc.Shutdown(context.Background())
	os.RemoveAll(s.dir)
}

// sweepOnce runs one sweep on a fresh stack and checks it against the
// reference. The stack is returned open for the traced pass to read.
func sweepOnce(cfg runCfg, ref *sweepRef, traced bool) (*sweepStack, *orchestrator.SweepResult, time.Duration, error) {
	s, err := newSweepStack(cfg, traced)
	if err != nil {
		return nil, nil, 0, err
	}
	t0 := time.Now()
	res, err := s.orch.RunSpecs(context.Background(), ref.specs)
	wall := time.Since(t0)
	if err == nil {
		err = checkSweep(ref, res)
	}
	return s, res, wall, err
}

// checkSweep holds every cell to its memo-off bytes and the prefix-hit
// count to the expected one.
func checkSweep(ref *sweepRef, res *orchestrator.SweepResult) error {
	for i, r := range res.Results {
		if !bytes.Equal(r.Body, ref.bodies[i]) {
			return fmt.Errorf("cell %d (%s, %s) differs from its memo-off execution", i, r.Spec.ScenarioDef.Name, r.Spec.Governor)
		}
	}
	if m := res.Summary.Memo; m == nil || m.PrefixHits != ref.prefixHits {
		return fmt.Errorf("prefix hits %v, want %d", res.Summary.Memo, ref.prefixHits)
	}
	return nil
}

func runSweep(cfg runCfg, notes map[string]any) (result, error) {
	// The memo-off reference is the output check's, not the system's
	// set-up, so it stays outside setup_s.
	ref, err := sweepReference(cfg.seed)
	if err != nil {
		return result{}, err
	}
	if cfg.trace {
		return traceSweep(cfg, ref, notes)
	}
	// Set-up generates the specs and warms the stack with one checked
	// sweep, discarded.
	_, setupS, err := setupMedian(func() (struct{}, error) {
		ref.specs = sweepSpecs(cfg.seed)
		s, _, _, err := sweepOnce(cfg, ref, false)
		if s != nil {
			s.close()
		}
		return struct{}{}, err
	}, func(struct{}) {})
	if err != nil {
		return result{}, err
	}

	var lat, simRate, cellRate []float64
	attempted, failed := 0, 0
	alloc0 := allocMB()
	start := time.Now()
	for time.Since(start).Seconds() < cfg.seconds {
		s, _, wall, err := sweepOnce(cfg, ref, false)
		attempted += len(ref.specs)
		if s != nil {
			lat = append(lat, s.backend.lat...)
			s.close()
		}
		if err != nil {
			// A sweep with a wrong or missing cell fails as a whole.
			failed += len(ref.specs)
			notes["error"] = err.Error()
			continue
		}
		simRate = append(simRate, ref.simSeconds/wall.Seconds())
		cellRate = append(cellRate, float64(len(ref.specs))/wall.Seconds())
	}
	elapsed := time.Since(start).Seconds()
	alloc := allocMB() - alloc0
	p95 := tailPercentile(lat, 0.95)
	notes["lat_p95"] = p95
	notes["sweeps"] = len(cellRate)
	e := endToEnd{
		SetupS:       setupS,
		SimSPerHostS: median(simRate),
		CellsPerS:    median(cellRate),
		ReqPerS:      float64(attempted-failed) / elapsed,
		LatP50Ms:     median(lat),
		LatP95Ms:     p95.Value,
		AllocMB:      alloc / float64(attempted),
		SavingsPct:   ref.savingsPct,
		SlowdownPct:  ref.slowdownPct,
		Attempted:    attempted,
		Failed:       failed,
	}
	return e.result(), nil
}

// overheadSweeps is how many interleaved untraced/traced sweep pairs
// sweep-incremental's traced pass times.
const overheadSweeps = 5

// traceSweep is sweep-incremental's traced pass. A first untraced sweep
// warms the process; then come interleaved pairs of untraced sweeps and
// sweeps with service tracing, engine profiling and the flight recorder
// on. Every sweep's cells must equal the memo-off bytes. The layers are
// read from the last traced sweep.
func traceSweep(cfg runCfg, ref *sweepRef, notes map[string]any) (result, error) {
	res := result{Correct: true}
	fail := func(err error) {
		res.Failed += len(ref.specs)
		res.Correct = false
		notes["error"] = err.Error()
	}
	layers := map[string]float64{}

	var s *sweepStack
	var sw *orchestrator.SweepResult
	var onWall time.Duration
	defer func() {
		if s != nil {
			s.close()
		}
	}()
	op := func(traced bool) (float64, bool) {
		res.Attempted += len(ref.specs)
		st, r, wall, err := sweepOnce(cfg, ref, traced)
		if err != nil {
			if traced {
				err = fmt.Errorf("traced sweep: %w", err)
			}
			fail(err)
		}
		if err != nil || !traced {
			if st != nil {
				st.close()
			}
			return wall.Seconds(), err == nil
		}
		if s != nil {
			s.close()
		}
		s, sw, onWall = st, r, wall
		return wall.Seconds(), true
	}
	op(false)
	layers["obs.tracing_overhead_pct"] = pairedOverhead(overheadSweeps, func(_ int, traced bool) (float64, bool) {
		return op(traced)
	})
	if s == nil {
		res.Metrics = perLayer(layers)
		return res, nil
	}

	var spans []obs.SpanExport
	for _, id := range s.traces.IDs() {
		if t, ok := s.traces.Get(id); ok {
			spans = append(spans, t.Export().Spans...)
		}
	}
	addMachineProfiles(layers, spans)

	if m := sw.Summary.Memo; m != nil {
		layers["memo.prefix_hits"] = float64(m.PrefixHits)
		layers["memo.quanta_saved"] = float64(m.QuantaSaved)
		layers["memo.snapshots_stored"] = float64(m.SnapshotsStored)
		if m.QuantaTotal > 0 {
			layers["memo.resim_frac"] = 1 - float64(m.QuantaSaved)/float64(m.QuantaTotal)
		}
	}
	layers["orchestrator.failovers"] = float64(sw.Summary.Failovers)
	for _, b := range sw.Summary.Backends {
		layers["orchestrator.retries"] += float64(b.Retries)
	}
	layers["memo.bytes"] = float64(s.tier.Bytes())
	layers["memo.probe_s"] = spanSeconds(spans, "memo_probe")
	layers["memo.restore_s"] = spanSeconds(spans, "memo_restore")
	addServiceStats(layers, s.svc.Stats())
	layers["service.queue_wait_s"] = spanSeconds(spans, "queue_wait")
	si := s.store.Info()
	layers["store.reads"] = float64(si.Hits + si.Misses)
	layers["store.writes"] = float64(si.Entries)
	layers["store.bytes"] = float64(si.Bytes)
	layers["store.read_s"] = spanSeconds(spans, "store_probe")
	layers["orchestrator.backend_busy_s"] = s.backend.busy.Seconds()
	layers["orchestrator.overhead_s"] = (onWall - s.backend.busy).Seconds()
	res.Metrics = perLayer(layers)
	return res, nil
}

// addServiceStats copies the service's own counters.
func addServiceStats(layers map[string]float64, st service.Stats) {
	layers["service.hits"] = float64(st.Hits)
	layers["service.disk_hits"] = float64(st.DiskHits)
	layers["service.misses"] = float64(st.Misses)
	layers["service.coalesced"] = float64(st.Coalesced)
	layers["service.rejected"] = float64(st.Rejected)
	if n := st.Hits + st.DiskHits + st.Misses + st.Coalesced; n > 0 {
		layers["service.hit_ratio"] = float64(st.Hits+st.DiskHits) / float64(n)
	}
}
