package main

import (
	"context"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/orchestrator"
	"repro/internal/service"
	"repro/internal/workload"
)

// endToEnd is one invocation's end-to-end numbers. README.md defines each
// per workload.
type endToEnd struct {
	SetupS       float64
	SimSPerHostS float64
	CellsPerS    float64
	ReqPerS      float64
	LatP50Ms     float64
	LatP95Ms     float64
	AllocMB      float64
	SavingsPct   float64
	SlowdownPct  float64
	Attempted    int
	Failed       int
}

func (e endToEnd) result() result {
	success := 0.0
	if e.Attempted > 0 {
		success = 100 * float64(e.Attempted-e.Failed) / float64(e.Attempted)
	}
	return result{
		Correct:   e.Failed == 0,
		Attempted: e.Attempted,
		Failed:    e.Failed,
		Metrics: map[string]metric{
			"setup_s":            {e.SetupS, "s"},
			"sim_s_per_host_s":   {e.SimSPerHostS, "sim_s/s"},
			"cells_per_s":        {e.CellsPerS, "1/s"},
			"req_per_s":          {e.ReqPerS, "1/s"},
			"lat_p50_ms":         {e.LatP50Ms, "ms"},
			"lat_p95_ms":         {e.LatP95Ms, "ms"},
			"alloc_mb":           {e.AllocMB, "MB/req"},
			"success_pct":        {success, "%"},
			"energy_savings_pct": {e.SavingsPct, "%"},
			"slowdown_pct":       {e.SlowdownPct, "%"},
		},
	}
}

// layerUnits lists every per-layer metric with its unit. A traced run
// reports all of them; a layer its workload bypasses reads 0.
var layerUnits = []struct{ name, unit string }{
	{"machine.run_s", "s"},
	{"machine.quanta", "count"},
	{"machine.batches", "count"},
	{"machine.ns_per_quantum", "ns"},
	{"machine.quanta_per_batch", "ratio"},
	{"sched.calls", "count"},
	{"sched.ns_per_call", "ns"},
	{"sched.tasks", "count"},
	{"sched.steals", "count"},
	{"sched.failed_steals", "count"},
	{"sched.steal_success_ratio", "ratio"},
	{"sched.regions", "count"},
	{"sched.chunks", "count"},
	{"bench.build_s", "s"},
	{"bench.build_alloc_mb", "MB"},
	{"governor.bracket_s", "s"},
	{"governor.tick_ns", "ns"},
	{"core.samples", "count"},
	{"core.exploration_samples", "count"},
	{"core.explore_ratio", "ratio"},
	{"experiments.table1_s", "s"},
	{"experiments.fig10_s", "s"},
	{"memo.prefix_hits", "count"},
	{"memo.quanta_saved", "count"},
	{"memo.resim_frac", "ratio"},
	{"memo.snapshots_stored", "count"},
	{"memo.bytes", "bytes"},
	{"memo.probe_s", "s"},
	{"memo.restore_s", "s"},
	{"service.hits", "count"},
	{"service.disk_hits", "count"},
	{"service.misses", "count"},
	{"service.coalesced", "count"},
	{"service.rejected", "count"},
	{"service.hit_ratio", "ratio"},
	{"service.queue_wait_s", "s"},
	{"service.handler_ns", "ns"},
	{"service.client_overhead_ns", "ns"},
	{"store.reads", "count"},
	{"store.writes", "count"},
	{"store.bytes", "bytes"},
	{"store.read_s", "s"},
	{"orchestrator.backend_busy_s", "s"},
	{"orchestrator.overhead_s", "s"},
	{"orchestrator.retries", "count"},
	{"orchestrator.failovers", "count"},
	{"obs.tracing_overhead_pct", "%"},
}

func perLayer(v map[string]float64) map[string]metric {
	out := make(map[string]metric, len(layerUnits))
	for _, l := range layerUnits {
		out[l.name] = metric{v[l.name], l.unit}
	}
	return out
}

// addMachineProfiles sums the engine profiles (machine.Config.Profile)
// the experiment harness attaches to its "simulate" spans.
func addMachineProfiles(layers map[string]float64, spans []obs.SpanExport) {
	for _, sp := range spans {
		p, ok := sp.Args["profile"].(machine.Profile)
		if sp.Name != "simulate" || !ok {
			continue
		}
		layers["machine.run_s"] += float64(p.RunWallNs) / 1e9
		layers["machine.quanta"] += float64(p.Quanta)
		layers["machine.batches"] += float64(p.Batches)
	}
	if q := layers["machine.quanta"]; q > 0 {
		layers["machine.ns_per_quantum"] = layers["machine.run_s"] * 1e9 / q
		layers["machine.quanta_per_batch"] = q / layers["machine.batches"]
	}
}

// spanSeconds sums the durations of every span with the given name.
func spanSeconds(spans []obs.SpanExport, name string) float64 {
	var ns int64
	for _, sp := range spans {
		if sp.Name == name {
			ns += sp.DurNs
		}
	}
	return float64(ns) / 1e9
}

// timedSource wraps the workload.Source a machine calls and times every
// call into the scheduler runtime behind it.
type timedSource struct {
	inner workload.Source
	calls atomic.Int64
	ns    atomic.Int64
}

func newTimedSource(src workload.Source) *timedSource { return &timedSource{inner: src} }

func (s *timedSource) since(t0 time.Time) {
	s.calls.Add(1)
	s.ns.Add(time.Since(t0).Nanoseconds())
}

func (s *timedSource) NextSegment(core int, now float64) (workload.Segment, bool) {
	t0 := time.Now()
	seg, ok := s.inner.NextSegment(core, now)
	s.since(t0)
	return seg, ok
}

func (s *timedSource) Complete(core int, now float64) {
	t0 := time.Now()
	s.inner.Complete(core, now)
	s.since(t0)
}

func (s *timedSource) Done() bool {
	t0 := time.Now()
	done := s.inner.Done()
	s.since(t0)
	return done
}

// boundarySource is a timedSource over a runtime that counts region
// boundaries; forwarding BoundaryCount keeps the engine batching at the
// same boundaries it would without the wrapper.
type boundarySource struct {
	*timedSource
	b machine.BoundarySource
}

func (s boundarySource) BoundaryCount() int { return s.b.BoundaryCount() }

// forMachine returns the source to hand the machine: the wrapper, plus
// BoundaryCount when the runtime has it.
func (s *timedSource) forMachine() workload.Source {
	if b, ok := s.inner.(machine.BoundarySource); ok {
		return boundarySource{s, b}
	}
	return s
}

// addSchedStats sums call timing and the runtimes' own counters.
func addSchedStats(layers map[string]float64, srcs []*timedSource) {
	for _, s := range srcs {
		layers["sched.calls"] += float64(s.calls.Load())
		layers["sched.ns_per_call"] += float64(s.ns.Load()) // divided below
		switch r := s.inner.(type) {
		case interface {
			Stats() (tasks, steals, failed int)
		}:
			t, st, f := r.Stats()
			layers["sched.tasks"] += float64(t)
			layers["sched.steals"] += float64(st)
			layers["sched.failed_steals"] += float64(f)
		case interface{ Stats() (regions, chunks int) }:
			rg, ch := r.Stats()
			layers["sched.regions"] += float64(rg)
			layers["sched.chunks"] += float64(ch)
		}
	}
	if n := layers["sched.calls"]; n > 0 {
		layers["sched.ns_per_call"] /= n
	}
	if a := layers["sched.steals"] + layers["sched.failed_steals"]; a > 0 {
		layers["sched.steal_success_ratio"] = layers["sched.steals"] / a
	}
}

// timedHandler wraps the cfserve handler and accumulates its time.
type timedHandler struct {
	inner http.Handler
	n     atomic.Int64
	ns    atomic.Int64
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	h.inner.ServeHTTP(w, r)
	h.ns.Add(time.Since(t0).Nanoseconds())
	h.n.Add(1)
}

// timedBackend wraps an orchestrator.Backend. It records each call's
// latency and the time at least one call was in flight, so the
// dispatcher's own time is the sweep's wall time minus that.
type timedBackend struct {
	inner orchestrator.Backend

	mu       sync.Mutex
	lat      []float64 // ms per call
	inflight int
	since    time.Time
	busy     time.Duration // union of in-flight intervals
}

func (b *timedBackend) Name() string { return b.inner.Name() }

func (b *timedBackend) Run(ctx context.Context, spec service.RunSpec) (service.Result, error) {
	b.mu.Lock()
	if b.inflight == 0 {
		b.since = time.Now()
	}
	b.inflight++
	b.mu.Unlock()
	t0 := time.Now()
	res, err := b.inner.Run(ctx, spec)
	dt := time.Since(t0)
	b.mu.Lock()
	b.lat = append(b.lat, float64(dt.Nanoseconds())/1e6)
	b.inflight--
	if b.inflight == 0 {
		b.busy += time.Since(b.since)
	}
	b.mu.Unlock()
	return res, err
}
