package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/governor"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/service"
	"repro/internal/store"
)

// serve-hot is cfserve's read path: a closed loop of two clients, each
// waiting for its reply before sending the next request, as cfserve's own
// callers (cuttlefish -remote, the orchestrator) do. Requests are seeded
// Zipf draws over a hot set about twice the LRU's capacity, served by a
// service that was restarted over a filled store, so a steady share of
// requests are store hits. Nothing is simulated while measuring.

const (
	// seqLen is the length of the generated request sequence; clients
	// cycle through it.
	seqLen = 1 << 20
	// warmRequests run before the clock starts, filling the LRU to its
	// steady state.
	warmRequests = 4000
	// traceBursts is how many interleaved untraced/traced burst pairs the
	// traced pass drives, each burst burstRequests long.
	traceBursts   = 4
	burstRequests = 10000
)

// hotEntry is one hot-set spec with its recorded response.
type hotEntry struct {
	spec  service.RunSpec
	body  []byte
	simS  float64 // simulated seconds the body reports
	cells int     // simulation results the body carries
}

// serveFixture is one filled store plus what a correct response is.
type serveFixture struct {
	dir     string
	entries []hotEntry
	seq     []int32
	// savingsPct and slowdownPct are the Fig. 10 headline the hot set's
	// cached comparison report carries.
	savingsPct, slowdownPct float64
}

// fillServe executes every hot spec through one service instance, which
// writes each report through to a fresh store, and records the bytes.
func fillServe(cfg runCfg) (*serveFixture, error) {
	dir, err := cfg.subdir("serve-store")
	if err != nil {
		return nil, err
	}
	specs := hotSet(cfg.seed)
	f := &serveFixture{dir: dir, seq: requestSequence(cfg.seed, seqLen, len(specs))}
	f.entries = make([]hotEntry, len(specs))
	st, err := store.Open(dir, 0)
	if err != nil {
		return nil, err
	}
	svc := service.New(service.Config{Workers: workers, CacheEntries: len(specs), Store: st})
	defer svc.Shutdown(context.Background())
	err = runner.Pool{Workers: workers}.ForEach(context.Background(), len(specs), func(ctx context.Context, i int) error {
		r, err := svc.Submit(ctx, specs[i])
		if err != nil {
			return fmt.Errorf("fill %s/%s/%s: %w", specs[i].Experiment, specs[i].Benchmark, specs[i].Governor, err)
		}
		f.entries[i] = hotEntry{spec: specs[i], body: r.Body}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i := range f.entries {
		e := &f.entries[i]
		rep, err := report.Decode(e.body)
		if err != nil {
			return nil, err
		}
		if secs, err := rep.Floats("seconds"); err == nil {
			for _, s := range secs {
				e.simS += s
			}
		}
		switch e.spec.Experiment {
		case "fig10", "fig11":
			// One row per benchmark plus the geomean row, each covering
			// the baseline and every compared governor.
			e.cells = (len(rep.Rows) - 1) * len(rep.Governors) * e.spec.Reps
		default:
			e.cells = len(rep.Rows)
		}
		if e.spec.Experiment == "fig10" {
			geo := rep.Rows[len(rep.Rows)-1]
			f.savingsPct, _ = geo["energy_sav_pct:"+governor.Cuttlefish].(float64)
			f.slowdownPct, _ = geo["slowdown_pct:"+governor.Cuttlefish].(float64)
		}
	}
	return f, nil
}

// server is a restarted cfserve over the fixture's store, on loopback.
type server struct {
	svc     *service.Service
	store   *store.Store
	traces  *obs.TraceStore
	handler *timedHandler
	srv     *http.Server
	done    chan error
	client  *service.Client
}

// startServer reopens the store under a fresh service, as a cfserve
// restart does, and serves it on a loopback port.
func startServer(f *serveFixture, traced bool) (*server, error) {
	st, err := store.Open(f.dir, 0)
	if err != nil {
		return nil, err
	}
	s := &server{store: st, done: make(chan error, 1)}
	scfg := service.Config{Workers: workers, CacheEntries: len(f.entries) / 2, Store: st}
	if traced {
		s.traces = obs.NewTraceStore(len(f.entries), "")
		scfg.Traces = s.traces
	}
	s.svc = service.New(scfg)
	var h http.Handler = service.NewHandler(s.svc)
	if traced {
		s.handler = &timedHandler{inner: h}
		h = s.handler
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.svc.Close()
		return nil, err
	}
	s.srv = &http.Server{Handler: h}
	go func() { s.done <- s.srv.Serve(ln) }()
	s.client = &service.Client{
		BaseURL: "http://" + ln.Addr().String(),
		HTTPClient: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     clients,
			MaxIdleConnsPerHost: clients,
		}},
		MaxAttempts: 1,
	}
	return s, nil
}

func (s *server) stop() error {
	s.client.HTTPClient.CloseIdleConnections()
	err := s.srv.Shutdown(context.Background())
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, s.svc.Shutdown(context.Background()))
}

// loadStats is what one closed-loop burst observed.
type loadStats struct {
	lat       []float64 // ms per request
	attempted int
	failed    int
	simS      float64
	cells     int
	wall      time.Duration
	lastErr   error
}

// drive runs the closed loop from request index from until either n
// requests have been sent (n > 0) or the duration has passed.
func drive(s *server, f *serveFixture, from int64, n int64, dur time.Duration) loadStats {
	var next atomic.Int64
	next.Store(from)
	per := make([]loadStats, clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func(ls *loadStats) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if (n > 0 && i >= from+n) || (n == 0 && time.Since(start) >= dur) {
					return
				}
				e := &f.entries[f.seq[i%int64(len(f.seq))]]
				t0 := time.Now()
				r, err := s.client.RunResult(context.Background(), e.spec)
				dt := time.Since(t0)
				ls.attempted++
				if err == nil && !bytes.Equal(r.Body, e.body) {
					err = fmt.Errorf("%s/%s/%s: response differs from the recorded bytes", e.spec.Experiment, e.spec.Benchmark, e.spec.Governor)
				}
				if err != nil {
					ls.failed++
					ls.lastErr = err
					continue
				}
				ls.lat = append(ls.lat, float64(dt.Nanoseconds())/1e6)
				ls.simS += e.simS
				ls.cells += e.cells
			}
		}(&per[c])
	}
	wg.Wait()
	out := loadStats{wall: time.Since(start)}
	for _, ls := range per {
		out.lat = append(out.lat, ls.lat...)
		out.attempted += ls.attempted
		out.failed += ls.failed
		out.simS += ls.simS
		out.cells += ls.cells
		if ls.lastErr != nil {
			out.lastErr = ls.lastErr
		}
	}
	return out
}

// serveSetup is one complete set-up: fill, restart, warm.
func serveSetup(cfg runCfg, traced bool) (*serveFixture, *server, error) {
	f, err := fillServe(cfg)
	if err != nil {
		return nil, nil, err
	}
	s, err := startServer(f, traced)
	if err != nil {
		os.RemoveAll(f.dir)
		return nil, nil, err
	}
	if ls := drive(s, f, 0, warmRequests, 0); ls.failed > 0 {
		teardownServe(f, s)
		return nil, nil, fmt.Errorf("warm-up: %w", ls.lastErr)
	}
	return f, s, nil
}

func teardownServe(f *serveFixture, s *server) {
	if s != nil {
		_ = s.stop()
	}
	os.RemoveAll(f.dir)
}

type serveInstance struct {
	f *serveFixture
	s *server
}

func runServeHot(cfg runCfg, notes map[string]any) (result, error) {
	if cfg.trace {
		return traceServeHot(cfg, notes)
	}
	inst, setupS, err := setupMedian(func() (serveInstance, error) {
		f, s, err := serveSetup(cfg, false)
		return serveInstance{f, s}, err
	}, func(i serveInstance) { teardownServe(i.f, i.s) })
	if err != nil {
		return result{}, err
	}
	defer teardownServe(inst.f, inst.s)

	alloc0 := allocMB()
	ls := drive(inst.s, inst.f, warmRequests, 0, time.Duration(cfg.seconds*float64(time.Second)))
	alloc := allocMB() - alloc0
	if ls.lastErr != nil {
		notes["error"] = ls.lastErr.Error()
	}
	st := inst.s.svc.Stats()
	notes["hits"], notes["disk_hits"], notes["misses"] = st.Hits, st.DiskHits, st.Misses
	p95 := tailPercentile(ls.lat, 0.95)
	notes["lat_p95"] = p95
	notes["lat_p99"] = tailPercentile(ls.lat, 0.99)
	wall := ls.wall.Seconds()
	e := endToEnd{
		SetupS:       setupS,
		SimSPerHostS: ls.simS / wall,
		CellsPerS:    float64(ls.cells) / wall,
		ReqPerS:      float64(ls.attempted-ls.failed) / wall,
		LatP50Ms:     median(ls.lat),
		LatP95Ms:     p95.Value,
		AllocMB:      alloc / float64(ls.attempted),
		SavingsPct:   inst.f.savingsPct,
		SlowdownPct:  inst.f.slowdownPct,
		Attempted:    ls.attempted,
		Failed:       ls.failed,
	}
	return e.result(), nil
}

// traceServeHot is serve-hot's traced pass. An untraced and a traced
// restart (service traces plus a timed handler) serve the same store side
// by side, each warmed, and take the same bursts of requests in
// interleaved pairs. Every response is checked against the recorded
// bytes.
func traceServeHot(cfg runCfg, notes map[string]any) (result, error) {
	f, off, err := serveSetup(cfg, false)
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(f.dir)
	defer off.stop()
	on, err := startServer(f, true)
	if err != nil {
		return result{}, err
	}
	defer on.stop()

	res := result{Correct: true}
	check := func(ls loadStats) bool {
		res.Attempted += ls.attempted
		res.Failed += ls.failed
		if ls.lastErr != nil {
			res.Correct = false
			notes["error"] = ls.lastErr.Error()
			return false
		}
		return true
	}
	check(drive(on, f, 0, warmRequests, 0))
	before := on.store.Info()
	st0 := on.svc.Stats()
	h0, n0 := on.handler.ns.Load(), on.handler.n.Load()
	layers := map[string]float64{}
	var onLat []float64
	layers["obs.tracing_overhead_pct"] = pairedOverhead(traceBursts, func(i int, traced bool) (float64, bool) {
		s := off
		if traced {
			s = on
		}
		ls := drive(s, f, warmRequests+int64(i)*burstRequests, burstRequests, 0)
		if traced {
			onLat = append(onLat, ls.lat...)
		}
		return ls.wall.Seconds(), check(ls)
	})
	addServiceStats(layers, statsDelta(st0, on.svc.Stats()))
	if n := on.handler.n.Load() - n0; n > 0 && len(onLat) > 0 {
		handlerNs := float64(on.handler.ns.Load()-h0) / float64(n)
		var rtt float64
		for _, l := range onLat {
			rtt += l * 1e6
		}
		layers["service.handler_ns"] = handlerNs
		layers["service.client_overhead_ns"] = rtt/float64(len(onLat)) - handlerNs
	}

	after := on.store.Info()
	reads := float64(after.Hits + after.Misses - before.Hits - before.Misses)
	layers["store.reads"] = reads
	layers["store.writes"] = float64(after.Entries - before.Entries)
	layers["store.bytes"] = float64(after.Bytes)
	// The trace store keeps each spec's latest trace; its store probes
	// give the mean read time.
	var probeNs, probes float64
	for _, id := range on.traces.IDs() {
		t, ok := on.traces.Get(id)
		if !ok {
			continue
		}
		for _, sp := range t.Export().Spans {
			if sp.Name == "store_probe" {
				probeNs += float64(sp.DurNs)
				probes++
			}
		}
	}
	if probes > 0 {
		layers["store.read_s"] = reads * probeNs / probes / 1e9
	}
	res.Metrics = perLayer(layers)
	return res, nil
}

// statsDelta is the service's counter activity between two snapshots.
func statsDelta(a, b service.Stats) service.Stats {
	return service.Stats{
		Hits:      b.Hits - a.Hits,
		DiskHits:  b.DiskHits - a.DiskHits,
		Misses:    b.Misses - a.Misses,
		Coalesced: b.Coalesced - a.Coalesced,
		Rejected:  b.Rejected - a.Rejected,
	}
}
