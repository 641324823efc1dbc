package experiments

import (
	"fmt"
	"sort"

	"repro/internal/bench"
	"repro/internal/freq"
	"repro/internal/governor"
	"repro/internal/tipi"
)

// FrequentShare is the paper's threshold: a TIPI slab is "frequently
// occurring" when it covers more than 10% of the Tinv samples (§3.2).
const FrequentShare = 0.10

// TinvSample is one census profiling interval: the TIPI and JPI the
// observer's core.Profiler read from the MSR counters, with the frequency
// operating point at the sample.
type TinvSample struct {
	Time float64 // interval end, seconds
	TIPI float64
	JPI  float64    // joules per instruction
	CF   freq.Ratio // core 0's frequency at sample time
	UF   freq.Ratio
}

// maxSamplePresize caps the samples sampleRun allocates up front (2 MiB):
// scale has no upper bound, so past the cap the slice grows as samples
// arrive instead of being sized before the run starts.
const maxSamplePresize = 1 << 16

// sampleRun executes a benchmark under the given governor with the
// driver's census observer recording TIPI and JPI every Tinv.
func sampleRun(spec bench.Spec, opt Options, g governor.Governor) ([]TinvSample, float64, error) {
	// Room for the nominal run plus an eighth: Default runs end within 4%
	// of PaperSeconds, so under Default the slice never regrows.
	n := 0
	if est := spec.PaperSeconds * opt.Scale / opt.TinvSec * 9 / 8; est > 0 {
		n = int(min(est, maxSamplePresize))
	}
	samples := make([]TinvSample, 0, n)
	res, err := simulate(opt, runPlan{
		name:    spec.Name,
		gov:     g,
		maxSim:  spec.PaperSeconds*opt.Scale*6 + 30,
		prepare: benchSource(spec, opt, opt.Seed),
		samples: &samples,
	})
	return samples, res.Seconds, err
}

// slabHistogram buckets samples into slabs.
func slabHistogram(points []TinvSample) map[tipi.Slab]int {
	h := make(map[tipi.Slab]int)
	for _, p := range points {
		h[tipi.SlabOf(p.TIPI, tipi.DefaultSlabWidth)]++
	}
	return h
}

// frequentSlabs returns the slabs above the FrequentShare threshold,
// sorted ascending.
func frequentSlabs(h map[tipi.Slab]int, total int) []tipi.Slab {
	var out []tipi.Slab
	for s, n := range h {
		if float64(n) > FrequentShare*float64(total) {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Table1Row is one line of the paper's benchmark census.
type Table1Row struct {
	Name     string
	Style    bench.Style
	Seconds  float64 // Default execution time
	TIPIMin  float64
	TIPIMax  float64
	Distinct int // distinct TIPI slabs observed
	Frequent int // slabs covering > 10% of samples
}

// Table1 regenerates the benchmark census. The paper records it under the
// Default environment; Options.Governor swaps in any registered strategy.
func Table1(opt Options) ([]Table1Row, error) {
	specs := bench.All()
	rows := make([]Table1Row, len(specs))
	err := forEach(len(specs), opt, func(i int) error {
		spec := specs[i]
		// Each benchmark samples into its own lane, keyed by name with
		// the census index for deterministic export order.
		lopt := opt
		lopt.Timeline = opt.Timeline.Lane(spec.Name, i)
		g, err := governor.New(opt.governorName(governor.Default), opt.tuning())
		if err != nil {
			return err
		}
		pts, sec, err := sampleRun(spec, lopt, g)
		if err != nil {
			return err
		}
		if len(pts) == 0 {
			return fmt.Errorf("experiments: %s produced no samples", spec.Name)
		}
		lo, hi := pts[0].TIPI, pts[0].TIPI
		for _, p := range pts {
			if p.TIPI < lo {
				lo = p.TIPI
			}
			if p.TIPI > hi {
				hi = p.TIPI
			}
		}
		h := slabHistogram(pts)
		rows[i] = Table1Row{
			Name:     spec.Name,
			Style:    spec.Style,
			Seconds:  sec,
			TIPIMin:  lo,
			TIPIMax:  hi,
			Distinct: len(h),
			Frequent: len(frequentSlabs(h, len(pts))),
		}
		return nil
	})
	return rows, err
}

// Fig2Benchmarks are the six series the paper plots (variant behaviour is
// reported as similar, §3.1).
var Fig2Benchmarks = []string{"UTS", "SOR-irt", "Heat-irt", "MiniFE", "HPCCG", "AMG"}

// Fig2 records the TIPI and JPI execution timelines with core and uncore
// pinned at maximum, one sample series per benchmark.
func Fig2(opt Options) (map[string][]TinvSample, error) {
	out := make(map[string][]TinvSample, len(Fig2Benchmarks))
	series := make([][]TinvSample, len(Fig2Benchmarks))
	err := forEach(len(Fig2Benchmarks), opt, func(i int) error {
		spec, ok := bench.Get(Fig2Benchmarks[i])
		if !ok {
			return fmt.Errorf("experiments: unknown benchmark %q", Fig2Benchmarks[i])
		}
		pts, _, err := sampleRun(spec, opt, governor.NewStatic(spec22CF(), spec22UF()))
		series[i] = pts
		return err
	})
	if err != nil {
		return nil, err
	}
	for i, n := range Fig2Benchmarks {
		out[n] = series[i]
	}
	return out, nil
}

// spec22CF/UF pin the Fig. 2 methodology's "maximum" settings.
func spec22CF() freq.Ratio { return freq.HaswellCore().Max }
func spec22UF() freq.Ratio { return freq.HaswellUncore().Max }

// Fig3Point is the average JPI of one frequently occurring TIPI slab at one
// frequency setting.
type Fig3Point struct {
	Bench    string
	Setting  freq.Ratio // the swept frequency (CF for 3a, UF for 3b)
	Slab     tipi.Slab
	SharePct float64
	JPI      float64
}

// fig3Sweep runs the six benchmarks at each setting and averages JPI over
// the frequent slabs, exactly the Fig. 3 construction (§3.2).
func fig3Sweep(opt Options, settings []freq.Ratio, sweepCF bool) ([]Fig3Point, error) {
	type job struct {
		bench   int
		setting freq.Ratio
	}
	var jobs []job
	for b := range Fig2Benchmarks {
		for _, s := range settings {
			jobs = append(jobs, job{bench: b, setting: s})
		}
	}
	points := make([][]Fig3Point, len(jobs))
	err := forEach(len(jobs), opt, func(i int) error {
		j := jobs[i]
		spec, ok := bench.Get(Fig2Benchmarks[j.bench])
		if !ok {
			return fmt.Errorf("experiments: unknown benchmark %q", Fig2Benchmarks[j.bench])
		}
		cf, uf := spec22CF(), spec22UF()
		if sweepCF {
			cf = j.setting
		} else {
			uf = j.setting
		}
		pts, _, err := sampleRun(spec, opt, governor.NewStatic(cf, uf))
		if err != nil {
			return err
		}
		h := slabHistogram(pts)
		for _, slab := range frequentSlabs(h, len(pts)) {
			sum, n := 0.0, 0
			for _, p := range pts {
				if tipi.SlabOf(p.TIPI, tipi.DefaultSlabWidth) == slab {
					sum += p.JPI
					n++
				}
			}
			points[i] = append(points[i], Fig3Point{
				Bench:    spec.Name,
				Setting:  j.setting,
				Slab:     slab,
				SharePct: 100 * float64(h[slab]) / float64(len(pts)),
				JPI:      sum / float64(n),
			})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []Fig3Point
	for _, p := range points {
		out = append(out, p...)
	}
	return out, nil
}

// Fig3a sweeps core frequency {min, mid, max} with the uncore at max.
func Fig3a(opt Options) ([]Fig3Point, error) {
	return fig3Sweep(opt, []freq.Ratio{12, 18, 23}, true)
}

// Fig3b sweeps uncore frequency {min, mid, max} with cores at max.
func Fig3b(opt Options) ([]Fig3Point, error) {
	return fig3Sweep(opt, []freq.Ratio{12, 21, 30}, false)
}
