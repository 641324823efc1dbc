// Package cluster extends Cuttlefish to MPI+X style distributed programs,
// the deployment §4.6 sketches: one multithreaded process per node
// (OpenMP-style intra-node parallelism), bulk-synchronous exchange between
// supersteps, and one independent Cuttlefish daemon per node profiling only
// its own socket.
//
// The paper is explicit about the scope: Cuttlefish tunes each node's
// frequencies to its local memory access pattern; it does not reclaim
// inter-node slack the way Adagio-style runtimes do. The package models
// that honestly — nodes that finish a superstep early idle at the barrier
// with their frequencies wherever the local daemon put them — and the
// imbalance experiment in this package's tests shows exactly the
// limitation §4.6 names.
package cluster

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/governor"
	"repro/internal/machine"
	"repro/internal/runner"
	"repro/internal/sched"
)

// Network is the inter-node communication model: a latency plus a
// bandwidth term per superstep exchange, paid by every rank (all-to-all
// style collectives dominate the paper's MPI+X motivation).
type Network struct {
	// LatencySec per exchange (software + fabric overhead).
	LatencySec float64
	// BytesPerSec of per-node injection bandwidth.
	BytesPerSec float64
}

// DefaultNetwork is a 100 Gb/s-class fabric.
func DefaultNetwork() Network {
	return Network{LatencySec: 20e-6, BytesPerSec: 12e9}
}

// ExchangeTime returns the barrier-to-barrier communication time for a
// per-rank payload of the given size.
func (n Network) ExchangeTime(bytes float64) float64 {
	if bytes <= 0 {
		return 0
	}
	t := n.LatencySec
	if n.BytesPerSec > 0 {
		t += bytes / n.BytesPerSec
	}
	return t
}

// App is a bulk-synchronous MPI+X application: for every superstep each
// rank gets a local work-sharing region list, then exchanges a payload.
type App struct {
	Steps int
	// Compute returns rank's regions for the step. Region lists may differ
	// per rank (load imbalance).
	Compute func(rank, step int) []sched.Region
	// ExchangeBytes returns rank's payload at the step boundary.
	ExchangeBytes func(rank, step int) float64
}

// Config describes the cluster. The per-node frequency environment is any
// registered governor; one independent instance attaches to every rank.
type Config struct {
	Nodes   int
	Machine machine.Config
	Network Network
	// Governor names the registered per-node strategy (governor.New).
	Governor string
	// Tuning carries the strategy's per-run parameters (Tinv, warmup, …).
	Tuning governor.Tuning
	Seed   int64
	// Workers bounds how many ranks simulate concurrently between
	// supersteps (each rank is an independent Machine, so they parallelise
	// perfectly); <= 0 means GOMAXPROCS. Per-rank results are independent
	// of this setting.
	Workers int
}

// DefaultConfig is a 4-node cluster of the paper's sockets, one Cuttlefish
// daemon per node.
func DefaultConfig() Config {
	return Config{
		Nodes:    4,
		Machine:  machine.DefaultConfig(),
		Network:  DefaultNetwork(),
		Governor: governor.Cuttlefish,
	}
}

// NodeResult is one rank's outcome.
type NodeResult struct {
	Rank    int
	Joules  float64
	BusySec float64 // compute time
	WaitSec float64 // barrier + communication time
	Daemon  *core.Daemon
}

// Result is a cluster run.
type Result struct {
	Seconds float64 // wall time (all ranks synchronous)
	Joules  float64 // cluster-wide energy
	Nodes   []NodeResult
}

// node is one rank's simulated machine with its attached governor.
type node struct {
	m   *machine.Machine
	att *governor.Attachment
}

// Run executes the application on a fresh cluster and returns the outcome.
func Run(cfg Config, app App) (Result, error) {
	if cfg.Nodes <= 0 {
		return Result{}, fmt.Errorf("cluster: need at least one node, got %d", cfg.Nodes)
	}
	if app.Steps <= 0 || app.Compute == nil {
		return Result{}, fmt.Errorf("cluster: app needs steps and a compute function")
	}
	govName := cfg.Governor
	if govName == "" {
		govName = governor.Cuttlefish
	}
	nodes := make([]*node, 0, cfg.Nodes)
	defer func() {
		for _, n := range nodes {
			n.att.Detach()
		}
	}()
	for i := 0; i < cfg.Nodes; i++ {
		m, err := machine.New(cfg.Machine)
		if err != nil {
			return Result{}, err
		}
		// One independent governor instance per rank: per-node daemons
		// profile only their own socket, the §4.6 deployment.
		g, err := governor.New(govName, cfg.Tuning)
		if err != nil {
			return Result{}, err
		}
		att, err := g.Attach(m)
		if err != nil {
			return Result{}, fmt.Errorf("cluster: rank %d: %w", i, err)
		}
		nodes = append(nodes, &node{m: m, att: att})
	}

	results := make([]NodeResult, cfg.Nodes)
	for i := range results {
		results[i] = NodeResult{Rank: i, Daemon: nodes[i].att.Daemon()}
	}

	// Ranks are independent machines, so each superstep's compute and
	// barrier-wait phases fan out on the shared runner pool — nodes step in
	// parallel between supersteps and re-synchronise at each barrier.
	pool := runner.Pool{Workers: cfg.Workers}
	ctx := context.Background()
	for step := 0; step < app.Steps; step++ {
		// Local compute: each rank runs its region list to completion on
		// its own machine; simulated clocks advance independently here and
		// re-synchronise at the barrier below.
		err := pool.ForEach(ctx, len(nodes), func(_ context.Context, rank int) error {
			n := nodes[rank]
			regions := app.Compute(rank, step)
			start := n.m.Now()
			if len(regions) > 0 {
				src := sched.NewWorkSharing(cfg.Machine.Cores, sched.StaticProgram(regions, 1), cfg.Seed+int64(rank*7919+step))
				n.m.SetSource(src)
				n.m.Run(3600)
				if !n.m.Finished() {
					return fmt.Errorf("cluster: rank %d wedged in step %d", rank, step)
				}
			}
			results[rank].BusySec += n.m.Now() - start
			return nil
		})
		if err != nil {
			return Result{}, err
		}
		barrier := 0.0
		for _, n := range nodes {
			if n.m.Now() > barrier {
				barrier = n.m.Now()
			}
		}
		// Exchange: the barrier releases when the slowest rank's payload
		// has moved.
		comm := 0.0
		if app.ExchangeBytes != nil {
			for rank := range nodes {
				if t := cfg.Network.ExchangeTime(app.ExchangeBytes(rank, step)); t > comm {
					comm = t
				}
			}
		}
		barrier += comm
		// Idle-spin every rank to the barrier: no workload, but the clock,
		// power model and daemon keep running — early finishers burn idle
		// energy at whatever frequencies their daemon chose, the §4.6
		// limitation.
		err = pool.ForEach(ctx, len(nodes), func(_ context.Context, rank int) error {
			n := nodes[rank]
			wait := barrier - 1e-12 - n.m.Now()
			if wait <= 0 {
				return nil
			}
			results[rank].WaitSec += barrier - n.m.Now()
			n.m.SetSource(nil)
			n.m.Run(wait)
			return nil
		})
		if err != nil {
			return Result{}, err
		}
	}

	var res Result
	var detachErrs []error
	for rank, n := range nodes {
		if err := n.att.Detach(); err != nil {
			detachErrs = append(detachErrs, fmt.Errorf("cluster: rank %d: %w", rank, err))
		}
		results[rank].Joules = n.m.TotalEnergy()
		res.Joules += results[rank].Joules
		if n.m.Now() > res.Seconds {
			res.Seconds = n.m.Now()
		}
	}
	if err := errors.Join(detachErrs...); err != nil {
		return Result{}, err
	}
	res.Nodes = results
	return res, nil
}
