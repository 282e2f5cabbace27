package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"delaylb"
	"delaylb/descent"
	"delaylb/internal/model"
	"delaylb/internal/qp"
	"delaylb/obs"
	"delaylb/replay"
	"delaylb/sweep"
)

// workload is one benchmark input family: a trace generator, the size it
// runs at, and the public surface (Session or descent Plane) it drives.
// README.md records why each workload exists and which layers it loads.
type workload struct {
	name string
	// m is the number of servers in the initial scenario.
	m int
	// rate is the nominal rebalances per second on the reference host
	// (2-CPU container). A run of S seconds replays about S·rate epochs,
	// spread over the segments, so every run of the same (seed, seconds)
	// does identical work and the quality metrics repeat exactly.
	rate float64
	// segments is how many independent instances and traces a run pools.
	segments int
	// trace generates one segment's inputs from its seed; the trace has
	// at least the given number of epochs.
	trace func(sc delaylb.Scenario, epochs int, seed int64) (*replay.Trace, error)
	// opts are the Session defaults (Session workloads only).
	opts []delaylb.Option
	// layer names the layer that solves: "qp" or "core" under a
	// Session's Reoptimize, "descent" on a Plane.
	layer string
	// plane and budget configure Plane workloads: the plane and the fixed
	// number of rounds every epoch runs.
	plane  *descent.Config
	budget int
}

// Every workload runs the same network: 12 metros, Zipf loads averaging
// 100 requests, 20 ms backbone.
func scenario(m int, seed int64) delaylb.Scenario {
	return delaylb.NewScenario(m).
		WithClusters(12).
		WithLoads(delaylb.LoadZipf, 100).
		WithLatency(20).
		WithSeed(seed)
}

func diurnal(sc delaylb.Scenario, epochs int, seed int64) (*replay.Trace, error) {
	return replay.Diurnal(sc, epochs, 0.5, 0.1, seed)
}

// outageDown is how many epochs each metro stays down in a MetroOutage
// cycle; a cycle is outageDown+2 epochs.
const outageDown = 6

// outages chains replay.MetroOutage cycles back to back, one metro after
// another, until the trace has at least the requested epochs. Each cycle
// takes a whole metro out, shifts the backbone ×1.25, restores it and
// brings the metro back, so membership churn and structured latency
// updates recur all through the run. Metros with no servers are skipped.
func outages(sc delaylb.Scenario, epochs int, seed int64) (*replay.Trace, error) {
	in, err := sc.Instance()
	if err != nil {
		return nil, err
	}
	k := 0
	members := map[int]bool{}
	for _, g := range in.Cluster {
		members[g] = true
		k = max(k, g+1)
	}
	tr := &replay.Trace{Scenario: sc}
	for c := 0; len(tr.Epochs) < epochs; c++ {
		metro := c % k
		if !members[metro] {
			continue
		}
		cycle, err := replay.MetroOutage(sc, metro, outageDown, sweep.CellSeed(seed, c))
		if err != nil {
			return nil, err
		}
		for _, ep := range cycle.Epochs {
			ep.Time = float64(len(tr.Epochs) + 1)
			tr.Epochs = append(tr.Epochs, ep)
		}
	}
	return tr, tr.Validate()
}

var workloads = []*workload{
	{
		name:     "fw-diurnal",
		m:        300,
		rate:     6.5,
		segments: 24,
		trace:    diurnal,
		opts:     replay.DefaultOptions(),
		layer:    "qp",
	},
	{
		name:     "mine-outage",
		m:        120,
		rate:     12.8,
		segments: 32,
		trace:    outages,
		opts:     []delaylb.Option{delaylb.WithSolver("hybrid"), delaylb.WithSparse()},
		layer:    "core",
	},
	{
		name:     "descent-diurnal",
		m:        300,
		rate:     6.5,
		segments: 24,
		trace:    diurnal,
		layer:    "descent",
		plane:    &descent.Config{Participation: 0.2},
		budget:   100,
	},
}

func lookup(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// segmentEpochs is the trace length of one segment of a run of the
// given seconds.
func (w *workload) segmentEpochs(seconds int) int {
	return max(2, int(math.Round(float64(seconds)*w.rate/float64(w.segments))))
}

// open is one set-up: parse the trace text, build the instance and open
// the Session or Plane on it. Spans go to sc (nil when untraced).
func (w *workload) open(text string, sc *obs.Scope) (*replay.Trace, balancer, error) {
	sp := sc.Start("replay.parse")
	tr, err := replay.ParseTraceString(text)
	sp.End()
	if err != nil {
		return nil, nil, err
	}
	if w.plane == nil {
		sp = sc.Start("scenario.build")
		sys, err := tr.Scenario.Build()
		sp.End()
		if err != nil {
			return nil, nil, err
		}
		sp = sc.Start("session.open")
		sess := sys.NewSession(w.opts...)
		sp.End()
		return tr, &sessionBalancer{sess: sess, sc: sc}, nil
	}
	sp = sc.Start("scenario.build")
	in, err := tr.Scenario.Instance()
	sp.End()
	if err != nil {
		return nil, nil, err
	}
	sp = sc.Start("descent.open")
	p, err := descent.NewPlane(in, *w.plane)
	sp.End()
	if err != nil {
		return nil, nil, err
	}
	return tr, &planeBalancer{p: p, budget: w.budget, sc: sc}, nil
}

// coldBand is the certified band a cold descent solve must enter: cost
// within 2% of the Frank–Wolfe lower bound (the paper's Table I target).
const coldBand = 0.02

// coldRoundCap bounds a cold descent solve that never enters the band.
const coldRoundCap = 5000

// planeColdSolve times a fresh plane from the identity allocation until
// its cost first enters the certified band. The plane has no stopping
// rule of its own short of a fixed point, so the band is its stop. The
// lower bound comes from a converged away-step Frank–Wolfe solve,
// outside the timed region.
func planeColdSolve(in *model.Instance, cfg descent.Config) (time.Duration, error) {
	res := qp.SolveFrankWolfeSparse(in, qp.Options{Variant: qp.VariantAway, Tol: 1e-6, MaxIters: 2000})
	lb := res.Cost - res.Gap
	p, err := descent.NewPlane(in, cfg)
	if err != nil {
		return 0, err
	}
	runtime.GC()
	start := time.Now()
	for r := 0; r < coldRoundCap; r++ {
		met, err := p.Round()
		if err != nil {
			return 0, err
		}
		if met.Cost <= (1+coldBand)*lb {
			return time.Since(start), nil
		}
	}
	return 0, fmt.Errorf("cold descent solve did not enter the %g band in %d rounds", coldBand, coldRoundCap)
}
