package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"delaylb"
	"delaylb/internal/model"
	"delaylb/internal/qp"
	"delaylb/internal/sparse"
	"delaylb/obs"
	"delaylb/replay"
	"delaylb/sweep"
)

// metric is one named measurement as the result line reports it.
type metric struct {
	name  string
	unit  string
	value float64
}

// report is the outcome of one benchmark run.
type report struct {
	epochs    int
	e2e       []metric // end-to-end metrics, tracing off
	layer     []metric // per-layer metrics, from the traced pass
	attempted int
	failed    int
	problems  []string
	selfTime  string      // folded self-time table (traced runs)
	tracer    *obs.Tracer // the traced pass's spans (traced runs)
	setups    []time.Duration
}

func (r *report) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

// pass is one walk of the trace on a fresh Session or Plane.
type pass struct {
	initial   time.Duration   // the initial solve, from the identity allocation
	rebalance []time.Duration // epochs 1..E, events to adopted allocation
	rounds    []time.Duration // every solver iteration or plane round
	costs     []float64       // epoch 0..E
	iters     []int           // epoch 0..E
	latency   []float64       // ΣC_i/Σn_i, epochs 1..E
	gaps      []float64       // certified gap in %, epochs 1..E
	failed    int
	problems  []string

	sumIters, sumNNZ, capped int
	msgs, bytes, stepped     int64
	allocBytes, gcCycles     uint64
	gcPause                  time.Duration
	peakHeap                 uint64
	dense                    int64 // dense latency materializations during the walk
}

func (p *pass) fail(format string, args ...any) {
	p.failed++
	if len(p.problems) < 10 {
		p.problems = append(p.problems, fmt.Sprintf(format, args...))
	}
}

// walk replays the trace on b: an initial solve from the identity, then
// every epoch timed from its first event to the adopted allocation.
// Checks run outside the timed region.
func walk(ctx context.Context, tr *replay.Trace, b balancer, speeds []float64, sc *obs.Scope) *pass {
	p := &pass{}
	dense0 := delaylb.DenseMaterializations()
	defer func() { p.dense = delaylb.DenseMaterializations() - dense0 }()
	f := newFleet(speeds)
	runtime.GC()
	start := time.Now()
	st, _, err := b.solve(ctx, nil)
	p.initial = time.Since(start)
	if err != nil {
		p.fail("initial solve: %v", err)
		return p
	}
	p.costs = append(p.costs, st.cost)
	p.iters = append(p.iters, st.iters)
	if _, _, err := check(b, f, st.cost); err != nil {
		p.fail("initial solve: %v", err)
	}
	var before, after runtime.MemStats
	for k, ep := range tr.Epochs {
		runtime.ReadMemStats(&before)
		root := sc.Start("rebalance")
		start := time.Now()
		err := applyEpoch(b, f, ep)
		if err == nil {
			st, p.rounds, err = b.solve(ctx, p.rounds)
		}
		elapsed := time.Since(start)
		root.End()
		runtime.ReadMemStats(&after)
		if err != nil {
			// The live state no longer follows the trace; stop here.
			p.fail("epoch %d: %v", k+1, err)
			return p
		}
		p.rebalance = append(p.rebalance, elapsed)
		p.allocBytes += after.TotalAlloc - before.TotalAlloc
		p.gcCycles += uint64(after.NumGC - before.NumGC)
		p.gcPause += time.Duration(after.PauseTotalNs - before.PauseTotalNs)
		p.peakHeap = max(p.peakHeap, after.HeapAlloc)
		p.costs = append(p.costs, st.cost)
		p.iters = append(p.iters, st.iters)
		p.sumIters += st.iters
		p.sumNNZ += st.nnz
		if st.capped {
			p.capped++
		}
		p.msgs += st.msgs
		p.bytes += st.bytes
		p.stepped += st.stepped

		chk := sc.Start("check")
		gap, load, err := check(b, f, st.cost)
		chk.End()
		if err != nil {
			p.fail("epoch %d: %v", k+1, err)
			continue
		}
		p.latency = append(p.latency, st.cost/load)
		p.gaps = append(p.gaps, gap)
	}
	return p
}

func applyEpoch(b balancer, f *fleet, ep replay.Epoch) error {
	for _, ev := range ep.Events {
		if err := b.apply(ev, f); err != nil {
			return err
		}
	}
	return b.flush()
}

// check verifies the adopted allocation and certifies it. Every row must
// be non-negative and sum to its organization's load within 1e-6
// relative; the library's cost must match the cost recomputed from the
// allocation; and one away-step Frank–Wolfe certificate pass gives the
// duality gap, so Cost − Gap lower-bounds the optimum. It returns the
// gap as a percentage of the cost, and the total load.
func check(b balancer, f *fleet, cost float64) (gapPct, load float64, err error) {
	in, req, err := b.snapshot(f)
	if err != nil {
		return 0, 0, err
	}
	m := in.M()
	if len(req.Idx) != m {
		return 0, 0, fmt.Errorf("allocation has %d rows, instance %d", len(req.Idx), m)
	}
	rho := sparse.New(m, m)
	for i := 0; i < m; i++ {
		n := in.Load[i]
		load += n
		var sum float64
		for t, v := range req.Val[i] {
			if v < 0 || math.IsNaN(v) {
				return 0, 0, fmt.Errorf("infeasible: r[%d][%d] = %v", i, req.Idx[i][t], v)
			}
			sum += v
		}
		if math.Abs(sum-n) > 1e-6*math.Max(1, n) {
			return 0, 0, fmt.Errorf("infeasible: row %d sums to %v, load is %v", i, sum, n)
		}
		if n == 0 {
			rho.Idx[i], rho.Val[i] = []int32{int32(i)}, []float64{1}
			continue
		}
		rho.Idx[i] = append([]int32(nil), req.Idx[i]...)
		rho.Val[i] = make([]float64, len(req.Val[i]))
		for t, v := range req.Val[i] {
			rho.Val[i][t] = v / n
		}
	}
	res := qp.SolveFrankWolfeSparse(in, qp.Options{
		Variant:       qp.VariantAway,
		InitialSparse: rho,
		MaxIters:      1,
		// Stop after the certificate pass, before any step.
		OnIteration: func(int, float64) bool { return false },
	})
	if !(math.Abs(res.Cost-cost) <= 1e-9*math.Abs(cost)) {
		return 0, 0, fmt.Errorf("reported cost %v, allocation costs %v", cost, res.Cost)
	}
	if res.Gap < -1e-9*res.Cost {
		return 0, 0, fmt.Errorf("negative duality gap %v at cost %v", res.Gap, res.Cost)
	}
	return 100 * res.Gap / res.Cost, load, nil
}

// segment is one slice of a run: its own scenario instance and trace,
// and the Session or Plane opened on it.
type segment struct {
	tr   *replay.Trace
	text string
	in   *model.Instance // the initial instance
	b    balancer
}

// run executes one benchmark run of w: set-ups, cold solves and a timed
// walk of every segment, or with traced set, the traced set-ups and an
// untraced and a traced walk for the per-layer table. Pooling segments
// with independent instances and traces keeps a run's figures from
// hanging on one instance's quirks.
func run(ctx context.Context, w *workload, seed int64, seconds int, traced bool) (*report, error) {
	segs := make([]*segment, w.segments)
	rep := &report{}
	for k := range segs {
		// The network of segment k is the same in every run; the seed
		// drives the traces. A cold solve is a function of the network
		// alone, and MinE's cold iteration counts range over 4× between
		// networks of one scenario family, so networks drawn per seed
		// made cold_solve_s spread by 20% from seed to seed.
		tr, err := w.trace(scenario(w.m, int64(k)+1), w.segmentEpochs(seconds), sweep.CellSeed(seed, k))
		if err != nil {
			return nil, err
		}
		text, err := tr.EncodeString()
		if err != nil {
			return nil, err
		}
		in, err := tr.Scenario.Instance()
		if err != nil {
			return nil, err
		}
		segs[k] = &segment{tr: tr, text: text, in: in}
		rep.epochs += len(tr.Epochs)
	}
	dense0 := delaylb.DenseMaterializations()

	var tracer *obs.Tracer
	var sc *obs.Scope
	if traced {
		tracer = obs.NewTracer()
		sc = obs.NewScope(nil, tracer)
	}
	// A set-up is everything a run needs before its first rebalance:
	// parse every segment's trace, build its instance, open its Session
	// or Plane. The first set-up's balancers are the ones walked; the
	// repetitions are spread between the segment walks so that they see
	// the same host conditions as the rebalances do.
	setup := func(keep bool) error {
		runtime.GC()
		root := sc.Start("setup")
		start := time.Now()
		for _, sg := range segs {
			_, b, err := w.open(sg.text, sc)
			if err != nil {
				return err
			}
			if keep {
				sg.b = b
			}
		}
		rep.setups = append(rep.setups, time.Since(start))
		root.End()
		return nil
	}
	if err := setup(true); err != nil {
		return nil, err
	}

	var colds []time.Duration
	plain, tp := &pass{}, &pass{}
	for _, sg := range segs {
		if traced {
			// The untraced walk is the base the tracing overhead is
			// measured against; it needs a Session or Plane of its own.
			_, fresh, err := w.open(sg.text, nil)
			if err != nil {
				return nil, err
			}
			plain.merge(walk(ctx, sg.tr, fresh, sg.in.Speed, nil))
			tp.merge(walk(ctx, sg.tr, sg.b, sg.in.Speed, sc))
			rep.attempted += 2 * len(sg.tr.Epochs)
		} else {
			p := walk(ctx, sg.tr, sg.b, sg.in.Speed, nil)
			plain.merge(p)
			rep.attempted += len(sg.tr.Epochs)
			// A Session's initial solve is a cold solve: from the
			// identity allocation to the solver's own stop.
			cold := p.initial
			if w.plane != nil {
				var err error
				if cold, err = planeColdSolve(sg.in, *w.plane); err != nil {
					return nil, err
				}
			}
			colds = append(colds, cold)
		}
		sg.b = nil
		if err := setup(false); err != nil {
			return nil, err
		}
	}
	for _, p := range []*pass{plain, tp} {
		rep.failed += p.failed
		rep.problems = append(rep.problems, p.problems...)
	}
	if d := delaylb.DenseMaterializations() - dense0; d != 0 {
		rep.problems = append(rep.problems, fmt.Sprintf("%d dense latency materializations", d))
	}
	if len(plain.rebalance) == 0 || (traced && len(tp.rebalance) == 0) {
		rep.problems = append(rep.problems, "no rebalance completed")
		return rep, nil
	}
	if traced {
		rep.tracer = tracer
		rep.layer, rep.selfTime = layerMetrics(w, len(rep.setups), plain, tp, tracer.Events())
	} else {
		rep.e2e = endToEnd(rep, plain, colds)
	}
	return rep, nil
}

// merge folds another walk's samples and totals into p.
func (p *pass) merge(q *pass) {
	p.rebalance = append(p.rebalance, q.rebalance...)
	p.rounds = append(p.rounds, q.rounds...)
	p.costs = append(p.costs, q.costs...)
	p.iters = append(p.iters, q.iters...)
	p.latency = append(p.latency, q.latency...)
	p.gaps = append(p.gaps, q.gaps...)
	p.failed += q.failed
	p.problems = append(p.problems, q.problems...)
	p.sumIters += q.sumIters
	p.sumNNZ += q.sumNNZ
	p.capped += q.capped
	p.msgs += q.msgs
	p.bytes += q.bytes
	p.stepped += q.stepped
	p.allocBytes += q.allocBytes
	p.gcCycles += q.gcCycles
	p.gcPause += q.gcPause
	p.peakHeap = max(p.peakHeap, q.peakHeap)
	p.dense += q.dense
}

func endToEnd(rep *report, p *pass, colds []time.Duration) []metric {
	n := float64(len(p.rebalance))
	return []metric{
		{"setup_s", "s", seconds(median(rep.setups))},
		{"cold_solve_s", "s", seconds(median(colds))},
		{"rebalance_p50_ms", "ms", millis(quantile(p.rebalance, 0.5))},
		{"rebalance_p90_ms", "ms", millis(quantile(p.rebalance, 0.9))},
		{"round_p50_ms", "ms", millis(quantile(p.rounds, 0.5))},
		{"round_p90_ms", "ms", millis(quantile(p.rounds, 0.9))},
		{"mean_latency_ms", "ms", mean(p.latency)},
		{"alloc_mb_per_rebalance", "MB", float64(p.allocBytes) / n / 1e6},
		{"peak_heap_mb", "MB", float64(p.peakHeap) / 1e6},
	}
}

// median is the median of durations; zero for none.
func median(ds []time.Duration) time.Duration { return quantile(ds, 0.5) }

// quantile is the q-quantile of xs with linear interpolation between
// order statistics; zero for none.
func quantile[T time.Duration | float64](xs []T, q float64) T {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + T((pos-float64(lo))*float64(s[lo+1]-s[lo]))
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(max(1, len(xs)))
}

func seconds(d time.Duration) float64 { return d.Seconds() }

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
