package main

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"time"

	"delaylb/obs"
)

// spanTotals is one row of the self-time table: every span recorded at
// the same call path.
type spanTotals struct {
	path  string // enclosing span names and the span's own, "/"-joined
	calls int
	total float64 // µs
	self  float64 // µs: total minus the time covered by child spans
}

// foldSelfTime folds a single-lane trace into per-path totals. The
// benchmark records every span on one goroutine, so spans nest by time:
// a span's parent is the innermost span still open when it starts.
func foldSelfTime(evs []obs.TraceEvent) []*spanTotals {
	spans := make([]obs.TraceEvent, 0, len(evs))
	for _, ev := range evs {
		if ev.Phase == "X" {
			spans = append(spans, ev)
		}
	}
	slices.SortStableFunc(spans, func(a, b obs.TraceEvent) int {
		if a.Ts != b.Ts {
			return cmp.Compare(a.Ts, b.Ts)
		}
		return cmp.Compare(b.Dur, a.Dur) // the enclosing span first
	})
	byPath := map[string]*spanTotals{}
	var order []*spanTotals
	type open struct {
		end   float64
		row   *spanTotals
		child float64
	}
	var stack []*open
	closeTop := func() {
		top := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		top.row.self -= top.child
	}
	for _, ev := range spans {
		for len(stack) > 0 && stack[len(stack)-1].end <= ev.Ts {
			closeTop()
		}
		path := ev.Name
		if len(stack) > 0 {
			top := stack[len(stack)-1]
			path = top.row.path + "/" + ev.Name
			top.child += ev.Dur
		}
		row := byPath[path]
		if row == nil {
			row = &spanTotals{path: path}
			byPath[path] = row
			order = append(order, row)
		}
		row.calls++
		row.total += ev.Dur
		row.self += ev.Dur
		stack = append(stack, &open{end: ev.Ts + ev.Dur, row: row})
	}
	for len(stack) > 0 {
		closeTop()
	}
	return order
}

// layerMetrics derives the per-layer metrics from the traced walk and
// renders the self-time table. Layers a workload bypasses report 0.
func layerMetrics(w *workload, setups int, plain, tp *pass, evs []obs.TraceEvent) ([]metric, string) {
	rows := foldSelfTime(evs)
	self := map[string]float64{} // ms
	for _, r := range rows {
		self[r.path] = r.self / 1e3
	}
	n := float64(len(tp.rebalance))
	perSetup := func(names ...string) float64 {
		var ms float64
		for _, name := range names {
			ms += self["setup/"+name]
		}
		return ms / float64(setups)
	}
	perRebalance := func(names ...string) float64 {
		var ms float64
		for _, name := range names {
			ms += self["rebalance/"+name]
		}
		return ms / n
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	// Counts are named by the layer that does the work and read 0 on a
	// workload that bypasses it. Times are named by the surface the
	// workload drives, a Session or a Plane, so every time is measured on
	// every workload.
	counts := func(layer string) *pass {
		if w.layer != layer {
			return &pass{}
		}
		return tp
	}
	qp, core, plane := counts("qp"), counts("core"), counts("descent")
	solve := perRebalance("session.reoptimize", "descent.round")
	rounds := float64(plane.sumIters)
	untraced := mean(millisAll(plain.rebalance))
	traced := mean(millisAll(tp.rebalance))
	plainN := float64(len(plain.rebalance))
	capped := 0.0
	if w.layer == "qp" {
		capped = 100 * float64(tp.capped) / n
	}

	ms := []metric{
		{"replay.parse_ms", "ms", perSetup("replay.parse")},
		{"scenario.build_ms", "ms", perSetup("scenario.build")},
		{"surface.open_ms", "ms", perSetup("session.open", "descent.open")},
		{"surface.update_ms", "ms", perRebalance("session.loads", "session.update_loads",
			"session.add_server", "session.remove_server", "session.latency_update",
			"descent.update_loads", "descent.join", "descent.leave")},
		{"surface.solve_ms", "ms", solve},
		{"solver.us_per_iter", "us", ratio(1e3*solve*n, float64(tp.sumIters))},
		{"session.dense_materializations", "count", float64(tp.dense)},
		{"qp.iters_per_rebalance", "count", float64(qp.sumIters) / n},
		{"qp.nnz", "count", float64(qp.sumNNZ) / n},
		{"qp.capped_pct", "%", capped},
		{"core.iters_per_rebalance", "count", float64(core.sumIters) / n},
		{"core.nnz", "count", float64(core.sumNNZ) / n},
		{"descent.rounds_per_epoch", "count", rounds / n},
		{"descent.msgs_per_round", "count", ratio(float64(plane.msgs), rounds)},
		{"descent.bytes_per_round", "bytes", ratio(float64(plane.bytes), rounds)},
		{"descent.stepped_per_round", "count", ratio(float64(plane.stepped), rounds)},
		{"gc.cycles_per_rebalance", "count", float64(plain.gcCycles) / plainN},
		{"gc.pause_ms_per_rebalance", "ms", millis(plain.gcPause) / plainN},
		{"obs.trace_overhead_pct", "%", 100 * (traced - untraced) / untraced},
		{"gap_pct", "%", quantile(plain.gaps, 0.5)},
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "self time by call path (traced walk of %d rebalances, %d set-ups)\n", len(tp.rebalance), setups)
	fmt.Fprintf(&sb, "%-44s %8s %12s %12s %14s\n", "path", "calls", "total_ms", "self_ms", "self_ms/rebal")
	var underRebalance float64
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-44s %8d %12.3f %12.3f %14.4f\n", r.path, r.calls, r.total/1e3, r.self/1e3, r.self/1e3/n)
		if r.path == "rebalance" || strings.HasPrefix(r.path, "rebalance/") {
			underRebalance += r.self / 1e3
		}
	}
	fmt.Fprintf(&sb, "self time under rebalance: %.4f ms/rebalance; untraced mean rebalance %.4f ms; tracing overhead %.2f%%\n",
		underRebalance/n, untraced, 100*(traced-untraced)/untraced)
	return ms, sb.String()
}

func millisAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = millis(d)
	}
	return out
}
