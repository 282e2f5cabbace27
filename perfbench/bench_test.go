package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"delaylb/internal/model"
	"delaylb/internal/sparse"
	"delaylb/obs"
	"delaylb/replay"
)

// shortTrace is a small version of w's inputs: the same generator and
// options on 60 servers.
func shortTrace(t *testing.T, w *workload, epochs int) (*replay.Trace, string) {
	t.Helper()
	tr, err := w.trace(scenario(60, 7), epochs, 7)
	if err != nil {
		t.Fatal(err)
	}
	text, err := tr.EncodeString()
	if err != nil {
		t.Fatal(err)
	}
	return tr, text
}

// walkShort opens w on the trace text and walks it once, untraced.
func walkShort(t *testing.T, w *workload, text string) *pass {
	t.Helper()
	tr, b, err := w.open(text, nil)
	if err != nil {
		t.Fatal(err)
	}
	in, err := tr.Scenario.Instance()
	if err != nil {
		t.Fatal(err)
	}
	p := walk(context.Background(), tr, b, in.Speed, nil)
	if p.failed != 0 || len(p.problems) != 0 {
		t.Fatalf("walk failed %d rebalances: %v", p.failed, p.problems)
	}
	if len(p.rebalance) != len(tr.Epochs) {
		t.Fatalf("walk timed %d rebalances, trace has %d epochs", len(p.rebalance), len(tr.Epochs))
	}
	return p
}

// The walk must reproduce the replay engine exactly: same events,
// same calls, same order, so the per-epoch costs agree bit for bit with
// replay.Run / replay.RunDescent timelines. Every adopted allocation
// passes the feasibility and certificate checks inside walk.
func TestWalkMatchesReplayTimelines(t *testing.T) {
	ctx := context.Background()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			tr, text := shortTrace(t, w, 10)
			p := walkShort(t, w, text)
			var want []float64
			var rounds []int
			if w.plane == nil {
				tl, err := replay.Run(ctx, tr, replay.Config{Options: w.opts, SkipCold: true, Verify: true})
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range tl.Epochs {
					want = append(want, e.Cost)
					rounds = append(rounds, e.WarmIters)
				}
			} else {
				tl, err := replay.RunDescent(ctx, tr, replay.DescentConfig{
					Plane: *w.plane, RoundBudget: w.budget, SkipOracle: true, Verify: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range tl.Epochs {
					want = append(want, e.Cost)
					rounds = append(rounds, e.Rounds)
				}
			}
			if len(p.costs) != len(want) {
				t.Fatalf("walk has %d epochs, timeline %d", len(p.costs), len(want))
			}
			for k := range want {
				if math.Float64bits(p.costs[k]) != math.Float64bits(want[k]) || p.iters[k] != rounds[k] {
					t.Errorf("epoch %d: walk cost %v after %d rounds, timeline %v after %d",
						k, p.costs[k], p.iters[k], want[k], rounds[k])
				}
			}
		})
	}
}

// The outage workload runs membership churn and backbone shifts through
// the structured update path; none of it may expand the block latency
// into a dense matrix.
func TestOutageNeverDensifies(t *testing.T) {
	w, err := lookup("mine-outage")
	if err != nil {
		t.Fatal(err)
	}
	_, text := shortTrace(t, w, 16)
	if p := walkShort(t, w, text); p.dense != 0 {
		t.Fatalf("%d dense latency materializations", p.dense)
	}
}

// fixedBalancer hands check a fixed instance and allocation.
type fixedBalancer struct {
	in  *model.Instance
	req *sparse.Matrix
	balancer
}

func (b fixedBalancer) snapshot(*fleet) (*model.Instance, *sparse.Matrix, error) {
	return b.in, b.req, nil
}

func TestCheckRejectsBadAllocations(t *testing.T) {
	in, err := scenario(24, 3).Instance()
	if err != nil {
		t.Fatal(err)
	}
	identity := func() *sparse.Matrix {
		req := sparse.New(in.M(), in.M())
		for i, n := range in.Load {
			req.Idx[i], req.Val[i] = []int32{int32(i)}, []float64{n}
		}
		return req
	}
	cost := model.TotalCostSparse(in, identity())
	if _, _, err := check(fixedBalancer{in: in, req: identity()}, nil, cost); err != nil {
		t.Fatalf("identity allocation rejected: %v", err)
	}
	short := identity()
	short.Val[3][0] *= 1 - 1e-5
	negative := identity()
	negative.Idx[5] = []int32{5, 6}
	negative.Val[5] = []float64{in.Load[5] + 1, -1}
	nan := identity()
	nan.Val[7][0] = math.NaN()
	for name, tc := range map[string]struct {
		req  *sparse.Matrix
		cost float64
	}{
		"row sum off its load": {short, cost},
		"negative entry":       {negative, cost},
		"NaN entry":            {nan, cost},
		"misreported cost":     {identity(), cost * (1 + 1e-6)},
	} {
		if _, _, err := check(fixedBalancer{in: in, req: tc.req}, nil, tc.cost); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestFoldSelfTime(t *testing.T) {
	evs := []obs.TraceEvent{
		{Name: "rebalance", Phase: "X", Ts: 0, Dur: 100},
		{Name: "session.update_loads", Phase: "X", Ts: 10, Dur: 20},
		{Name: "session.reoptimize", Phase: "X", Ts: 40, Dur: 50},
		{Name: "check", Phase: "X", Ts: 100, Dur: 7},
		{Name: "marker", Phase: "i", Ts: 5},
	}
	got := map[string]float64{}
	for _, r := range foldSelfTime(evs) {
		got[r.path] = r.self
	}
	want := map[string]float64{
		"rebalance":                      30,
		"rebalance/session.update_loads": 20,
		"rebalance/session.reoptimize":   50,
		"check":                          7,
	}
	if len(got) != len(want) {
		t.Fatalf("rows %v, want %v", got, want)
	}
	for path, self := range want {
		if got[path] != self {
			t.Errorf("%s: self %v, want %v", path, got[path], self)
		}
	}
}

// The metrics the program prints must be exactly the ones BENCHMARK.json
// declares, with the same units: end-to-end ones untraced, per-layer
// ones traced, on every workload.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []metric, want []struct{ Name, Unit string }) {
		t.Helper()
		units := map[string]string{}
		for _, m := range got {
			units[m.name] = m.unit
		}
		if len(units) != len(got) || len(got) != len(want) {
			t.Errorf("%s: program reports %d metrics, BENCHMARK.json declares %d", kind, len(got), len(want))
		}
		for _, m := range want {
			if u, ok := units[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s metric %s: program unit %q, declared %q", kind, m.Name, u, m.Unit)
			}
		}
	}
	one := &pass{rebalance: []time.Duration{time.Millisecond}}
	same("end-to-end", endToEnd(&report{}, one, nil), spec.EndToEnd)
	for _, w := range workloads {
		layer, _ := layerMetrics(w, 1, one, one, nil)
		same("per-layer "+w.name, layer, spec.PerLayer)
	}
}
