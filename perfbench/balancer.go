package main

// The balancers. replay.Run and replay.RunDescent apply a batch and
// solve inside one call, so they cannot say how long applying events
// took apart from solving. The benchmark walks the same trace through
// the same public calls, in the same order, and times each call from
// outside; bench_test.go pins the walk's costs to the replay engine's
// timelines bit for bit.

import (
	"context"
	"fmt"
	"time"

	"delaylb"
	"delaylb/descent"
	"delaylb/internal/model"
	"delaylb/internal/sparse"
	"delaylb/obs"
	"delaylb/replay"
)

// balancer is the surface one workload drives: a Session or a Plane.
type balancer interface {
	// apply performs one trace event, or stages it when it only edits
	// loads (one UpdateLoads per epoch, as the replay engine does).
	apply(ev replay.Event, f *fleet) error
	// flush pushes the staged load edits.
	flush() error
	// solve rebalances and reports what the layer under it did. Each
	// round's duration is appended to rounds.
	solve(ctx context.Context, rounds []time.Duration) (solveStats, []time.Duration, error)
	// snapshot returns the live instance and the adopted allocation in
	// request units, for the checks made outside the timed region.
	snapshot(f *fleet) (*model.Instance, *sparse.Matrix, error)
}

// solveStats is one rebalance as the solving layer reports it.
type solveStats struct {
	cost   float64 // ΣC_i of the adopted allocation, as the library reports it
	iters  int     // solver iterations or plane rounds
	nnz    int
	capped bool // the solver stopped at its iteration cap
	// Plane rounds only: cross-actor traffic and rows that stepped.
	msgs, bytes, stepped int64
}

// fleet maps the trace's stable server ids onto live indices, mirroring
// the replay engine's bookkeeping, and keeps the speeds the Session does
// not expose (needed to rebuild the instance for the certificate).
type fleet struct {
	ids   []int64
	idx   map[int64]int
	speed []float64
}

func newFleet(speeds []float64) *fleet {
	f := &fleet{idx: make(map[int64]int, len(speeds)), speed: append([]float64(nil), speeds...)}
	for i := range speeds {
		f.ids = append(f.ids, int64(i))
		f.idx[int64(i)] = i
	}
	return f
}

func (f *fleet) index(id int64) (int, error) {
	i, ok := f.idx[id]
	if !ok {
		return 0, fmt.Errorf("no live server with id %d", id)
	}
	return i, nil
}

func (f *fleet) leave(i int) {
	delete(f.idx, f.ids[i])
	f.ids = append(f.ids[:i], f.ids[i+1:]...)
	f.speed = append(f.speed[:i], f.speed[i+1:]...)
	for _, id := range f.ids[i:] {
		f.idx[id]--
	}
}

func (f *fleet) join(id int64, speed float64) error {
	if _, dup := f.idx[id]; dup {
		return fmt.Errorf("join id %d already live", id)
	}
	f.idx[id] = len(f.ids)
	f.ids = append(f.ids, id)
	f.speed = append(f.speed, speed)
	return nil
}

// sessionBalancer drives a delaylb.Session.
type sessionBalancer struct {
	sess    *delaylb.Session
	sc      *obs.Scope
	pending []float64
	// tables holds the metro table before each un-restored backbone
	// shift, most recent last; a restore writes the exact bytes back.
	tables [][][]float64
}

func (b *sessionBalancer) apply(ev replay.Event, f *fleet) error {
	switch ev.Kind {
	case replay.Spike:
		i, err := f.index(ev.ID)
		if err != nil {
			return err
		}
		if b.pending == nil {
			sp := b.sc.Start("session.loads")
			b.pending = b.sess.Loads()
			sp.End()
		}
		b.pending[i] *= ev.Value
	case replay.ServerLeave:
		if err := b.flush(); err != nil {
			return err
		}
		i, err := f.index(ev.ID)
		if err != nil {
			return err
		}
		sp := b.sc.Start("session.remove_server")
		err = b.sess.RemoveServer(i)
		sp.End()
		if err != nil {
			return err
		}
		f.leave(i)
	case replay.ServerJoin:
		if ev.Join != replay.JoinCluster {
			return fmt.Errorf("join mode %q is not used by any workload", ev.Join)
		}
		if err := b.flush(); err != nil {
			return err
		}
		sp := b.sc.Start("session.add_server")
		err := b.sess.AddServer(delaylb.ServerSpec{Speed: ev.Speed, Load: ev.Load, Cluster: ev.Cluster})
		sp.End()
		if err != nil {
			return err
		}
		return f.join(ev.ID, ev.Speed)
	case replay.LatencyShift:
		if ev.ID != replay.Wildcard || ev.To != replay.Wildcard {
			return fmt.Errorf("only backbone-wide latency shifts are used by the workloads")
		}
		sp := b.sc.Start("session.latency_update")
		defer sp.End()
		table, _, ok := b.sess.BlockLatency()
		if !ok {
			return fmt.Errorf("latency shift on a session that is not block-backed")
		}
		if err := b.sess.ApplyLatencyUpdate(delaylb.ScaleBackbone(ev.Value)); err != nil {
			return err
		}
		b.tables = append(b.tables, table)
	case replay.LatencyRestore:
		if len(b.tables) == 0 {
			return fmt.Errorf("latency restore with no shift to undo")
		}
		table := b.tables[len(b.tables)-1]
		b.tables = b.tables[:len(b.tables)-1]
		sp := b.sc.Start("session.latency_update")
		defer sp.End()
		return b.sess.ApplyLatencyUpdate(delaylb.RestoreBlockLatency(table))
	default:
		return fmt.Errorf("event kind %q is not used by any workload", ev.Kind)
	}
	return nil
}

func (b *sessionBalancer) flush() error {
	if b.pending == nil {
		return nil
	}
	sp := b.sc.Start("session.update_loads")
	err := b.sess.UpdateLoads(b.pending)
	sp.End()
	b.pending = nil
	return err
}

func (b *sessionBalancer) solve(ctx context.Context, rounds []time.Duration) (solveStats, []time.Duration, error) {
	var last time.Time
	progress := delaylb.WithProgress(func(int, float64) bool {
		now := time.Now()
		rounds = append(rounds, now.Sub(last))
		last = now
		return true
	})
	sp := b.sc.Start("session.reoptimize")
	last = time.Now()
	res, err := b.sess.Reoptimize(ctx, progress)
	sp.End()
	if err != nil {
		return solveStats{}, rounds, err
	}
	return solveStats{cost: res.Cost, iters: res.Iterations, nnz: res.NNZ, capped: res.Reason == "max-iters"}, rounds, nil
}

func (b *sessionBalancer) snapshot(f *fleet) (*model.Instance, *sparse.Matrix, error) {
	table, labels, ok := b.sess.BlockLatency()
	if !ok {
		return nil, nil, fmt.Errorf("session is no longer block-backed")
	}
	in, err := model.NewBlockInstance(append([]float64(nil), f.speed...), b.sess.Loads(), table, labels)
	if err != nil {
		return nil, nil, err
	}
	m := in.M()
	res := b.sess.Result()
	if res.M() != m {
		return nil, nil, fmt.Errorf("allocation has %d rows, fleet has %d servers", res.M(), m)
	}
	req := sparse.New(m, m)
	res.Each(func(i, j int, v float64) {
		req.Idx[i] = append(req.Idx[i], int32(j))
		req.Val[i] = append(req.Val[i], v)
	})
	return in, req, nil
}

// planeBalancer drives a descent.Plane for a fixed round budget per
// epoch.
type planeBalancer struct {
	p       *descent.Plane
	sc      *obs.Scope
	budget  int
	pending []float64
	// quiet counts consecutive rounds that moved no mass since the last
	// rebuild — the plane's own fixed-point rule (Plane.Run stops after
	// four under partial participation), mirrored so an epoch ends where
	// replay.RunDescent's would.
	quiet int
}

// quietStop is Plane.Run's fixed-point threshold under partial
// participation.
const quietStop = 4

func (b *planeBalancer) apply(ev replay.Event, f *fleet) error {
	switch ev.Kind {
	case replay.Spike:
		i, err := f.index(ev.ID)
		if err != nil {
			return err
		}
		if b.pending == nil {
			b.pending = append([]float64(nil), b.p.Instance().Load...)
		}
		b.pending[i] *= ev.Value
	case replay.ServerLeave:
		if err := b.flush(); err != nil {
			return err
		}
		i, err := f.index(ev.ID)
		if err != nil {
			return err
		}
		sp := b.sc.Start("descent.leave")
		err = b.p.Leave(i)
		sp.End()
		if err != nil {
			return err
		}
		b.quiet = 0
		f.leave(i)
	case replay.ServerJoin:
		if ev.Join != replay.JoinCluster {
			return fmt.Errorf("join mode %q is not used by any workload", ev.Join)
		}
		if err := b.flush(); err != nil {
			return err
		}
		sp := b.sc.Start("descent.join")
		err := b.p.Join(ev.Speed, ev.Load, nil, nil, ev.Cluster)
		sp.End()
		if err != nil {
			return err
		}
		b.quiet = 0
		return f.join(ev.ID, ev.Speed)
	default:
		return fmt.Errorf("event kind %q is not used by any plane workload", ev.Kind)
	}
	return nil
}

func (b *planeBalancer) flush() error {
	if b.pending == nil {
		return nil
	}
	sp := b.sc.Start("descent.update_loads")
	err := b.p.UpdateLoads(b.pending)
	sp.End()
	b.pending = nil
	b.quiet = 0
	return err
}

func (b *planeBalancer) solve(_ context.Context, rounds []time.Duration) (solveStats, []time.Duration, error) {
	st := solveStats{cost: b.p.Cost()}
	for st.iters < b.budget {
		sp := b.sc.Start("descent.round")
		start := time.Now()
		met, err := b.p.Round()
		rounds = append(rounds, time.Since(start))
		sp.End()
		if err != nil {
			return st, rounds, err
		}
		st.iters++
		st.cost, st.nnz = met.Cost, met.NNZ
		st.msgs += met.Messages
		st.bytes += met.Bytes
		st.stepped += int64(met.Stepped)
		if met.Moved == 0 {
			b.quiet++
		} else {
			b.quiet = 0
		}
		if b.quiet >= quietStop {
			break
		}
	}
	return st, rounds, nil
}

func (b *planeBalancer) snapshot(*fleet) (*model.Instance, *sparse.Matrix, error) {
	return b.p.Instance(), b.p.Allocation(), nil
}
