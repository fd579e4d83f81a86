package experiments

import (
	"context"
	"runtime"

	"repro/internal/mobsim"
	"repro/internal/radio"
	"repro/internal/stream"
	"repro/internal/timegrid"
)

// The study driver: every pass over simulated days — RunStandardOn,
// World.Homes and every sweep run — runs on stream.Engine fed by a
// stream.SimSource, so day production overlaps the folds. The folds see
// the days in order at any worker and shard count, so results are
// bit-identical to a plain serial day loop (the oracle in
// driver_test.go).

// runOn runs the February home-detection pass, then the study window.
func runOn(ctx context.Context, d *Dataset, scfg stream.Config) (*Results, error) {
	homes, err := februaryHomes(ctx, d.Sim, d.Topology, scfg)
	if err != nil {
		return nil, err
	}
	r := newResults(d, homes)
	// February's home-detector maps and day stores are garbage now, but
	// the heap target they set would let them coexist with the study
	// pass's new day stores and engine clones: collect them first.
	runtime.GC()
	if err := runWindow(ctx, d, r, 0, scfg, nil, nil); err != nil {
		return nil, err
	}
	return r, nil
}

// februaryHomes runs the February home-detection pass on sim as the
// user-sharded stream.Homes stage.
func februaryHomes(ctx context.Context, sim *mobsim.Simulator, topo *radio.Topology, scfg stream.Config) (homesMap, error) {
	scfg = scfg.WithDefaults()
	homes := stream.NewHomes(topo, scfg.Shards)
	eng := stream.NewEngine(scfg)
	eng.AddTraceSharder(homes)
	if err := eng.Run(ctx, stream.NewSimSource(ctx, sim, nil, 0, timegrid.FebruaryDays, scfg)); err != nil {
		return nil, err
	}
	return homes.Detect(), nil
}

// runWindow folds study days [start, StudyDays) of d into r — mobility,
// matrix and, when r has a KPI analyzer, KPI — then hands each day's
// traces to extra (when non-nil) in the merge stage. One worker folds
// mobility and matrix as serial merge-stage consumers (shards would gain
// nothing and their per-index scratch costs memory); more run them as
// the sharded stream.Mobility and stream.Matrix stages.
//
// at, when non-nil, runs at every day boundary sd from start through
// StudyDays, with days [0, sd) folded into r, the KPI fold included:
// first before the run, then after each day's whole merge stage
// (stream.Engine.AfterDay). An error from at ends the run.
func runWindow(ctx context.Context, d *Dataset, r *Results, start int, scfg stream.Config, at func(sd int) error, extra stream.TraceConsumer) error {
	scfg = scfg.WithDefaults()
	eng := stream.NewEngine(scfg)
	if at != nil {
		if err := at(start); err != nil {
			return err
		}
		eng.AfterDay(func(day timegrid.SimDay) error {
			sd, _ := day.ToStudyDay()
			return at(int(sd) + 1)
		})
	}
	if scfg.Workers == 1 {
		eng.AddTraceConsumer(r.Mobility)
		eng.AddTraceConsumer(r.Matrix)
	} else {
		eng.AddTraceSharder(stream.NewMobility(r.Mobility, scfg.Shards))
		eng.AddTraceSharder(stream.NewMatrix(r.Matrix, scfg.Shards))
	}
	if extra != nil {
		eng.AddTraceConsumer(extra)
	}
	if r.KPI != nil {
		eng.AddKPIConsumer(r.KPI)
	}
	src := stream.NewSimSource(ctx, d.Sim, d.Engine, timegrid.StudyDay(start).ToSimDay(), timegrid.SimDays, scfg)
	return eng.Run(ctx, src)
}
