package experiments

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/mobsim"
	"repro/internal/stream"
	"repro/internal/timegrid"
	"repro/internal/traffic"
)

// serialStandard is the test oracle of the study driver: a plain serial
// day loop over one reused day buffer — February home detection with
// core.HomeDetector, then the study window — sharing no code with the
// driver beyond the analyzers themselves. The parity tests compare the
// driver (and every sweep mode) against it.
func serialStandard(d *Dataset) *Results {
	hd := core.NewHomeDetector(d.Topology)
	buf := mobsim.NewDayBuffer()
	for day := timegrid.SimDay(0); day < timegrid.FebruaryDays; day++ {
		hd.ConsumeDay(day, d.Sim.DayInto(buf, day))
	}
	r := newResults(d, hd.Detect())
	serialStudy(d, r, nil)
	return r
}

// serialStudy folds every study day into r in order — mobility, matrix
// and, when d has a traffic engine, KPI. at, when non-nil, runs at every
// day boundary sd with days [0, sd) folded, from 0 through StudyDays.
func serialStudy(d *Dataset, r *Results, at func(sd int)) {
	buf := mobsim.NewDayBuffer()
	var cells []traffic.CellDay
	for sd := 0; ; sd++ {
		if at != nil {
			at(sd)
		}
		if sd == timegrid.StudyDays {
			return
		}
		day := timegrid.StudyDay(sd).ToSimDay()
		traces := d.Sim.DayInto(buf, day)
		r.Mobility.ConsumeDay(day, traces)
		r.Matrix.ConsumeDay(day, traces)
		if d.Engine != nil {
			cells = d.Engine.DayAppend(cells[:0], day, traces)
			r.KPI.ConsumeDay(day, cells)
		}
	}
}

// TestDriverBoundaryOrdering pins where the driver's boundary callback
// runs: a checkpoint captured there at study day sd must hold exactly
// the folds of days [0, sd) — mobility, matrix and KPI — as the serial
// oracle's at the same boundary. A callback that ran before the day's
// KPI fold (or before any fold) would capture one day short. Covered:
// the opening, first, a middle and the closing boundary; KPI on and
// SkipKPI; one producer with serial folds and several with sharded
// folds.
func TestDriverBoundaryOrdering(t *testing.T) {
	snapDays := []int{0, 1, 20, timegrid.StudyDays}
	for _, skipKPI := range []bool{false, true} {
		cfg := checkpointConfig()
		cfg.SkipKPI = skipKPI
		w := NewWorld(cfg)
		homes := w.Homes()

		want := map[int]*Checkpoint{}
		od := w.Instantiate(cfg)
		or := newResults(od, homes)
		serialStudy(od, or, func(sd int) {
			if slices.Contains(snapDays, sd) {
				want[sd] = captureCheckpoint(or, sd)
			}
		})

		for _, workers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("skipKPI=%t/workers=%d", skipKPI, workers), func(t *testing.T) {
				d := w.Instantiate(cfg)
				r := newResults(d, homes)
				got := map[int]*Checkpoint{}
				err := runWindow(context.Background(), d, r, 0, stream.Config{Workers: workers}, func(sd int) error {
					if slices.Contains(snapDays, sd) {
						got[sd] = captureCheckpoint(r, sd)
					}
					return nil
				}, nil)
				if err != nil {
					t.Fatal(err)
				}
				for _, sd := range snapDays {
					t.Run(fmt.Sprintf("sd=%d", sd), func(t *testing.T) {
						if got[sd] == nil {
							t.Fatal("no checkpoint captured")
						}
						if (got[sd].KPI == nil) != skipKPI {
							t.Fatalf("KPI fold present = %t with SkipKPI %t", got[sd].KPI != nil, skipKPI)
						}
						assertResultsEqual(t, checkpointResults(w, want[sd]), checkpointResults(w, got[sd]))
					})
				}
			})
		}
	}
}
