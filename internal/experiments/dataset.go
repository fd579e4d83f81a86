// Package experiments wires the full reproduction pipeline together and
// provides one runner per paper figure. A Dataset owns the synthetic UK,
// the radio topology, the population and the simulators; RunStandard
// streams the 100 simulated days (February for home detection, weeks
// 9–19 for the analyses) through every analyzer.
package experiments

import (
	"context"

	"repro/internal/census"
	"repro/internal/core"
	"repro/internal/mobsim"
	"repro/internal/pandemic"
	"repro/internal/popsim"
	"repro/internal/radio"
	"repro/internal/stream"
	"repro/internal/traffic"
)

// Config scales the reproduction. Larger TargetUsers give smoother
// medians at linear cost.
type Config struct {
	Seed        uint64
	TargetUsers int
	// PopPerTower controls radio density (see radio.Config).
	PopPerTower int
	// Scenario overrides the default pandemic scenario when non-nil.
	Scenario *pandemic.Scenario
	// TopN is the per-user tower filter (0 disables, default 20).
	TopN int
	// SkipKPI skips the traffic engine (mobility-only runs are ~3×
	// faster; used by mobility figures and benchmarks).
	SkipKPI bool
}

// DefaultConfig is the scale used by tests and the figure harness.
func DefaultConfig() Config {
	return Config{Seed: 42, TargetUsers: popsim.ScaleSmall, PopPerTower: 40_000, TopN: core.DefaultTopN}
}

// Dataset is a fully constructed simulation stack: a shared,
// scenario-independent World plus the per-scenario run stack (the
// mobility simulator and the traffic engine) bound to it.
type Dataset struct {
	Config   Config
	World    *World
	Model    *census.Model
	Topology *radio.Topology
	Pop      *popsim.Population
	Scenario *pandemic.Scenario
	Sim      *mobsim.Simulator
	Engine   *traffic.Engine
}

// NewDataset builds a fresh world and binds the config's scenario to
// it. Callers running several scenarios over the same seed and scale
// should build one World and Instantiate per scenario instead (or use
// RunSweepParallelOpts), which skips the expensive world rebuild.
func NewDataset(cfg Config) *Dataset {
	if cfg.TargetUsers == 0 {
		cfg = DefaultConfig()
	}
	return NewWorld(cfg).Instantiate(cfg)
}

// DayConsumer receives one simulated day of traces, and KPIConsumer one
// day of per-cell KPI records. The slices are only valid for the
// duration of the call — the driver and the replays reuse day buffers —
// so implementations must copy anything they keep.
type (
	DayConsumer = stream.TraceConsumer
	KPIConsumer = stream.KPIConsumer
)

// Results bundles the analyzers most figures share; RunStandard fills it
// in one pass over the simulation.
type Results struct {
	Dataset  *Dataset
	Mobility *core.MobilityAnalyzer
	KPI      *core.KPIAnalyzer
	Homes    map[popsim.UserID]core.Home
	Matrix   *core.MobilityMatrix
}

// RunStandard executes the canonical full pipeline on a fresh world:
// home detection over February, then mobility metrics, the Inner-London
// mobility matrix (with the cohort chosen by *detected* homes, as in
// the paper) and the KPI analysis over the study window.
func RunStandard(cfg Config) *Results {
	return RunStandardOn(NewDataset(cfg))
}

// RunStandardOn is RunStandard over an already-instantiated stack
// (e.g. one of several scenarios bound to a shared World).
//
// It runs the simulation twice: a February-only pass to detect homes
// (so the matrix cohort exists before the study window starts), then the
// study window. Both passes are deterministic and share the same per-day
// streams, so the traces are identical across passes. Both run on the
// study driver with GOMAXPROCS producers and one more day live
// (stream.Config.Buffer 1); a pipeline panic is re-raised here.
func RunStandardOn(d *Dataset) *Results {
	r, err := runOn(context.Background(), d, stream.Config{Buffer: 1})
	if err != nil {
		panic(err)
	}
	return r
}

// newResults binds a fresh result set to d over the detected homes: the
// mobility analyzer, the Inner-London mobility matrix (its cohort chosen
// by *detected* home, as in the paper) and, when d has a traffic engine,
// the KPI analyzer.
func newResults(d *Dataset, homes homesMap) *Results {
	inner := d.Model.InnerLondon()
	var cohort []popsim.UserID
	for uid, h := range homes {
		if h.County == inner.ID {
			cohort = append(cohort, uid)
		}
	}
	r := &Results{
		Dataset:  d,
		Homes:    homes,
		Mobility: core.NewMobilityAnalyzer(d.Pop, d.Config.TopN),
		Matrix:   core.NewMobilityMatrix(d.Pop, inner.ID, cohort, d.Config.TopN),
	}
	if d.Engine != nil {
		r.KPI = core.NewKPIAnalyzer(d.Topology)
	}
	return r
}
