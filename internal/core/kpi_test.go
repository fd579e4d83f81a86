package core

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/census"
	"repro/internal/pandemic"
	"repro/internal/timegrid"
	"repro/internal/traffic"
)

func TestNationalBandOrdered(t *testing.T) {
	r := fixtureResults(t)
	for _, m := range []traffic.Metric{traffic.DLVolume, traffic.ConnectedUsers, traffic.VoiceVolume} {
		p10, p50, p90 := r.KPI.NationalBand(m)
		for d := 0; d < timegrid.StudyDays; d++ {
			if !(p10.Values[d] <= p50.Values[d] && p50.Values[d] <= p90.Values[d]) {
				t.Fatalf("%v day %d: band not ordered (%v, %v, %v)",
					m, d, p10.Values[d], p50.Values[d], p90.Values[d])
			}
		}
		// A wide distribution is expected in a heterogeneous estate.
		if p90.Values[2] <= p10.Values[2] {
			t.Errorf("%v: degenerate band", m)
		}
	}
}

func TestBandStability(t *testing.T) {
	r := fixtureResults(t)
	// The §4.1 claim: the cross-cell distribution shape is roughly
	// preserved through the lockdown — the relative spread changes by
	// well under a factor of two.
	for _, wk := range []timegrid.Week{13, 16, 19} {
		s := r.KPI.BandStability(traffic.DLVolume, wk)
		if s < -0.6 || s > 1.0 {
			t.Errorf("DL volume band spread change at %v = %v", wk, s)
		}
	}
	// Baseline week against itself is exactly zero.
	if got := r.KPI.BandStability(traffic.DLVolume, timegrid.BaselineWeek); got != 0 {
		t.Errorf("self stability = %v", got)
	}
}

// kpiDays runs the KPI engine over a few study days of the shared
// fixture: a baseline day, the voice surge and the lockdown.
func kpiDays(t *testing.T) ([]timegrid.SimDay, [][]traffic.CellDay) {
	t.Helper()
	r := fixtureResults(t)
	eng := traffic.NewEngine(r.Dataset.Pop, pandemic.Default(), traffic.DefaultParams(), 1)
	days := []timegrid.SimDay{
		timegrid.SimDay(timegrid.StudyDayOffset + 2),
		timegrid.SimDay(timegrid.StudyDayOffset + 23),
		timegrid.SimDay(timegrid.StudyDayOffset + 40),
	}
	cells := make([][]traffic.CellDay, len(days))
	for i, day := range days {
		cells[i] = eng.Day(day, r.Sim.Day(day))
	}
	return days, cells
}

// TestKPIAnalyzerSteadyStateAllocs pins the copy-free KPI fold: once
// the per-group buckets have grown, ConsumeDay selects every quantile in
// place and performs no heap allocation.
func TestKPIAnalyzerSteadyStateAllocs(t *testing.T) {
	r := fixtureResults(t)
	days, cells := kpiDays(t)
	k := NewKPIAnalyzer(r.Dataset.Topology)
	for i, day := range days {
		k.ConsumeDay(day, cells[i]) // warm
	}
	i := 0
	allocs := testing.AllocsPerRun(6, func() {
		k.ConsumeDay(days[i%len(days)], cells[i%len(days)])
		i++
	})
	if allocs > 0 {
		t.Errorf("KPIAnalyzer.ConsumeDay allocates %.1f times per day in steady state, want 0", allocs)
	}
}

// TestKPIAnalyzerMatchesReference checks every grid entry the fold
// writes — national P10/median/P90 and the county, cluster and district
// medians — bit for bit against copy + sort.Float64s + closed-form
// interpolation over the day's cells of each group.
func TestKPIAnalyzerMatchesReference(t *testing.T) {
	r := fixtureResults(t)
	topo := r.Dataset.Topology
	model := r.Dataset.Model
	days, cells := kpiDays(t)
	k := NewKPIAnalyzer(topo)
	for i, day := range days {
		k.ConsumeDay(day, cells[i])
	}
	ref := func(xs []float64, p float64) float64 {
		cp := append([]float64(nil), xs...)
		sort.Float64s(cp)
		if len(cp) == 1 {
			return cp[0]
		}
		rank := p / 100 * float64(len(cp)-1)
		lo, hi := int(math.Floor(rank)), int(math.Ceil(rank))
		frac := rank - float64(lo)
		if lo == hi {
			return cp[lo]
		}
		return cp[lo]*(1-frac) + cp[hi]*frac
	}
	check := func(what string, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: fold %v, reference %v", what, got, want)
		}
	}
	for i, day := range days {
		sd, _ := day.ToStudyDay()
		for m := 0; m < traffic.NumMetrics; m++ {
			var nat []float64
			county := map[census.CountyID][]float64{}
			cluster := map[census.Cluster][]float64{}
			district := map[census.DistrictID][]float64{}
			for _, c := range cells[i] {
				v := c.Values[m]
				d := model.District(topo.DistrictOfCell(c.Cell))
				nat = append(nat, v)
				county[d.County] = append(county[d.County], v)
				cluster[d.Cluster] = append(cluster[d.Cluster], v)
				district[d.ID] = append(district[d.ID], v)
			}
			check(fmt.Sprintf("day %d metric %d P10", sd, m), k.natP10.v[m][sd], ref(nat, 10))
			check(fmt.Sprintf("day %d metric %d national", sd, m), k.national.v[m][sd], ref(nat, 50))
			check(fmt.Sprintf("day %d metric %d P90", sd, m), k.natP90.v[m][sd], ref(nat, 90))
			for g, xs := range county {
				check(fmt.Sprintf("day %d metric %d county %d", sd, m, g), k.byCounty[g].v[m][sd], ref(xs, 50))
			}
			for g, xs := range cluster {
				check(fmt.Sprintf("day %d metric %d cluster %d", sd, m, g), k.byCluster[g].v[m][sd], ref(xs, 50))
			}
			for g, xs := range district {
				check(fmt.Sprintf("day %d metric %d district %d", sd, m, g), k.byDistrict[g].v[m][sd], ref(xs, 50))
			}
			if len(county) < 2 || len(district) < 2 {
				t.Fatalf("day %d: only %d counties, %d districts carry cells", sd, len(county), len(district))
			}
		}
	}
}
