package traffic

import (
	"math"
	"sort"
	"testing"

	"repro/internal/mobsim"
	"repro/internal/pandemic"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/timegrid"
)

// This file holds the independent per-cell-hour oracle of the engine's
// fused reduction: the hourly KPI records computed metric by metric, one
// cell-hour at a time, exactly as §2.4 describes them, before any daily
// median is taken. The production reduce (reduceAppend) never stages
// these records; the tests below rebuild every daily median from them.

// CellHour is the raw hourly KPI record of one 4G cell, before the §2.4
// daily-median reduction. A zero DLThroughput marks an hour with no
// active users (throughput undefined).
type CellHour struct {
	Cell   radio.CellID
	Hour   int
	Values [NumMetrics]float64
}

// DayHourly runs the KPI model at hourly resolution, emitting one record
// per (active 4G cell, hour). Records of one cell arrive consecutively,
// hours ascending; the record handed to emit is reused.
func (e *Engine) DayHourly(day timegrid.SimDay, traces []mobsim.DayTrace, emit func(*CellHour)) {
	f := e.dayFactorsFor(day)
	e.accumulate(day, &f, traces)
	e.reduce(day, &f, emit)
}

// reduce turns the tile into per-cell-hour KPI records, emitting cells
// in tower order, hours ascending.
func (e *Engine) reduce(day timegrid.SimDay, f *dayFactors, emit func(*CellHour)) {
	p := &e.params
	congestionLoss := e.congestion(day)
	const baselineLoadNorm = 0.35
	var ch CellHour

	for ti := range e.topo.Towers {
		tower := &e.topo.Towers[ti]
		if !tower.ActiveOn(day) {
			continue
		}
		cells := e.topo.Cells4GOfTower(tower.ID)
		if len(cells) == 0 {
			continue
		}
		hours := e.tile.hours(ti)

		var weights []float64
		var wsum float64
		for _, cid := range cells {
			wsrc := rng.Stream2(e.seed, uint64(cid), uint64(day))
			w := 0.75 + 0.5*wsrc.Float64()
			weights = append(weights, w)
			wsum += w
		}

		for ci, cid := range cells {
			share := weights[ci] / wsum
			csrc := rng.Stream2(e.seed, uint64(cid)^0xCE11, uint64(day))
			thrJitter := 0.92 + 0.16*csrc.Float64()

			for h := 0; h < timegrid.HoursPerDay; h++ {
				a := &hours[h]
				pres := a.presSec / 3600 * share * e.subsPerAgent
				active := a.activeSec / 3600 * share * e.subsPerAgent
				dl := a.dlMB * share * e.subsPerAgent
				ul := a.ulMB * share * e.subsPerAgent
				vmin := a.voiceMin * share * e.subsPerAgent
				vMB := vmin * p.VoiceMBPerMin

				load := p.LoadOverhead + (dl+ul+2*vMB)/p.CellCapacityMBPerHour
				if load > 1 {
					load = 1
				}
				loadNorm := load / baselineLoadNorm

				ch.Cell = cid
				ch.Hour = h
				ch.Values[DLVolume] = dl + vMB
				ch.Values[ULVolume] = ul + vMB
				ch.Values[DLActiveUsers] = active
				ch.Values[RadioLoad] = load
				ch.Values[ConnectedUsers] = pres
				ch.Values[VoiceVolume] = vMB
				ch.Values[VoiceUsers] = vmin / 60
				ch.Values[VoiceULLoss] = p.BaseULLossPct * (0.35 + 0.65*loadNorm)
				ch.Values[VoiceDLLoss] = p.BaseDLLossPct*(0.35+0.65*loadNorm) + congestionLoss[h]
				ch.Values[DLThroughput] = 0
				if active > 0.01 {
					ch.Values[DLThroughput] = p.BaseThroughputMbps * f.throttleF * thrJitter * (1 - p.CongestionK*load*load)
				}
				emit(&ch)
			}
		}
	}
}

// medianInPlace returns the median of xs (0 when empty), sorting it in
// place: the sort reference every select is compared against.
func medianInPlace(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// dailyFromHourly reduces a stream of hourly records to per-cell daily
// records with the given median, metric by metric: the §2.4 reduction
// with DLThroughput taken over the hours with active users only.
func dailyFromHourly(hourly func(emit func(*CellHour)), median func([]float64) float64) []CellDay {
	var out []CellDay
	var vals [NumMetrics][]float64
	flush := func() {
		if len(out) == 0 {
			return
		}
		cd := &out[len(out)-1]
		for m := range vals {
			cd.Values[m] = median(vals[m])
			vals[m] = vals[m][:0]
		}
	}
	hourly(func(ch *CellHour) {
		if len(out) == 0 || out[len(out)-1].Cell != ch.Cell {
			flush()
			out = append(out, CellDay{Cell: ch.Cell})
		}
		for m := 0; m < NumMetrics; m++ {
			if m == int(DLThroughput) && ch.Values[m] == 0 {
				continue // hour without active users: throughput undefined
			}
			vals[m] = append(vals[m], ch.Values[m])
		}
	})
	flush()
	return out
}

// sameBits fails the test at the first record whose cell or metric bits
// differ between got and want.
func sameBits(t *testing.T, got, want []CellDay) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("fused reduce returned %d cells, oracle %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Cell != want[i].Cell {
			t.Fatalf("record %d: cell %d, oracle cell %d", i, got[i].Cell, want[i].Cell)
		}
		for m := 0; m < NumMetrics; m++ {
			if g, w := got[i].Values[m], want[i].Values[m]; math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("cell %d metric %v: fused %v (%#x), oracle %v (%#x)",
					got[i].Cell, Metric(m), g, math.Float64bits(g), w, math.Float64bits(w))
			}
		}
	}
}

// TestDayHourlyConsistentWithDay pins the fused, rank-sharing reduction
// bit for bit to the per-cell-hour oracle plus the sort reference, over
// the regimes that exercise its branches: pre-study February, the
// lockdown trough, interconnect congestion, throttling, sites not yet on
// air, and towers nobody visited (read from the shared zero tile).
func TestDayHourlyConsistentWithDay(t *testing.T) {
	pop, _, _ := fixture(t)
	voiceSurge, err := scenario.Load(scenario.VoiceSurge)
	if err != nil {
		t.Fatal(err)
	}
	study := func(d int) timegrid.SimDay { return timegrid.SimDay(timegrid.StudyDayOffset + d) }
	cases := []struct {
		name string
		scen *pandemic.Scenario
		day  timegrid.SimDay
		// holds checks, after the day ran, that it exercises its regime.
		holds func(e *Engine, day timegrid.SimDay) bool
	}{
		{"february", pandemic.Default(), 5, func(_ *Engine, day timegrid.SimDay) bool {
			_, inStudy := day.ToStudyDay()
			return !inStudy
		}},
		{"lockdown-trough", pandemic.Default(), study(38), func(e *Engine, day timegrid.SimDay) bool {
			sd, _ := day.ToStudyDay()
			return e.scen.Activity(sd) < 0.6
		}},
		{"voice-surge-congested", voiceSurge, study(17), func(e *Engine, day timegrid.SimDay) bool {
			loss := e.congestion(day)
			for _, l := range loss {
				if l > 0 {
					return true
				}
			}
			return false
		}},
		{"throttled", pandemic.Default(), study(40), func(e *Engine, day timegrid.SimDay) bool {
			sd, _ := day.ToStudyDay()
			return e.scen.ThrottleFactor(sd) < 1
		}},
		{"sites-not-live", pandemic.Default(), 1, func(e *Engine, day timegrid.SimDay) bool {
			for i := range e.topo.Towers {
				if !e.topo.Towers[i].ActiveOn(day) {
					return true
				}
			}
			return false
		}},
		{"untouched-towers", pandemic.Default(), study(30), func(e *Engine, day timegrid.SimDay) bool {
			for i := range e.topo.Towers {
				if e.topo.Towers[i].ActiveOn(day) && e.tile.hours(i) == &zeroTowerDay {
					return true
				}
			}
			return false
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sim := mobsim.New(pop, c.scen, 1)
			eng := NewEngine(pop, c.scen, DefaultParams(), 1)
			traces := sim.Day(c.day)
			want := dailyFromHourly(func(emit func(*CellHour)) {
				eng.DayHourly(c.day, traces, emit)
			}, medianInPlace)
			got := eng.Day(c.day, traces)
			if len(want) == 0 {
				t.Fatal("no cell records")
			}
			if !c.holds(eng, c.day) {
				t.Fatalf("day %d does not exercise the %s regime", c.day, c.name)
			}
			sameBits(t, got, want)
		})
	}
}

// TestRankSharedMediansProperty drives the fused reduction over random
// tower-hour tiles — heavy ties, all-zero rows, untouched towers — and
// random model constants, including a negative loss base that makes
// VoiceULLoss antitone in the load: every rank-shared median must equal
// the per-metric median24 of the hourly oracle, bit for bit.
func TestRankSharedMediansProperty(t *testing.T) {
	_, _, base := fixture(t)
	src := rng.New(7)
	for trial := 0; trial < 12; trial++ {
		e := base.Clone()
		e.subsPerAgent *= 0.5 + 2*src.Float64()
		e.params.VoiceMBPerMin *= 0.5 + src.Float64()
		e.params.BaseULLossPct *= 2*src.Float64() - 1
		day := timegrid.SimDay(timegrid.StudyDayOffset + src.Intn(timegrid.StudyDays))
		// Demand scales that spread the cell load over (LoadOverhead, 1]
		// instead of pinning it at the clamp.
		capAgent := e.params.CellCapacityMBPerHour / e.subsPerAgent
		t.Run("", func(t *testing.T) {
			tile := &e.tile
			tile.beginDay()
			for ti := range e.topo.Towers {
				switch src.Intn(4) {
				case 0: // untouched: reads the zero tile
					continue
				case 1: // touched, all-zero row
					tile.tower(int32(ti))
					continue
				}
				row := tile.tower(int32(ti))
				ties := src.Intn(2) == 0
				for h := range row {
					draw := func(scale float64) float64 {
						if ties {
							return float64(src.Intn(3)) * scale
						}
						return src.Float64() * scale
					}
					row[h] = towerHour{
						presSec:   draw(3600 * 40),
						activeSec: draw(3600 * 8),
						dlMB:      draw(2 * capAgent),
						ulMB:      draw(0.2 * capAgent),
						voiceMin:  draw(0.5 * capAgent / e.params.VoiceMBPerMin),
					}
				}
			}
			f := e.dayFactorsFor(day)
			got := e.reduceAppend(nil, day, &f)
			want := dailyFromHourly(func(emit func(*CellHour)) {
				e.reduce(day, &f, emit)
			}, func(xs []float64) float64 {
				var buf [timegrid.HoursPerDay]float64
				return median24(&buf, copy(buf[:], xs))
			})
			sameBits(t, got, want)
		})
	}
}
