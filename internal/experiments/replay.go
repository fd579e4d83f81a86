package experiments

import (
	"fmt"
	"io"

	"repro/internal/feeds"
	"repro/internal/timegrid"
)

// ReplayTraces streams a persisted trace feed (written by
// feeds.TraceWriter, e.g. `mnosim -raw`) through the given consumers,
// exactly as the serial study loop streams live simulation output. The feed must
// come from a simulation built with the same seed, scale and topology
// as the dataset the consumers were constructed against — feeds carry
// tower and user IDs, which are only meaningful relative to that stack.
//
// It returns the number of days replayed.
func ReplayTraces(r *feeds.TraceReader, consumers []DayConsumer) (int, error) {
	days := 0
	for {
		day, traces, err := r.ReadDay()
		if err == io.EOF {
			return days, nil
		}
		if err != nil {
			return days, fmt.Errorf("experiments: replaying traces: %w", err)
		}
		if day < 0 || day >= timegrid.SimDays {
			return days, fmt.Errorf("experiments: trace feed day %d outside the simulated window", day)
		}
		for _, c := range consumers {
			c.ConsumeDay(day, traces)
		}
		days++
	}
}

// ReplayKPI streams a persisted per-cell KPI feed through the given
// consumers. The same provenance caveat as ReplayTraces applies: cell
// IDs must come from the same topology build.
func ReplayKPI(r *feeds.KPIReader, consumers []KPIConsumer) (int, error) {
	days := 0
	for {
		day, cells, err := r.ReadDay()
		if err == io.EOF {
			return days, nil
		}
		if err != nil {
			return days, fmt.Errorf("experiments: replaying KPIs: %w", err)
		}
		if day < 0 || day >= timegrid.SimDays {
			return days, fmt.Errorf("experiments: KPI feed day %d outside the simulated window", day)
		}
		for _, c := range consumers {
			c.ConsumeDay(day, cells)
		}
		days++
	}
}
