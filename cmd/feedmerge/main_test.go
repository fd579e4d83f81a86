package main

import (
	"path/filepath"
	"testing"

	"repro/cmd/internal/cli"
	"repro/internal/partial"
	"repro/internal/stream"
	"repro/internal/timegrid"
	"repro/internal/traffic"
)

// writePartial writes a one-day unpartitioned partial whose KPI sketches
// each hold three observations, after edit was applied to it, and
// returns its path.
func writePartial(t *testing.T, edit func(p *partial.Partial)) string {
	t.Helper()
	q := stream.NewQSketch()
	for _, x := range []float64{1, 2, 3} {
		q.Add(x)
	}
	d := partial.Day{Day: 40, Users: []uint32{1}, Entropy: []float64{1}, Gyration: []float64{2}, Cells: 3}
	for m := 0; m < traffic.NumMetrics; m++ {
		d.Sketches = append(d.Sketches, q.State())
	}
	p := &partial.Partial{Version: partial.Version, Users: 10, Seed: 1, Days: []partial.Day{d}}
	edit(p)
	path := filepath.Join(t.TempDir(), "part.json")
	if err := partial.WriteFile(path, p); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestMergeRejectsInconsistentPartials pins that feedmerge exits
// non-zero, printing nothing, on a partial no replay could have written:
// sketches with a negative bin or underflow count or a count that
// disagrees with their bins, and days outside the simulated window.
// Merged, such a partial prints 1e12 medians or far-future dates.
func TestMergeRejectsInconsistentPartials(t *testing.T) {
	if err := run([]string{writePartial(t, func(*partial.Partial) {})}, ""); err != nil {
		t.Fatalf("valid partial rejected: %v", err)
	}
	for _, tc := range []struct {
		name string
		edit func(p *partial.Partial)
	}{
		{"negative sketch bin", func(p *partial.Partial) {
			st := &p.Days[0].Sketches[0]
			st.Bins[0], st.Count = -1, st.Count-1
		}},
		{"negative sketch underflow", func(p *partial.Partial) {
			st := &p.Days[0].Sketches[0]
			st.Under, st.Count = -1, st.Count-1
		}},
		{"sketch count disagrees with bins", func(p *partial.Partial) { p.Days[0].Sketches[0].Count += 7 }},
		{"day past the window", func(p *partial.Partial) { p.Days[0].Day = 99_999_999 }},
		{"negative day", func(p *partial.Partial) { p.Days[0].Day = -1 }},
		{"day at the window end", func(p *partial.Partial) { p.Days[0].Day = timegrid.SimDays }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := run([]string{writePartial(t, tc.edit)}, "")
			if code := cli.ExitCode(err); code == cli.CodeOK {
				t.Fatal("inconsistent partial merged with exit 0")
			}
		})
	}
}
