package main

import "testing"

func TestCovered(t *testing.T) {
	for _, c := range []struct {
		iv     [][2]int64
		lo, hi int64
		want   int64
	}{
		{nil, 0, 10, 0},
		{[][2]int64{{2, 4}}, 0, 10, 2},
		{[][2]int64{{2, 4}, {3, 6}, {8, 9}}, 0, 10, 5},
		{[][2]int64{{8, 9}, {2, 4}, {3, 6}}, 0, 10, 5},
		{[][2]int64{{-5, 3}, {9, 20}}, 0, 10, 4},
		{[][2]int64{{0, 10}, {1, 2}}, 0, 10, 10},
	} {
		if got := covered(c.iv, c.lo, c.hi); got != c.want {
			t.Errorf("covered(%v, %d, %d) = %d, want %d", c.iv, c.lo, c.hi, got, c.want)
		}
	}
}

// TestLayerTimes checks self times on a run with a nested main-lane
// day and concurrent worker-lane shard tasks.
func TestLayerTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "run", Start: 0, End: 100, Lane: laneMain, Shard: -1},
		{ID: 2, Parent: 1, Name: "stream.source_wait", Start: 0, End: 20, Lane: laneMain, Shard: -1},
		{ID: 3, Parent: 1, Name: "stream.day", Start: 20, End: 90, Lane: laneMain, Shard: -1},
		{ID: 4, Parent: 3, Name: "stream.shard_stage", Start: 25, End: 75, Lane: laneMain, Shard: -1},
		{ID: 5, Parent: 4, Name: "signaling.shard", Start: 25, End: 70, Lane: laneWorker, Shard: 0},
		{ID: 6, Parent: 4, Name: "signaling.shard", Start: 26, End: 50, Lane: laneWorker, Shard: 1},
		{ID: 7, Parent: 3, Name: "stream.merge", Start: 75, End: 85, Lane: laneMain, Shard: -1},
	}
	ms, coverage := layerTimes(spans, 1)
	want := map[string]float64{
		"stream.source_wait": 20e-6, "stream.day": 10e-6, "stream.shard_stage": 50e-6,
		"signaling.shard": 69e-6, "stream.merge": 10e-6,
	}
	for k, v := range want {
		if d := ms[k] - v; d > 1e-12 || d < -1e-12 {
			t.Errorf("%s = %g ms, want %g", k, ms[k], v)
		}
	}
	if coverage != 0.9 {
		t.Errorf("coverage = %g, want 0.9", coverage)
	}
	if got, want := shardSkew(spans, "stream.shard_stage"), 45.0*2/69; got != want {
		t.Errorf("shard skew = %g, want %g", got, want)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for q, want := range map[float64]float64{0: 1, 0.5: 2.5, 1: 4, 0.9: 3.7} {
		if got := quantile(xs, q); got-want > 1e-12 || want-got > 1e-12 {
			t.Errorf("quantile(%v) = %g, want %g", q, got, want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of an empty sample is not 0")
	}
}
