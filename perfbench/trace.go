package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Lanes of a span. Main-lane spans run on the goroutine that drives the
// operation and tile its timeline; worker-lane spans run concurrently on
// pipeline goroutines (shard tasks, feed prefetch, sweep workers) and
// are accounted as busy time, never as wall time.
const (
	laneMain   = 0
	laneWorker = 1
)

// span is one timed call into a layer. Start and End are nanoseconds
// since the tracer's epoch; Parent is the span that caused it (0: none);
// Run is the operation the span belongs to; Shard is the shard index of
// a shard task, -1 otherwise.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Run    int    `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Lane   int    `json:"lane"`
	Shard  int    `json:"shard"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// tracer keeps one traced operation's spans and counts in memory. All
// methods are safe for concurrent use. A nil *tracer is the untraced
// path; the workloads never call it then.
type tracer struct {
	run   int
	epoch time.Time

	mu     sync.Mutex
	spans  []span
	counts map[string]float64

	// root is the phase span (setup or run) new main-lane spans nest
	// under; stage is the open shard-stage span of the current stream
	// day, read by shard tasks.
	root  int32
	stage atomic.Int32
}

func newTracer(run int, epoch time.Time) *tracer {
	return &tracer{run: run, epoch: epoch, counts: map[string]float64{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// open starts a span and returns its ID.
func (t *tracer) open(name string, parent int32, lane, shard int) int32 {
	start := t.now()
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run, Name: name, Start: start, End: -1, Lane: lane, Shard: shard})
	t.mu.Unlock()
	return id
}

// close ends an open span.
func (t *tracer) close(id int32) {
	end := t.now()
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// since records a span that started at start and ends now.
func (t *tracer) since(name string, parent int32, lane int, start int64) {
	end := t.now()
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run, Name: name, Start: start, End: end, Lane: lane, Shard: -1})
	t.mu.Unlock()
}

// do runs f inside a main-lane span under the root.
func (t *tracer) do(name string, f func()) {
	id := t.open(name, t.root, laneMain, -1)
	f()
	t.close(id)
}

// add bumps a count recorded at a layer boundary.
func (t *tracer) add(name string, v float64) {
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// set records a count measured once per operation.
func (t *tracer) set(name string, v float64) {
	t.mu.Lock()
	t.counts[name] = v
	t.mu.Unlock()
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by main-lane children. Worker-lane children
// run concurrently with their parent and do not reduce it.
func selfTimes(spans []span) []int64 {
	kids := make(map[int32][][2]int64)
	for i := range spans {
		s := &spans[i]
		if s.Parent != 0 && s.Lane == laneMain {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i := range spans {
		s := &spans[i]
		self[i] = s.dur() - covered(kids[s.ID], s.Start, s.End)
	}
	return self
}

// covered returns the length of the union of the intervals, clipped to
// [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	curLo, curHi := int64(-1), int64(-1)
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if b <= a {
			continue
		}
		if a > curHi {
			total += curHi - curLo
			curLo, curHi = a, b
		} else if b > curHi {
			curHi = b
		}
	}
	return total + curHi - curLo
}

// layerTimes folds an operation's spans into per-layer milliseconds:
// main-lane spans contribute their self time under their own name,
// worker-lane spans their full duration (busy time); the phase spans
// themselves are skipped. coverage is the share of the root span's wall
// time that falls inside a layer span.
func layerTimes(spans []span, root int32) (ms map[string]float64, coverage float64) {
	self := selfTimes(spans)
	ms = map[string]float64{}
	for i := range spans {
		s := &spans[i]
		if s.Parent == 0 {
			continue
		}
		if s.Lane == laneMain {
			ms[s.Name] += float64(self[i]) / 1e6
		} else {
			ms[s.Name] += float64(s.dur()) / 1e6
		}
	}
	r := &spans[root-1]
	if r.dur() > 0 {
		coverage = 1 - float64(self[root-1])/float64(r.dur())
	}
	return ms, coverage
}

// shardSkew returns the median over stream days of the slowest shard's
// busy time divided by the mean shard busy time; a shard's busy time is
// the sum of its shard tasks across every sharded stage of the day.
func shardSkew(spans []span, stageName string) float64 {
	stages := map[int32]bool{}
	for i := range spans {
		if spans[i].Name == stageName {
			stages[spans[i].ID] = true
		}
	}
	perDay := map[int32]map[int]int64{}
	for i := range spans {
		s := &spans[i]
		if s.Shard < 0 || !stages[s.Parent] {
			continue
		}
		if perDay[s.Parent] == nil {
			perDay[s.Parent] = map[int]int64{}
		}
		perDay[s.Parent][s.Shard] += s.dur()
	}
	var skews []float64
	for _, shards := range perDay {
		var sum, top int64
		for _, d := range shards {
			sum += d
			top = max(top, d)
		}
		if sum > 0 {
			skews = append(skews, float64(top)*float64(len(shards))/float64(sum))
		}
	}
	return quantile(skews, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}
