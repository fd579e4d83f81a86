package main

import (
	"repro/internal/stream"
	"repro/internal/timegrid"
)

// streamTrace follows one stream.Engine run from outside the engine.
// The engine's stages are marked by the calls it makes into the wrapped
// source, sharders and the closing serial consumer:
//
//	Next                      stream.source_wait (main lane)
//	Next returns … next Next  stream.day (main lane; self time is the
//	                          engine's partition, dispatch and release)
//	first BeginDay … first EndDay   stream.shard_stage, child of the day
//	first EndDay … summary printed  stream.merge, child of the day
//	ShardDay                  one worker-lane span per shard task,
//	                          child of the day's shard stage
//
// Only the engine goroutine touches day and merge; stage is read by
// shard tasks, which the engine starts after BeginDay and joins before
// EndDay.
type streamTrace struct {
	t          *tracer
	day, merge int32
}

// endDay closes the spans of the day the engine just finished.
func (st *streamTrace) endDay() {
	if st.merge != 0 {
		st.t.close(st.merge)
		st.merge = 0
	}
	if s := st.t.stage.Swap(0); s != 0 {
		st.t.close(s)
	}
	if st.day != 0 {
		st.t.close(st.day)
		st.day = 0
	}
}

func (st *streamTrace) beginStage() {
	if st.t.stage.Load() == 0 {
		st.t.stage.Store(st.t.open("stream.shard_stage", st.day, laneMain, -1))
	}
}

func (st *streamTrace) beginMerge() {
	if s := st.t.stage.Swap(0); s != 0 {
		st.t.close(s)
		st.merge = st.t.open("stream.merge", st.day, laneMain, -1)
	}
}

// endMerge is called by the last serial consumer once the day's summary
// is out.
func (st *streamTrace) endMerge() {
	if st.merge != 0 {
		st.t.close(st.merge)
		st.merge = 0
	}
}

func (st *streamTrace) shard(name string, shard int, f func()) {
	id := st.t.open(name, st.t.stage.Load(), laneWorker, shard)
	f()
	st.t.close(id)
}

func stopInner(src stream.Source) {
	if s, ok := src.(stream.Stopper); ok {
		s.Stop()
	}
}

// waitSource times the engine's wait on its source.
type waitSource struct {
	st  *streamTrace
	src stream.Source
}

func (w *waitSource) Next() (stream.DayBatch, error) {
	w.st.endDay()
	t := w.st.t
	id := t.open("stream.source_wait", t.root, laneMain, -1)
	b, err := w.src.Next()
	t.close(id)
	if err == nil {
		w.st.day = t.open("stream.day", t.root, laneMain, -1)
	}
	return b, err
}

// Stop forwards an early shutdown to the wrapped source.
func (w *waitSource) Stop() { stopInner(w.src) }

// decodeSource times feed decoding on the prefetch goroutine.
type decodeSource struct {
	t   *tracer
	src stream.Source
}

func (d *decodeSource) Next() (stream.DayBatch, error) {
	id := d.t.open("feeds.decode", d.t.root, laneWorker, -1)
	b, err := d.src.Next()
	d.t.close(id)
	return b, err
}

// Stop forwards an early shutdown to the wrapped source.
func (d *decodeSource) Stop() { stopInner(d.src) }

// sharder is the shape shared by stream.TraceSharder, KPISharder and
// EventSharder, over their record type.
type sharder[T any] interface {
	BeginDay(day timegrid.SimDay, recs []T)
	ShardDay(shard int, day timegrid.SimDay, recs []T, idx []int)
	EndDay(day timegrid.SimDay)
}

// tracedSharder marks the shard stage and merge of each day and times
// every shard task under name.
type tracedSharder[T any] struct {
	st   *streamTrace
	name string
	s    sharder[T]
}

func (w tracedSharder[T]) BeginDay(day timegrid.SimDay, recs []T) {
	w.st.beginStage()
	w.s.BeginDay(day, recs)
}

func (w tracedSharder[T]) ShardDay(shard int, day timegrid.SimDay, recs []T, idx []int) {
	w.st.shard(w.name, shard, func() { w.s.ShardDay(shard, day, recs, idx) })
}

func (w tracedSharder[T]) EndDay(day timegrid.SimDay) {
	w.st.beginMerge()
	w.s.EndDay(day)
}
