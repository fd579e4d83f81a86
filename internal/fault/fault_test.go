package fault

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestNilInjectorIsDisabled(t *testing.T) {
	var i *Injector
	if err := i.Fire(ShardTask, 3); err != nil {
		t.Fatalf("nil injector fired: %v", err)
	}
	if i.Fired(ShardTask) != 0 {
		t.Fatal("nil injector counts fires")
	}
	if i.Rules() != nil {
		t.Fatal("nil injector has rules")
	}
}

func TestFireError(t *testing.T) {
	i := New(Rule{Site: MergeDay, Kind: KindError, Key: 7})
	if err := i.Fire(MergeDay, 6); err != nil {
		t.Fatalf("non-matching key fired: %v", err)
	}
	if err := i.Fire(ShardTask, 7); err != nil {
		t.Fatalf("non-matching site fired: %v", err)
	}
	err := i.Fire(MergeDay, 7)
	var fe *Error
	if !errors.As(err, &fe) || fe.Site != MergeDay || fe.Key != 7 {
		t.Fatalf("want *Error{merge,7}, got %v", err)
	}
	if !IsInjected(err) {
		t.Fatal("IsInjected false for injected error")
	}
	if got := i.Fired(MergeDay); got != 1 {
		t.Fatalf("Fired = %d, want 1", got)
	}
}

func TestFirePanic(t *testing.T) {
	i := New(Rule{Site: ProduceDay, Kind: KindPanic, Key: -1})
	defer func() {
		v := recover()
		pv, ok := v.(*PanicValue)
		if !ok {
			t.Fatalf("panic value %T, want *PanicValue", v)
		}
		if pv.Site != ProduceDay || pv.Key != 12 {
			t.Fatalf("panic context %+v", pv)
		}
	}()
	i.Fire(ProduceDay, 12)
	t.Fatal("rule did not panic")
}

func TestFireDelayContinuesMatching(t *testing.T) {
	// A delay stacked before an error at the same site: Fire sleeps,
	// keeps scanning, and still returns the error.
	i := New(
		Rule{Site: FeedRead, Kind: KindDelay, Key: 0, Delay: time.Millisecond},
		Rule{Site: FeedRead, Kind: KindError, Key: 0},
	)
	start := time.Now()
	err := i.Fire(FeedRead, 0)
	if !IsInjected(err) {
		t.Fatalf("error rule after delay did not fire: %v", err)
	}
	if time.Since(start) < time.Millisecond {
		t.Error("delay rule did not sleep")
	}
	if got := i.Fired(FeedRead); got != 2 {
		t.Errorf("Fired = %d, want 2 (delay + error)", got)
	}
}

func TestAnyKeyMatches(t *testing.T) {
	i := New(Rule{Site: SweepRun, Kind: KindError, Key: -1})
	for _, k := range []int64{0, 1, 99} {
		if err := i.Fire(SweepRun, k); !IsInjected(err) {
			t.Fatalf("Key=-1 did not match key %d: %v", k, err)
		}
	}
}

func TestScheduleDeterministic(t *testing.T) {
	sites, kinds := Sites(), []Kind{KindError, KindDelay}
	a := Schedule(42, sites, kinds, 30, 8)
	b := Schedule(42, sites, kinds, 30, 8)
	if !reflect.DeepEqual(a.Rules(), b.Rules()) {
		t.Fatal("same seed produced different schedules")
	}
	c := Schedule(43, sites, kinds, 30, 8)
	if reflect.DeepEqual(a.Rules(), c.Rules()) {
		t.Fatal("different seeds produced identical schedules (suspicious)")
	}
	for _, r := range a.Rules() {
		if r.Key < 0 || r.Key >= 30 {
			t.Fatalf("scheduled key %d out of [0,30)", r.Key)
		}
	}
}

func TestParseSpec(t *testing.T) {
	i, err := ParseSpec("")
	if err != nil || i != nil {
		t.Fatalf("empty spec: injector=%v err=%v, want nil/nil", i, err)
	}

	i, err = ParseSpec("stream.produce:panic:3")
	if err != nil {
		t.Fatal(err)
	}
	want := []Rule{{Site: ProduceDay, Kind: KindPanic, Key: 3}}
	if !reflect.DeepEqual(i.Rules(), want) {
		t.Fatalf("rules = %+v, want %+v", i.Rules(), want)
	}

	i, err = ParseSpec(" feed.read:error:2 , stream.shard:delay:-1:20ms ")
	if err != nil {
		t.Fatal(err)
	}
	want = []Rule{
		{Site: FeedRead, Kind: KindError, Key: 2},
		{Site: ShardTask, Kind: KindDelay, Key: -1, Delay: 20 * time.Millisecond},
	}
	if !reflect.DeepEqual(i.Rules(), want) {
		t.Fatalf("rules = %+v, want %+v", i.Rules(), want)
	}

	for _, bad := range []string{
		"stream.shard",                  // too few fields
		"stream.shard:error",            // too few fields
		"nosuch.site:error:0",           // unknown site
		"stream.shard:explode:0",        // unknown kind
		"stream.shard:error:x",          // bad key
		"stream.shard:error:0:5ms",      // duration on a non-delay rule
		"stream.shard:delay:0:fast",     // bad duration
		"stream.shard:error:0:5ms:more", // too many fields
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}

func TestKindString(t *testing.T) {
	if KindError.String() != "error" || KindPanic.String() != "panic" || KindDelay.String() != "delay" {
		t.Fatal("Kind.String mismatch")
	}
	if Kind(9).String() != "kind(9)" {
		t.Fatalf("unknown kind renders %q", Kind(9).String())
	}
}

// FuzzParseSpec holds the -fault flag decoder to its contract on
// arbitrary input: it never panics, blank input is the disabled (nil)
// injector, and every accepted spec re-rendered from its rules as
// site:kind:key[:delay] parses back to identical rules.
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		"",
		"  ",
		"stream.produce:panic:3",
		" feed.read:error:2 , stream.shard:delay:-1:20ms ",
		"sweep.run:error:+7",
		"stream.merge:delay:0:0s",
		"stream.shard:delay:5:-3ms",
		"stream.shard:error:0:5ms",
		"nosuch.site:error:0",
		",",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		inj, err := ParseSpec(spec)
		if strings.TrimSpace(spec) == "" {
			if inj != nil || err != nil {
				t.Fatalf("blank spec %q: injector=%v err=%v, want nil/nil", spec, inj, err)
			}
			return
		}
		if err != nil {
			if inj != nil {
				t.Fatalf("spec %q: error %v with a non-nil injector", spec, err)
			}
			return
		}
		rules := inj.Rules()
		parts := make([]string, len(rules))
		for i, r := range rules {
			parts[i] = fmt.Sprintf("%s:%s:%d", r.Site, r.Kind, r.Key)
			if r.Delay != 0 {
				parts[i] += ":" + r.Delay.String()
			}
		}
		again, err := ParseSpec(strings.Join(parts, ","))
		if err != nil {
			t.Fatalf("spec %q re-rendered as %q: %v", spec, strings.Join(parts, ","), err)
		}
		if !reflect.DeepEqual(again.Rules(), rules) {
			t.Fatalf("spec %q: rules %+v re-parse as %+v", spec, rules, again.Rules())
		}
	})
}
