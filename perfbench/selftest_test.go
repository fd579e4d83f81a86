package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the self-test checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSpecMatchesProgram pins BENCHMARK.json to the metrics and
// workloads the program implements, and every workload to a pinned
// digest.
func TestSpecMatchesProgram(t *testing.T) {
	spec := readSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	p, err := loadPinned()
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
		if p.Digests[w.Name] == "" {
			t.Errorf("workload %s has no pinned digest", w.Name)
		}
	}
	check := func(kind string, got []metricDef, want []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		if len(got) != len(want) {
			t.Errorf("%s: program has %d metrics, BENCHMARK.json %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s %d: program %s/%s, BENCHMARK.json %s/%s", kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer(), spec.PerLayer)
}

// TestWorkloadsTiny runs every workload at 500 users and a three-day
// stream window, untraced and traced: every operation must succeed,
// every metric must be emitted with its unit, and traced operations
// must reproduce the untraced digest.
func TestWorkloadsTiny(t *testing.T) {
	spec := readSpec(t)
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			sc := scale{Users: 500}
			if wl.scale.Days > 0 {
				sc.Days = 3
			}
			digests := map[bool]string{}
			for _, trace := range []bool{false, true} {
				rc := runConfig{wl: wl, sc: sc, seed: 7, trace: trace, out: t.TempDir(), minOps: 1}
				if trace {
					rc.minOps = 2 // one untraced, one traced
				}
				rep, err := measure(context.Background(), rc)
				if err != nil {
					t.Fatal(err)
				}
				r := rep.result
				if !r.Correct || r.Failed != 0 || r.Attempted < rc.minOps {
					for _, op := range rep.ops {
						t.Logf("op traced=%v err=%v", op.traced, op.err)
					}
					t.Fatalf("trace=%v: correct=%v attempted=%d failed=%d", trace, r.Correct, r.Attempted, r.Failed)
				}
				for _, op := range rep.ops {
					if d, ok := digests[op.traced]; ok && d != op.out.digest {
						t.Errorf("traced=%v digests differ: %s, %s", op.traced, d, op.out.digest)
					}
					digests[op.traced] = op.out.digest
				}
				want := spec.EndToEnd
				if trace {
					want = spec.PerLayer
				}
				if len(r.Metrics) != len(want) {
					t.Errorf("trace=%v: %d metrics emitted, BENCHMARK.json names %d", trace, len(r.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := r.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("trace=%v: metric %s emitted=%v unit %q, want %q", trace, m.Name, ok, got.Unit, m.Unit)
					}
				}
				if !trace {
					for _, name := range []string{"setup_s", "run_s", "day_ms_p50", "day_ms_p90", "peak_rss_mb"} {
						if r.Metrics[name].Value <= 0 {
							t.Errorf("%s = %v, want > 0", name, r.Metrics[name].Value)
						}
					}
				} else if c := r.Metrics["trace.coverage"].Value; c < 0.9 {
					t.Errorf("trace.coverage = %.3f, want >= 0.9", c)
				}
			}
			if digests[false] != digests[true] {
				t.Errorf("traced digest %s, untraced %s", digests[true], digests[false])
			}
		})
	}
}
