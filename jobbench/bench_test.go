package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"
)

// TestComposeMatchesPipelineRun runs each workload's first timed spec
// through the traced composition and through pipeline.Run, and through
// the independent checks a timed run makes.
func TestComposeMatchesPipelineRun(t *testing.T) {
	ctx := context.Background()
	for _, w := range workloads {
		_, timed := jobList(w, 1, time.Second)
		spec := timed[0]
		r, b, err := runInProcess(ctx, spec)
		if err != nil {
			t.Fatalf("%s: pipeline.Run: %v", w.name, err)
		}
		tr := &tracer{origin: time.Now()}
		c, err := compose(ctx, spec, tr)
		if err != nil {
			t.Fatalf("%s: compose: %v", w.name, err)
		}
		if err := sameOutcome(c, r); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
		if len(c.ares.Distribution) == 0 || (spec.Compare && c.exp == nil) {
			t.Errorf("%s: composition left no distribution or experiment", w.name)
		}
		if tr.spans[0].Name != "job" || tr.spans[0].EndNs == 0 {
			t.Errorf("%s: first span is %q, not a closed job root", w.name, tr.spans[0].Name)
		}
		if err := checkResult(spec, b); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
		if err := verifySample(ctx, spec, sha256.Sum256(b)); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
	}
}

func TestServiceMatchesInProcess(t *testing.T) {
	w, _ := lookupWorkload("synth-service")
	_, timed := jobList(w, 1, time.Second)
	svc, err := startService(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sj, err := svc.run(timed[0])
	if cerr := svc.close(); cerr != nil {
		t.Fatal(cerr)
	}
	if err != nil {
		t.Fatal(err)
	}
	_, b, err := runInProcess(context.Background(), timed[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sj.result, b) || sj.polls < 1 {
		t.Errorf("service gave %d bytes after %d polls; in-process %d bytes", len(sj.result), sj.polls, len(b))
	}
}

func TestJobListDeterministicAndUnique(t *testing.T) {
	for _, w := range workloads {
		warm1, timed1 := jobList(w, 7, 3*time.Second)
		warm2, timed2 := jobList(w, 7, 3*time.Second)
		if !reflect.DeepEqual(warm1, warm2) || !reflect.DeepEqual(timed1, timed2) {
			t.Errorf("%s: same seed gave different job lists", w.name)
		}
		if len(warm1) != w.warmup || len(timed1) < 3*w.maxRate {
			t.Errorf("%s: %d warm-up and %d timed jobs", w.name, len(warm1), len(timed1))
		}
		seen := map[int64]bool{}
		for _, s := range append(warm1, timed1...) {
			if seen[s.Seed] {
				t.Fatalf("%s: seed %d used twice", w.name, s.Seed)
			}
			seen[s.Seed] = true
		}
		_, other := jobList(w, 8, 3*time.Second)
		if reflect.DeepEqual(timed1, other) {
			t.Errorf("%s: seeds 7 and 8 gave the same job list", w.name)
		}
	}
}

func TestCheckResultInvariants(t *testing.T) {
	good := `{"spec":{"app":"a","seed":3},"predictedCommNs":10,"defaultCommNs":10,"defaultViolations":0}`
	for _, tc := range []struct {
		compare bool
		body    string
		ok      bool
	}{
		{false, good, true},
		{false, `{"spec":{"app":"a","seed":3},"predictedCommNs":12,"defaultCommNs":10}`, false},
		{false, `{"spec":{"app":"a","seed":3},"predictedCommNs":11,"defaultCommNs":10,"defaultViolations":2}`, true},
		{false, `{"spec":{"app":"a","seed":4},"predictedCommNs":1,"defaultCommNs":10}`, false},
		{false, `{"spec":`, false},
		{true, good, false},
		{true, `{"spec":{"app":"a","seed":3},"experiment":{"defaultCommNs":5,"coignCommNs":5,"violations":0}}`, true},
		{true, `{"spec":{"app":"a","seed":3},"experiment":{"defaultCommNs":5,"coignCommNs":7,"violations":0}}`, false},
		{true, `{"spec":{"app":"a","seed":3},"experiment":{"defaultCommNs":5,"coignCommNs":4,"violations":1}}`, false},
	} {
		s := workloads[0].spec(0, 3)
		s.App, s.Compare = "a", tc.compare
		if err := checkResult(s, []byte(tc.body)); (err == nil) != tc.ok {
			t.Errorf("compare=%v %s: err %v, want ok=%v", tc.compare, tc.body, err, tc.ok)
		}
	}
}

func TestUpperTail(t *testing.T) {
	for _, tc := range []struct {
		n       int
		wantIdx int
	}{{200, 179}, {100, 89}, {50, 39}, {11, 0}, {5, 4}} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[tc.n-1-i] = float64(i) // reversed, so upperTail must sort
		}
		if v, _ := upperTail(xs); v != float64(tc.wantIdx) {
			t.Errorf("n=%d: got sample %v, want %d", tc.n, v, tc.wantIdx)
		}
	}
}

// TestMetricNames checks every metric and workload name against the
// benchmark's name rule and against BENCHMARK.json.
func TestMetricNames(t *testing.T) {
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if !valid.MatchString(d.name) || seen[d.name] {
				t.Errorf("metric name %q is invalid or repeated", d.name)
			}
			seen[d.name] = true
		}
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	for i, w := range bench.Workloads {
		if i >= len(workloads) || w.Name != workloads[i].name {
			t.Errorf("BENCHMARK.json workload %d is %q", i, w.Name)
		}
	}
	if len(bench.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bench.Workloads), len(workloads))
	}
	for _, c := range []struct {
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{bench.EndToEnd, endToEnd}, {bench.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Errorf("BENCHMARK.json lists %d metrics, the benchmark reports %d", len(c.json), len(c.defs))
			continue
		}
		for i, m := range c.json {
			if m.Name != c.defs[i].name || m.Unit != c.defs[i].unit {
				t.Errorf("BENCHMARK.json metric %s (%s), benchmark %s (%s)", m.Name, m.Unit, c.defs[i].name, c.defs[i].unit)
			}
		}
	}
}
