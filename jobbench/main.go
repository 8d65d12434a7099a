// Command jobbench is the repository's end-to-end benchmark. It runs
// partitioning jobs — a pipeline.Spec in, canonical result bytes
// (pipeline.MarshalResult) out — in closed loops, one workload per
// process, and prints job latency, throughput, CPU and allocation per
// job; with -trace 1 it runs the traced run instead and prints per-layer
// numbers. The last line of standard output is the result as one JSON
// object. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics of a timed run.
var endToEnd = []metricDef{
	{"job_p50_ms", "ms"},
	{"job_p90_ms", "ms"},
	{"jobs_per_s", "1/s"},
	{"cpu_ms_per_job", "ms"},
	{"alloc_mb_per_job", "MB"},
	{"setup_s", "s"},
}

// perLayer are the metrics of a traced run, each a median over the traced
// jobs unless its name says otherwise.
var perLayer = []metricDef{
	{"scenario.new_app_ms", "ms"},
	{"core.new_ms", "ms"},
	{"binimg.build_image_ms", "ms"},
	{"staticanal.analyze_ms", "ms"},
	{"reach.scan_ms", "ms"},
	{"purity.scan_ms", "ms"},
	{"core.enable_alias_ms", "ms"},
	{"alias.scan_ms", "ms"},
	{"profile.scenarios_ms", "ms"},
	{"profile.alloc_mb", "MB"},
	{"profile.trapped_calls", "count"},
	{"profile.icc_mb", "MB"},
	{"profile.ns_per_call", "ns"},
	{"analysis.analyze_ms", "ms"},
	{"analysis.build_graph_ms", "ms"},
	{"graph.cut_ms", "ms"},
	{"graph.nodes", "count"},
	{"graph.edges", "count"},
	{"dist.run_default_ms", "ms"},
	{"dist.run_coign_ms", "ms"},
	{"dist.run_measured_ms", "ms"},
	{"dist.alloc_mb", "MB"},
	{"dist.relocations", "count"},
	{"service.submit_ms", "ms"},
	{"service.wait_ms", "ms"},
	{"service.overhead_ms", "ms"},
	{"service.polls_per_job", "count"},
	{"service.useful_poll_ratio", "ratio"},
	{"jobqueue.append_ms", "ms"},
	{"jobqueue.lease_ms", "ms"},
	{"jobqueue.finish_ms", "ms"},
	{"jobqueue.journal_kb_per_job", "kB"},
	{"runtime.gc_cycles_per_job", "count"},
	{"static.retained_mb", "MB"},
	{"profile.retained_mb", "MB"},
	{"graph.retained_mb", "MB"},
	{"trace.job_p50_ms", "ms"},
	{"trace.untraced_p50_ms", "ms"},
	{"trace.overhead_ms", "ms"},
	{"trace.span_coverage", "ratio"},
	{"trace.predicted_share", "ratio"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line, plus notes printed before it.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	notes     []string
}

func newReport() *report { return &report{Correct: true, Metrics: map[string]metric{}} }

func (r *report) set(name string, v float64) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				r.Metrics[name] = metric{Value: v, Unit: d.unit}
				return
			}
		}
	}
	panic("jobbench: undeclared metric " + name)
}

// fail counts one failed job.
func (r *report) fail(err error) {
	r.Failed++
	r.Correct = false
	r.notef("FAILED: %v", err)
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// complete checks that the report carries exactly the metrics in defs,
// each a finite number.
func (r *report) complete(defs []metricDef) error {
	if len(r.Metrics) != len(defs) {
		return fmt.Errorf("report has %d metrics, want %d", len(r.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := r.Metrics[d.name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s missing or not finite", d.name)
		}
	}
	return nil
}

func main() {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	name := flag.String("workload", "", "workload: "+strings.Join(names, ", "))
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same jobs")
	seconds := flag.Int("seconds", 10, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced run and prints per-layer metrics")
	workdir := flag.String("workdir", ".bench_build/work", "directory for journals and the span file")
	flag.Parse()

	w, ok := lookupWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "jobbench:", err)
		os.Exit(1)
	}
	d := time.Duration(*seconds) * time.Second
	var rep *report
	var err error
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
		rep, err = tracedRun(w, *seed, d, *workdir)
	} else {
		rep, err = timedRun(w, *seed, d, *workdir)
	}
	if err == nil {
		err = rep.complete(defs)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "jobbench:", err)
		os.Exit(1)
	}
	for _, n := range rep.notes {
		fmt.Println("#", n)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "jobbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
