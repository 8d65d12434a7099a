package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/alias"
	"repro/internal/analysis"
	"repro/internal/binimg"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/jobqueue"
	"repro/internal/pipeline"
	"repro/internal/purity"
	"repro/internal/reach"
	"repro/internal/staticanal"
)

// minSpanCoverage is the share of a traced job's time its top-level spans
// must cover: the calls between them are option assignments.
const minSpanCoverage = 0.98

// retainProbes is how many traced jobs are re-run with a forced GC at each
// stage boundary to measure the heap each stage retains.
const retainProbes = 3

// tracedRun runs job after job until d has passed. For each job it runs
// an untraced pipeline.Run and the traced composition of the same spec,
// alternating which goes first; then, outside the job's spans, it times
// the public functions of the layers the composition's calls wrap on the
// same inputs, runs any layer the job itself does not reach (dist when
// the job does not compare, alias when it is off) on the same app, sends
// the spec through a scratch service, and runs the job queue calls on a
// scratch journal.
func tracedRun(w workload, seed int64, d time.Duration, workdir string) (*report, error) {
	ctx := context.Background()
	warm, specs := jobList(w, seed, d)
	for _, s := range warm {
		if _, _, err := runInProcess(ctx, s); err != nil {
			return nil, fmt.Errorf("warm-up job: %w", err)
		}
	}
	rep := newReport()
	tr := &tracer{origin: time.Now()}
	vals := map[string][]float64{} // per-job values measured outside spans
	var ok []int                   // jobs whose every leg succeeded
	var gcCycles uint64
	var svc *scratchService
	var jq *scratchQueue
	var journalBytes int64
	closeScratch := func() error {
		if svc == nil {
			return nil
		}
		err := svc.close()
		n, qerr := jq.close()
		journalBytes += n
		svc, jq = nil, nil
		if err == nil {
			err = qerr
		}
		return err
	}
	defer closeScratch() //nolint:errcheck // error paths only; the success path checks it

	start := time.Now()
	i := 0
	for ; i < len(specs) && time.Since(start) < d; i++ {
		if i%journalRound == 0 {
			if err := closeScratch(); err != nil {
				return nil, err
			}
			var err error
			if svc, err = startService(workdir); err != nil {
				return nil, err
			}
			if jq, err = openScratchQueue(workdir); err != nil {
				return nil, err
			}
		}
		spec := specs[i]
		tr.job = i
		var r *pipeline.Result
		var b []byte
		var c *composed
		var untraced time.Duration
		legs := []func() error{
			func() (err error) {
				before := readRuntime().gcCycles
				t0 := time.Now()
				r, err = pipeline.Run(ctx, spec)
				untraced = time.Since(t0)
				gcCycles += readRuntime().gcCycles - before
				if err != nil {
					return err
				}
				b, err = pipeline.MarshalResult(r)
				return err
			},
			func() (err error) { c, err = compose(ctx, spec, tr); return err },
		}
		if i%2 == 1 {
			legs[0], legs[1] = legs[1], legs[0]
		}
		err := legs[0]()
		if err == nil {
			err = legs[1]()
		}
		if err == nil {
			err = checkResult(spec, b)
		}
		if err == nil {
			err = sameOutcome(c, r)
		}
		if err == nil {
			err = sideLegs(ctx, spec, c, b, untraced, tr, svc, jq, vals)
		}
		if err != nil {
			rep.fail(fmt.Errorf("traced job %d (%s seed %d): %w", i, spec.App, spec.Seed, err))
			continue
		}
		vals["untraced_ms"] = append(vals["untraced_ms"], ms(untraced))
		ok = append(ok, i)
	}
	if err := closeScratch(); err != nil {
		return nil, err
	}
	rep.Attempted = i
	if len(ok) == 0 {
		return nil, fmt.Errorf("no traced job completed")
	}

	retained := map[string][]float64{}
	for _, j := range ok[:min(retainProbes, len(ok))] {
		probe := &tracer{origin: time.Now(), retained: map[string]float64{}}
		if _, err := compose(ctx, specs[j], probe); err != nil {
			return nil, err
		}
		for stage, v := range probe.retained {
			retained[stage] = append(retained[stage], v/1e6)
		}
	}

	jobs := float64(len(ok))
	tm := summarize(tr.spans, ok)
	for _, m := range []struct{ metric, span string }{
		{"scenario.new_app_ms", "scenario.NewApp"},
		{"core.new_ms", "core.New"},
		{"binimg.build_image_ms", "binimg.BuildImage"},
		{"staticanal.analyze_ms", "staticanal.Analyze"},
		{"reach.scan_ms", "reach.Scan"},
		{"purity.scan_ms", "purity.Scan"},
		{"core.enable_alias_ms", "core.EnableAlias"},
		{"alias.scan_ms", "alias.Scan"},
		{"profile.scenarios_ms", "profile"},
		{"analysis.analyze_ms", "core.Analyze"},
		{"analysis.build_graph_ms", "analysis.BuildGraph"},
		{"graph.cut_ms", "graph.MinCutArena"},
		{"dist.run_default_ms", "core.RunDefault"},
		{"dist.run_coign_ms", "core.RunDistributed"},
		{"dist.run_measured_ms", "core.RunDistributed.jitter"},
		{"jobqueue.append_ms", "jobqueue.Enqueue"},
		{"jobqueue.lease_ms", "jobqueue.TryLease"},
		{"jobqueue.finish_ms", "jobqueue.Finish"},
		{"trace.job_p50_ms", "job"},
	} {
		rep.set(m.metric, median(tm.perJob(func(a *jobSpans) float64 { return ms(a.dur[m.span]) })))
	}
	rep.set("profile.alloc_mb", median(tm.perJob(func(a *jobSpans) float64 { return float64(a.alloc["profile"]) / 1e6 })))
	rep.set("profile.trapped_calls", median(tm.perJob(func(a *jobSpans) float64 { return a.counts["trappedCalls"] })))
	rep.set("profile.icc_mb", median(tm.perJob(func(a *jobSpans) float64 { return a.counts["iccBytes"] / 1e6 })))
	rep.set("profile.ns_per_call", median(tm.perJob(func(a *jobSpans) float64 {
		return float64(a.dur["profile"]) / a.counts["trappedCalls"]
	})))
	rep.set("graph.nodes", median(tm.perJob(func(a *jobSpans) float64 { return a.counts["nodes"] })))
	rep.set("graph.edges", median(tm.perJob(func(a *jobSpans) float64 { return a.counts["edges"] })))
	rep.set("dist.alloc_mb", median(tm.perJob(func(a *jobSpans) float64 {
		return float64(a.alloc["core.RunDefault"]+a.alloc["core.RunDistributed"]+a.alloc["core.RunDistributed.jitter"]) / 1e6
	})))
	rep.set("dist.relocations", median(tm.perJob(func(a *jobSpans) float64 { return a.counts["relocations"] })))

	for _, name := range []string{"service.submit_ms", "service.wait_ms", "service.overhead_ms"} {
		rep.set(name, median(vals[name]))
	}
	var polls float64
	for _, p := range vals["polls"] {
		polls += p
	}
	rep.set("service.polls_per_job", polls/jobs)
	rep.set("service.useful_poll_ratio", jobs/polls)
	rep.set("jobqueue.journal_kb_per_job", float64(journalBytes)/1e3/jobs)
	rep.set("runtime.gc_cycles_per_job", float64(gcCycles)/float64(i))
	for _, stage := range []string{"static", "profile", "graph"} {
		rep.set(stage+".retained_mb", median(retained[stage]))
	}

	// Each job's traced and untraced legs ran back to back, so their
	// difference cancels the host's drift between jobs. The leg that runs
	// first pays for the previous job's garbage, so the differences are
	// split by which leg went first and the two medians averaged.
	untraced := median(vals["untraced_ms"])
	rep.set("trace.untraced_p50_ms", untraced)
	var diffs [2][]float64
	for _, a := range tm {
		first := ok[a.index] % 2
		diffs[first] = append(diffs[first], ms(a.dur["job"])-vals["untraced_ms"][a.index])
	}
	rep.set("trace.overhead_ms", (median(diffs[0])+median(diffs[1]))/2)
	var covered, total time.Duration
	for _, a := range tm {
		for _, d := range a.children {
			covered += d
		}
		total += a.dur["job"]
	}
	coverage := float64(covered) / float64(total)
	rep.set("trace.span_coverage", coverage)
	if coverage < minSpanCoverage {
		rep.Correct = false
		rep.notef("FAILED: top-level spans cover %.4f of traced job time, below %.2f", coverage, minSpanCoverage)
	}

	// The share of job time spent in the layers this workload was chosen
	// to stress, and every top-level layer's share, so the trace confirms
	// the prediction or shows where it differs.
	shares := tm.shares()
	predicted := 0.0
	for _, name := range w.dominant {
		predicted += shares[name]
	}
	if w.service {
		// Static analysis plus the service path, as shares of the client's
		// latency: the composition's shares scale by in-process/client time.
		lat := median(vals["service_ms"])
		predicted = predicted*untraced/lat + median(vals["service.overhead_ms"])/lat
	}
	rep.set("trace.predicted_share", predicted)
	rep.notef("%s seed %d: %d traced jobs over %.2fs; predicted dominant layers %s take %.1f%% of a job",
		w.name, seed, len(ok), time.Since(start).Seconds(), strings.Join(w.dominant, " + "), 100*predicted)
	rep.notef("top-level share of traced job time: %s", formatShares(shares))

	path := filepath.Join(workdir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, seed))
	if err := writeSpans(path, tr.spans); err != nil {
		return nil, err
	}
	rep.notef("%d spans written to %s", len(tr.spans), path)
	return rep, nil
}

// sideLegs runs the measurements of one traced job that sit outside its
// spans; see tracedRun.
func sideLegs(ctx context.Context, spec pipeline.Spec, c *composed, result []byte, untraced time.Duration,
	tr *tracer, svc *scratchService, jq *scratchQueue, vals map[string][]float64) error {
	side := tr.begin("side", -1)
	defer tr.end(side)
	app := c.adps.App
	var err error
	step := func(name string, f func() error) {
		id := tr.begin(name, side)
		if e := f(); e != nil && err == nil {
			err = fmt.Errorf("%s: %w", name, e)
		}
		tr.end(id)
	}
	var img *binimg.Image
	var rg *reach.Graph
	step("binimg.BuildImage", func() error { img = binimg.BuildImage(app); return nil })
	step("staticanal.Analyze", func() (e error) { _, e = staticanal.Analyze(app, img); return })
	step("reach.Scan", func() (e error) { rg, e = reach.Scan(img, app); return })
	step("purity.Scan", func() (e error) { _, e = purity.Scan(img, app, rg); return })
	step("alias.Scan", func() (e error) { _, e = alias.Scan(img, app, rg); return })
	if !spec.Alias {
		a := core.New(app)
		step("core.EnableAlias", a.EnableAlias)
	}
	var g *graph.Graph
	id := tr.begin("analysis.BuildGraph", side)
	g, _ = analysis.BuildGraph(c.prof, c.adps.NetProfile, app.Classes, c.adps.AnalysisOptions)
	tr.end(id)
	tr.count(id, "nodes", float64(g.Len()))
	tr.count(id, "edges", float64(g.Edges()))
	step("graph.MinCutArena", func() (e error) { _, e = g.MinCutArena(ctx, graph.NewCutArena()); return })
	if !spec.Compare {
		if _, e := runDistribution(c.adps, c.ares, spec.Scenarios[0], tr, side); e != nil && err == nil {
			err = e
		}
	}
	if err != nil {
		return err
	}

	sj, err := svc.run(spec)
	if err != nil {
		return fmt.Errorf("service: %w", err)
	}
	if !bytes.Equal(sj.result, result) {
		return fmt.Errorf("service result bytes differ from in-process pipeline.Run")
	}
	vals["service_ms"] = append(vals["service_ms"], ms(sj.latency))
	vals["service.submit_ms"] = append(vals["service.submit_ms"], ms(sj.submit))
	vals["service.wait_ms"] = append(vals["service.wait_ms"], ms(sj.latency-sj.submit))
	vals["service.overhead_ms"] = append(vals["service.overhead_ms"], ms(sj.latency-untraced))
	vals["polls"] = append(vals["polls"], float64(sj.polls))

	norm, err := spec.Normalized()
	if err != nil {
		return err
	}
	payload, err := json.Marshal(norm)
	if err != nil {
		return err
	}
	var job *jobqueue.Job
	step("jobqueue.Enqueue", func() (e error) { _, e = jq.q.Enqueue(payload); return })
	step("jobqueue.TryLease", func() (e error) { job, e = jq.q.TryLease(); return })
	if err != nil {
		return err
	}
	if job == nil {
		return fmt.Errorf("jobqueue: nothing to lease after an enqueue")
	}
	step("jobqueue.Finish", func() error { return jq.q.Finish(job.ID, job.Attempt, result) })
	return err
}

// scratchQueue is a job queue on a fresh journal, driven directly.
type scratchQueue struct {
	path string
	q    *jobqueue.Queue
}

func openScratchQueue(dir string) (*scratchQueue, error) {
	f, err := os.CreateTemp(dir, "scratch-*.jsonl")
	if err != nil {
		return nil, fmt.Errorf("creating journal: %w", err)
	}
	if err := f.Close(); err != nil {
		return nil, fmt.Errorf("creating journal: %w", err)
	}
	q, err := jobqueue.Open(f.Name())
	if err != nil {
		return nil, err
	}
	return &scratchQueue{path: f.Name(), q: q}, nil
}

// close closes and removes the journal and returns its size.
func (s *scratchQueue) close() (int64, error) {
	if err := s.q.Close(); err != nil {
		return 0, err
	}
	fi, err := os.Stat(s.path)
	if err != nil {
		return 0, err
	}
	return fi.Size(), os.Remove(s.path)
}

// jobSpans aggregates one job's spans by name.
type jobSpans struct {
	index    int // position among the summarized jobs
	dur      map[string]time.Duration
	alloc    map[string]uint64
	counts   map[string]float64
	children map[string]time.Duration // the job root's children
}

type spanSummary []*jobSpans

// summarize aggregates the spans of the listed jobs.
func summarize(spans []span, jobs []int) spanSummary {
	byJob := map[int]*jobSpans{}
	var out spanSummary
	for _, j := range jobs {
		a := &jobSpans{index: len(out), dur: map[string]time.Duration{}, alloc: map[string]uint64{}, counts: map[string]float64{}, children: map[string]time.Duration{}}
		byJob[j] = a
		out = append(out, a)
	}
	roots := map[int]string{} // span id -> name, for roots
	for i := range spans {
		s := &spans[i]
		a := byJob[s.Job]
		if a == nil {
			continue
		}
		if s.Parent < 0 {
			roots[s.ID] = s.Name
		}
		a.dur[s.Name] += s.dur()
		a.alloc[s.Name] += s.AllocBytes
		for k, v := range s.Counts {
			a.counts[k] += v
		}
		if s.Parent >= 0 && roots[s.Parent] == "job" {
			a.children[s.Name] += s.dur()
		}
	}
	return out
}

func (s spanSummary) perJob(f func(*jobSpans) float64) []float64 {
	out := make([]float64, len(s))
	for i, a := range s {
		out[i] = f(a)
	}
	return out
}

// shares returns, for each top-level span name, its median share of the
// job's traced time.
func (s spanSummary) shares() map[string]float64 {
	names := map[string]bool{}
	for _, a := range s {
		for n := range a.children {
			names[n] = true
		}
	}
	out := map[string]float64{}
	for n := range names {
		out[n] = median(s.perJob(func(a *jobSpans) float64 { return float64(a.children[n]) / float64(a.dur["job"]) }))
	}
	return out
}

func formatShares(shares map[string]float64) string {
	names := make([]string, 0, len(shares))
	for n := range shares {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return shares[names[i]] > shares[names[j]] })
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = fmt.Sprintf("%s %.1f%%", n, 100*shares[n])
	}
	return strings.Join(parts, ", ")
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
