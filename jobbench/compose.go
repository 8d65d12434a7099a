package main

import (
	"context"
	"fmt"
	"maps"
	"runtime"
	"time"

	"repro/internal/analysis"
	"repro/internal/classify"
	"repro/internal/com"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/netsim"
	"repro/internal/pipeline"
	"repro/internal/profile"
	"repro/internal/reach"
	"repro/internal/scenario"
)

// span is one timed call. Spans of one job share Job; Parent is -1 for a
// root.
type span struct {
	Job        int                `json:"job"`
	ID         int                `json:"id"`
	Parent     int                `json:"parent"`
	Name       string             `json:"name"`
	StartNs    int64              `json:"startNs"`
	EndNs      int64              `json:"endNs"`
	AllocBytes uint64             `json:"allocBytes"`
	Counts     map[string]float64 `json:"counts,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

// tracer holds the spans of a traced run in memory. A nil tracer records
// nothing, so the same composition serves the untraced checks.
type tracer struct {
	origin time.Time
	job    int
	spans  []span
	// retained, when non-nil, asks for a forced GC at each stage boundary
	// and receives the live heap each stage added, in bytes.
	retained map[string]float64
	lastLive uint64
}

func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{
		Job: t.job, ID: len(t.spans), Parent: parent, Name: name,
		StartNs: int64(time.Since(t.origin)), AllocBytes: readRuntime().allocBytes,
	})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	s.AllocBytes = readRuntime().allocBytes - s.AllocBytes
	s.EndNs = int64(time.Since(t.origin))
}

func (t *tracer) count(id int, name string, v float64) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	if s.Counts == nil {
		s.Counts = map[string]float64{}
	}
	s.Counts[name] += v
}

// boundary records the live heap added since the previous boundary under
// stage, after a forced GC; an empty stage only sets the baseline. It
// does nothing unless retained is set.
func (t *tracer) boundary(stage string) {
	if t == nil || t.retained == nil {
		return
	}
	runtime.GC()
	live := readRuntime().liveBytes
	if stage != "" {
		t.retained[stage] = float64(live) - float64(t.lastLive)
	}
	t.lastLive = live
}

// composed is the pipeline state the traced composition leaves behind.
type composed struct {
	adps *core.ADPS
	prof *profile.Profile
	ares *analysis.Result
	exp  *pipeline.Experiment
}

// compose runs one job through the same public calls pipeline.Run makes,
// in the same order and with the same options, recording a span per call
// under a root span for the job.
func compose(ctx context.Context, spec pipeline.Spec, tr *tracer) (*composed, error) {
	spec, err := spec.Normalized()
	if err != nil {
		return nil, err
	}
	if len(spec.Pins) > 0 {
		return nil, fmt.Errorf("compose: pins are not supported")
	}
	tr.boundary("")
	root := tr.begin("job", -1)
	step := func(name string, f func()) {
		id := tr.begin(name, root)
		f()
		tr.end(id)
	}
	call := func(name string, f func() error) (err error) {
		step(name, func() { err = f() })
		return err
	}

	var app *com.App
	if err := call("scenario.NewApp", func() (err error) {
		app, err = scenario.NewApp(spec.App)
		return err
	}); err != nil {
		return nil, err
	}
	model, err := netsim.ByName(spec.Network)
	if err != nil {
		return nil, err
	}
	kind, err := classify.KindByName(spec.Classifier)
	if err != nil {
		return nil, err
	}
	var adps *core.ADPS
	step("core.New", func() { adps = core.New(app) })
	adps.Network = model
	adps.ClassifierKind = kind
	adps.ClassifierDepth = spec.Depth
	adps.Seed = spec.Seed
	adps.AnalysisOptions.ExactPricing = spec.ExactPricing
	adps.AnalysisOptions.PurityTheta = spec.Theta
	adps.AnalysisOptions.Replicate = spec.Replicate
	adps.AnalysisOptions.Arena = graph.NewCutArena()
	if spec.Replicate {
		adps.AnalysisOptions.ReplicaArena = graph.NewCutArena()
	}
	if spec.Alias {
		if err := call("core.EnableAlias", adps.EnableAlias); err != nil {
			return nil, err
		}
	}
	tr.boundary("static")
	if err := call("core.Instrument", adps.Instrument); err != nil {
		return nil, err
	}

	c := &composed{adps: adps}
	prof := tr.begin("profile", root)
	var profRun *dist.Result
	for i, s := range spec.Scenarios {
		id := tr.begin("core.ProfileScenario", prof)
		p, run, err := adps.ProfileScenario(s, false)
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("core: scenario %s: %w", s, err)
		}
		tr.count(id, "trappedCalls", float64(run.TrappedCalls))
		if i == 0 {
			c.prof, profRun = p, run
			continue
		}
		id = tr.begin("profile.Merge", prof)
		err = c.prof.Merge(p)
		tr.end(id)
		if err != nil {
			return nil, err
		}
	}
	tr.end(prof)
	tr.count(prof, "iccBytes", float64(iccBytes(c.prof)))
	tr.boundary("profile")

	if spec.Coverage {
		// ADPS.CoverageReport with install on, as pipeline.Run calls it.
		if adps.Reach == nil {
			return nil, fmt.Errorf("core: no reachability graph for %s", app.Name)
		}
		var cov *reach.Coverage
		step("reach.Coverage", func() { cov = adps.Reach.Coverage(c.prof) })
		if cs := adps.AnalysisOptions.Constraints; cs != nil {
			step("reach.InstallConstraints", func() { cov.InstallConstraints(cs) })
		}
	}
	if err := call("core.ProfileNetwork", adps.ProfileNetwork); err != nil {
		return nil, err
	}
	if err := call("core.Analyze", func() (err error) {
		c.ares, err = adps.Analyze(ctx, c.prof)
		return err
	}); err != nil {
		return nil, err
	}
	tr.boundary("graph")
	if spec.Compare {
		runs, err := runDistribution(adps, c.ares, spec.Scenarios[0], tr, root)
		if err != nil {
			return nil, err
		}
		c.exp = experimentOf(runs, profRun, c.ares)
		// ScenarioExperiment re-arms the image for the next experiment.
		if err := call("core.Instrument", adps.Instrument); err != nil {
			return nil, err
		}
	}
	tr.end(root)
	return c, nil
}

// distRuns are the three executions of compare mode.
type distRuns struct{ def, coign, measured *dist.Result }

// runDistribution writes the chosen distribution into the binary and
// executes the default placement, the Coign placement and the jittered
// Coign placement, as ADPS.ScenarioExperiment does.
func runDistribution(adps *core.ADPS, ares *analysis.Result, scen string, tr *tracer, parent int) (distRuns, error) {
	var r distRuns
	id := tr.begin("core.WriteDistribution", parent)
	err := adps.WriteDistribution(ares)
	tr.end(id)
	if err != nil {
		return r, err
	}
	id = tr.begin("core.RunDefault", parent)
	r.def, err = adps.RunDefault(scen, false)
	tr.end(id)
	if err != nil {
		return r, err
	}
	id = tr.begin("core.RunDistributed", parent)
	r.coign, err = adps.RunDistributed(scen, false)
	tr.end(id)
	if err != nil {
		return r, err
	}
	tr.count(id, "relocations", float64(r.coign.Relocations))
	id = tr.begin("core.RunDistributed.jitter", parent)
	r.measured, err = adps.RunDistributed(scen, true)
	tr.end(id)
	return r, err
}

// experimentOf derives compare mode's Experiment exactly as
// ADPS.ScenarioExperiment and pipeline.Run do.
func experimentOf(r distRuns, profRun *dist.Result, ares *analysis.Result) *pipeline.Experiment {
	e := &pipeline.Experiment{
		DefaultComm:     r.def.Clock.CommTime(),
		CoignComm:       r.coign.Clock.CommTime(),
		TotalInstances:  r.coign.AppInstances,
		ServerInstances: r.coign.AppPerMachine[com.Server],
		Violations:      r.coign.Violations,
	}
	if e.DefaultComm > 0 {
		if s := 1 - float64(e.CoignComm)/float64(e.DefaultComm); s > 0 {
			e.Savings = s
		}
	}
	e.PredictedExec = profRun.Clock.ComputeTime() + ares.PredictedComm
	e.MeasuredExec = r.measured.Clock.Elapsed()
	if e.MeasuredExec > 0 {
		e.PredictionErr = float64(e.PredictedExec-e.MeasuredExec) / float64(e.MeasuredExec)
	}
	return e
}

// iccBytes is the profile's total message payload, both directions.
func iccBytes(p *profile.Profile) int64 {
	var n int64
	for _, e := range p.Edges {
		n += e.ExactInBytes + e.ExactOutBytes
	}
	return n
}

// sameOutcome reports where the composition's outcome differs from
// pipeline.Run's for the same spec.
func sameOutcome(c *composed, r *pipeline.Result) error {
	switch {
	case !maps.Equal(c.ares.Distribution, r.Analysis.Distribution):
		return fmt.Errorf("composition: distribution differs from pipeline.Run")
	case c.ares.PredictedComm != r.PredictedComm:
		return fmt.Errorf("composition: predicted comm %v, pipeline.Run %v", c.ares.PredictedComm, r.PredictedComm)
	case c.ares.DefaultComm != r.DefaultComm:
		return fmt.Errorf("composition: default comm %v, pipeline.Run %v", c.ares.DefaultComm, r.DefaultComm)
	case (c.exp == nil) != (r.Experiment == nil) || c.exp != nil && *c.exp != *r.Experiment:
		return fmt.Errorf("composition: experiment %+v, pipeline.Run %+v", c.exp, r.Experiment)
	}
	return nil
}
