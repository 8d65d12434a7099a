package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/analysis"
	"repro/internal/pipeline"
)

// resultView is the part of the canonical result bytes the invariants
// read.
type resultView struct {
	Spec struct {
		App  string `json:"app"`
		Seed int64  `json:"seed"`
	} `json:"spec"`
	PredictedComm     int64 `json:"predictedCommNs"`
	DefaultComm       int64 `json:"defaultCommNs"`
	DefaultViolations int   `json:"defaultViolations"`
	Experiment        *struct {
		DefaultComm int64 `json:"defaultCommNs"`
		CoignComm   int64 `json:"coignCommNs"`
		Violations  int   `json:"violations"`
	} `json:"experiment"`
}

// checkResult checks one job's result bytes against the invariants every
// job must keep. Savings may be 0: with alias on, octarine's cut
// collapses onto the default placement.
func checkResult(spec pipeline.Spec, b []byte) error {
	var r resultView
	if err := json.Unmarshal(b, &r); err != nil {
		return fmt.Errorf("result does not decode: %w", err)
	}
	if r.Spec.App != spec.App || r.Spec.Seed != spec.Seed {
		return fmt.Errorf("result is for %s seed %d, want %s seed %d", r.Spec.App, r.Spec.Seed, spec.App, spec.Seed)
	}
	if r.DefaultViolations == 0 && !notAbove(r.PredictedComm, r.DefaultComm) {
		return fmt.Errorf("predicted comm %dns above default %dns", r.PredictedComm, r.DefaultComm)
	}
	if spec.Compare {
		e := r.Experiment
		switch {
		case e == nil:
			return fmt.Errorf("compare result has no experiment")
		case e.Violations != 0:
			return fmt.Errorf("Coign placement violated %d constraints", e.Violations)
		case !notAbove(e.CoignComm, e.DefaultComm):
			return fmt.Errorf("Coign comm %dns above default %dns", e.CoignComm, e.DefaultComm)
		}
	}
	return nil
}

// notAbove reports a <= b up to the rounding of float seconds to integer
// nanoseconds.
func notAbove(a, b int64) bool {
	return float64(a) <= float64(b)*(1+1e-9)+1
}

// verifySample re-runs one timed job outside the timed window and checks
// that
//   - pipeline.Run gives the same bytes twice, and the bytes the timed
//     job returned (through the service, for a service workload);
//   - the traced composition reaches pipeline.Run's outcome;
//   - the production cut weighs what Edmonds–Karp finds on the graph
//     rebuilt with analysis.BuildGraph.
func verifySample(ctx context.Context, spec pipeline.Spec, timed [sha256.Size]byte) error {
	r, b1, err := runInProcess(ctx, spec)
	if err != nil {
		return err
	}
	_, b2, err := runInProcess(ctx, spec)
	if err != nil {
		return err
	}
	if !bytes.Equal(b1, b2) {
		return fmt.Errorf("%s seed %d: two runs gave different bytes", spec.App, spec.Seed)
	}
	if sha256.Sum256(b1) != timed {
		return fmt.Errorf("%s seed %d: timed result bytes differ from an in-process pipeline.Run", spec.App, spec.Seed)
	}
	c, err := compose(ctx, spec, nil)
	if err != nil {
		return err
	}
	if err := sameOutcome(c, r); err != nil {
		return fmt.Errorf("%s seed %d: %w", spec.App, spec.Seed, err)
	}
	return checkCut(c, r.Analysis.Cut.Weight)
}

// checkCut checks a production cut weight against Edmonds–Karp on the
// composition's graph, rebuilt from its profile and options.
func checkCut(c *composed, weight float64) error {
	g, _ := analysis.BuildGraph(c.prof, c.adps.NetProfile, c.adps.App.Classes, c.adps.AnalysisOptions)
	ek, err := g.MinCutEdmondsKarp()
	if err != nil {
		return fmt.Errorf("edmonds-karp: %w", err)
	}
	if math.Abs(ek.Weight-weight) > 1e-9*math.Max(1, math.Abs(ek.Weight)) {
		return fmt.Errorf("%s: production cut weighs %g, Edmonds-Karp %g", c.adps.App.Name, weight, ek.Weight)
	}
	return nil
}

// runInProcess runs one job in-process and returns its canonical bytes.
func runInProcess(ctx context.Context, spec pipeline.Spec) (*pipeline.Result, []byte, error) {
	r, err := pipeline.Run(ctx, spec)
	if err != nil {
		return nil, nil, err
	}
	b, err := pipeline.MarshalResult(r)
	return r, b, err
}
