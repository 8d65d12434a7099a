package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/pipeline"
	"repro/internal/synthapp"
)

// workload is one job shape driven by one closed-loop client: it sends
// its next job only once the previous job's result is in hand.
type workload struct {
	name string
	// service sends jobs through the HTTP job service on a fresh journal
	// instead of calling pipeline.Run in-process.
	service bool
	// warmup is the number of warm-up jobs in one set-up.
	warmup int
	// round is the number of jobs between checks of the time limit. A
	// service workload starts every round on a fresh journal and service,
	// because the service keeps every finished job and TryLease scans them
	// all: with a fixed round, the history a job sees does not grow with
	// how fast the program is.
	round int
	// maxRate bounds the jobs per second the job list is sized for.
	maxRate int
	// samples is how many timed jobs the independent checks re-run.
	samples int
	// dominant names the top-level spans of the traced composition this
	// workload was chosen to stress; a service workload adds the service
	// path to them.
	dominant []string
	// spec builds the i-th job of the list from its unique seed.
	spec func(i int, seed int64) pipeline.Spec
}

// journalRound is the number of jobs a service or scratch journal serves
// before a fresh one replaces it.
const journalRound = 200

// pollInterval is how long a service client waits before each poll of a
// job's result.
const pollInterval = time.Millisecond

var workloads = []workload{
	{
		// The paper's largest app with every static analysis on:
		// profiling and alias.Scan dominate. Every job reuses the same
		// app, so a per-app cache would show here.
		name: "octarine-full", warmup: 2, round: 1, maxRate: 40, samples: 3,
		dominant: []string{"profile", "core.EnableAlias"},
		spec: func(_ int, seed int64) pipeline.Spec {
			return pipeline.Spec{App: "octarine", Scenarios: []string{"o_bigone"}, Alias: true, Replicate: true, Seed: seed}
		},
	},
	{
		// The Tables 4/5 path: one profiling run, then three distributed
		// executions that relocate instantiations instead of logging ICC.
		name: "photodraw-compare", warmup: 4, round: 1, maxRate: 100, samples: 3,
		dominant: []string{"core.WriteDistribution", "core.RunDefault", "core.RunDistributed", "core.RunDistributed.jitter"},
		spec: func(_ int, seed int64) pipeline.Spec {
			return pipeline.Spec{App: "photodraw", Scenarios: []string{"p_oldmsr"}, Compare: true, Seed: seed}
		},
	},
	{
		// Freshly generated apps that share nothing: static analysis and
		// the service path (fsynced journal, HTTP, polling) dominate. Two
		// clients, which would overlap jobs, spread too much between runs
		// on a two-core host (see README.md).
		name: "synth-service", service: true, warmup: 32, round: journalRound, maxRate: 500, samples: 16,
		dominant: []string{"core.New", "core.EnableAlias"},
		spec: func(i int, seed int64) pipeline.Spec {
			fams := synthapp.Families()
			fam := fams[i%len(fams)]
			scale := 1 + (i/len(fams))%synthapp.MaxScale
			return pipeline.Spec{
				App:       fmt.Sprintf("synth:%s:%d:%d", fam, seed, scale),
				Scenarios: []string{synthapp.ScenBase, synthapp.ScenHeavy, synthapp.ScenAlt},
				Alias:     true, Replicate: true, Coverage: true,
				Seed: seed,
			}
		},
	},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// jobList returns the warm-up jobs and the timed jobs of a run. The same
// seed gives the same lists; every job has its own spec seed, so warm-up
// and timed jobs never share one.
func jobList(w workload, seed int64, d time.Duration) (warm, timed []pipeline.Spec) {
	n := w.warmup + int(d.Seconds()*float64(w.maxRate)) + w.round
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[int64]bool, n)
	specs := make([]pipeline.Spec, 0, n)
	for len(specs) < n {
		s := rng.Int63n(1e9) + 1 // Spec.Normalized turns seed 0 into 1
		if seen[s] {
			continue
		}
		seen[s] = true
		specs = append(specs, w.spec(len(specs), s))
	}
	return specs[:w.warmup], specs[w.warmup:]
}
