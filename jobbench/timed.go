package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"time"

	"repro/internal/pipeline"
)

// setupRepeats is how many times a timed run sets up; setup_s is the
// median.
const setupRepeats = 5

// outcome is one job as its client saw it.
type outcome struct {
	latency time.Duration
	sum     [sha256.Size]byte
	err     error
}

// runner executes jobs for a workload: in-process, or through a service.
type runner struct {
	w   workload
	svc *scratchService
}

// one runs a single job and checks its result bytes.
func (r runner) one(ctx context.Context, spec pipeline.Spec) outcome {
	var b []byte
	var o outcome
	if r.svc != nil {
		sj, err := r.svc.run(spec)
		if err != nil {
			return outcome{err: err}
		}
		b, o.latency = sj.result, sj.latency
	} else {
		start := time.Now()
		_, out, err := runInProcess(ctx, spec)
		o.latency = time.Since(start)
		if err != nil {
			return outcome{err: err}
		}
		b = out
	}
	if err := checkResult(spec, b); err != nil {
		return outcome{err: err}
	}
	o.sum = sha256.Sum256(b)
	return o
}

// batch runs specs one after another and returns their outcomes.
func (r runner) batch(ctx context.Context, specs []pipeline.Spec) []outcome {
	outs := make([]outcome, len(specs))
	for i, spec := range specs {
		jctx, cancel := context.WithTimeout(ctx, jobTimeout)
		outs[i] = r.one(jctx, spec)
		cancel()
	}
	return outs
}

// start returns a runner for one round: a fresh service and journal for a
// service workload.
func start(w workload, workdir string) (runner, error) {
	r := runner{w: w}
	if w.service {
		svc, err := startService(workdir)
		if err != nil {
			return r, err
		}
		r.svc = svc
	}
	return r, nil
}

func (r runner) stop() error {
	if r.svc == nil {
		return nil
	}
	return r.svc.close()
}

// timedRun sets up setupRepeats times, then runs rounds of timed jobs
// until the timed phase has lasted d, then re-checks a sample of the
// timed jobs outside the timed window.
func timedRun(w workload, seed int64, d time.Duration, workdir string) (*report, error) {
	ctx := context.Background()
	var setups []float64
	var timed []pipeline.Spec
	for k := 0; k < setupRepeats; k++ {
		t0 := time.Now()
		var warm []pipeline.Spec
		warm, timed = jobList(w, seed, d)
		r, err := start(w, workdir)
		if err != nil {
			return nil, err
		}
		for _, o := range r.batch(ctx, warm) {
			if o.err != nil {
				r.stop() //nolint:errcheck // the warm-up failure is the error reported
				return nil, fmt.Errorf("warm-up job: %w", o.err)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
		if err := r.stop(); err != nil {
			return nil, err
		}
	}

	var outs []outcome
	var wall, cpu time.Duration
	var allocs, cycles uint64
	for wall < d {
		if len(outs) == len(timed) {
			return nil, fmt.Errorf("job list of %d ran out after %v", len(timed), wall)
		}
		n := min(w.round, len(timed)-len(outs))
		r, err := start(w, workdir)
		if err != nil {
			return nil, err
		}
		c0, t0 := cpuTime(), time.Now()
		before := readRuntime()
		outs = append(outs, r.batch(ctx, timed[len(outs):len(outs)+n])...)
		after := readRuntime()
		wall += time.Since(t0)
		cpu += cpuTime() - c0
		allocs += after.allocBytes - before.allocBytes
		cycles += after.gcCycles - before.gcCycles
		if err := r.stop(); err != nil {
			return nil, err
		}
	}

	rep := newReport()
	var lat []float64
	for i := range outs {
		if outs[i].err != nil {
			rep.fail(fmt.Errorf("job %d (%s seed %d): %w", i, timed[i].App, timed[i].Seed, outs[i].err))
			continue
		}
		lat = append(lat, ms(outs[i].latency))
	}
	rep.Attempted = len(outs)
	done := float64(len(lat))
	if done == 0 {
		return nil, fmt.Errorf("no timed job completed")
	}
	p90, pct := upperTail(lat)
	rep.set("job_p50_ms", median(lat))
	rep.set("job_p90_ms", p90)
	rep.set("jobs_per_s", done/wall.Seconds())
	rep.set("cpu_ms_per_job", ms(cpu)/done)
	rep.set("alloc_mb_per_job", float64(allocs)/1e6/done)
	rep.set("setup_s", median(setups))
	rep.notef("%s seed %d: %d jobs over %.2fs, job_p90_ms is p%.1f, %.1f GC cycles/job, setups %.4v s",
		w.name, seed, len(outs), wall.Seconds(), pct, float64(cycles)/done, setups)

	// Independent checks, outside the timed window, on evenly spaced jobs.
	for k := 0; k < w.samples; k++ {
		i := k * len(outs) / w.samples
		if outs[i].err != nil {
			continue
		}
		if err := verifySample(ctx, timed[i], outs[i].sum); err != nil {
			rep.fail(fmt.Errorf("job %d: %w", i, err))
		}
	}
	return rep, nil
}
