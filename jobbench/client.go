package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/jobqueue"
	"repro/internal/pipeline"
	"repro/internal/service"
)

// jobTimeout bounds one job, from submit to result bytes in hand.
const jobTimeout = 60 * time.Second

// scratchService is the job service over a fresh journal, served on a
// loopback port, plus the HTTP client that drives it.
type scratchService struct {
	path    string
	queue   *jobqueue.Queue
	http    *http.Server
	base    string
	client  *http.Client
	stop    context.CancelFunc
	workers chan struct{} // closed once RunWorkers has returned
	served  chan struct{} // closed once Serve has returned
}

// startService opens a fresh journal in dir and starts the service with
// two workers, the width `coign serve` defaults to.
func startService(dir string) (*scratchService, error) {
	f, err := os.CreateTemp(dir, "journal-*.jsonl")
	if err != nil {
		return nil, fmt.Errorf("creating journal: %w", err)
	}
	path := f.Name()
	if err := f.Close(); err != nil {
		return nil, fmt.Errorf("creating journal: %w", err)
	}
	q, err := jobqueue.Open(path)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		q.Close()
		return nil, fmt.Errorf("listening: %w", err)
	}
	srv := service.New(q, service.WithWorkers(2))
	ctx, cancel := context.WithCancel(context.Background())
	s := &scratchService{
		path:    path,
		queue:   q,
		http:    &http.Server{Handler: srv.Handler()},
		base:    "http://" + ln.Addr().String(),
		client:  &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}},
		stop:    cancel,
		workers: make(chan struct{}),
		served:  make(chan struct{}),
	}
	go func() {
		defer close(s.served)
		s.http.Serve(ln) //nolint:errcheck // always ErrServerClosed after Shutdown
	}()
	go func() {
		defer close(s.workers)
		srv.RunWorkers(ctx)
	}()
	return s, nil
}

// close stops the workers and the HTTP server, waits for both, and
// removes the journal.
func (s *scratchService) close() error {
	s.stop()
	<-s.workers
	err := s.http.Shutdown(context.Background())
	<-s.served
	s.client.CloseIdleConnections()
	if cerr := s.queue.Close(); err == nil {
		err = cerr
	}
	if rerr := os.Remove(s.path); err == nil {
		err = rerr
	}
	return err
}

// serviceJob is one job's trip through the service.
type serviceJob struct {
	result  []byte
	latency time.Duration // POST sent to result bytes in hand
	submit  time.Duration // POST round trip
	polls   int           // result requests sent, the last one useful
}

// notReady ends the service's 409 reply for a job still pending or
// running.
const notReady = "result not ready"

// run submits spec, polls its result at pollInterval and returns the
// result bytes. A 409 for a job that is still pending or running is a
// poll; any other answer ends the job as failed.
func (s *scratchService) run(spec pipeline.Spec) (serviceJob, error) {
	var sj serviceJob
	body, err := json.Marshal(spec)
	if err != nil {
		return sj, err
	}
	start := time.Now()
	status, data, err := s.do(http.MethodPost, "/v1/jobs", body)
	if err != nil {
		return sj, fmt.Errorf("submit: %w", err)
	}
	if status != http.StatusAccepted {
		return sj, fmt.Errorf("submit refused: %d %s", status, bytes.TrimSpace(data))
	}
	var view struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &view); err != nil || view.ID == "" {
		return sj, fmt.Errorf("submit: bad reply %q", bytes.TrimSpace(data))
	}
	sj.submit = time.Since(start)
	for {
		time.Sleep(pollInterval)
		sj.polls++
		status, data, err := s.do(http.MethodGet, "/v1/jobs/"+view.ID+"/result", nil)
		if err != nil {
			return sj, fmt.Errorf("job %s: %w", view.ID, err)
		}
		switch {
		case status == http.StatusOK:
			sj.latency = time.Since(start)
			sj.result = data
			return sj, nil
		case status == http.StatusConflict && bytes.Contains(data, []byte(notReady)):
		default:
			return sj, fmt.Errorf("job %s: %d %s", view.ID, status, bytes.TrimSpace(data))
		}
		if time.Since(start) > jobTimeout {
			return sj, fmt.Errorf("job %s: no result after %v", view.ID, jobTimeout)
		}
	}
}

func (s *scratchService) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}
