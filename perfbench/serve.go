package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/cliutil"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/serve/api"
	"repro/internal/serve/queue"
	"repro/internal/serve/runner"
	"repro/internal/telemetry"
)

// serveWorkload drives an in-process hylo-serve (runner + HTTP server on a
// loopback listener) with closed-loop clients: each submits a short SNGD
// job, waits until it observes a terminal state, fetches the result, and
// submits the next. Many short runs make set-up, per-job checkpoints and
// result publishing a large share of the work.
type serveWorkload struct {
	Clients      int
	WarmupJobs   int // per client, per session
	Spec         api.JobSpec
	PollInterval time.Duration
	// JobEstimate is about how long one client's job cycle (submit to
	// done) takes on the reference host (README.md); it turns --seconds
	// into a job count.
	JobEstimate time.Duration
}

// serveSNGDJobs: an MLP SNGD job on the in-process two-worker cluster,
// checkpointing every epoch. 192 training vectors at 2×48 give 2 steps
// per epoch, one refresh every 2 steps.
var serveSNGDJobs = serveWorkload{
	Clients:    2,
	WarmupJobs: 1,
	Spec: api.JobSpec{
		Model: "mlp", Optimizer: "sngd", Epochs: 6, Batch: 48, Workers: 2,
		UpdateFreq: 2, Classes: 4, Samples: 16, CheckpointEvery: 1,
	},
	PollInterval: 5 * time.Millisecond,
	JobEstimate:  170 * time.Millisecond,
}

// specFor returns client c's job spec: every client of a session trains
// its own dataset, derived from the session seed.
func (w serveWorkload) specFor(seed uint64, c int) api.JobSpec {
	s := w.Spec
	s.Seed = seed*16 + uint64(c) + 1
	s.Tenant = fmt.Sprintf("client%d", c)
	return s
}

// jobObs is one job as the client saw it.
type jobObs struct {
	Client     int
	ID         string
	Submit     time.Time // POST sent
	Accepted   time.Time // 201 received
	Done       time.Time // terminal state observed
	Result     *api.Result
	Err        error
	Rejected   int // 429 responses before acceptance
	Samples    int // training samples the job processed
	TargetHits int // epochs to target (1-based), 0 if never
}

// execTimes records runner.Execute entry and exit per job id (traced run).
type execTimes struct {
	mu         sync.Mutex
	start, end map[string]time.Time
}

func (e *execTimes) wrap(next runner.ExecFunc) runner.ExecFunc {
	return func(j *runner.Job) (api.Result, error) {
		t0 := time.Now()
		res, err := next(j)
		t1 := time.Now()
		e.mu.Lock()
		e.start[j.ID()], e.end[j.ID()] = t0, t1
		e.mu.Unlock()
		return res, err
	}
}

// serveSession is one server lifetime: set-up (server start and warm-up
// jobs) followed by closed-loop jobs until the deadline.
type serveSession struct {
	Setup    time.Duration
	Jobs     []jobObs // timed jobs
	Warm     []jobObs
	Span     time.Duration // timed phase: first submit → last client done
	Mallocs  uint64        // over the timed phase, like AllocBytes and GCs
	AllocB   uint64
	GCs      uint64
	Exec     *execTimes
	TokensHW int
	ArtBytes []int64 // per timed job
	// CkptFiles and CkptBytes total the timed jobs' checkpoint dirs.
	CkptFiles int
	CkptBytes int64
}

// runServeSession starts a server in dir, warms it up, and runs the
// clients until each has completed `jobs` timed jobs.
func runServeSession(w serveWorkload, seed uint64, dir string, jobs int, traced bool) (*serveSession, error) {
	out := &serveSession{}
	start := time.Now()
	pool := sched.Tokens()
	// hylo-serve's default: one token stays free for the stage pipelines
	// of the running jobs.
	maxRunning := pool.Cap()
	if sched.Workers() > 1 {
		maxRunning = pool.Cap() - 1
	}
	rcfg := runner.Config{
		Dir: dir, Pool: pool, MaxRunning: max(1, maxRunning),
		Queue: queue.Config{MaxQueuedPerTenant: 16},
	}
	if traced {
		out.Exec = &execTimes{start: map[string]time.Time{}, end: map[string]time.Time{}}
		rcfg.Exec = out.Exec.wrap(runner.Execute)
	}
	r, err := runner.New(rcfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.Shutdown(context.Background())
		return nil, err
	}
	hs := &http.Server{Handler: serve.New(r)}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	stopped := false
	stop := func() {
		if stopped {
			return
		}
		stopped = true
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
		<-served
		r.Shutdown(ctx)
	}
	defer stop()
	base := "http://" + ln.Addr().String()
	cl := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * w.Clients}}
	defer cl.CloseIdleConnections()

	wl, err := cliutil.BuildWorkload(w.Spec.Model, w.Spec.Classes, w.Spec.Samples, 1)
	if err != nil {
		return nil, err
	}
	samplesPerEpoch := wl.Train.Len() / (w.Spec.Batch * w.Spec.Workers) * w.Spec.Batch * w.Spec.Workers

	phase := func(perClient int) []jobObs {
		var mu sync.Mutex
		var jobs []jobObs
		var wg sync.WaitGroup
		for c := 0; c < w.Clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				spec := w.specFor(seed, c)
				for n := 0; n < perClient; n++ {
					o := runJob(cl, base, spec, w.PollInterval)
					o.Client = c
					if o.Result != nil {
						o.Samples = len(o.Result.Epochs) * samplesPerEpoch
						for i, e := range o.Result.Epochs {
							if e.Metric >= wl.Target {
								o.TargetHits = i + 1
								break
							}
						}
					}
					mu.Lock()
					jobs = append(jobs, o)
					mu.Unlock()
				}
			}(c)
		}
		wg.Wait()
		return jobs
	}

	out.Warm = phase(w.WarmupJobs)
	out.Setup = time.Since(start)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	out.Jobs = phase(jobs)
	out.Span = time.Since(t0)
	runtime.ReadMemStats(&m1)
	out.Mallocs = m1.Mallocs - m0.Mallocs
	out.AllocB = m1.TotalAlloc - m0.TotalAlloc
	out.GCs = uint64(m1.NumGC - m0.NumGC)
	out.TokensHW = pool.HighWater()
	// Result files are written after the terminal state is published;
	// measure artifacts once the runner has drained.
	stop()
	for _, j := range out.Jobs {
		if jb, ok := r.Get(j.ID); ok {
			arts := jb.View().Artifacts
			_, b := dirBytes(arts.Dir)
			out.ArtBytes = append(out.ArtBytes, b)
			f, cb := dirBytes(arts.Checkpoints)
			out.CkptFiles += f
			out.CkptBytes += cb
		}
	}
	return out, nil
}

// runJob submits one job, polls until a terminal state, and fetches its
// result.
func runJob(cl *http.Client, base string, spec api.JobSpec, poll time.Duration) jobObs {
	o := jobObs{Submit: time.Now()}
	body, _ := json.Marshal(spec)
	var view api.Job
	for {
		code, err := doJSON(cl, http.MethodPost, base+"/v1/jobs", body, &view)
		if err != nil {
			o.Err = err
			return o
		}
		if code == http.StatusTooManyRequests {
			o.Rejected++
			time.Sleep(poll)
			continue
		}
		if code != http.StatusCreated {
			o.Err = fmt.Errorf("submit: HTTP %d", code)
			return o
		}
		break
	}
	o.Accepted = time.Now()
	o.ID = view.ID
	for !view.State.Terminal() {
		time.Sleep(poll)
		code, err := doJSON(cl, http.MethodGet, base+"/v1/jobs/"+o.ID, nil, &view)
		if err != nil || code != http.StatusOK {
			o.Err = fmt.Errorf("status: HTTP %d: %v", code, err)
			return o
		}
	}
	o.Done = time.Now()
	if view.State != api.StateDone {
		o.Err = fmt.Errorf("job %s ended %s: %s", o.ID, view.State, view.Error)
		return o
	}
	var res api.Result
	code, err := doJSON(cl, http.MethodGet, base+"/v1/jobs/"+o.ID+"/result", nil, &res)
	if err != nil || code != http.StatusOK {
		o.Err = fmt.Errorf("result: HTTP %d: %v", code, err)
		return o
	}
	o.Result = &res
	return o
}

func doJSON(cl *http.Client, method, url string, body []byte, into any) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, err
	}
	resp, err := cl.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 == 2 {
		if err := json.Unmarshal(b, into); err != nil {
			return resp.StatusCode, err
		}
	}
	return resp.StatusCode, nil
}

// checkJob is the correctness gate of one job: done, with a finite
// result bit-identical to the first job of the same client (every job of
// a client trains the same spec). Reaching the target is not required: a
// 6-epoch job on some seeds stops just short of it.
func checkJob(o jobObs, ref map[int]uint64) error {
	if o.Err != nil {
		return o.Err
	}
	if o.Result == nil || len(o.Result.Epochs) == 0 {
		return fmt.Errorf("job %s: missing result", o.ID)
	}
	l := o.Result.FinalLoss
	if math.IsNaN(l) || math.IsInf(l, 0) {
		return fmt.Errorf("job %s: non-finite loss %v", o.ID, l)
	}
	bits := math.Float64bits(l)
	if want, ok := ref[o.Client]; ok && want != bits {
		return fmt.Errorf("job %s: final loss bits %#x differ from client %d's first job %#x", o.ID, bits, o.Client, want)
	} else if !ok {
		ref[o.Client] = bits
	}
	return nil
}

// serveTelemetry mirrors hylo-serve, which runs with telemetry on.
func serveTelemetry() { telemetry.SetEnabled(true) }
