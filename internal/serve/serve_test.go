package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/serve/api"
	"repro/internal/serve/queue"
	"repro/internal/serve/runner"
	"repro/internal/telemetry"
)

// newTestServer boots a full stack — real executor, private 2-token pool —
// behind an httptest listener. Cleanup closes the listener, then shuts the
// runner down, so every job has finished writing its artifacts before the
// temp directory is removed.
func newTestServer(t testing.TB, qcfg queue.Config, exec runner.ExecFunc) (*httptest.Server, *runner.Runner) {
	t.Helper()
	telemetry.SetEnabled(true)
	r, err := runner.New(runner.Config{
		Dir:   t.TempDir(),
		Pool:  sched.NewTokenPool(2),
		Queue: qcfg,
		Exec:  exec,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := r.Shutdown(ctx); err != nil {
			t.Errorf("runner shutdown: %v", err)
		}
	})
	ts := httptest.NewServer(serve.New(r))
	t.Cleanup(ts.Close)
	return ts, r
}

// tinySpec is a seconds-scale real training job.
func tinySpec(epochs int, seed uint64) map[string]any {
	return map[string]any{
		"model": "mlp", "optimizer": "sgd",
		"epochs": epochs, "batch": 4, "classes": 2, "samples": 8,
		"seed": seed, "checkpoint_every": 1,
	}
}

func doJSON(t testing.TB, method, url string, body any) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func getJob(t testing.TB, base, id string) api.Job {
	t.Helper()
	code, body := doJSON(t, http.MethodGet, base+"/v1/jobs/"+id, nil)
	if code != http.StatusOK {
		t.Fatalf("GET job %s: %d %s", id, code, body)
	}
	var j api.Job
	if err := json.Unmarshal(body, &j); err != nil {
		t.Fatalf("decode job: %v", err)
	}
	return j
}

func waitState(t testing.TB, base, id string, want api.State) api.Job {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		j := getJob(t, base, id)
		if j.State == want {
			return j
		}
		if j.State.Terminal() {
			t.Fatalf("job %s reached %s (err %q), want %s", id, j.State, j.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, want %s", id, j.State, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestE2ESubmitPollArtifacts(t *testing.T) {
	ts, _ := newTestServer(t, queue.Config{}, nil)

	// Submit.
	code, body := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", tinySpec(2, 7))
	if code != http.StatusCreated {
		t.Fatalf("submit: %d %s", code, body)
	}
	var j api.Job
	if err := json.Unmarshal(body, &j); err != nil {
		t.Fatal(err)
	}
	if j.ID == "" || j.Spec.Model != "mlp" || j.Spec.LR == 0 {
		t.Fatalf("submit response not normalized: %+v", j)
	}

	// Poll to completion.
	final := waitState(t, ts.URL, j.ID, api.StateDone)
	if final.Progress.Epoch != 2 || final.Progress.Epochs != 2 {
		t.Fatalf("progress = %+v, want 2/2", final.Progress)
	}

	// List contains it.
	code, body = doJSON(t, http.MethodGet, ts.URL+"/v1/jobs", nil)
	if code != http.StatusOK || !strings.Contains(string(body), j.ID) {
		t.Fatalf("list: %d %s", code, body)
	}

	// Artifacts exist on disk.
	code, body = doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+j.ID+"/artifacts", nil)
	if code != http.StatusOK {
		t.Fatalf("artifacts: %d %s", code, body)
	}
	var arts api.Artifacts
	if err := json.Unmarshal(body, &arts); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(arts.Checkpoints); err != nil || !fi.IsDir() {
		t.Fatalf("checkpoint dir %q: %v", arts.Checkpoints, err)
	}
	if ents, err := os.ReadDir(arts.Checkpoints); err != nil || len(ents) == 0 {
		t.Fatalf("checkpoint dir empty (err %v)", err)
	}

	// Result has both epochs and finite numbers.
	code, body = doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+j.ID+"/result", nil)
	if code != http.StatusOK {
		t.Fatalf("result: %d %s", code, body)
	}
	var res api.Result
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Epochs) != 2 || !isFinite(res.FinalLoss) {
		t.Fatalf("result = %+v", res)
	}

	// Telemetry JSONL streams epoch records.
	code, body = doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+j.ID+"/telemetry", nil)
	if code != http.StatusOK || !strings.Contains(string(body), `"train_loss"`) {
		t.Fatalf("telemetry: %d %s", code, body)
	}

	// Prometheus exposition includes the serve metrics.
	code, body = doJSON(t, http.MethodGet, ts.URL+"/metrics", nil)
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	for _, metric := range []string{"serve_jobs_total", "serve_job_duration_ns", "serve_queue_depth"} {
		if !strings.Contains(string(body), metric) {
			t.Errorf("metrics output missing %s:\n%s", metric, body)
		}
	}

	// Cancelling a finished job is a 409 conflict.
	code, body = doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+j.ID, nil)
	if code != http.StatusConflict || !strings.Contains(string(body), "conflict") {
		t.Fatalf("delete done job: %d %s", code, body)
	}
}

func isFinite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

func TestErrorPaths(t *testing.T) {
	ts, _ := newTestServer(t, queue.Config{}, nil)

	// Unknown job → 404 with stable code.
	code, body := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/jb-404404", nil)
	if code != http.StatusNotFound || !strings.Contains(string(body), "not_found") {
		t.Fatalf("unknown job: %d %s", code, body)
	}

	// Invalid spec → 400 with the CLI's validation message.
	code, body = doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", map[string]any{"optimizer": "lion"})
	if code != http.StatusBadRequest || !strings.Contains(string(body), "unknown optimizer") {
		t.Fatalf("bad optimizer: %d %s", code, body)
	}

	// Out-of-range sketch oversampling → 400 carrying the typed
	// cliutil message, same as the hylo-train flag.
	code, body = doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", map[string]any{"kid_oversample": -3})
	if code != http.StatusBadRequest || !strings.Contains(string(body), "kid-oversample") {
		t.Fatalf("bad kid_oversample: %d %s", code, body)
	}
	code, body = doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", map[string]any{"kid_sketch": "hadamard"})
	if code != http.StatusBadRequest || !strings.Contains(string(body), "kid-sketch") {
		t.Fatalf("bad kid_sketch: %d %s", code, body)
	}

	// Unknown fields are rejected (typo'd hyperparameters must not be
	// silently dropped).
	code, body = doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", map[string]any{"epohcs": 3})
	if code != http.StatusBadRequest {
		t.Fatalf("typo'd field: %d %s", code, body)
	}

	// Result of a queued/running job → 409.
	block := make(chan struct{})
	ts2, _ := newTestServer(t, queue.Config{},
		func(j *runner.Job) (api.Result, error) { <-block; return api.Result{}, nil })
	defer close(block)
	code, body = doJSON(t, http.MethodPost, ts2.URL+"/v1/jobs", tinySpec(1, 1))
	if code != http.StatusCreated {
		t.Fatalf("submit: %d %s", code, body)
	}
	var j api.Job
	json.Unmarshal(body, &j)
	code, body = doJSON(t, http.MethodGet, ts2.URL+"/v1/jobs/"+j.ID+"/result", nil)
	if code != http.StatusConflict {
		t.Fatalf("early result fetch: %d %s", code, body)
	}
}

// TestQuotaExhaustion429 fills one tenant's queue quota and asserts the
// over-quota submission is rejected with 429 while another tenant is
// unaffected.
func TestQuotaExhaustion429(t *testing.T) {
	block := make(chan struct{})
	ts, r := newTestServer(t, queue.Config{MaxQueuedPerTenant: 1},
		func(j *runner.Job) (api.Result, error) { <-block; return api.Result{}, nil })
	defer close(block)

	// The runner has 2 slots (pool cap), so jobs 1–2 run, job 3 fills the
	// tenant's queue quota of 1, and job 4 must bounce with 429.
	ids := make([]string, 0, 3)
	for i := 0; i < 3; i++ {
		code, body := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", tinySpec(1, uint64(i+1)))
		if code != http.StatusCreated {
			t.Fatalf("submit %d: %d %s", i, code, body)
		}
		var j api.Job
		json.Unmarshal(body, &j)
		ids = append(ids, j.ID)
		if i < 2 {
			// Wait for dispatch so the queued-quota accounting is
			// deterministic before the next submission.
			waitState(t, ts.URL, j.ID, api.StateRunning)
		}
	}
	if r.QueueLen() != 1 {
		t.Fatalf("queue depth = %d, want 1", r.QueueLen())
	}

	code, body := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", tinySpec(1, 9))
	if code != http.StatusTooManyRequests || !strings.Contains(string(body), "quota_exceeded") {
		t.Fatalf("over-quota submit: %d %s", code, body)
	}

	// Another tenant is admitted despite default's full queue.
	spec := tinySpec(1, 10)
	spec["tenant"] = "team-b"
	code, body = doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", spec)
	if code != http.StatusCreated {
		t.Fatalf("tenant b submit: %d %s", code, body)
	}
}

// TestCancelThenResumeBitIdentical drives the headline acceptance flow over
// HTTP: cancel a running job, verify it lands in cancelled with a
// checkpoint, resubmit with resume_from, and require the resumed history to
// match an uninterrupted reference run exactly.
func TestCancelThenResumeBitIdentical(t *testing.T) {
	ts, _ := newTestServer(t, queue.Config{}, nil)
	const epochs = 200
	const seed = 11

	// Uninterrupted reference.
	code, body := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", tinySpec(epochs, seed))
	if code != http.StatusCreated {
		t.Fatalf("submit ref: %d %s", code, body)
	}
	var ref api.Job
	json.Unmarshal(body, &ref)
	waitState(t, ts.URL, ref.ID, api.StateDone)
	var refRes api.Result
	_, body = doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+ref.ID+"/result", nil)
	if err := json.Unmarshal(body, &refRes); err != nil {
		t.Fatal(err)
	}

	// Victim: cancel once a couple of epochs have completed.
	code, body = doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", tinySpec(epochs, seed))
	if code != http.StatusCreated {
		t.Fatalf("submit victim: %d %s", code, body)
	}
	var victim api.Job
	json.Unmarshal(body, &victim)
	deadline := time.Now().Add(60 * time.Second)
	for {
		j := getJob(t, ts.URL, victim.ID)
		if j.State == api.StateRunning && j.Progress.Epoch >= 2 {
			break
		}
		if j.State.Terminal() {
			t.Fatalf("victim finished before cancel (state %s) — raise epochs", j.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("victim never reached epoch 2")
		}
	}
	code, body = doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+victim.ID, nil)
	if code != http.StatusAccepted {
		t.Fatalf("cancel: %d %s", code, body)
	}
	cancelled := waitState(t, ts.URL, victim.ID, api.StateCancelled)
	if cancelled.Progress.Epoch >= epochs {
		t.Fatalf("victim ran to completion (%d epochs) despite cancel", cancelled.Progress.Epoch)
	}
	if ents, err := os.ReadDir(cancelled.Artifacts.Checkpoints); err != nil || len(ents) == 0 {
		t.Fatalf("no checkpoint after cancel (err %v)", err)
	}

	// Resume continues from the victim's checkpoint dir.
	spec := tinySpec(epochs, seed)
	spec["resume_from"] = victim.ID
	code, body = doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", spec)
	if code != http.StatusCreated {
		t.Fatalf("submit resume: %d %s", code, body)
	}
	var resumed api.Job
	json.Unmarshal(body, &resumed)
	if resumed.Artifacts.Checkpoints != cancelled.Artifacts.Checkpoints {
		t.Fatalf("resume checkpoints at %q, want victim's %q",
			resumed.Artifacts.Checkpoints, cancelled.Artifacts.Checkpoints)
	}
	waitState(t, ts.URL, resumed.ID, api.StateDone)
	var resRes api.Result
	_, body = doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+resumed.ID+"/result", nil)
	if err := json.Unmarshal(body, &resRes); err != nil {
		t.Fatal(err)
	}

	// Bit-identical: the resumed run reproduces the reference history
	// exactly — same epochs, same losses, same metrics, no tolerance.
	if len(resRes.Epochs) != len(refRes.Epochs) {
		t.Fatalf("resumed %d epochs, reference %d", len(resRes.Epochs), len(refRes.Epochs))
	}
	for i := range refRes.Epochs {
		if resRes.Epochs[i].TrainLoss != refRes.Epochs[i].TrainLoss ||
			resRes.Epochs[i].Metric != refRes.Epochs[i].Metric {
			t.Fatalf("epoch %d diverged: resumed (%.17g, %.17g) vs reference (%.17g, %.17g)",
				i, resRes.Epochs[i].TrainLoss, resRes.Epochs[i].Metric,
				refRes.Epochs[i].TrainLoss, refRes.Epochs[i].Metric)
		}
	}
	if resRes.FinalLoss != refRes.FinalLoss || resRes.Best != refRes.Best {
		t.Fatalf("final loss/best diverged: (%.17g, %.17g) vs (%.17g, %.17g)",
			resRes.FinalLoss, resRes.Best, refRes.FinalLoss, refRes.Best)
	}
}

// TestBenchJob submits a quick bench experiment and expects a rendered
// table in the result.
func TestBenchJob(t *testing.T) {
	ts, _ := newTestServer(t, queue.Config{}, nil)
	code, body := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs",
		map[string]any{"kind": "bench", "experiment": "fig2", "quick": true})
	if code != http.StatusCreated {
		t.Fatalf("submit bench: %d %s", code, body)
	}
	var j api.Job
	json.Unmarshal(body, &j)
	waitState(t, ts.URL, j.ID, api.StateDone)
	_, body = doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+j.ID+"/result", nil)
	var res api.Result
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.TableID != "fig2" || len(res.TableRows) == 0 {
		t.Fatalf("bench result = %+v", res)
	}
}

// TestHealthz sanity-checks the liveness endpoint.
func TestHealthz(t *testing.T) {
	ts, _ := newTestServer(t, queue.Config{}, nil)
	code, body := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil)
	if code != http.StatusOK || !strings.Contains(string(body), `"status": "ok"`) {
		t.Fatalf("healthz: %d %s", code, body)
	}
	var h struct {
		MaxRunning int `json:"max_running"`
	}
	if err := json.Unmarshal(body, &h); err != nil || h.MaxRunning != 2 {
		t.Fatalf("healthz body: %s (err %v)", body, err)
	}
}

// newOneSlotServer boots a server whose runner has a single dispatch
// slot, so priority preemption is the only way a high job can jump a
// busy daemon.
func newOneSlotServer(t testing.TB) (*httptest.Server, *runner.Runner) {
	t.Helper()
	telemetry.SetEnabled(true)
	r, err := runner.New(runner.Config{
		Dir:  t.TempDir(),
		Pool: sched.NewTokenPool(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(serve.New(r))
	t.Cleanup(ts.Close)
	return ts, r
}

// TestPreemptThenResumeBitIdentical drives checkpoint-preemption over
// HTTP: a low-priority run is evicted by a high-priority submission at an
// epoch boundary, re-enqueues, resumes when the slot frees — and its
// final history matches an uninterrupted reference run bit for bit.
func TestPreemptThenResumeBitIdentical(t *testing.T) {
	ts, _ := newOneSlotServer(t)
	const epochs = 200
	const seed = 11

	// Uninterrupted reference on the same daemon.
	code, body := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", tinySpec(epochs, seed))
	if code != http.StatusCreated {
		t.Fatalf("submit ref: %d %s", code, body)
	}
	var ref api.Job
	json.Unmarshal(body, &ref)
	waitState(t, ts.URL, ref.ID, api.StateDone)
	var refRes api.Result
	_, body = doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+ref.ID+"/result", nil)
	if err := json.Unmarshal(body, &refRes); err != nil {
		t.Fatal(err)
	}

	// Victim: low priority, long enough to still be running when the
	// preemptor lands.
	vspec := tinySpec(epochs, seed)
	vspec["priority"] = "low"
	code, body = doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", vspec)
	if code != http.StatusCreated {
		t.Fatalf("submit victim: %d %s", code, body)
	}
	var victim api.Job
	json.Unmarshal(body, &victim)
	if victim.Priority != "low" || victim.Provenance != api.ProvenanceFresh {
		t.Fatalf("victim wire view: priority %q provenance %q", victim.Priority, victim.Provenance)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		j := getJob(t, ts.URL, victim.ID)
		if j.State == api.StateRunning && j.Progress.Epoch >= 2 {
			break
		}
		if j.State.Terminal() {
			t.Fatalf("victim finished before preemption (state %s) — raise epochs", j.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("victim never reached epoch 2")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// High-priority preemptor: evicts the victim and runs to completion.
	pspec := tinySpec(3, 99)
	pspec["priority"] = "high"
	code, body = doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", pspec)
	if code != http.StatusCreated {
		t.Fatalf("submit preemptor: %d %s", code, body)
	}
	var pre api.Job
	json.Unmarshal(body, &pre)
	waitState(t, ts.URL, pre.ID, api.StateDone)

	// The victim resumes and finishes; the wire view records the eviction.
	final := waitState(t, ts.URL, victim.ID, api.StateDone)
	if final.Preemptions < 1 {
		t.Fatalf("victim preemptions = %d, want >= 1", final.Preemptions)
	}
	if final.Provenance != api.ProvenanceResumed {
		t.Fatalf("victim provenance = %q, want %q", final.Provenance, api.ProvenanceResumed)
	}
	if final.Progress.Epoch != epochs {
		t.Fatalf("victim completed %d epochs, want %d", final.Progress.Epoch, epochs)
	}

	// Bit-identical to the unpreempted reference: same losses, same
	// metrics, no tolerance.
	var vicRes api.Result
	_, body = doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+victim.ID+"/result", nil)
	if err := json.Unmarshal(body, &vicRes); err != nil {
		t.Fatal(err)
	}
	if len(vicRes.Epochs) != len(refRes.Epochs) {
		t.Fatalf("victim %d epochs, reference %d", len(vicRes.Epochs), len(refRes.Epochs))
	}
	for i := range refRes.Epochs {
		if vicRes.Epochs[i].TrainLoss != refRes.Epochs[i].TrainLoss ||
			vicRes.Epochs[i].Metric != refRes.Epochs[i].Metric {
			t.Fatalf("epoch %d diverged: victim (%.17g, %.17g) vs reference (%.17g, %.17g)",
				i, vicRes.Epochs[i].TrainLoss, vicRes.Epochs[i].Metric,
				refRes.Epochs[i].TrainLoss, refRes.Epochs[i].Metric)
		}
	}
	if vicRes.FinalLoss != refRes.FinalLoss || vicRes.Best != refRes.Best {
		t.Fatalf("final loss/best diverged: (%.17g, %.17g) vs (%.17g, %.17g)",
			vicRes.FinalLoss, vicRes.Best, refRes.FinalLoss, refRes.Best)
	}

	// The eviction shows up in daemon metrics and the jobs list carries
	// priority + provenance for every entry.
	code, body = doJSON(t, http.MethodGet, ts.URL+"/metrics", nil)
	if code != http.StatusOK || !strings.Contains(string(body), "serve_preemptions_total") {
		t.Fatalf("metrics missing serve_preemptions_total: %d\n%s", code, body)
	}
	code, body = doJSON(t, http.MethodGet, ts.URL+"/v1/jobs", nil)
	if code != http.StatusOK {
		t.Fatalf("list: %d %s", code, body)
	}
	var list api.JobList
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	for _, j := range list.Jobs {
		if j.Priority == "" || j.Provenance == "" {
			t.Fatalf("list entry %s missing priority/provenance: %+v", j.ID, j)
		}
	}
}
