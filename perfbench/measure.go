package main

import (
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/mat"
	"repro/internal/numerics"
	"repro/internal/telemetry"
)

// minTrials is how many cold-start training trials every untraced run
// makes at least, so setup_s is a median of several set-ups.
const minTrials = 3

// serveSessions is how many server lifetimes an untraced serve run makes.
const serveSessions = 5

// serveJobsPerClient is how many timed jobs each client runs per session:
// enough for the p90's timed jobs, and what --seconds buys at the
// workload's JobEstimate. Like trialCount it depends on the arguments
// only, so every run does the same work: the heap's peak grows with the
// jobs the server has taken, and a deadline would let a faster host take
// more of them.
func serveJobsPerClient(w serveWorkload, seconds time.Duration) int {
	n := (samplesForTail(90) + serveSessions*w.Clients - 1) / (serveSessions * w.Clients)
	return max(n, int(seconds/serveSessions/w.JobEstimate))
}

// endToEnd sets the metrics every untraced run reports. The timing metrics
// are tails, not medians or means: on a shared host the speed of the CPU
// switches between a fast and a slow state, and a median or mean over a
// run follows the share of time spent in each, which changes from run to
// run. The p90 lies in the slow state as long as a run
// spends more than a tenth of its time there. peaks holds the heap peak of
// each trial or session; their median does not hang on one GC's timing.
func endToEnd(rep *report, setup, epochMS, jobMS, peaks []float64, mallocs uint64, samples float64) {
	rep.set("setup_s", "s", median(setup))
	rep.set("epoch_ms_p90", "ms", percentile(epochMS, 90))
	rep.set("job_ms_p90", "ms", percentile(jobMS, 90))
	rep.set("peak_heap_mb", "MiB", median(peaks))
	rep.set("allocs_per_sample", "count", float64(mallocs)/samples)
	if len(epochMS) < samplesForTail(90) {
		rep.fail("%d timed epochs: epoch_ms_p90 needs %d", len(epochMS), samplesForTail(90))
	}
}

// trialSeed derives trial k's seed from the run seed. The trials of a
// run train disjoint seeds: how much work an epoch does depends on the
// seed (HyLo picks KID or KIS per epoch from the gradients), so a run
// that averages several seeds repeats better than one that trains one.
func trialSeed(seed uint64, k int) uint64 { return seed*64 + uint64(k) + 1 }

// trialCount is how many trials an untraced run makes: enough for
// minTrials set-ups and for the p90's timed epochs, and more when
// --seconds asks for a longer run than that. The count depends on the
// arguments only, never on the speed of the machine, so every run with
// the same arguments does the same work.
func trialCount(w trainWorkload, seconds time.Duration) int {
	n := max(minTrials, (samplesForTail(90)+w.Timed-1)/w.Timed)
	return max(n, int(seconds/w.TrialEstimate))
}

// trainRun makes trialCount cold-start trials of w and reports their
// pooled timed epochs and their median set-up. A short untimed trial
// first pays the process's one-time costs (first touch of the heap, the
// first connections) that would otherwise land in trial 0's set-up and
// first epochs.
func trainRun(w trainWorkload) func(uint64, time.Duration, string, *report) error {
	return func(seed uint64, seconds time.Duration, dir string, rep *report) error {
		warm := w
		warm.Timed = 1
		if _, err := runTrial(warm, trialSeed(seed, 0), nil, filepath.Join(dir, "warm")); err != nil {
			return err
		}
		heap := startHeapSampler()
		defer heap.Stop()
		var setup, epochMS, jobMS, peaks []float64
		var samples float64
		var toTarget []int
		var mallocs uint64
		n := trialCount(w, seconds)
		for k := 0; k < n; k++ {
			t, err := runTrial(w, trialSeed(seed, k), nil, filepath.Join(dir, fmt.Sprint("trial", k)))
			if err != nil {
				return err
			}
			peaks = append(peaks, heap.Lap())
			rep.Attempted += len(t.Res.Stats) * t.Steps
			if err := t.check(w); err != nil {
				rep.fail("trial %d: %v", k, err)
			}
			setup = append(setup, t.Setup.Seconds())
			epochMS = append(epochMS, t.TimedEpochs(w)...)
			jobMS = append(jobMS, ms(t.Job))
			samples += float64(w.Timed * t.Steps * t.GlobalBS)
			mallocs += t.Mallocs
			toTarget = append(toTarget, t.EpochsToTarget())
		}
		rep.info["epochs_to_target"] = toTarget
		endToEnd(rep, setup, epochMS, jobMS, peaks, mallocs, samples)
		return nil
	}
}

// telemetryWindow turns the program's own telemetry on with a fresh
// registry for the traced part of a run and returns the function that
// turns it off again. Numerics and pool counters are reset or
// snapshotted at the same point.
func telemetryWindow() (registry *telemetry.Registry, poolHits, poolMisses int64, stop func()) {
	telemetry.SetDefault(telemetry.New())
	numerics.Reset()
	h, m := mat.PoolStats()
	telemetry.SetEnabled(true)
	return telemetry.Default().Metrics, h, m, func() { telemetry.SetEnabled(false) }
}

// counterSum adds every series of a counter (all label sets) whose labels
// include the given key=value pairs.
func counterSum(reg *telemetry.Registry, name string, match ...string) float64 {
	var s float64
	for _, p := range reg.Snapshot() {
		if p.Name != name || p.Kind != telemetry.KindCounter {
			continue
		}
		ok := true
		for i := 0; i+1 < len(match); i += 2 {
			found := false
			for _, l := range p.Labels {
				if l.Key == match[i] && l.Value == match[i+1] {
					found = true
				}
			}
			ok = ok && found
		}
		if ok {
			s += p.Value
		}
	}
	return s
}

// histQuantile returns quantile q of the first series of the named
// histogram; the benchmark reads only unlabelled histograms.
func histQuantile(reg *telemetry.Registry, name string, q float64) float64 {
	for _, p := range reg.Snapshot() {
		if p.Name == name && p.Hist != nil {
			return p.Hist.Quantile(q)
		}
	}
	return 0
}

// perLayerNames lists every per-layer metric in output order with its
// unit. A metric whose layer is not on a workload's path reads 0 there.
var perLayerNames = [][2]string{
	{"nn.forward_ms", "ms"}, {"nn.backward_ms", "ms"}, {"nn.capture_extra_ms", "ms"},
	{"core.update_ms", "ms"}, {"core.precondition_ms", "ms"},
	{"core.kid_epochs", "count"}, {"core.kis_epochs", "count"},
	{"kfac.update_ms", "ms"}, {"kfac.precondition_ms", "ms"},
	{"kfac.coll_calls_per_update", "count"}, {"kfac.coll_bytes_per_update", "bytes"},
	{"kfac.coll_ms_per_update", "ms"},
	{"numerics.fallbacks_per_update", "count"}, {"numerics.retries_per_update", "count"},
	{"sched.overlap_ms_per_update", "ms"}, {"mat.pool_miss_ratio", "ratio"},
	{"train.step_ms", "ms"}, {"train.residual_ms", "ms"},
	{"train.grad_reduce_calls_per_step", "count"}, {"train.grad_reduce_bytes_per_step", "bytes"},
	{"train.eval_ms_per_epoch", "ms"}, {"train.epoch_boundary_ms", "ms"},
	{"train.epochs_to_target", "count"},
	{"distnet.wire_bytes_per_step", "bytes"}, {"distnet.coord_ingress_bytes_per_step", "bytes"},
	{"distnet.retries", "count"}, {"distnet.rtt_ms_p50", "ms"},
	{"ckpt.writes_per_epoch", "count"}, {"ckpt.bytes_per_write", "bytes"},
	{"go.allocs_per_step", "count"}, {"go.alloc_bytes_per_step", "bytes"},
	{"go.gc_cycles_per_epoch", "count"},
	{"setup.data_s", "s"}, {"setup.build_s", "s"}, {"setup.rendezvous_s", "s"},
	{"setup.warmup_s", "s"},
	{"serve.submit_ms_p50", "ms"}, {"serve.queue_wait_ms_p50", "ms"},
	{"serve.exec_ms_p50", "ms"}, {"serve.finish_ms_p50", "ms"},
	{"serve.first_epoch_ms_p50", "ms"}, {"serve.rejected", "count"},
	{"serve.tokens_high_water", "count"}, {"serve.artifact_bytes_per_job", "bytes"},
	{"trace.untraced_samples_per_s", "1/s"}, {"trace.traced_samples_per_s", "1/s"},
	{"trace.overhead_pct", "%"},
}

// perLayer starts a traced report with every per-layer metric at 0.
func perLayer() map[string]float64 {
	v := map[string]float64{}
	for _, n := range perLayerNames {
		v[n[0]] = 0
	}
	return v
}

func emitPerLayer(rep *report, v map[string]float64) {
	for _, n := range perLayerNames {
		rep.set(n[0], n[1], v[n[0]])
	}
}

// overhead records traced vs untraced throughput.
func overhead(v map[string]float64, untraced, traced float64) {
	v["trace.untraced_samples_per_s"] = untraced
	v["trace.traced_samples_per_s"] = traced
	v["trace.overhead_pct"] = 100 * (untraced/traced - 1)
}

// trainTrace runs one untraced and one traced trial of the same seed,
// checks that they end with the same loss bits, and reports the step
// anatomy of rank 0 over the timed epochs.
func trainTrace(w trainWorkload) func(uint64, time.Duration, string, *report) error {
	return func(seed uint64, _ time.Duration, dir string, rep *report) error {
		seed = trialSeed(seed, 0)
		u, err := runTrial(w, seed, nil, filepath.Join(dir, "untraced"))
		if err != nil {
			return err
		}
		reg, hits0, miss0, stop := telemetryWindow()
		tr := newTracer()
		t, err := runTrial(w, seed, tr, filepath.Join(dir, "traced"))
		stop()
		if err != nil {
			return err
		}
		for name, x := range map[string]*trialResult{"untraced": u, "traced": t} {
			rep.Attempted += len(x.Res.Stats) * x.Steps
			if err := x.check(w); err != nil {
				rep.fail("%s trial: %v", name, err)
			}
		}
		if a, b := math.Float64bits(t.Res.FinalLoss), math.Float64bits(u.Res.FinalLoss); a != b {
			rep.fail("traced final loss bits %#x differ from untraced %#x", a, b)
		}
		r0 := tr.rank0()
		if r0 == nil {
			return fmt.Errorf("tracer saw no rank 0 replica")
		}
		S, W := t.Steps, w.Warmup
		if len(r0.steps) != (W+w.Timed)*S || len(r0.evalStart) != W+w.Timed {
			return fmt.Errorf("traced %d steps and %d evaluations, want %d and %d",
				len(r0.steps), len(r0.evalStart), (W+w.Timed)*S, W+w.Timed)
		}
		timed := r0.steps[W*S:]
		n := float64(len(timed))
		v := perLayer()

		var step, fwd, bwd, upd, pre time.Duration
		var refreshFB, plainFB []float64
		layerF := make([]time.Duration, len(r0.layers))
		layerB := make([]time.Duration, len(r0.layers))
		updates := 0
		for _, s := range timed {
			step += s.end.Sub(s.start)
			fwd += s.fwd
			bwd += s.bwd
			upd += s.update
			pre += s.precond
			if s.refresh {
				updates++
				refreshFB = append(refreshFB, ms(s.fwd+s.bwd))
			} else {
				plainFB = append(plainFB, ms(s.fwd+s.bwd))
			}
			for i := range layerF {
				layerF[i] += s.layerFwd[i]
				layerB[i] += s.layBwd[i]
			}
		}
		v["train.step_ms"] = ms(step) / n
		v["nn.forward_ms"] = ms(fwd) / n
		v["nn.backward_ms"] = ms(bwd) / n
		if len(plainFB) > 0 && len(refreshFB) > 0 {
			v["nn.capture_extra_ms"] = mean(refreshFB) - mean(plainFB)
		}
		v["train.residual_ms"] = ms(step-fwd-bwd-upd-pre) / n
		prefix := "core."
		if w.Optimizer == "kfac" {
			prefix = "kfac."
		}
		v[prefix+"update_ms"] = div(ms(upd), float64(updates))
		v[prefix+"precondition_ms"] = ms(pre) / n
		if prefix == "core." {
			for _, m := range t.Res.EpochModes {
				v["core."+strings.ToLower(m)+"_epochs"]++
			}
		} else {
			c := r0.comm
			v["kfac.coll_calls_per_update"] = div(float64(c.calls.Load()), float64(r0.updates))
			v["kfac.coll_bytes_per_update"] = div(float64(c.bytes.Load()), float64(r0.updates))
			v["kfac.coll_ms_per_update"] = div(ms(time.Duration(c.nanos.Load())), float64(r0.updates))
		}

		// Counters the program publishes are process-wide: with both
		// ranks in this process they cover every replica.
		var allUpdates, precondAR, precondARBytes float64
		for _, r := range tr.replicas {
			allUpdates += float64(r.updates)
			precondAR += float64(r.comm.arCalls.Load())
			precondARBytes += float64(r.comm.arBytes.Load())
		}
		ranks := float64(w.Ranks)
		stepsPerRank := float64(len(r0.steps))
		snap := numerics.Default().Snapshot()
		v["numerics.fallbacks_per_update"] = div(float64(snap.TotalFallbacks()), allUpdates)
		v["numerics.retries_per_update"] = div(float64(snap.TotalRetries()), allUpdates)
		v["sched.overlap_ms_per_update"] = div(counterSum(reg, telemetry.MetricSchedOverlap)/1e6, allUpdates)
		hits1, miss1 := mat.PoolStats()
		v["mat.pool_miss_ratio"] = div(float64(miss1-miss0), float64(hits1-hits0+miss1-miss0))
		arCalls := counterSum(reg, telemetry.MetricCommCalls, "op", "allreduce")
		arBytes := counterSum(reg, telemetry.MetricCommBytes, "op", "allreduce")
		v["train.grad_reduce_calls_per_step"] = (arCalls - precondAR) / ranks / stepsPerRank
		v["train.grad_reduce_bytes_per_step"] = (arBytes - precondARBytes) / ranks / stepsPerRank
		wantCalls := 0.0
		if w.Ranks > 1 {
			wantCalls = float64(r0.nParams)
		}
		if got := v["train.grad_reduce_calls_per_step"]; got != wantCalls {
			rep.fail("gradient reduction made %v all-reduces per step per rank, want %v", got, wantCalls)
		}

		var evalMS, boundMS float64
		for e := W; e < W+w.Timed; e++ {
			evalMS += ms(t.EpochEnd[e].Sub(r0.evalStart[e]))
			boundMS += ms(r0.steps[e*S].start.Sub(t.EpochEnd[e-1]))
		}
		v["train.eval_ms_per_epoch"] = evalMS / float64(w.Timed)
		v["train.epochs_to_target"] = float64(t.EpochsToTarget())
		v["train.epoch_boundary_ms"] = boundMS / float64(w.Timed)

		if w.Ranks > 1 {
			v["distnet.wire_bytes_per_step"] = float64(t.NetTx[0]+t.NetTx[1]) / stepsPerRank
			v["distnet.coord_ingress_bytes_per_step"] = float64(t.NetRx[0]) / stepsPerRank
			v["distnet.retries"] = counterSum(reg, telemetry.MetricNetRetries)
			v["distnet.rtt_ms_p50"] = histQuantile(reg, telemetry.MetricNetRTT, 0.5) / 1e6
			epochs := float64(len(t.Res.Stats))
			v["ckpt.writes_per_epoch"] = counterSum(reg, telemetry.MetricCkptWrites) / epochs
			files, bytes := dirBytes(t.CkptDir)
			v["ckpt.bytes_per_write"] = div(float64(bytes), float64(files))
		}

		// Allocation counts come from the untraced trial: the wrappers
		// and the program's telemetry allocate.
		uSteps := float64(w.Timed * u.Steps)
		v["go.allocs_per_step"] = float64(u.Mallocs) / uSteps
		v["go.alloc_bytes_per_step"] = float64(u.AllocBytes) / uSteps
		v["go.gc_cycles_per_epoch"] = float64(u.GCs) / float64(w.Timed)

		v["setup.data_s"] = t.Data.Seconds()
		v["setup.build_s"] = r0.build.Seconds()
		v["setup.rendezvous_s"] = t.Rendezvous.Seconds()
		v["setup.warmup_s"] = (t.Setup - t.Data - t.Rendezvous - r0.build).Seconds()

		samples := float64(w.Timed * t.Steps * t.GlobalBS)
		overhead(v, samples/u.TimedSpan(w).Seconds(), samples/t.TimedSpan(w).Seconds())
		emitPerLayer(rep, v)

		fmt.Printf("per-layer table, rank 0, ms per timed step (%d steps, %d refresh):\n", len(timed), updates)
		fmt.Printf("%-4s %-12s %10s %10s\n", "idx", "layer", "fwd_ms", "bwd_ms")
		for i, name := range r0.layers {
			fmt.Printf("L%-3d %-12s %10.4f %10.4f\n", i, name, ms(layerF[i])/n, ms(layerB[i])/n)
		}
		return nil
	}
}

// serveRun runs serveSessions server sessions of serveJobsPerClient
// timed jobs per client, after a short untimed session that pays the
// process's one-time costs.
func serveRun(w serveWorkload) func(uint64, time.Duration, string, *report) error {
	return func(seed uint64, seconds time.Duration, dir string, rep *report) error {
		serveTelemetry()
		if _, err := runServeSession(w, trialSeed(seed, 0), filepath.Join(dir, "warm"), 1, false); err != nil {
			return err
		}
		heap := startHeapSampler()
		defer heap.Stop()
		var setup, epochMS, jobMS, peaks []float64
		var samples float64
		var toTarget []int
		var mallocs uint64
		perClient := serveJobsPerClient(w, seconds)
		for k := 0; k < serveSessions; k++ {
			s, err := runServeSession(w, trialSeed(seed, k), filepath.Join(dir, fmt.Sprint("server", k)), perClient, false)
			if err != nil {
				return err
			}
			peaks = append(peaks, heap.Lap())
			setup = append(setup, s.Setup.Seconds())
			ref := map[int]uint64{}
			for _, o := range s.Warm {
				toTarget = append(toTarget, o.TargetHits)
			}
			for _, o := range append(s.Warm, s.Jobs...) {
				rep.Attempted++
				if err := checkJob(o, ref); err != nil {
					rep.Failed++
					rep.fail("%v", err)
				}
			}
			for _, o := range s.Jobs {
				jobMS = append(jobMS, ms(o.Done.Sub(o.Submit)))
				samples += float64(o.Samples)
				if o.Result == nil {
					continue
				}
				prev := 0.0
				for _, e := range o.Result.Epochs {
					epochMS = append(epochMS, 1000*(e.ElapsedS-prev))
					prev = e.ElapsedS
				}
			}
			mallocs += s.Mallocs
		}
		rep.info["epochs_to_target"] = toTarget
		endToEnd(rep, setup, epochMS, jobMS, peaks, mallocs, samples)
		return nil
	}
}

// traceJobsPerClient is the timed job count of each traced-run session.
const traceJobsPerClient = 10

// serveTrace runs one untraced and one traced server session with the
// same jobs, checks every job against the first of its client, and
// reports the per-job anatomy seen from the client and from the Exec
// wrapper.
func serveTrace(w serveWorkload) func(uint64, time.Duration, string, *report) error {
	return func(seed uint64, _ time.Duration, dir string, rep *report) error {
		serveTelemetry()
		seed = trialSeed(seed, 0)
		u, err := runServeSession(w, seed, filepath.Join(dir, "untraced"), traceJobsPerClient, false)
		if err != nil {
			return err
		}
		reg, hits0, miss0, _ := telemetryWindow()
		t, err := runServeSession(w, seed, filepath.Join(dir, "traced"), traceJobsPerClient, true)
		if err != nil {
			return err
		}
		ref := map[int]uint64{}
		for _, s := range []*serveSession{u, t} {
			for _, o := range append(s.Warm, s.Jobs...) {
				rep.Attempted++
				if err := checkJob(o, ref); err != nil {
					rep.Failed++
					rep.fail("%v", err)
				}
			}
		}
		v := perLayer()
		var submit, wait, exec, finish, first []float64
		var samples, steps, epochs float64
		rejected := 0
		for _, o := range t.Jobs {
			rejected += o.Rejected
			samples += float64(o.Samples)
			submit = append(submit, ms(o.Accepted.Sub(o.Submit)))
			t.Exec.mu.Lock()
			es, ee := t.Exec.start[o.ID], t.Exec.end[o.ID]
			t.Exec.mu.Unlock()
			wait = append(wait, ms(es.Sub(o.Accepted)))
			exec = append(exec, ms(ee.Sub(es)))
			finish = append(finish, ms(o.Done.Sub(ee)))
			if o.Result != nil && len(o.Result.Epochs) > 0 {
				first = append(first, 1000*o.Result.Epochs[0].ElapsedS)
				epochs += float64(len(o.Result.Epochs))
			}
		}
		gb := float64(w.Spec.Batch * w.Spec.Workers)
		steps = samples / gb
		v["serve.submit_ms_p50"] = median(submit)
		v["serve.queue_wait_ms_p50"] = median(wait)
		v["serve.exec_ms_p50"] = median(exec)
		v["serve.finish_ms_p50"] = median(finish)
		v["serve.first_epoch_ms_p50"] = median(first)
		v["serve.rejected"] = float64(rejected)
		v["serve.tokens_high_water"] = float64(t.TokensHW)
		var art []float64
		for _, b := range t.ArtBytes {
			art = append(art, float64(b))
		}
		v["serve.artifact_bytes_per_job"] = mean(art)

		// The process-wide counters cover the warm-up jobs too.
		allJobs := float64(len(t.Warm) + len(t.Jobs))
		allEpochs := allJobs * float64(w.Spec.Epochs)
		allUpdates := allEpochs * steps / epochs / float64(w.Spec.UpdateFreq) * float64(w.Spec.Workers)
		snap := numerics.Default().Snapshot()
		v["numerics.fallbacks_per_update"] = div(float64(snap.TotalFallbacks()), allUpdates)
		v["numerics.retries_per_update"] = div(float64(snap.TotalRetries()), allUpdates)
		v["sched.overlap_ms_per_update"] = div(counterSum(reg, telemetry.MetricSchedOverlap)/1e6, allUpdates)
		hits1, miss1 := mat.PoolStats()
		v["mat.pool_miss_ratio"] = div(float64(miss1-miss0), float64(hits1-hits0+miss1-miss0))
		v["ckpt.writes_per_epoch"] = counterSum(reg, telemetry.MetricCkptWrites) / allEpochs
		v["ckpt.bytes_per_write"] = div(float64(t.CkptBytes), float64(t.CkptFiles))

		uSteps := samples / gb
		v["go.allocs_per_step"] = float64(u.Mallocs) / uSteps
		v["go.alloc_bytes_per_step"] = float64(u.AllocB) / uSteps
		v["go.gc_cycles_per_epoch"] = float64(u.GCs) / epochs
		v["setup.warmup_s"] = t.Setup.Seconds()
		var hits []float64
		for _, o := range t.Warm {
			hits = append(hits, float64(o.TargetHits))
		}
		v["train.epochs_to_target"] = mean(hits)

		overhead(v, samples/u.Span.Seconds(), samples/t.Span.Seconds())
		emitPerLayer(rep, v)

		fmt.Printf("per-job table, ms, p50 over %d timed jobs:\n", len(t.Jobs))
		fmt.Printf("%10s %10s %10s %10s %12s\n", "submit", "queue_wait", "exec", "finish", "first_epoch")
		fmt.Printf("%10.3f %10.3f %10.3f %10.3f %12.3f\n", median(submit), median(wait),
			median(exec), median(finish), median(first))
		return nil
	}
}
