package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"repro/internal/agents"
	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/hardware"
	"repro/internal/optimizer"
	"repro/internal/planner"
	"repro/internal/report"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/workflow"
)

// Sizes of the in-process layer pass. Jobs run through in-process pools
// advance their sim clocks, so the pass stays far below the clock at which
// a shard can wedge.
const (
	layerJobs  = 48 // trace jobs replayed through each layer
	layerReps  = 20 // repetitions of the pure (side-effect-free) calls
	serveReps  = 5  // repetitions of each in-process ServeHTTP submit
	postRounds = 2000
)

// perLayer prints and records the per-layer metrics of a traced phase:
// client-timed round trips, counters from the daemon's /v1/stats deltas,
// and the in-process pass timing each layer's public functions directly on
// the phase's own trace jobs.
func (b *bench) perLayer(m map[string]metric, p *phase, tr *tracer) error {
	all := p.jobs()
	o := tally(all)
	c := p.c
	fmt.Println("== per-layer: client round trips")
	for _, x := range []struct {
		name string
		xs   []float64
	}{{"api.submit_rtt_ms", c.submitRTT}, {"api.status_rtt_ms", c.statusRTT}, {"api.stats_rtt_ms", c.statsRTT}} {
		q := percentile(x.xs, 0.5)
		emit(m, x.name, nz(q.Value), "ms", pctNote(q))
	}

	fmt.Println("== per-layer: daemon counters over the phase")
	var d delta
	var after snapshot // each gauge's largest final read over the segments; recycles summed
	var stalled, shards int
	nodeSub := map[int]float64{}
	qmax := 0
	for _, s := range p.segs {
		d.add(statsDelta(s.before, s.after))
		for i, n := range s.after.NodeSubmitted {
			nodeSub[i] += diff(s.before.NodeSubmitted[i], n)
		}
		after.JobsTracked = max(after.JobsTracked, s.after.JobsTracked)
		after.Recycles += s.after.Recycles
		after.PeakPending = max(after.PeakPending, s.after.PeakPending)
		after.TelemetryPoints = max(after.TelemetryPoints, s.after.TelemetryPoints)
		after.Memory.GCPauseP95Us = max(after.Memory.GCPauseP95Us, s.after.Memory.GCPauseP95Us)
		after.Memory.HeapAllocBytes = max(after.Memory.HeapAllocBytes, s.after.Memory.HeapAllocBytes)
		after.Shards = append(after.Shards, s.after.Shards...)
		shards = max(shards, len(s.after.Shards))
		stalled += len(s.stalled)
		for _, sn := range append(s.snaps, s.after) {
			qmax = max(qmax, sn.QueueDepthMax)
		}
	}
	jobs := d.Jobs
	emit(m, "api.jobs_tracked", float64(after.JobsTracked), "count", "")
	emit(m, "api.recycles", float64(after.Recycles), "count", "")
	skew := 0.0
	if len(nodeSub) > 1 {
		lo, hi := math.Inf(1), 0.0
		for _, v := range nodeSub {
			lo, hi = min(lo, v), max(hi, v)
		}
		skew = hi / max(lo, 1)
	}
	emit(m, "router.node_skew", skew, "ratio", "max/min submits per node; 0 without the router")
	emit(m, "core.plan_searches_per_job", frac(d.PlanSearches, jobs), "count", "")
	emit(m, "core.plan_cache_hit_frac", frac(d.PlanCacheHits, jobs), "1", "")
	emit(m, "core.decomp_cache_hit_frac", frac(d.DecompCacheHits, jobs), "1", "")
	emit(m, "core.singleflight_hit_frac", frac(d.SingleflightHits, jobs), "1", "")
	emit(m, "core.plan_conflicts_per_job", frac(d.PlanConflicts, jobs), "count", "")
	qd := percentile(o.queueS, 0.5)
	emit(m, "core.queue_delay_s_p50", nz(qd.Value), "sim_s", pctNote(qd))
	emit(m, "sim.events_per_job", frac(d.Events, jobs), "count", "")
	emit(m, "sim.overflow_frac", frac(d.Overflow, d.Wheel+d.Overflow), "1", "overflow-heap share of schedules")
	emit(m, "sim.cancels_per_job", frac(d.Cancels, jobs), "count", "")
	emit(m, "sim.peak_pending", float64(after.PeakPending), "count", "")
	emit(m, "cluster.gen_per_job", frac(d.ClusterGen, jobs), "count", "")
	emit(m, "llmsim.queue_depth_max", float64(qmax), "count", "deepest engine queue seen in any stats read")
	emit(m, "telemetry.points_per_shard", frac(float64(after.TelemetryPoints), float64(shards)), "count", "")
	emit(m, "telemetry.compacted_points_per_job", frac(d.CompactedPoints, jobs), "count", "")
	emit(m, "contentkey.intern_hit_frac", frac(d.InternHits, d.InternAll), "1", "")
	emit(m, "core.scratch_pool_hit_frac", frac(d.ScratchHits, d.ScratchAll), "1", "")
	emit(m, "sim.clock_s_max", after.maxClock(), "sim_s", "")
	emit(m, "sim.stalled_shards", float64(stalled), "count", "summed over segments")
	emit(m, "gc.cycles_per_1k_jobs", 1000*frac(d.GCCycles, jobs), "count", "")
	emit(m, "gc.pause_p95_us", after.Memory.GCPauseP95Us, "us", "")
	emit(m, "gc.heap_alloc_mb", float64(after.Memory.HeapAllocBytes)/(1<<20), "MB", "")

	fmt.Println("== per-layer: generator validity")
	lag := p.genLag()
	behind := 0.0
	if b.w.open && genBehind(lag) {
		behind = 1
	}
	emit(m, "bench.gen_lag_ms_p99", nz(lag.Value), "ms", pctNote(lag))
	emit(m, "bench.gen_behind", behind, "bool", "1 when the open-loop generator fell behind its schedule")
	emit(m, "bench.job_samples", float64(len(o.latMs)), "count", "samples behind the job latency percentiles")
	emit(m, "bench.read_samples", float64(len(c.reads)), "count", "samples behind the read latency percentiles")

	fmt.Println("== per-layer: direct calls (in-process, same trace jobs)")
	lp := &layerPass{w: b.w, tr: tr, m: m}
	sample := all[:min(layerJobs, len(all))]
	if err := lp.pipeline(sample, o.finals); err != nil {
		return err
	}
	if err := lp.serving(sample); err != nil {
		return err
	}
	lp.ring(sample)
	lp.loopPost()

	fmt.Println("== self time per span (mean)")
	tr.mu.Lock()
	spans := append([]span(nil), tr.spans...)
	tr.mu.Unlock()
	for _, lt := range selfTimes(spans) {
		fmt.Printf("  %-28s n=%-7d self %10.2f us\n", lt.Name, lt.Count, lt.SelfUs)
	}
	return nil
}

// layerPass is the traced run's in-process pass: it calls each layer's
// public function directly on the traced phase's own trace jobs, under a
// span per call.
type layerPass struct {
	w  workload
	tr *tracer
	m  map[string]metric
}

// timed runs fn under a span and returns its duration.
func (lp *layerPass) timed(name string, parent int, job string, fn func() error) (time.Duration, error) {
	t := time.Now()
	err := fn()
	end := time.Now()
	lp.tr.record(name, parent, job, t, end)
	return end.Sub(t), err
}

// meanUs is the mean of a summed duration in microseconds.
func meanUs(d time.Duration, n int) float64 { return frac(float64(d)/1e3, float64(n)) }

// toJob converts a wire request the way the daemon's handler does.
func toJob(req api.JobRequest) (workflow.Job, error) {
	cs := map[string]workflow.Constraint{
		"MIN_COST": workflow.MinCost, "MIN_LATENCY": workflow.MinLatency,
		"MIN_POWER": workflow.MinPower, "MAX_QUALITY": workflow.MaxQuality,
	}
	c, ok := cs[strings.ToUpper(req.Constraint)]
	if !ok {
		return workflow.Job{}, fmt.Errorf("constraint %q", req.Constraint)
	}
	job := workflow.Job{Description: req.Description, Tasks: req.Tasks, Constraint: c, MinQuality: req.MinQuality}
	for _, in := range req.Inputs {
		if in.Kind == string(workflow.InputVideo) {
			job.Inputs = append(job.Inputs, workflow.VideoInput(in.Name,
				in.Attrs["duration_s"], in.Attrs["scene_len_s"], int(in.Attrs["frames_per_scene"])))
			continue
		}
		job.Inputs = append(job.Inputs, workflow.Input{Name: in.Name, Kind: workflow.InputKind(in.Kind), Attrs: in.Attrs})
	}
	return job, job.Validate()
}

// pipeline decodes each sample job's body, decomposes it, plans it and
// encodes a finished status the way the daemon does, under one root span
// per job, layerReps times. The first pass also runs each job to
// completion on a shard-shaped runtime, whose reports then time
// report.Finalize.
func (lp *layerPass) pipeline(sample []*jobRec, finals []api.JobStatusResponse) error {
	lib := agents.DefaultLibrary()
	eng := sim.NewEngine()
	cl := cluster.New(eng, hardware.DefaultCatalog())
	for v := 0; v < lp.w.vms; v++ {
		cl.AddVM(fmt.Sprintf("vm%d", v), hardware.NDv4SKUName, false)
	}
	rt, err := core.New(core.Config{Engine: eng, Cluster: cl, Library: lib})
	if err != nil {
		return fmt.Errorf("in-process runtime: %w", err)
	}
	opt := optimizer.New(cl.Catalog(), lib, rt.Profiles(), hardware.EPYC7V12)
	pl := planner.New(lib)

	var decodeD, encodeD, planD, finD time.Duration
	var n, nEncode int
	decomp := map[string]time.Duration{}
	nDecomp := map[string]int{}
	extraKinds := map[string]bool{}
	var reports []*report.Report
	for rep := 0; rep < layerReps; rep++ {
		for i, j := range sample {
			root, start := lp.tr.reserve(), time.Now()
			id := fmt.Sprintf("layers-%d-%d", rep, i)
			var req api.JobRequest
			d, err := lp.timed("api.decode", root, id, func() error {
				dec := json.NewDecoder(bytes.NewReader(j.tj.Body))
				dec.DisallowUnknownFields()
				return dec.Decode(&req)
			})
			if err != nil {
				return fmt.Errorf("decoding job %d: %w", i, err)
			}
			decodeD += d
			job, err := toJob(req)
			if err != nil {
				return fmt.Errorf("job %d: %w", i, err)
			}
			var res *planner.Result
			d, err = lp.timed("planner.decompose", root, id, func() (err error) {
				res, err = pl.Decompose(job)
				return err
			})
			if err != nil {
				return fmt.Errorf("decomposing job %d: %w", i, err)
			}
			decomp[j.tj.Kind] += d
			nDecomp[j.tj.Kind]++
			snap := cl.Snapshot()
			d, err = lp.timed("optimizer.plan", root, id, func() error {
				_, err := opt.Plan(res.Graph, snap, optimizer.Options{
					Constraint: job.Constraint, MinQuality: job.MinQuality, RelaxFloor: true,
				})
				return err
			})
			if err != nil {
				return fmt.Errorf("planning job %d: %w", i, err)
			}
			planD += d
			n++
			if len(finals) > 0 {
				f := finals[(rep*len(sample)+i)%len(finals)]
				d, err = lp.timed("api.encode", root, id, func() error {
					_, err := json.Marshal(f)
					return err
				})
				if err != nil {
					return fmt.Errorf("encoding a status: %w", err)
				}
				encodeD += d
				nEncode++
			}
			if rep == 0 {
				ex, err := rt.Submit(job, core.SubmitOptions{RelaxFloor: true})
				if err != nil {
					return fmt.Errorf("running job %d in-process: %w", i, err)
				}
				eng.Run()
				if !ex.Done() || ex.Err() != nil {
					return fmt.Errorf("in-process job %d did not complete: %v", i, ex.Err())
				}
				reports = append(reports, ex.Report())
			}
			lp.tr.finish(root, "layers.job", 0, id, start, time.Now())
		}
	}
	// A kind the workload never sends is still timed, on the mixed
	// warm-up set's jobs of that kind, so every per-kind metric is
	// measured on every workload.
	for _, tj := range warmMixed(256) {
		if _, sent := nDecomp[tj.Kind]; sent && !extraKinds[tj.Kind] {
			continue
		}
		extraKinds[tj.Kind] = true
		var req api.JobRequest
		if err := json.Unmarshal(tj.Body, &req); err != nil {
			return fmt.Errorf("decoding a warm-up job: %w", err)
		}
		job, err := toJob(req)
		if err != nil {
			return err
		}
		for r := 0; r < layerReps; r++ {
			d, err := lp.timed("planner.decompose", 0, "", func() error {
				_, err := pl.Decompose(job)
				return err
			})
			if err != nil {
				return fmt.Errorf("decomposing a %s job: %w", tj.Kind, err)
			}
			decomp[tj.Kind] += d
			nDecomp[tj.Kind]++
		}
	}
	for r := 0; r < layerReps; r++ {
		for i, rep := range reports {
			d, err := lp.timed("report.finalize", 0, fmt.Sprintf("finalize-%d", i), func() error {
				return report.Finalize(rep, cl)
			})
			if err != nil {
				return fmt.Errorf("finalizing report %d: %w", i, err)
			}
			finD += d
		}
	}
	emit(lp.m, "api.decode_us", meanUs(decodeD, n), "us", "JobRequest decode, as the handler does it")
	emit(lp.m, "api.encode_us", meanUs(encodeD, nEncode), "us", "JobStatusResponse encode of the phase's results")
	for _, k := range []struct{ kind, name string }{
		{"newsfeed", "planner.decompose_newsfeed_us"},
		{"document-qa", "planner.decompose_docqa_us"},
		{"video", "planner.decompose_video_us"},
	} {
		emit(lp.m, k.name, meanUs(decomp[k.kind], nDecomp[k.kind]), "us", fmt.Sprintf("n=%d", nDecomp[k.kind]))
	}
	emit(lp.m, "optimizer.plan_us", meanUs(planD, n), "us", "")
	emit(lp.m, "report.finalize_us", meanUs(finD, layerReps*len(reports)), "us", fmt.Sprintf("%d reports", len(reports)))
	return nil
}

// serving times api.Server.ServeHTTP on an in-process node and the router's
// ServeHTTP over in-process nodes on the same requests, interleaved so both
// see the same warm-up and clock; the hop is the difference of their
// medians. It also times Pool.Stats.
func (lp *layerPass) serving(sample []*jobRec) error {
	cfg := lp.w.poolConfig()
	srv, err := api.NewServer(cfg)
	if err != nil {
		return fmt.Errorf("in-process node: %w", err)
	}
	defer srv.Close()
	// A single-node workload still gets a router, so router.hop_us says
	// what the tier would add to its traffic.
	rt, err := router.New(router.Config{Nodes: max(lp.w.nodes, 2), Node: cfg})
	if err != nil {
		return fmt.Errorf("in-process router: %w", err)
	}
	defer rt.Close()
	names, handlers := []string{"api.serve", "router.serve"}, []http.Handler{srv, rt}
	for _, h := range handlers {
		for _, tj := range lp.w.warm() {
			if err := post(h, tj.WaitBody); err != nil {
				return fmt.Errorf("in-process warm-up: %w", err)
			}
		}
	}
	durs := make([][]float64, len(handlers))
	for r := 0; r < serveReps; r++ {
		for i, j := range sample {
			for k, h := range handlers {
				d, err := lp.timed(names[k], 0, fmt.Sprintf("%s-%d-%d", names[k], r, i), func() error { return post(h, j.tj.WaitBody) })
				if err != nil {
					return fmt.Errorf("%s job %d: %w", names[k], i, err)
				}
				durs[k] = append(durs[k], float64(d)/1e3)
			}
		}
	}
	apiUs := median(durs[0])
	emit(lp.m, "api.serve_us", apiUs, "us", fmt.Sprintf("median ServeHTTP, POST wait:true, in-process node, n=%d", len(durs[0])))
	emit(lp.m, "router.hop_us", median(durs[1])-apiUs, "us", "median router ServeHTTP minus api.serve_us")

	var st time.Duration
	const statsCalls = 200
	for i := 0; i < statsCalls; i++ {
		d, _ := lp.timed("api.pool_stats", 0, "", func() error { srv.Pool().Stats(); return nil })
		st += d
	}
	emit(lp.m, "api.pool_stats_us", meanUs(st, statsCalls), "us", "")
	return nil
}

// post serves one wait:true submit body in-process and checks the job
// completed, bounded so a wedged in-process shard cannot hang the run.
func post(h http.Handler, body []byte) error {
	ctx, cancel := context.WithTimeout(context.Background(), jobDeadline)
	defer cancel()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequestWithContext(ctx, http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
	if w.Code != http.StatusOK {
		return fmt.Errorf("HTTP %d: %s", w.Code, strings.TrimSpace(w.Body.String()))
	}
	return nil
}

// ring times Ring.NodeFor over the sample's tenants.
func (lp *layerPass) ring(sample []*jobRec) {
	ring := router.NewRing(0, 0)
	for n := 0; n < max(lp.w.nodes, 2); n++ {
		ring.Add(fmt.Sprintf("n%d", n))
	}
	const reps = 1000
	t := time.Now()
	for r := 0; r < reps; r++ {
		for _, j := range sample {
			ring.NodeFor(j.tj.Tenant)
		}
	}
	d := time.Since(t)
	lp.tr.record("router.node_for.batch", 0, "", t, t.Add(d))
	emit(lp.m, "router.node_for_ns", float64(d)/float64(reps*len(sample)), "ns", "")
}

// loopPost times a shard-loop Post round trip: post a closure, wait for it to
// run on the loop goroutine.
func (lp *layerPass) loopPost() {
	loop := sim.NewLoop(sim.NewEngine())
	go loop.Run()
	defer loop.Close()
	var total time.Duration
	for i := 0; i < postRounds; i++ {
		done := make(chan struct{})
		d, _ := lp.timed("sim.post", 0, "", func() error {
			loop.Post(func() { close(done) })
			<-done
			return nil
		})
		total += d
	}
	emit(lp.m, "sim.post_rtt_us", meanUs(total, postRounds), "us", "")
}
