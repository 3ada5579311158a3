package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"time"

	"repro/internal/api"
)

// workload is one named traffic shape against one daemon configuration.
type workload struct {
	name string
	// The daemon: nodes > 0 runs murakkabd -router -nodes <nodes>; every
	// node (or the single pool) has shards shards of vms VMs each.
	nodes, shards, vms int
	// Open loop: jobs due at a fixed rate, async submits, status polls and
	// one /v1/stats read per statsEvery submits. Closed loop: callers each
	// submit with wait:true back to back and read /v1/stats every
	// statsPeriod.
	open        bool
	wait        bool // open loop: submit with wait:true instead of polling
	rate        float64
	statsEvery  int
	statsPeriod time.Duration
	// newGen returns the workload's job stream drawn from rng.
	newGen func(*rand.Rand) func() traceJob
	warm   func() []traceJob
	// segmentS, when > 0, splits a run into segments of at most this many
	// seconds, each against a freshly started daemon.
	segmentS float64
	// clockTarget is the sim clock every shard should pass in the run
	// (0 when the workload does not aim for one).
	clockTarget float64
}

const (
	// conns is the generator's request goroutines and connections: the
	// benchmark host's core count, so the generator cannot out-thread the
	// daemon it measures.
	conns = 2
	// setups is how many times a run starts a daemon and warms it; setup_s
	// is their median and the last one is measured.
	setups = 15
	// jobDeadline is every job's wall deadline, from its due time; a job
	// not terminal by then counts as failed.
	jobDeadline = 5 * time.Second
	// genBehindMs is the open-loop schedule lag (p99) beyond which a run is
	// flagged as measuring the generator host rather than the daemon.
	genBehindMs = 5.0
	// warmSeed seeds the fixed warm-up set, independent of -seed.
	warmSeed = 7
	// statusProbes is how many finished jobs per segment the traced run
	// reads once more after the load, for api.status_rtt_ms.
	statusProbes = 20
)

var workloads = map[string]workload{
	"mixed-rw": {
		name:  "mixed-rw",
		nodes: 2, shards: 2, vms: 4,
		open: true, rate: 200, statsEvery: 20, segmentS: 5,
		newGen: func(rng *rand.Rand) func() traceJob { return mixedJobs(rng, 256, 1) },
		warm:   func() []traceJob { return warmMixed(256) },
	},
	"video-heavy": {
		name:   "video-heavy",
		shards: 2, vms: 2,
		statsPeriod: 100 * time.Millisecond,
		newGen:      heavyJobs,
		warm:        workloadsWarmVideo,
	},
	"video-paced": {
		name:   "video-paced",
		shards: 2, vms: 2,
		open: true, wait: true, rate: 60, statsEvery: 3, segmentS: 5,
		newGen: heavyJobs,
		warm:   workloadsWarmVideo,
	},
	"long-lived": {
		name:   "long-lived",
		shards: 2, vms: 4,
		open: true, rate: 500, statsEvery: 50,
		newGen:      func(rng *rand.Rand) func() traceJob { return mixedJobs(rng, 64, 4) },
		warm:        func() []traceJob { return warmMixed(64) },
		clockTarget: 1e5,
	},
}

// args are the murakkabd flags besides -addr.
func (w workload) args() []string {
	a := []string{"-shards", strconv.Itoa(w.shards), "-vms", strconv.Itoa(w.vms)}
	if w.nodes > 0 {
		a = append(a, "-router", "-nodes", strconv.Itoa(w.nodes))
	}
	return a
}

// poolConfig is the in-process equivalent of one daemon node, for the
// traced run's direct layer calls.
func (w workload) poolConfig() api.PoolConfig {
	return api.PoolConfig{Shards: w.shards, VMsPerShard: w.vms, MaxConcurrentPerShard: 4}
}

// warmMixed is the fixed warm-up set of the mixed workloads: 24 jobs of
// every kind, a sixth of them video.
func warmMixed(tenants int) []traceJob {
	gen := mixedJobs(rand.New(rand.NewSource(warmSeed)), tenants, 4)
	out := make([]traceJob, 24)
	for i := range out {
		out[i] = gen()
	}
	return out
}

// workloadsWarmVideo warms every video template on every tenant, so both
// shards hold every template's decomposition and plan.
func workloadsWarmVideo() []traceJob {
	var out []traceJob
	for t := 0; t < videoTenants; t++ {
		for v := range videoTemplates {
			out = append(out, videoTemplateJob(fmt.Sprintf("studio-%d", t), v))
		}
	}
	return out
}

// bench is one invocation: a workload, a seed and a measured duration.
type bench struct {
	w       workload
	seed    int64
	seconds float64
	bin     string
	workdir string
}

// setup starts a daemon and brings it to warm: /healthz answers and the
// fixed warm-up set has completed, filling the profile, decomposition and
// plan caches. It returns the daemon and the seconds from exec to warm.
func (b *bench) setup(hc *http.Client, i int) (*daemon, float64, error) {
	t := time.Now()
	d, err := startDaemon(b.bin, b.w.args(), b.path(fmt.Sprintf("daemon%d.log", i)))
	if err != nil {
		return nil, 0, err
	}
	if err := d.waitHealthy(hc, 30*time.Second); err != nil {
		d.stop()
		return nil, 0, err
	}
	c := &client{base: d.base, hc: hc}
	for k, tj := range b.w.warm() {
		j := &jobRec{tj: tj, deadline: time.Now().Add(30 * time.Second)}
		c.submit(j, true)
		if j.final == nil || j.final.Status != "done" {
			d.stop()
			why := fmt.Sprintf("HTTP %d, expired %v", j.refused, j.expired)
			if j.final != nil {
				why = j.final.Error
			}
			return nil, 0, fmt.Errorf("warm-up job %d (%s) did not complete: status %q: %s\n%s",
				k, tj.Kind, j.status, why, tj.Body)
		}
	}
	return d, time.Since(t).Seconds(), nil
}

// segment is one stretch of load against one freshly started, warm daemon.
type segment struct {
	jobs      []*jobRec
	lag       []float64
	wallS     float64
	cpuMs     float64
	rssMB     float64
	before    snapshot
	after     snapshot
	snaps     []snapshot // the measured stats reads, in order
	stalled   []shardRow
	totalsErr error
}

// phase is one measured duration: its segments, the set-up times of every
// daemon it started, and the client whose round trips it recorded.
type phase struct {
	segs   []segment
	setupS []float64
	c      *client
}

// jobs lists every segment's jobs in order.
func (p *phase) jobs() []*jobRec {
	var out []*jobRec
	for _, s := range p.segs {
		out = append(out, s.jobs...)
	}
	return out
}

// measure drives the workload for the given seconds, split into segments
// of at most w.segmentS seconds that each start a fresh daemon (the first
// starts and warms one several times, so set-up has at least setups
// samples). Daemons are stopped before it returns.
func (b *bench) measure(seconds float64, tr *tracer) (*phase, error) {
	hc := newHTTPClient(conns)
	defer hc.CloseIdleConnections()
	n := 1
	if b.w.segmentS > 0 {
		n = int(math.Ceil(seconds/b.w.segmentS - 1e-9))
	}
	p := &phase{c: &client{hc: hc, tr: tr}}
	rng := rand.New(rand.NewSource(b.seed))
	gen := b.w.newGen(rng)
	for k := 0; k < n; k++ {
		starts := 1
		if k == 0 {
			starts = max(1, setups-n+1)
		}
		var d *daemon
		for i := 0; i < starts; i++ {
			if d != nil {
				d.stop()
				hc.CloseIdleConnections()
			}
			var s float64
			var err error
			if d, s, err = b.setup(hc, len(p.setupS)); err != nil {
				return nil, fmt.Errorf("set-up %d: %w", len(p.setupS), err)
			}
			p.setupS = append(p.setupS, s)
		}
		seg, err := b.drive(d, p.c, rng, gen, seconds/float64(n))
		d.stop()
		hc.CloseIdleConnections()
		if err != nil {
			return nil, err
		}
		p.segs = append(p.segs, seg)
	}
	return p, nil
}

// drive runs one segment's load against a warm daemon and collects its
// CPU, peak RSS, stats and stall verdict.
func (b *bench) drive(d *daemon, c *client, rng *rand.Rand, gen func() traceJob, seconds float64) (segment, error) {
	var seg segment
	ctx := context.Background()
	c.base = d.base
	c.snaps = nil
	var err error
	if seg.before, _, err = c.fetchStats(ctx); err != nil {
		return seg, err
	}
	cpu0, err := procCPUms(d.pid())
	if err != nil {
		return seg, err
	}
	t0 := time.Now().Add(20 * time.Millisecond)
	if b.w.open {
		seg.jobs = make([]*jobRec, int(b.w.rate*seconds))
		for i := range seg.jobs {
			due := t0.Add(time.Duration(float64(i) / b.w.rate * float64(time.Second)))
			seg.jobs[i] = &jobRec{tj: gen(), due: due, deadline: due.Add(jobDeadline), span: c.tr.reserve()}
		}
		seg.lag = c.openLoop(seg.jobs, b.w.wait, b.w.statsEvery, rng.Int63())
		for _, j := range seg.jobs {
			c.finishJobSpan(j)
		}
	} else {
		stop := t0.Add(time.Duration(seconds * float64(time.Second)))
		time.Sleep(time.Until(t0))
		seg.jobs = c.closedLoop(gen, conns, jobDeadline, stop, b.w.statsPeriod)
	}
	seg.wallS = time.Since(t0).Seconds()
	cpu1, err := procCPUms(d.pid())
	if err != nil {
		return seg, err
	}
	seg.cpuMs = cpu1 - cpu0
	if seg.rssMB, err = procPeakRSSMB(d.pid()); err != nil {
		return seg, err
	}
	if c.tr != nil {
		c.probeStatus(seg.jobs, statusProbes)
	}

	// Stall check: every consecutive pair of stats reads in the segment,
	// then one more pair a quarter second apart after the load.
	a, _, err := c.fetchStats(ctx)
	if err != nil {
		return seg, err
	}
	time.Sleep(250 * time.Millisecond)
	if seg.after, _, err = c.fetchStats(ctx); err != nil {
		return seg, err
	}
	c.mu.Lock()
	seg.snaps = c.snaps
	c.mu.Unlock()
	seq := append(append([]snapshot{seg.before}, seg.snaps...), a, seg.after)
	seen := map[string]bool{}
	for i := 1; i < len(seq); i++ {
		for _, r := range stalledShards(seq[i-1], seq[i]) {
			if !seen[r.key()] {
				seen[r.key()] = true
				seg.stalled = append(seg.stalled, r)
			}
		}
	}
	if s := seg.after; s.Submitted != s.Completed+s.Failed+s.Canceled {
		seg.totalsErr = fmt.Errorf("daemon totals: submitted %d != completed %d + failed %d + canceled %d (%d still running or queued)",
			s.Submitted, s.Completed, s.Failed, s.Canceled, s.Submitted-s.Completed-s.Failed-s.Canceled)
	}
	return seg, nil
}

// checkJob verifies a done job's result; it returns "" when it is sound.
func checkJob(j *jobRec) string {
	r := j.final.Result
	switch {
	case r == nil:
		return "done without a result"
	case r.TasksCompleted <= 0:
		return "tasks_completed <= 0"
	case r.MakespanS <= 0:
		return "makespan_s <= 0"
	case r.GPUEnergyWh+r.CPUEnergyWh <= 0:
		return "energy <= 0"
	case r.CostUSD <= 0 || r.EstCostUSD <= 0:
		return "cost <= 0"
	case r.Quality < j.tj.MinQuality-1e-9:
		return fmt.Sprintf("quality %.4f below min_quality %.4f", r.Quality, j.tj.MinQuality)
	}
	return ""
}

// outcome is a phase's job-level tally.
type outcome struct {
	done, refused, failedStatus, canceled, expired, bad int
	latMs, jctS, energy, cost, queueS                   []float64
	firstBad                                            string
	finals                                              []api.JobStatusResponse
}

func tally(jobs []*jobRec) outcome {
	var o outcome
	for _, j := range jobs {
		switch {
		case j.final != nil && j.final.Status == "done":
			if why := checkJob(j); why != "" {
				o.bad++
				if o.firstBad == "" {
					o.firstBad = fmt.Sprintf("job %s (%s): %s", j.id, j.tj.Kind, why)
				}
			}
			o.done++
			r := j.final.Result
			o.latMs = append(o.latMs, ms(j.doneAt.Sub(j.due)))
			o.jctS = append(o.jctS, j.final.FinishedSimS-j.final.SubmittedSimS)
			o.queueS = append(o.queueS, j.final.QueueDelayS)
			if r != nil {
				o.energy = append(o.energy, r.GPUEnergyWh+r.CPUEnergyWh)
				o.cost = append(o.cost, r.CostUSD)
			}
			o.finals = append(o.finals, *j.final)
		case j.final != nil && j.final.Status == "canceled":
			o.canceled++
		case j.final != nil:
			o.failedStatus++
		case j.refused != 0:
			o.refused++
		default:
			o.expired++
		}
	}
	return o
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
