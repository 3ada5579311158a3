package main

import (
	"fmt"
	"math"
	"strings"
)

// run is one invocation. Untraced, it measures one phase and returns the
// end-to-end metrics. Traced, it measures an untraced and a traced phase of
// half the duration each on fresh daemons, runs the in-process layer pass
// on the traced phase's jobs, and returns the per-layer metrics.
func (b *bench) run(traced bool) (result, error) {
	if !traced {
		p, err := b.measure(b.seconds, nil)
		if err != nil {
			return result{}, err
		}
		return b.endToEnd(p), nil
	}
	plain, err := b.measure(b.seconds/2, nil)
	if err != nil {
		return result{}, err
	}
	fmt.Println("== untraced phase")
	base := b.endToEnd(plain)
	tr := newTracer()
	p, err := b.measure(b.seconds/2, tr)
	if err != nil {
		return result{}, err
	}
	fmt.Println("== traced phase")
	res := b.endToEnd(p)
	m := map[string]metric{}
	if err := b.perLayer(m, p, tr); err != nil {
		return result{}, err
	}
	fmt.Println("== tracing overhead (traced minus untraced)")
	for _, k := range []string{"server_cpu_ms_per_job", "job_p50_ms"} {
		emit(m, "trace.overhead_"+k, res.Metrics[k].Value-base.Metrics[k].Value, res.Metrics[k].Unit, "")
	}
	if err := tr.write(b.path("spans.json")); err != nil {
		return result{}, err
	}
	res.Correct = res.Correct && base.Correct
	res.Metrics = m
	return res, nil
}

// endToEnd prints the user-visible metrics of a phase, with the
// correctness and stall verdicts, and returns them as a result.
func (b *bench) endToEnd(p *phase) result {
	jobs := p.jobs()
	o := tally(jobs)
	m := map[string]metric{}
	res := result{Correct: true, Attempted: len(jobs), Failed: len(jobs) - o.done, Metrics: m}
	fmt.Printf("workload %s seed %d: %d segment(s), %d jobs attempted, %d done, %d failed status, %d refused, %d canceled, %d not terminal by deadline\n",
		b.w.name, b.seed, len(p.segs), len(jobs), o.done, o.failedStatus, o.refused, o.canceled, o.expired)

	var wallS, cpuMs, rssMB float64
	for _, s := range p.segs {
		wallS += s.wallS
		cpuMs += s.cpuMs
		rssMB = max(rssMB, s.rssMB)
	}
	lat50, lat90, lat99 := percentile(o.latMs, 0.50), percentile(o.latMs, 0.90), percentile(o.latMs, 0.99)
	reads90, reads := percentile(p.c.reads, 0.90), percentile(p.c.reads, 0.99)
	jct := percentile(o.jctS, 0.50)
	emit(m, "setup_s", median(p.setupS), "s", fmt.Sprintf("median of %d set-ups", len(p.setupS)))
	emit(m, "jobs_per_s", float64(o.done)/wallS, "1/s", fmt.Sprintf("%d done in %.3f s", o.done, wallS))
	// The p99s swing by a fifth from run to run on a shared two-core host
	// (their top 1% is a few dozen multi-millisecond stalls of the whole
	// machine), wider than any useful regression bound, so they are
	// printed but the emitted tails are the p90s.
	emit(m, "job_p50_ms", lat50.Value, "ms", pctNote(lat50))
	emit(m, "job_p90_ms", lat90.Value, "ms", pctNote(lat90))
	emit(nil, "job_p99_ms", lat99.Value, "ms", pctNote(lat99))
	emit(m, "read_p90_ms", reads90.Value, "ms", pctNote(reads90))
	emit(nil, "read_p99_ms", reads.Value, "ms", pctNote(reads))
	emit(nil, "failed_frac", float64(res.Failed)/float64(max(res.Attempted, 1)), "1", "")
	emit(m, "server_cpu_ms_per_job", cpuMs/float64(max(o.done, 1)), "ms", fmt.Sprintf("%.0f ms daemon CPU", cpuMs))
	emit(m, "rss_peak_mb", rssMB, "MB", "daemon VmHWM, largest over segments")
	emit(nil, "sim_jct_p50_s", jct.Value, "sim_s", pctNote(jct))
	// The mean, not the p50, is the emitted sim outcome: a workload drawn
	// from a few templates has a p50 that lands on the same template's JCT
	// for every seed.
	emit(m, "sim_jct_mean_s", mean(o.jctS), "sim_s", fmt.Sprintf("n=%d", len(o.jctS)))
	emit(m, "energy_wh_per_job", mean(o.energy), "Wh", "")
	emit(m, "cost_usd_per_job", mean(o.cost), "USD", "")

	if b.w.open {
		lag := p.genLag()
		note := pctNote(lag)
		if genBehind(lag) {
			note += "; GENERATOR BEHIND SCHEDULE: these numbers measure the host, not the daemon"
		}
		emit(nil, "bench.gen_lag_ms_p99", lag.Value, "ms", note)
	}
	for i, s := range p.segs {
		b.reportStall(i, s)
		if s.totalsErr != nil {
			res.Correct = false
			fmt.Printf("INCORRECT: segment %d: %v\n", i, s.totalsErr)
		}
	}
	if o.bad > 0 {
		res.Correct = false
		fmt.Printf("INCORRECT: %d done jobs failed the output check; first: %s\n", o.bad, o.firstBad)
	}
	if !lat50.ok() || !lat99.ok() || !reads.ok() || !jct.ok() {
		res.Correct = false
		fmt.Println("INCORRECT: too few samples for the reported percentiles")
	}
	return res
}

// genLag is the p99 of how late the open-loop submits left against their
// schedule, over every segment.
func (p *phase) genLag() pct {
	var lags []float64
	for _, s := range p.segs {
		lags = append(lags, s.lag...)
	}
	return percentile(lags, 0.99)
}

// genBehind reports whether the open-loop generator ran late enough (or
// with too few submits to tell) that the run measured the host.
func genBehind(lag pct) bool { return !lag.ok() || lag.Value > genBehindMs }

// reportStall prints a segment's shard clocks and its wedged-shard verdict
// by name: which shards, at what sim clock and event count.
func (b *bench) reportStall(i int, s segment) {
	clocks := make([]string, 0, len(s.after.Shards))
	for _, r := range s.after.Shards {
		clocks = append(clocks, fmt.Sprintf("%s=%.0f s/%d events/%d running", r.key(), r.SimTimeS, r.EventsProcessed, r.Running))
	}
	fmt.Printf("segment %d shard clocks: %s\n", i, strings.Join(clocks, ", "))
	if b.w.clockTarget > 0 {
		fmt.Printf("segment %d clock target %.0f s: every shard passed it: %v\n", i, b.w.clockTarget, s.after.minClock() >= b.w.clockTarget)
	}
	for _, r := range s.stalled {
		fmt.Printf("STALLED SHARD %s (segment %d, %d jobs submitted to the daemon): sim clock frozen at %.6f s with %d running jobs while events_processed climbs (%d); its jobs cannot finish\n",
			r.key(), i, s.after.Submitted, r.SimTimeS, r.Running, r.EventsProcessed)
	}
	fmt.Printf("segment %d sim.stalled_shards %d\n", i, len(s.stalled))
}

// nz maps NaN (no samples) to 0 for per-layer metrics the workload does not
// exercise.
func nz(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}
