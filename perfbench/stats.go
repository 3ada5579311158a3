package main

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/api"
	"repro/internal/router"
)

// shardRow is one live shard in a /v1/stats document. Node is empty for a
// single-node daemon and the router's node name in cluster mode.
type shardRow struct {
	Node string
	api.ShardStats
}

func (r shardRow) key() string { return fmt.Sprintf("%s/%d", r.Node, r.Shard) }

// snapshot is one /v1/stats read flattened over both document shapes: a
// single pool (shards[] at the top) or the router's cluster document (pools
// nested under nodes[].pool, lifecycle totals under totals).
type snapshot struct {
	At     time.Time
	Router bool
	Shards []shardRow

	// Lifecycle totals: the pool's own counters, or the cluster totals.
	Submitted, Completed, Failed, Canceled int

	// Summed over pools (nodes) and, where the pool has no total, shards.
	NodeSubmitted     []int
	JobsTracked       int
	Recycles          int
	PlanSearches      int
	SingleflightHits  int
	PlanConflicts     int
	PlanCacheHits     int
	DecompCacheHits   int
	EventsProcessed   uint64
	WheelEvents       uint64
	OverflowEvents    uint64
	CancelsLazy       uint64
	PeakPending       int
	KeyInternHits     uint64
	KeyInternMisses   uint64
	ScratchPoolHits   uint64
	ScratchPoolMisses uint64
	TelemetryPoints   int
	CompactedPoints   int
	ClusterGen        uint64
	QueueDepthMax     int
	Memory            api.MemoryStats
}

// parseStats decodes a /v1/stats body of either shape.
func parseStats(body []byte, at time.Time) (snapshot, error) {
	var probe struct {
		Mode string `json:"mode"`
	}
	if err := json.Unmarshal(body, &probe); err != nil {
		return snapshot{}, fmt.Errorf("stats: %w", err)
	}
	s := snapshot{At: at}
	switch probe.Mode {
	case "cluster":
		var cs router.ClusterStats
		if err := json.Unmarshal(body, &cs); err != nil {
			return snapshot{}, fmt.Errorf("cluster stats: %w", err)
		}
		s.Router = true
		for i, n := range cs.Nodes {
			s.addPool(n.Name, n.Pool)
			if i == 0 {
				s.Memory = n.Pool.Memory // one process: every node reports the same heap
			}
		}
		s.Submitted, s.Completed = cs.Totals.Submitted, cs.Totals.Completed
		s.Failed, s.Canceled = cs.Totals.Failed, cs.Totals.Canceled
	case "shared":
		var ps api.PoolStats
		if err := json.Unmarshal(body, &ps); err != nil {
			return snapshot{}, fmt.Errorf("pool stats: %w", err)
		}
		s.addPool("", ps)
		s.Memory = ps.Memory
		s.Submitted, s.Completed, s.Failed, s.Canceled = ps.Submitted, ps.Completed, ps.Failed, ps.Canceled
	default:
		return snapshot{}, fmt.Errorf("stats: unexpected mode %q", probe.Mode)
	}
	return s, nil
}

func (s *snapshot) addPool(node string, ps api.PoolStats) {
	s.NodeSubmitted = append(s.NodeSubmitted, ps.Submitted)
	s.JobsTracked += ps.JobsTracked
	s.Recycles += ps.Recycles
	s.PlanSearches += ps.PlanSearches
	s.SingleflightHits += ps.SingleflightHits
	s.PlanConflicts += ps.PlanConflicts
	s.EventsProcessed += ps.EventsProcessed
	s.WheelEvents += ps.WheelEvents
	s.OverflowEvents += ps.OverflowEvents
	s.CancelsLazy += ps.CancelsLazy
	s.PeakPending = max(s.PeakPending, ps.PeakPending)
	s.KeyInternHits += ps.KeyInternHits
	s.KeyInternMisses += ps.KeyInternMisses
	s.ScratchPoolHits += ps.ScratchPoolHits
	s.ScratchPoolMisses += ps.ScratchPoolMisses
	s.TelemetryPoints += ps.TelemetryPoints
	for _, sh := range ps.Shards {
		s.Shards = append(s.Shards, shardRow{Node: node, ShardStats: sh})
		s.PlanCacheHits += sh.PlanCacheHits
		s.DecompCacheHits += sh.DecompCacheHits
		s.CompactedPoints += sh.CompactedPoints
		s.ClusterGen += sh.ClusterGen
		for _, e := range sh.Engines {
			s.QueueDepthMax = max(s.QueueDepthMax, e.QueueDepth)
		}
	}
}

// maxClock is the furthest any live shard's sim clock has advanced.
func (s snapshot) maxClock() float64 {
	m := 0.0
	for _, r := range s.Shards {
		m = max(m, r.SimTimeS)
	}
	return m
}

// minClock is the least advanced live shard's sim clock.
func (s snapshot) minClock() float64 {
	if len(s.Shards) == 0 {
		return 0
	}
	m := s.Shards[0].SimTimeS
	for _, r := range s.Shards[1:] {
		m = min(m, r.SimTimeS)
	}
	return m
}

// stalledShards lists the shards that look wedged between two reads: the
// sim clock did not move at all, the shard has running jobs, and its event
// loop kept firing events. A healthy shard with running jobs always
// advances its clock as events fire; an idle shard fires none.
func stalledShards(a, b snapshot) []shardRow {
	prev := make(map[string]shardRow, len(a.Shards))
	for _, r := range a.Shards {
		prev[r.key()] = r
	}
	var out []shardRow
	for _, r := range b.Shards {
		p, ok := prev[r.key()]
		if ok && r.SimTimeS == p.SimTimeS && r.Running > 0 && r.EventsProcessed > p.EventsProcessed {
			out = append(out, r)
		}
	}
	return out
}

// delta is the counter movement between two reads, as per-job fractions
// and rates over the jobs the daemon admitted in between.
type delta struct {
	Jobs                                   float64 // admitted (submitted) between the reads
	PlanSearches, PlanCacheHits            float64
	DecompCacheHits, SingleflightHits      float64
	PlanConflicts, Events, Wheel, Overflow float64
	Cancels, ClusterGen, CompactedPoints   float64
	InternHits, InternAll                  float64
	ScratchHits, ScratchAll                float64
	GCCycles                               float64
}

// add accumulates another delta (segments of one phase).
func (d *delta) add(e delta) {
	d.Jobs += e.Jobs
	d.PlanSearches += e.PlanSearches
	d.PlanCacheHits += e.PlanCacheHits
	d.DecompCacheHits += e.DecompCacheHits
	d.SingleflightHits += e.SingleflightHits
	d.PlanConflicts += e.PlanConflicts
	d.Events += e.Events
	d.Wheel += e.Wheel
	d.Overflow += e.Overflow
	d.Cancels += e.Cancels
	d.ClusterGen += e.ClusterGen
	d.CompactedPoints += e.CompactedPoints
	d.InternHits += e.InternHits
	d.InternAll += e.InternAll
	d.ScratchHits += e.ScratchHits
	d.ScratchAll += e.ScratchAll
	d.GCCycles += e.GCCycles
}

func diff[T int | uint64 | uint32](a, b T) float64 {
	if b < a {
		return 0 // a recycled shard's row restarted; not negative work
	}
	return float64(b - a)
}

func statsDelta(a, b snapshot) delta {
	return delta{
		Jobs:             diff(a.Submitted, b.Submitted),
		PlanSearches:     diff(a.PlanSearches, b.PlanSearches),
		PlanCacheHits:    diff(a.PlanCacheHits, b.PlanCacheHits),
		DecompCacheHits:  diff(a.DecompCacheHits, b.DecompCacheHits),
		SingleflightHits: diff(a.SingleflightHits, b.SingleflightHits),
		PlanConflicts:    diff(a.PlanConflicts, b.PlanConflicts),
		Events:           diff(a.EventsProcessed, b.EventsProcessed),
		Wheel:            diff(a.WheelEvents, b.WheelEvents),
		Overflow:         diff(a.OverflowEvents, b.OverflowEvents),
		Cancels:          diff(a.CancelsLazy, b.CancelsLazy),
		ClusterGen:       diff(a.ClusterGen, b.ClusterGen),
		CompactedPoints:  diff(a.CompactedPoints, b.CompactedPoints),
		InternHits:       diff(a.KeyInternHits, b.KeyInternHits),
		InternAll:        diff(a.KeyInternHits+a.KeyInternMisses, b.KeyInternHits+b.KeyInternMisses),
		ScratchHits:      diff(a.ScratchPoolHits, b.ScratchPoolHits),
		ScratchAll:       diff(a.ScratchPoolHits+a.ScratchPoolMisses, b.ScratchPoolHits+b.ScratchPoolMisses),
		GCCycles:         diff(a.Memory.NumGC, b.Memory.NumGC),
	}
}

// frac is n/d, or 0 when nothing happened.
func frac(n, d float64) float64 {
	if d == 0 {
		return 0
	}
	return n / d
}
