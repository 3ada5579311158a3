package main

import (
	"encoding/json"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/router"
)

func pool(submitted, completed, searches int, events uint64, clocks ...float64) api.PoolStats {
	ps := api.PoolStats{
		Mode: "shared", Submitted: submitted, Completed: completed,
		PlanSearches: searches, EventsProcessed: events,
		KeyInternHits: uint64(3 * submitted), KeyInternMisses: uint64(submitted),
		Memory: api.MemoryStats{NumGC: uint32(submitted / 10)},
	}
	for i, c := range clocks {
		ps.Shards = append(ps.Shards, api.ShardStats{
			Shard: i, SimTimeS: c, PlanCacheHits: submitted, EventsProcessed: events,
			Engines: []api.EngineStatJSON{{QueueDepth: i + 1}},
		})
	}
	return ps
}

func mustParse(t *testing.T, v any) snapshot {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	s, err := parseStats(b, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStatsDeltaPoolShape(t *testing.T) {
	a := mustParse(t, pool(10, 10, 4, 100, 5, 6))
	b := mustParse(t, pool(30, 29, 9, 400, 50, 60))
	if a.Router || len(b.Shards) != 2 || b.Shards[1].key() != "/1" {
		t.Fatalf("pool snapshot = %+v", b)
	}
	d := statsDelta(a, b)
	if d.Jobs != 20 || d.PlanSearches != 5 || d.Events != 300 || d.PlanCacheHits != 40 {
		t.Errorf("delta = %+v", d)
	}
	if d.InternHits != 60 || d.InternAll != 80 || d.GCCycles != 2 {
		t.Errorf("intern/gc delta = %+v", d)
	}
	if b.maxClock() != 60 || b.minClock() != 50 || b.QueueDepthMax != 2 {
		t.Errorf("clocks %v/%v queue %d", b.maxClock(), b.minClock(), b.QueueDepthMax)
	}
}

func TestStatsDeltaRouterShape(t *testing.T) {
	cluster := func(n0, n1 api.PoolStats, totalSub, totalDone int) router.ClusterStats {
		return router.ClusterStats{
			Mode:   "cluster",
			Nodes:  []router.NodeStats{{Name: "n0", Pool: n0}, {Name: "n1", Pool: n1}},
			Totals: router.ClusterTotals{Submitted: totalSub, Completed: totalDone},
		}
	}
	a := mustParse(t, cluster(pool(4, 4, 1, 10, 1, 2), pool(6, 6, 2, 20, 3, 4), 10, 10))
	b := mustParse(t, cluster(pool(14, 14, 5, 110, 10, 20), pool(26, 25, 8, 220, 30, 40), 40, 39))
	if !b.Router || len(b.Shards) != 4 || b.Shards[2].key() != "n1/0" {
		t.Fatalf("router snapshot shards = %+v", b.Shards)
	}
	// Lifecycle totals come from the cluster fold, counters from the nested pools.
	if b.Submitted != 40 || b.Completed != 39 {
		t.Errorf("totals = %d/%d", b.Submitted, b.Completed)
	}
	d := statsDelta(a, b)
	if d.Jobs != 30 || d.PlanSearches != 10 || d.Events != 300 {
		t.Errorf("delta = %+v", d)
	}
	if got := b.NodeSubmitted; len(got) != 2 || got[0] != 14 || got[1] != 26 {
		t.Errorf("per-node submits = %v", got)
	}
	if b.maxClock() != 40 || b.Memory.NumGC != 1 {
		t.Errorf("clock %v gc %d", b.maxClock(), b.Memory.NumGC)
	}
}

func TestStatsDeltaNeverNegative(t *testing.T) {
	// A recycled shard's live row restarts its counters.
	a := mustParse(t, pool(100, 100, 50, 9000, 7))
	b := mustParse(t, pool(120, 120, 60, 50, 1))
	if d := statsDelta(a, b); d.Events != 0 || d.Jobs != 20 {
		t.Errorf("delta across a recycle = %+v", d)
	}
}

func TestParseStatsRejectsUnknownShape(t *testing.T) {
	if _, err := parseStats([]byte(`{"mode":"per-request"}`), time.Time{}); err == nil {
		t.Error("per-request stats accepted")
	}
	if _, err := parseStats([]byte(`not json`), time.Time{}); err == nil {
		t.Error("garbage accepted")
	}
}

func TestStalledShards(t *testing.T) {
	shard := func(clock float64, running int, events uint64) api.ShardStats {
		return api.ShardStats{SimTimeS: clock, Running: running, EventsProcessed: events}
	}
	snap := func(rows ...api.ShardStats) snapshot {
		s := snapshot{}
		for i, r := range rows {
			r.Shard = i
			s.Shards = append(s.Shards, shardRow{ShardStats: r})
		}
		return s
	}
	a := snap(shard(33104, 2, 1e6), shard(500, 1, 10), shard(700, 0, 10), shard(900, 1, 10))
	b := snap(
		shard(33104, 2, 9e6), // frozen clock, running, events climbing: wedged
		shard(510, 1, 20),    // healthy: clock moved
		shard(700, 0, 10),    // idle
		shard(900, 1, 10),    // frozen but no events fired: not this stall
	)
	got := stalledShards(a, b)
	if len(got) != 1 || got[0].Shard != 0 || got[0].SimTimeS != 33104 {
		t.Errorf("stalled = %+v", got)
	}
}
