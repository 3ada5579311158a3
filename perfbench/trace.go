package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/api"
)

// traceJob is one job of a seeded trace: its wire bodies (async and
// wait:true), its tenant and the quality floor its result is checked
// against.
type traceJob struct {
	Tenant     string
	Kind       string // newsfeed | document-qa | video
	MinQuality float64
	Body       []byte
	WaitBody   []byte
}

func encodeJob(req api.JobRequest, kind string) traceJob {
	tj := traceJob{Tenant: req.Tenant, Kind: kind, MinQuality: req.MinQuality}
	var err error
	if tj.Body, err = json.Marshal(req); err == nil {
		req.Wait = true
		tj.WaitBody, err = json.Marshal(req)
	}
	if err != nil {
		panic(err) // a JobRequest of strings and numbers always marshals
	}
	return tj
}

var smallConstraints = []string{"MIN_COST", "MIN_LATENCY", "MIN_POWER"}

func newsfeedReq(rng *rand.Rand, tenant, constraint string) api.JobRequest {
	user := fmt.Sprintf("user-%d", rng.Intn(100000))
	req := api.JobRequest{
		Tenant:      tenant,
		Description: "Generate social media newsfeed for " + user,
		Constraint:  constraint,
		Inputs:      []api.InputRequest{{Name: user, Kind: "user-profile"}},
	}
	for t, n := 0, 1+rng.Intn(5); t < n; t++ {
		req.Inputs = append(req.Inputs, api.InputRequest{
			Name: fmt.Sprintf("topic%d", t), Kind: "topic",
			Attrs: map[string]float64{"queries": float64(1 + rng.Intn(6))},
		})
	}
	return req
}

func docQAReq(rng *rand.Rand, tenant, constraint string) api.JobRequest {
	req := api.JobRequest{
		Tenant:      tenant,
		Description: "Answer questions about the documents",
		Constraint:  constraint,
	}
	for d, n := 0, 1+rng.Intn(5); d < n; d++ {
		req.Inputs = append(req.Inputs, api.InputRequest{
			Name: fmt.Sprintf("doc%d.pdf", d), Kind: "document",
			Attrs: map[string]float64{"tokens": float64(200 + 50*rng.Intn(80))},
		})
	}
	return req
}

func videoReq(tenant string, videos, scenes int, sceneLenS float64, fps int, constraint string) api.JobRequest {
	req := api.JobRequest{
		Tenant:      tenant,
		Description: "List objects shown/mentioned in the videos",
		Constraint:  constraint,
		MinQuality:  0.95,
	}
	for v := 0; v < videos; v++ {
		req.Inputs = append(req.Inputs, api.InputRequest{
			Name: fmt.Sprintf("video%d.mov", v), Kind: "video",
			Attrs: map[string]float64{
				"duration_s":       float64(scenes) * sceneLenS,
				"scene_len_s":      sceneLenS,
				"frames_per_scene": float64(fps),
			},
		})
	}
	return req
}

// mixedJobs streams front-end-heavy jobs: mostly newsfeed and document QA
// over wide attribute ranges (so admission mostly misses its caches) plus
// a small share of 1-video/2-scene jobs. Jobs come in shuffled blocks of 60
// that fix each (kind, constraint) pair's count, so every seed replays the
// same mix and only the attributes, tenants and order differ: each of the
// three constraints gets videos of its 20 slots as video jobs and splits
// the rest about 55/45 between newsfeed and document QA.
func mixedJobs(rng *rand.Rand, tenants, videos int) func() traceJob {
	type slot struct {
		kind       string
		constraint string
	}
	var layout []slot
	for _, c := range smallConstraints {
		for i := 0; i < videos; i++ {
			layout = append(layout, slot{"video", c})
		}
		for i := 0; i < 11-videos/2; i++ {
			layout = append(layout, slot{"newsfeed", c})
		}
		for i := 0; i < 9-videos+videos/2; i++ {
			layout = append(layout, slot{"document-qa", c})
		}
	}
	var block []slot
	return func() traceJob {
		if len(block) == 0 {
			for _, i := range rng.Perm(len(layout)) {
				block = append(block, layout[i])
			}
		}
		sl := block[0]
		block = block[1:]
		tenant := fmt.Sprintf("tenant-%03d", rng.Intn(tenants))
		var req api.JobRequest
		switch sl.kind {
		case "video":
			req = videoReq(tenant, 1, 2, float64(10+5*rng.Intn(11)), 8+4*rng.Intn(7), sl.constraint)
		case "newsfeed":
			req = newsfeedReq(rng, tenant, sl.constraint)
		default:
			req = docQAReq(rng, tenant, sl.constraint)
		}
		return encodeJob(req, sl.kind)
	}
}

// videoTemplates are the handful of heavy video shapes video-heavy replays:
// 2 videos × 8–16 scenes, MIN_LATENCY or MAX_QUALITY.
var videoTemplates = []struct {
	scenes     int
	constraint string
}{
	{8, "MIN_LATENCY"}, {12, "MIN_LATENCY"}, {16, "MIN_LATENCY"},
	{8, "MAX_QUALITY"}, {12, "MAX_QUALITY"}, {16, "MAX_QUALITY"},
}

const videoTenants = 4

func videoTemplateJob(tenant string, t int) traceJob {
	vt := videoTemplates[t]
	return encodeJob(videoReq(tenant, 2, vt.scenes, 30, 24, vt.constraint), "video")
}

// heavyJobs streams video jobs from the templates in shuffled blocks that
// hold every template once, so every seed replays the same template mix
// and only the order and the tenants differ.
func heavyJobs(rng *rand.Rand) func() traceJob {
	var block []int
	return func() traceJob {
		if len(block) == 0 {
			block = rng.Perm(len(videoTemplates))
		}
		t := block[0]
		block = block[1:]
		return videoTemplateJob(fmt.Sprintf("studio-%d", rng.Intn(videoTenants)), t)
	}
}
