package main

import (
	"bytes"
	"container/heap"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"repro/internal/api"
)

// jobRec is one trace job's life as the generator observed it.
type jobRec struct {
	tj       traceJob
	due      time.Time // scheduled send (open loop) or actual send (closed loop)
	deadline time.Time
	id       string
	status   string // last status seen; "" until the submit answered
	refused  int    // HTTP status of a refused request (4xx/5xx), -1 on a transport error
	expired  bool   // not terminal by its deadline
	doneAt   time.Time
	final    *api.JobStatusResponse
	span     int // root span id in the traced run
	polls    int
}

func terminal(status string) bool {
	return status == "done" || status == "failed" || status == "canceled"
}

// client is the generator's HTTP side: one keep-alive transport capped at
// conns connections, so the generator never opens more than it has workers.
type client struct {
	base string
	hc   *http.Client
	tr   *tracer

	mu        sync.Mutex
	reads     []float64 // every GET /v1/jobs/{id} and /v1/stats, ms
	submitRTT []float64
	statusRTT []float64
	statsRTT  []float64
	snaps     []snapshot
}

func newHTTPClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}}
}

// do sends one request and reads the whole body.
func (c *client) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// fetchStats GETs /v1/stats once without recording it.
func (c *client) fetchStats(ctx context.Context) (snapshot, time.Duration, error) {
	t := time.Now()
	code, b, err := c.do(ctx, http.MethodGet, "/v1/stats", nil)
	end := time.Now()
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("GET /v1/stats: HTTP %d", code)
	}
	if err != nil {
		return snapshot{}, 0, err
	}
	c.tr.record("api.stats", 0, "", t, end)
	s, err := parseStats(b, end)
	return s, end.Sub(t), err
}

// readStats is a measured stats read: its latency counts as a read and its
// snapshot feeds the stall check and the counter deltas.
func (c *client) readStats(ctx context.Context) {
	s, d, err := c.fetchStats(ctx)
	if err != nil {
		return // a failed read shows as a missing sample, not a wrong one
	}
	c.mu.Lock()
	c.reads = append(c.reads, ms(d))
	c.statsRTT = append(c.statsRTT, ms(d))
	c.snaps = append(c.snaps, s)
	c.mu.Unlock()
}

// submit POSTs the job and records what came back. wait selects the
// blocking (closed-loop) form.
func (c *client) submit(j *jobRec, wait bool) {
	body := j.tj.Body
	if wait {
		body = j.tj.WaitBody
	}
	ctx, cancel := context.WithDeadline(context.Background(), j.deadline)
	defer cancel()
	t := time.Now()
	code, b, err := c.do(ctx, http.MethodPost, "/v1/jobs", body)
	end := time.Now()
	c.mu.Lock()
	c.submitRTT = append(c.submitRTT, ms(end.Sub(t)))
	c.mu.Unlock()
	defer func() { c.tr.record("api.submit", j.span, j.id, t, end) }()
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		j.expired = true
		return
	case err != nil:
		j.refused = -1
		return
	case code >= 400 && code != http.StatusUnprocessableEntity:
		j.refused = code
		return
	}
	c.observe(j, b, end)
}

// poll GETs the job's status once.
func (c *client) poll(j *jobRec) {
	ctx, cancel := context.WithDeadline(context.Background(), j.deadline)
	defer cancel()
	t := time.Now()
	code, b, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+j.id, nil)
	end := time.Now()
	j.polls++
	c.tr.record("api.status", j.span, j.id, t, end)
	c.mu.Lock()
	c.reads = append(c.reads, ms(end.Sub(t)))
	c.statusRTT = append(c.statusRTT, ms(end.Sub(t)))
	c.mu.Unlock()
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		j.expired = true
	case err != nil:
		j.refused = -1
	case code != http.StatusOK:
		j.refused = code
	default:
		c.observe(j, b, end)
	}
}

// probeStatus reads the status of up to n finished jobs once more, after
// the measured load, so the status round trip is measured on workloads
// whose jobs are never polled. The reads count only toward statusRTT.
func (c *client) probeStatus(jobs []*jobRec, n int) {
	for _, j := range jobs {
		if n == 0 {
			return
		}
		if j.final == nil {
			continue
		}
		n--
		t := time.Now()
		code, _, err := c.do(context.Background(), http.MethodGet, "/v1/jobs/"+j.id, nil)
		end := time.Now()
		if err != nil || code != http.StatusOK {
			continue
		}
		c.tr.record("api.status", j.span, j.id, t, end)
		c.mu.Lock()
		c.statusRTT = append(c.statusRTT, ms(end.Sub(t)))
		c.mu.Unlock()
	}
}

func (c *client) observe(j *jobRec, body []byte, at time.Time) {
	var st api.JobStatusResponse
	if err := json.Unmarshal(body, &st); err != nil {
		j.refused = -1
		return
	}
	j.id, j.status = st.ID, st.Status
	if terminal(st.Status) {
		j.doneAt = at
		j.final = &st
	}
}

// open-loop scheduling -------------------------------------------------------

type actionKind int

const (
	actSubmit actionKind = iota
	actPoll
	actStats
)

type action struct {
	due  time.Time
	kind actionKind
	job  *jobRec
}

type actionHeap []action

func (h actionHeap) Len() int           { return len(h) }
func (h actionHeap) Less(i, j int) bool { return h[i].due.Before(h[j].due) }
func (h actionHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *actionHeap) Push(x any)        { *h = append(*h, x.(action)) }
func (h *actionHeap) Pop() any {
	old := *h
	a := old[len(old)-1]
	*h = old[:len(old)-1]
	return a
}

// Poll cadence after an async submit: the first poll comes a uniformly
// drawn 0.1–1.1 ms after the 202, so the observed latency moves smoothly
// with the daemon's completion time instead of snapping to a poll grid;
// later polls come every pollEvery (±25%) for the first pollFlat, then back
// off by pollGrowth up to pollMax for slow jobs. The draws come from the
// seeded stream.
const (
	pollEvery  = time.Millisecond
	pollFlat   = 50 * time.Millisecond
	pollGrowth = 1.5
	pollMax    = 20 * time.Millisecond
)

// openLoop sends jobs at their due times whether or not earlier ones have
// finished, and reads /v1/stats once every statsEvery submits. Without
// wait it polls each job until it is terminal: one worker then sends the
// submits and the other the polls and stats reads, so a read never delays
// a submit against its schedule. With wait the blocking submit returns the
// result, and both workers share one queue. lag collects how late each
// submit left against its schedule.
func (c *client) openLoop(jobs []*jobRec, wait bool, statsEvery int, seed int64) (lag []float64) {
	const submits, reads = 0, 1
	type lane struct {
		h    actionHeap
		wake chan struct{}
	}
	var (
		mu     sync.Mutex
		lanes  = [2]*lane{{wake: make(chan struct{}, 1)}, {wake: make(chan struct{}, 1)}}
		busy   int
		jitter = rand.New(rand.NewSource(seed))
	)
	laneOf := func(k actionKind) *lane {
		if wait || k == actSubmit {
			return lanes[submits]
		}
		return lanes[reads]
	}
	poke := func(l *lane) {
		select {
		case l.wake <- struct{}{}:
		default:
		}
	}
	for i, j := range jobs {
		lanes[submits].h = append(lanes[submits].h, action{due: j.due, kind: actSubmit, job: j})
		if statsEvery > 0 && i%statsEvery == statsEvery/2 && i+1 < len(jobs) {
			// A uniformly drawn instant between two submits, so reads meet
			// running jobs in proportion to how busy the daemon is rather
			// than in lockstep with the submits.
			gap := jobs[i+1].due.Sub(j.due)
			l := laneOf(actStats)
			l.h = append(l.h, action{due: j.due.Add(time.Duration(jitter.Float64() * float64(gap))), kind: actStats})
		}
	}
	heap.Init(&lanes[submits].h)
	heap.Init(&lanes[reads].h)
	nextPoll := func(j *jobRec) time.Time {
		if j.polls == 0 {
			return time.Now().Add(time.Duration((0.1 + jitter.Float64()) * float64(time.Millisecond)))
		}
		d := float64(pollEvery)
		if since := time.Since(j.due); since > pollFlat {
			d = min(float64(pollMax), float64(pollEvery)*math.Pow(pollGrowth, float64(since-pollFlat)/float64(pollFlat)))
		}
		return time.Now().Add(time.Duration(d * (0.75 + 0.5*jitter.Float64())))
	}
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		l := lanes[submits]
		if !wait {
			l = lanes[w%2]
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			timer := time.NewTimer(time.Hour)
			defer timer.Stop()
			for {
				// Wait for the lane's earliest action to fall due, waking
				// early when another worker queues an earlier one.
				mu.Lock()
				if len(l.h) == 0 {
					done := busy == 0 && len(lanes[submits].h)+len(lanes[reads].h) == 0
					mu.Unlock()
					if done {
						poke(lanes[submits])
						poke(lanes[reads])
						return
					}
					<-l.wake
					continue
				}
				if d := time.Until(l.h[0].due); d > 0 {
					mu.Unlock()
					timer.Reset(d)
					select {
					case <-timer.C:
					case <-l.wake:
					}
					continue
				}
				a := heap.Pop(&l.h).(action)
				busy++
				if a.kind == actSubmit {
					lag = append(lag, ms(time.Since(a.due)))
				}
				mu.Unlock()

				switch a.kind {
				case actSubmit:
					c.submit(a.job, wait)
				case actPoll:
					c.poll(a.job)
				case actStats:
					c.readStats(context.Background())
				}
				mu.Lock()
				if j := a.job; j != nil && j.final == nil && j.refused == 0 && !j.expired {
					if time.Now().After(j.deadline) {
						j.expired = true
					} else {
						next := laneOf(actPoll)
						heap.Push(&next.h, action{due: nextPoll(j), kind: actPoll, job: j})
					}
				}
				busy--
				mu.Unlock()
				poke(lanes[submits])
				poke(lanes[reads])
			}
		}()
	}
	wg.Wait()
	return lag
}

// closedLoop runs callers that each send the next job with wait:true and
// send again as soon as it answers, until stop. Caller 0 also reads
// /v1/stats between jobs every statsPeriod.
func (c *client) closedLoop(next func() traceJob, callers int, deadline time.Duration,
	stop time.Time, statsPeriod time.Duration) []*jobRec {
	var (
		mu   sync.Mutex
		jobs []*jobRec
		wg   sync.WaitGroup
	)
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lastStats := time.Now()
			for time.Now().Before(stop) {
				if w == 0 && time.Since(lastStats) >= statsPeriod {
					c.readStats(context.Background())
					lastStats = time.Now()
				}
				mu.Lock()
				j := &jobRec{tj: next()}
				jobs = append(jobs, j)
				mu.Unlock()
				j.due = time.Now()
				j.deadline = j.due.Add(deadline)
				j.span = c.tr.reserve()
				c.submit(j, true)
				c.finishJobSpan(j)
			}
		}(w)
	}
	wg.Wait()
	return jobs
}

// finishJobSpan closes a job's root span at the terminal observation (or
// at its deadline when it never got there).
func (c *client) finishJobSpan(j *jobRec) {
	end := j.doneAt
	if end.IsZero() {
		end = time.Now()
	}
	c.tr.finish(j.span, "job", 0, j.id, j.due, end)
}
