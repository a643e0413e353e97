package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"fastmatch/internal/server"
)

// sample is one timed operation.
type sample struct {
	kind  opKind
	dur   time.Duration
	ok    bool
	edges int // edges applied by a write batch
}

// httpRun is the outcome of replaying an op sequence against the server.
type httpRun struct {
	samples []sample
	// attempted/failed count every operation by kind; the untimed final
	// battery of churn counts as queries.
	attempted, failed [numKinds]int
	// checkErrs are answers that came back but were wrong.
	checkErrs []error
	// overhead is the sum over answered queries of client latency minus
	// the server's own elapsed_ms.
	overhead time.Duration
	// Server counters and database state before the first and after the
	// last timed operation, and state at the very end of the run.
	statsBefore, statsAfter server.Stats
	stateBefore, stateAfter serverState
	stateEnd                serverState
}

type queryRequest struct {
	Pattern string `json:"pattern"`
	Limit   int    `json:"limit,omitempty"`
}

type edgesRequest struct {
	Edges [][2]int32 `json:"edges"`
}

// writeResponse holds the fields of the /insert and /delete answers the
// benchmark checks.
type writeResponse struct {
	Applied    int `json:"applied"`
	Duplicates int `json:"duplicates"`
	Noops      int `json:"noops"`
}

// fullCount is the number of matches of pattern pat on the reference graph
// as it is now.
func (in *input) fullCount(pat int) int64 {
	if in.ref.atInitial() {
		return in.full[pat]
	}
	return in.ref.count(in.patterns[pat])
}

// runHTTP replays in.ops against the server in a closed loop and checks
// every answer against the reference, which follows every applied write.
func runHTTP(c *client, in *input) (*httpRun, error) {
	hr := &httpRun{samples: make([]sample, 0, len(in.ops))}
	if err := c.readCounters(&hr.statsBefore, &hr.stateBefore); err != nil {
		return nil, err
	}
	for _, o := range in.ops {
		hr.samples = append(hr.samples, hr.do(c, in, o))
	}
	if err := c.readCounters(&hr.statsAfter, &hr.stateAfter); err != nil {
		return nil, err
	}
	// churn: the whole paper battery, untimed, must still match the
	// reference of the initial graph.
	if len(in.battery) > 0 && !in.ref.atInitial() {
		hr.checkErrs = append(hr.checkErrs, errors.New("graph did not return to its initial edges"))
	}
	for _, pat := range in.battery {
		hr.do(c, in, op{kind: opQuery, pat: pat})
	}
	if err := c.getJSON("/bench/state", &hr.stateEnd); err != nil {
		return nil, err
	}
	return hr, nil
}

func (c *client) readCounters(st *server.Stats, state *serverState) error {
	if err := c.getJSON("/stats", st); err != nil {
		return err
	}
	return c.getJSON("/bench/state", state)
}

// do sends one operation, checks its answer and applies a write to the
// reference. A transport error or non-2xx answer counts as failed.
func (hr *httpRun) do(c *client, in *input, o op) sample {
	s := sample{kind: o.kind}
	hr.attempted[o.kind]++
	var body any = edgesRequest{Edges: o.edges}
	path := "/" + o.kind.String()
	if o.kind == opQuery {
		body = queryRequest{Pattern: in.patterns[o.pat].text, Limit: o.limit}
	}
	data, status, dur, err := c.post(path, body)
	s.dur = dur
	if err != nil || status/100 != 2 {
		hr.failed[o.kind]++
		return s
	}
	s.ok = true
	if err := hr.check(in, o, data, dur); err != nil {
		hr.checkErrs = append(hr.checkErrs, fmt.Errorf("%s: %w", o.kind, err))
	}
	if len(data) > 1<<20 {
		hr.collectGarbage(c)
	}
	if o.kind != opQuery {
		s.edges = len(o.edges)
	}
	return s
}

// collectGarbage runs the client's and the server's garbage collectors,
// outside any timed request. It runs after every answer over 1 MB, so that
// the garbage of one large answer is not collected while the next request
// is timed.
func (hr *httpRun) collectGarbage(c *client) {
	runtime.GC()
	if _, _, _, err := c.post("/bench/gc", nil); err != nil {
		hr.checkErrs = append(hr.checkErrs, err)
	}
}

func (hr *httpRun) check(in *input, o op, data []byte, dur time.Duration) error {
	if o.kind == opQuery {
		var resp queryResponse
		if err := json.Unmarshal(data, &resp); err != nil {
			return err
		}
		hr.overhead += dur - time.Duration(resp.ElapsedMS*float64(time.Millisecond))
		return in.ref.checkQuery(in.patterns[o.pat], in.fullCount(o.pat), o.limit, &resp)
	}
	var resp writeResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return err
	}
	return in.applyWrite(o, resp.Applied, resp.Duplicates+resp.Noops)
}

// applyWrite follows a write on the reference graph and checks that the
// engine applied every edge: the benchmark only inserts absent edges and
// deletes present ones.
func (in *input) applyWrite(o op, applied, skipped int) error {
	for _, e := range o.edges {
		if o.kind == opInsert {
			in.ref.insertEdge(e[0], e[1])
		} else if !in.ref.deleteEdge(e[0], e[1]) {
			return fmt.Errorf("edge %v absent from the reference", e)
		}
	}
	if applied != len(o.edges) || skipped != 0 {
		return fmt.Errorf("%d of %d edges applied, %d skipped", applied, len(o.edges), skipped)
	}
	return nil
}

// percentile interpolates linearly between order statistics of sorted
// values.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// failedLatency stands in for the latency of a failed operation: it misses
// every latency limit.
const failedLatency = 1e9

// latencyStats returns p50 and p90 in ms, the number of successful
// operations and their total time over the samples of the given kinds.
func latencyStats(samples []sample, kinds ...opKind) (p50, p90 float64, ok int, edges int, total time.Duration) {
	var ms []float64
	for _, s := range samples {
		if !slices.Contains(kinds, s.kind) {
			continue
		}
		total += s.dur
		if s.ok {
			ok++
			edges += s.edges
			ms = append(ms, float64(s.dur)/float64(time.Millisecond))
		} else {
			ms = append(ms, failedLatency)
		}
	}
	slices.Sort(ms)
	return percentile(ms, 0.5), percentile(ms, 0.9), ok, edges, total
}

// endToEnd computes the user-visible metrics of one run.
func endToEnd(hr *httpRun, setups []float64) map[string]metric {
	slices.Sort(setups)
	qp50, qp90, qok, _, qtime := latencyStats(hr.samples, opQuery)
	mp50, mp90, _, edges, mtime := latencyStats(hr.samples, opInsert, opDelete)
	return map[string]metric{
		"setup_s":            {percentile(setups, 0.5), "s"},
		"query_p50_ms":       {qp50, "ms"},
		"query_p90_ms":       {qp90, "ms"},
		"query_qps":          {float64(qok) / qtime.Seconds(), "1/s"},
		"mutate_p50_ms":      {mp50, "ms"},
		"mutate_p90_ms":      {mp90, "ms"},
		"mutate_edges_per_s": {float64(edges) / mtime.Seconds(), "edges/s"},
		"store_bytes":        {float64(hr.stateEnd.StoreBytes), "bytes"},
		"peak_rss_mb":        {float64(hr.stateEnd.MaxRSSKB) / 1024, "MB"},
	}
}

// serverLayers computes the per-layer metrics the server's own counters
// give over the timed operations.
func serverLayers(hr *httpRun) map[string]metric {
	b, a := hr.statsBefore, hr.statsAfter
	batches := hr.attempted[opInsert] + hr.attempted[opDelete]
	return map[string]metric{
		"server.overhead_ms":       {float64(hr.overhead) / float64(time.Millisecond), "ms"},
		"server.plan_cache_hits":   {float64(a.PlanCacheHits - b.PlanCacheHits), "count"},
		"server.plan_cache_misses": {float64(a.PlanCacheMisses - b.PlanCacheMisses), "count"},
		"optimizer.tier1_queries":  {float64(a.FastpathTier1Queries - b.FastpathTier1Queries), "count"},
		"optimizer.tier2_prunes":   {float64(a.FastpathTier2Prunes - b.FastpathTier2Prunes), "count"},
		"optimizer.tier3_queries":  {float64(a.Tier3Queries - b.Tier3Queries), "count"},
		"rjoin.worker_utilization": {a.WorkerUtilization, "ratio"},
		"rjoin.center_cache_hits":  {float64(a.CenterCacheHits - b.CenterCacheHits), "count"},
		"rjoin.wcoj_seeks":         {float64(a.WCOJSeeks - b.WCOJSeeks), "count"},
		"storage.page_reads":       {float64(a.IO.Reads - b.IO.Reads), "count"},
		"storage.pool_hits":        {float64(a.IO.Hits - b.IO.Hits), "count"},
		"storage.page_writes":      {float64(a.IO.Writes - b.IO.Writes), "count"},
		"epoch.published":          {float64(a.CurrentEpoch - b.CurrentEpoch), "count"},
		"epoch.retired":            {float64(a.SnapshotsRetired - b.SnapshotsRetired), "count"},
		"gdb.store_growth_bytes":   {float64(hr.stateAfter.StoreBytes-hr.stateBefore.StoreBytes) / float64(max(batches, 1)), "bytes"},
		"gdb.cover_entries":        {float64(hr.stateAfter.CoverEntries), "count"},
	}
}
