package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"fastmatch"
	"fastmatch/internal/exec"
	"fastmatch/internal/gdb"
	"fastmatch/internal/graph"
	"fastmatch/internal/optimizer"
	"fastmatch/internal/pattern"
	"fastmatch/internal/rjoin"
	"fastmatch/internal/server"
)

// span is one timed call into a layer. Spans of one operation share op;
// parent is the index of the enclosing span, -1 for a root.
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int32         `json:"parent"`
	Op     int32         `json:"op"`
}

// tracer keeps spans in memory; when off it records nothing.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, parent, op int32) int32 {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.t0), Parent: parent, Op: op})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32) {
	if id >= 0 {
		t.spans[id].End = time.Since(t.t0)
	}
}

// stepLayer names the rjoin operator a plan step runs; other steps are
// charged to the executor itself.
var stepLayer = map[optimizer.StepKind]string{
	optimizer.StepHPSJ:            "rjoin.hpsj",
	optimizer.StepSemijoinGroup:   "rjoin.filter",
	optimizer.StepSelection:       "rjoin.filter",
	optimizer.StepJoinFilterFetch: "rjoin.filter",
	optimizer.StepFetch:           "rjoin.fetch",
	optimizer.StepWCOJ:            "rjoin.wcoj",
}

// replayResult is what one in-process replay of an op sequence measured.
type replayResult struct {
	spans   []span
	elapsed time.Duration // summed over operations, replays of the oracle excluded
	// counts from the layers' own return values
	ioPages, interRows, responseBytes int64
	labelsAdded, labelsRemoved        int64
	insertBatches, deleteBatches      int
}

// replayer runs operations in this process with no HTTP: each operation
// calls the layers' public functions in the order the server does. With
// tracing on it records a span around every call, executes plans with step
// tracing, and replays every write batch through the public
// ReachabilityOracle to time the reachability repair on its own.
type replayer struct {
	in     *input
	db     *gdb.DB
	tr     *tracer
	oracle *fastmatch.ReachabilityOracle
	res    replayResult
	// The server caches plans by (epoch, pattern); a new epoch re-plans.
	planEpoch uint64
	plans     map[string]*optimizer.Plan
}

// answer is what one replayed operation returned.
type answer struct {
	cols             []string
	rows             [][]graph.NodeID
	truncated        bool
	applied, skipped int
}

func newReplayer(in *input, traced bool) (*replayer, error) {
	db, err := gdb.Build(in.graph, gdb.Options{})
	if err != nil {
		return nil, err
	}
	rp := &replayer{in: in, db: db, tr: &tracer{on: traced, t0: time.Now()}}
	if traced {
		rp.oracle = fastmatch.NewReachabilityOracle(in.graph)
	}
	return rp, nil
}

// replayPair replays in.ops twice in lockstep, untraced and traced, on two
// databases built alike. Each operation runs on both before the next, the
// side that goes first alternating, so that drift in the host's speed and
// warm caches fall on both sides of the tracing overhead. Every answer of
// both replays is checked against the reference.
func replayPair(in *input) (untraced, traced *replayResult, checkErrs []error, err error) {
	u, err := newReplayer(in, false)
	if err != nil {
		return nil, nil, nil, err
	}
	defer u.db.Close()
	t, err := newReplayer(in, true)
	if err != nil {
		return nil, nil, nil, err
	}
	defer t.db.Close()
	for i, o := range in.ops {
		sides := []*replayer{u, t}
		if i%2 == 1 {
			sides = []*replayer{t, u}
		}
		var answers [2]answer
		for j, rp := range sides {
			if answers[j], err = rp.do(int32(i), o); err != nil {
				return nil, nil, nil, fmt.Errorf("replayed %s: %w", o.kind, err)
			}
		}
		t.replayOracle(int32(i), o)
		var cerr error
		if o.kind == opQuery {
			for _, a := range answers {
				cerr = errors.Join(cerr, checkRows(in.ref, in.patterns[o.pat], in.fullCount(o.pat), o.limit, a.cols, a.rows, a.truncated))
			}
		} else if answers[0].applied != answers[1].applied || answers[0].skipped != answers[1].skipped {
			cerr = fmt.Errorf("replays applied %d and %d edges", answers[0].applied, answers[1].applied)
		} else {
			cerr = in.applyWrite(o, answers[0].applied, answers[0].skipped)
		}
		if cerr != nil {
			checkErrs = append(checkErrs, fmt.Errorf("replayed %s: %w", o.kind, cerr))
		}
	}
	t.res.spans = t.tr.spans
	return &u.res, &t.res, checkErrs, nil
}

// do runs operation id; only the operation itself is timed.
func (rp *replayer) do(id int32, o op) (answer, error) {
	tr, res := rp.tr, &rp.res
	t0 := time.Now()
	root := tr.begin("op."+o.kind.String(), -1, id)
	var a answer
	switch o.kind {
	case opQuery:
		s := tr.begin("pattern.parse", root, id)
		p, err := pattern.Parse(rp.in.patterns[o.pat].text)
		tr.end(s)
		if err != nil {
			return a, err
		}
		s = tr.begin("server.dispatch", root, id)
		snap, release := rp.db.Pin()
		defer release()
		if snap.Epoch() != rp.planEpoch || rp.plans == nil {
			rp.planEpoch, rp.plans = snap.Epoch(), map[string]*optimizer.Plan{}
		}
		plan, cached := rp.plans[p.Canonical()]
		tr.end(s)
		if !cached {
			s = tr.begin("optimizer.plan", root, id)
			plan, err = exec.BuildPlanSnapConfig(snap, p, exec.DPS, exec.PlanConfig{})
			tr.end(s)
			if err != nil {
				return a, err
			}
			rp.plans[p.Canonical()] = plan
		}
		s = tr.begin("server.dispatch", root, id)
		rt := rjoin.NewRuntime(0)
		if plan.Tier() != 3 {
			rt = rjoin.NewFastRuntime()
		}
		bdg := &rjoin.Budget{ResultRows: o.limit}
		tr.end(s)
		s = tr.begin("exec.run", root, id)
		t, steps, err := exec.RunSnapWithTraceConfig(context.Background(), snap, plan, tr.on, exec.RunConfig{Runtime: rt, Budget: bdg})
		tr.end(s)
		if err != nil {
			return a, err
		}
		if tr.on {
			res.addSteps(tr, s, id, steps)
		}
		s = tr.begin("server.encode", root, id)
		a = answer{cols: plan.Binding.Pattern.Nodes, rows: t.Rows, truncated: bdg.Truncated()}
		var out bytes.Buffer
		err = json.NewEncoder(&out).Encode(server.QueryResponse{
			Cols: a.cols, Rows: a.rows, RowCount: len(a.rows), Truncated: a.truncated, PlanCached: cached,
		})
		tr.end(s)
		if err != nil {
			return a, err
		}
		res.responseBytes += int64(out.Len())
	case opInsert:
		s := tr.begin("gdb.insert", root, id)
		sts, err := rp.db.ApplyEdgeInserts(nodeEdges(o.edges))
		tr.end(s)
		if err != nil {
			return a, err
		}
		for _, st := range sts {
			if st.Duplicate {
				a.skipped++
			} else {
				a.applied++
				res.labelsAdded += int64(st.LabelEntries)
			}
		}
		res.insertBatches++
	case opDelete:
		s := tr.begin("gdb.delete", root, id)
		sts, err := rp.db.ApplyEdgeDeletes(nodeEdges(o.edges))
		tr.end(s)
		if err != nil {
			return a, err
		}
		for _, st := range sts {
			if st.Missing {
				a.skipped++
			} else {
				a.applied++
				res.labelsRemoved += int64(st.RemovedLabelEntries)
				res.labelsAdded += int64(st.AddedLabelEntries)
			}
		}
		res.deleteBatches++
	}
	tr.end(root)
	res.elapsed += time.Since(t0)
	return a, nil
}

// replayOracle replays a write batch through the reachability oracle, as a
// root span of its own outside the operation's time.
func (rp *replayer) replayOracle(id int32, o op) {
	if rp.oracle == nil || o.kind == opQuery {
		return
	}
	s := rp.tr.begin("reach."+o.kind.String()+"_repair", -1, id)
	for _, e := range nodeEdges(o.edges) {
		if o.kind == opInsert {
			rp.oracle.InsertEdge(e[0], e[1])
		} else {
			rp.oracle.DeleteEdge(e[0], e[1])
		}
	}
	rp.tr.end(s)
}

// addSteps records the executor's per-step trace as child spans of the
// exec.run span, laid end to end from its start.
func (res *replayResult) addSteps(tr *tracer, parent, id int32, steps []exec.StepTrace) {
	at := tr.spans[parent].Start
	for _, st := range steps {
		res.ioPages += st.IO
		res.interRows += int64(st.Rows)
		name, ok := stepLayer[st.Step.Kind]
		if !ok {
			continue
		}
		d := time.Duration(st.ElapsedMS * float64(time.Millisecond))
		tr.spans = append(tr.spans, span{Name: name, Start: at, End: at + d, Parent: parent, Op: id})
		at += d
	}
}

func nodeEdges(edges [][2]int32) [][2]fastmatch.NodeID {
	out := make([][2]fastmatch.NodeID, len(edges))
	for i, e := range edges {
		out[i] = [2]fastmatch.NodeID{fastmatch.NodeID(e[0]), fastmatch.NodeID(e[1])}
	}
	return out
}

// selfTimes sums each span name's self time: its duration minus the part
// its child spans cover.
func selfTimes(spans []span) map[string]time.Duration {
	self := make(map[string]time.Duration)
	for _, s := range spans {
		self[s.Name] += s.End - s.Start
		if s.Parent >= 0 {
			self[spans[s.Parent].Name] -= s.End - s.Start
		}
	}
	return self
}

// traceLayers computes the per-layer metrics of a traced replay, given the
// time of the same operations replayed untraced. The reachability repair
// runs inside the gdb write batch, so the oracle's replay time is taken off
// gdb's self time; the layer self times then add up to the traced
// operations' time, with the root spans' own self time reported as
// unattributed.
func traceLayers(traced *replayResult, untraced time.Duration) map[string]metric {
	self := selfTimes(traced.spans)
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	perBatch := func(d time.Duration, n int) float64 { return ms(d) / float64(max(n, 1)) }
	insertSelf := self["gdb.insert"] - self["reach.insert_repair"]
	deleteSelf := self["gdb.delete"] - self["reach.delete_repair"]
	var unattributed time.Duration
	for _, k := range []opKind{opQuery, opInsert, opDelete} {
		unattributed += self["op."+k.String()]
	}
	return map[string]metric{
		"server.encode_ms":          {ms(self["server.encode"]), "ms"},
		"server.dispatch_ms":        {ms(self["server.dispatch"]), "ms"},
		"server.response_bytes":     {float64(traced.responseBytes), "bytes"},
		"pattern.parse_us":          {float64(self["pattern.parse"]) / float64(time.Microsecond), "us"},
		"optimizer.plan_ms":         {ms(self["optimizer.plan"]), "ms"},
		"exec.run_ms":               {ms(self["exec.run"]), "ms"},
		"exec.io_pages":             {float64(traced.ioPages), "count"},
		"rjoin.hpsj_ms":             {ms(self["rjoin.hpsj"]), "ms"},
		"rjoin.filter_ms":           {ms(self["rjoin.filter"]), "ms"},
		"rjoin.fetch_ms":            {ms(self["rjoin.fetch"]), "ms"},
		"rjoin.wcoj_ms":             {ms(self["rjoin.wcoj"]), "ms"},
		"rjoin.intermediate_rows":   {float64(traced.interRows), "count"},
		"gdb.insert_ms":             {perBatch(insertSelf, traced.insertBatches), "ms"},
		"gdb.delete_ms":             {perBatch(deleteSelf, traced.deleteBatches), "ms"},
		"gdb.label_entries_added":   {float64(traced.labelsAdded), "count"},
		"gdb.label_entries_removed": {float64(traced.labelsRemoved), "count"},
		"reach.insert_repair_ms":    {perBatch(self["reach.insert_repair"], traced.insertBatches), "ms"},
		"reach.delete_repair_ms":    {perBatch(self["reach.delete_repair"], traced.deleteBatches), "ms"},
		"trace.traced_ms":           {ms(traced.elapsed), "ms"},
		"trace.untraced_ms":         {ms(untraced), "ms"},
		"trace.overhead_ms":         {ms(traced.elapsed - untraced), "ms"},
		"trace.unattributed_ms":     {ms(unattributed), "ms"},
	}
}

// writeSpans writes the spans as JSON lines to path.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
