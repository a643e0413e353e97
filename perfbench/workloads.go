package main

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"fastmatch/internal/graph"
	"fastmatch/internal/workload"
	"fastmatch/internal/xmark"
)

type opKind int

const (
	opQuery opKind = iota
	opInsert
	opDelete
	numKinds
)

func (k opKind) String() string { return [...]string{"query", "insert", "delete"}[k] }

// op is one request of a workload's op sequence.
type op struct {
	kind  opKind
	pat   int // query: index into input.patterns
	limit int // query: row limit, 0 = full result
	edges [][2]int32
}

// graphSeed seeds the XMark generator. The graph is the same for every run
// so that runs with different --seed values do the same amount of work;
// the op sequence (query order, row limits, written edges) is drawn from
// --seed.
const graphSeed = 2008

// spec fixes one workload.
type spec struct {
	name  string
	nodes int
	// unitsPerSecond converts --seconds into whole rounds of ops, so a run
	// is count-bounded yet lasts about --seconds on a 2-CPU host.
	unitsPerSecond float64
	gen            func(in *input, rng *rand.Rand, units int)
}

var specs = []spec{
	{name: "paper-battery", nodes: 40000, unitsPerSecond: 0.6, gen: genPaperBattery},
	{name: "probe-stream", nodes: 40000, unitsPerSecond: 10, gen: genProbeStream},
	{name: "churn", nodes: 40000, unitsPerSecond: 0.6, gen: genChurn},
}

func lookupSpec(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// input is everything a run replays: the generated graph, its reference
// model, the patterns with their full match counts on the initial graph,
// and the op sequence.
type input struct {
	graph    *graph.Graph
	ref      *refGraph
	patterns []*refPattern
	full     []int64
	ops      []op
	// battery is the set of paper patterns churn re-runs after its final
	// delete (indexes into patterns).
	battery []int
}

// paperPatterns are the paper's Section 6 families: P1–P9, T1–T9, the four
// Q1–Q5 batteries and the cyclic CY1–CY5.
func paperPatterns() []string {
	var ws []workload.Workload
	for _, f := range [][]workload.Workload{workload.Paths(), workload.Trees(), workload.Graphs4A(),
		workload.Graphs4B(), workload.Graphs5A(), workload.Graphs5B(), workload.Cyclic()} {
		ws = append(ws, f...)
	}
	texts := make([]string, len(ws))
	for i, w := range ws {
		texts[i] = w.Pattern.String()
	}
	return texts
}

// Probe patterns: small queries the tiered router answers from the index
// alone (single edges and stars, tier 1) or proves empty from the fan
// signature (tier 2).
var (
	tier1Probes = []string{
		"person->profile", "item->incategory", "open_auction->bidder", "person->category",
		"site->person", "profile->interest", "person->open_auction", "site->item",
		"item->category", "closed_auction->item", "bidder->person", "open_auction->item",
		"person->profile; person->address", "open_auction->bidder; open_auction->itemref",
		"item->incategory; item->mailbox", "site->people; site->regions",
		"closed_auction->seller; closed_auction->itemref", "person->watches; person->address",
	}
	tier2Probes = []string{
		"category->person", "interest->site", "name->person", "mail->category",
		"city->item", "bidder->site", "description->person", "incategory->item",
	}
)

// newInput generates the graph and op sequence of one run.
func newInput(s spec, seed int64, seconds int) *input {
	g := xmark.Generate(xmark.Config{Nodes: s.nodes, Seed: graphSeed}).Graph
	labelOf := make([]int32, g.NumNodes())
	var edges [][2]int32
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		labelOf[v] = int32(g.LabelOf(v))
		for _, w := range g.Successors(v) {
			edges = append(edges, [2]int32{int32(v), int32(w)})
		}
	}
	in := &input{graph: g, ref: newRefGraph(g.Labels().Names(), labelOf, edges)}
	units := max(1, int(math.Round(float64(seconds)*s.unitsPerSecond)))
	s.gen(in, rand.New(rand.NewSource(seed)), units)
	in.full = make([]int64, len(in.patterns))
	for i, p := range in.patterns {
		in.full[i] = in.ref.count(p)
	}
	return in
}

func (in *input) addPatterns(texts []string) (first int) {
	first = len(in.patterns)
	for _, t := range texts {
		p, err := in.ref.parseRefPattern(t)
		if err != nil {
			panic(err) // the pattern lists above are fixed and well formed
		}
		in.patterns = append(in.patterns, p)
	}
	return first
}

func (in *input) query(pat, limit int) {
	in.ops = append(in.ops, op{kind: opQuery, pat: pat, limit: limit})
}

// writePair inserts edges and at once deletes them again.
func (in *input) writePair(edges [][2]int32) {
	in.ops = append(in.ops, op{kind: opInsert, edges: edges}, op{kind: opDelete, edges: edges})
}

// shortcutEdges links k distinct random closed auctions straight to the
// description of their annotation (closed_auction→annotation→description).
// The edges add no reachability, so the write publishes a new epoch while
// the answers stay those of the initial graph; and since no reference
// points at a closed auction, every such write repairs index neighbourhoods
// of the same shape.
func (in *input) shortcutEdges(rng *rand.Rand, k int) [][2]int32 {
	r := in.ref
	auctions := r.extents[r.labelIDs["closed_auction"]]
	var out [][2]int32
	for _, i := range rng.Perm(len(auctions))[:k] {
		ca := auctions[i]
		for _, a := range r.out[ca] {
			if r.labelOf[a] != r.labelIDs["annotation"] {
				continue
			}
			for _, d := range r.out[a] {
				if r.labelOf[d] == r.labelIDs["description"] && !r.hasEdge(ca, d) {
					out = append(out, [2]int32{ca, d})
				}
			}
		}
	}
	if len(out) != k {
		panic("perfbench: closed auction without annotation/description") // the generator always emits both
	}
	return out
}

// randomEdges draws k distinct edges absent from the initial graph between
// distinct nodes chosen uniformly.
func (in *input) randomEdges(rng *rand.Rand, k int) [][2]int32 {
	n := in.ref.numNodes()
	var out [][2]int32
	for len(out) < k {
		e := [2]int32{int32(rng.Intn(n)), int32(rng.Intn(n))}
		if e[0] != e[1] && !slices.Contains(out, e) && !in.ref.hasEdge(e[0], e[1]) {
			out = append(out, e)
		}
	}
	return out
}

// genPaperBattery: each unit is one shuffled round of the 43 paper
// patterns with full results; after every third query a batch of shortcut
// edges is inserted and at once deleted, so every query sees the initial
// graph on a new epoch.
func genPaperBattery(in *input, rng *rand.Rand, rounds int) {
	n := len(paperPatterns())
	in.addPatterns(paperPatterns())
	for r := 0; r < rounds; r++ {
		for i, pi := range rng.Perm(n) {
			in.query(pi, 0)
			if i%3 == 2 {
				in.writePair(in.shortcutEdges(rng, shortcutBatch))
			}
		}
	}
}

// genProbeStream: each unit is two shuffled rounds of every probe pattern
// at row limits 10 and 100 (104 small queries), then a batch of shortcut
// edges inserted and at once deleted. After each write the 18 tier-1
// probes re-plan once; at 104 queries per write they are a sixth of the
// stream, so query_p90_ms falls among them instead of on the edge between
// re-planned and cached queries, where it would jump between runs.
func genProbeStream(in *input, rng *rand.Rand, blocks int) {
	probes := append(slices.Clone(tier1Probes), tier2Probes...)
	in.addPatterns(probes)
	n := len(probes)
	for b := 0; b < blocks; b++ {
		for r := 0; r < 2; r++ {
			for _, i := range rng.Perm(2 * n) {
				in.query(i%n, []int{10, 100}[i/n])
			}
		}
		in.writePair(in.shortcutEdges(rng, shortcutBatch))
	}
}

const (
	// shortcutBatch is the number of edges per write of paper-battery and
	// probe-stream. A single-edge write takes about a millisecond, short
	// enough for the host's scheduling delays to move its p90 by a quarter
	// from one run to the next.
	shortcutBatch = 8
	// churnBatch is the number of edges per churn write batch.
	churnBatch = 8
)

// genChurn: each unit is nine write pairs. A pair inserts a batch of random
// edges, runs one limited tier-1 probe query (which must re-plan on the new
// epoch), deletes the batch and runs another; the unit's 18 queries are a
// shuffled round of the tier-1 probes, and the graph ends where it
// started. The paper battery is re-run after the last unit.
//
// The random edges come from a pool drawn with the graph's seed; --seed
// shuffles the pool into batches. The cost of a random edge is heavy-tailed
// (it links every ancestor of its source to every descendant of its
// target), so runs that wrote different edges would differ in work, not in
// the program's speed.
func genChurn(in *input, rng *rand.Rand, units int) {
	in.addPatterns(tier1Probes)
	first := in.addPatterns(paperPatterns())
	for i := range paperPatterns() {
		in.battery = append(in.battery, first+i)
	}
	pairs := len(tier1Probes) / 2
	pool := in.randomEdges(rand.New(rand.NewSource(graphSeed)), units*pairs*churnBatch)
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	for u := 0; u < units; u++ {
		round := rng.Perm(len(tier1Probes))
		for p := 0; p+1 < len(round); p += 2 {
			edges := pool[:churnBatch:churnBatch]
			pool = pool[churnBatch:]
			in.ops = append(in.ops, op{kind: opInsert, edges: edges})
			in.query(round[p], 10)
			in.ops = append(in.ops, op{kind: opDelete, edges: edges})
			in.query(round[p+1], 10)
		}
	}
}
