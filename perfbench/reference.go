package main

import (
	"fmt"
	"slices"
	"strings"
)

// refGraph is the benchmark's own model of the data graph: node labels and
// an edge multiset, copied from the generated graph and kept apart from
// the engine. Reachability is answered by plain BFS over this copy, so the
// reference shares no code with the 2-hop index, the cluster index or the
// engine's own naive matcher.
type refGraph struct {
	labelOf  []int32
	labelIDs map[string]int32
	extents  [][]int32
	out, in  [][]int32

	// fwd/bwd memoise one BFS per source node: the nodes reachable from
	// (reaching) it along at least one edge, as sorted label<<32|node keys.
	fwd, bwd map[int32][]uint64
	// diff is the net edge change since the memos were taken; the memos
	// are valid while it is empty, so an insert followed by the delete of
	// the same edge keeps them.
	diff map[[2]int32]int
	// delta is the net edge change since construction.
	delta map[[2]int32]int
	stamp []uint32
	gen   uint32
	queue []int32
}

func newRefGraph(labels []string, labelOf []int32, edges [][2]int32) *refGraph {
	r := &refGraph{
		labelOf:  labelOf,
		labelIDs: make(map[string]int32, len(labels)),
		extents:  make([][]int32, len(labels)),
		out:      make([][]int32, len(labelOf)),
		in:       make([][]int32, len(labelOf)),
		stamp:    make([]uint32, len(labelOf)),
		delta:    make(map[[2]int32]int),
	}
	for i, l := range labels {
		r.labelIDs[l] = int32(i)
	}
	for v, l := range labelOf {
		r.extents[l] = append(r.extents[l], int32(v))
	}
	for _, e := range edges {
		r.out[e[0]] = append(r.out[e[0]], e[1])
		r.in[e[1]] = append(r.in[e[1]], e[0])
	}
	r.resetMemo()
	return r
}

func (r *refGraph) numNodes() int { return len(r.labelOf) }

func (r *refGraph) resetMemo() {
	r.fwd = make(map[int32][]uint64)
	r.bwd = make(map[int32][]uint64)
	r.diff = make(map[[2]int32]int)
}

func (r *refGraph) hasEdge(u, v int32) bool { return slices.Contains(r.out[u], v) }

func (r *refGraph) insertEdge(u, v int32) {
	r.out[u] = append(r.out[u], v)
	r.in[v] = append(r.in[v], u)
	r.noteDiff(u, v, 1)
}

// deleteEdge removes one occurrence of u→v and reports whether it was
// present.
func (r *refGraph) deleteEdge(u, v int32) bool {
	i := slices.Index(r.out[u], v)
	if i < 0 {
		return false
	}
	r.out[u] = slices.Delete(r.out[u], i, i+1)
	j := slices.Index(r.in[v], u)
	r.in[v] = slices.Delete(r.in[v], j, j+1)
	r.noteDiff(u, v, -1)
	return true
}

func (r *refGraph) noteDiff(u, v int32, d int) {
	k := [2]int32{u, v}
	for _, m := range []map[[2]int32]int{r.diff, r.delta} {
		if m[k] += d; m[k] == 0 {
			delete(m, k)
		}
	}
}

// atInitial reports whether the edge multiset equals the one the graph was
// constructed with.
func (r *refGraph) atInitial() bool { return len(r.delta) == 0 }

// reach returns the sorted label<<32|node keys of the nodes reachable from
// (forward) or reaching (backward) v along at least one edge.
func (r *refGraph) reach(v int32, forward bool) []uint64 {
	if len(r.diff) > 0 {
		r.resetMemo()
	}
	memo, adj := r.fwd, r.out
	if !forward {
		memo, adj = r.bwd, r.in
	}
	if keys, ok := memo[v]; ok {
		return keys
	}
	r.gen++
	r.queue = append(r.queue[:0], v)
	var keys []uint64
	for len(r.queue) > 0 {
		u := r.queue[len(r.queue)-1]
		r.queue = r.queue[:len(r.queue)-1]
		for _, w := range adj[u] {
			if r.stamp[w] == r.gen {
				continue
			}
			r.stamp[w] = r.gen
			r.queue = append(r.queue, w)
			keys = append(keys, uint64(r.labelOf[w])<<32|uint64(w))
		}
	}
	slices.Sort(keys)
	memo[v] = keys
	return keys
}

// ofLabel returns the nodes of label l among sorted keys.
func ofLabel(keys []uint64, l int32) []uint64 {
	lo, _ := slices.BinarySearch(keys, uint64(l)<<32)
	hi, _ := slices.BinarySearch(keys, uint64(l+1)<<32)
	return keys[lo:hi]
}

// reaches reports u ⇝ v along at least one edge.
func (r *refGraph) reaches(u, v int32) bool {
	_, ok := slices.BinarySearch(r.reach(u, true), uint64(r.labelOf[v])<<32|uint64(v))
	return ok
}

// refPattern is a pattern over the reference's label ids. A label absent
// from the graph gets id -1 and the pattern has no matches.
type refPattern struct {
	text   string
	names  []string
	labels []int32
	edges  [][2]int
}

// parseRefPattern reads the "A->B; B->C" syntax independently of the
// engine's parser.
func (r *refGraph) parseRefPattern(text string) (*refPattern, error) {
	p := &refPattern{text: text}
	index := map[string]int{}
	node := func(name string) int {
		if i, ok := index[name]; ok {
			return i
		}
		index[name] = len(p.names)
		p.names = append(p.names, name)
		l, ok := r.labelIDs[name]
		if !ok {
			l = -1
		}
		p.labels = append(p.labels, l)
		return len(p.names) - 1
	}
	for _, part := range strings.Split(text, ";") {
		lr := strings.Split(part, "->")
		if len(lr) != 2 {
			return nil, fmt.Errorf("reference: bad edge %q in %q", part, text)
		}
		from, to := strings.TrimSpace(lr[0]), strings.TrimSpace(lr[1])
		p.edges = append(p.edges, [2]int{node(from), node(to)})
	}
	return p, nil
}

// count enumerates the matches of p: one data node per pattern node, of
// the node's label, with every condition X->Y reachable along at least one
// edge. Pattern labels are distinct, so the matched nodes are too.
func (r *refGraph) count(p *refPattern) int64 {
	for _, l := range p.labels {
		if l < 0 {
			return 0
		}
	}
	order, via := r.matchOrder(p)
	assign := make([]int32, len(p.labels))
	var n int64
	var rec func(step int)
	rec = func(step int) {
		if step == len(order) {
			n++
			return
		}
		v := order[step]
		var cands []uint64
		if e := via[step]; e < 0 {
			for _, w := range r.extents[p.labels[v]] {
				cands = append(cands, uint64(w))
			}
		} else if a := p.edges[e][0]; a != v {
			cands = ofLabel(r.reach(assign[a], true), p.labels[v])
		} else {
			cands = ofLabel(r.reach(assign[p.edges[e][1]], false), p.labels[v])
		}
	next:
		for _, c := range cands {
			assign[v] = int32(uint32(c))
			for ei, ed := range p.edges {
				if ei == via[step] || (ed[0] != v && ed[1] != v) || !placedBefore(order, step, ed, v) {
					continue
				}
				if !r.reaches(assign[ed[0]], assign[ed[1]]) {
					continue next
				}
			}
			rec(step + 1)
		}
	}
	rec(0)
	return n
}

// placedBefore reports whether the endpoint of ed other than v is
// assigned before step.
func placedBefore(order []int, step int, ed [2]int, v int) bool {
	other := ed[0]
	if other == v {
		other = ed[1]
	}
	return slices.Contains(order[:step], other)
}

// matchOrder starts at the smallest extent and then adds, each step, a
// node joined to the placed ones; via[step] is the edge its candidates
// are drawn from (-1 for the first node).
func (r *refGraph) matchOrder(p *refPattern) ([]int, []int) {
	start := 0
	for v := range p.labels {
		if len(r.extents[p.labels[v]]) < len(r.extents[p.labels[start]]) {
			start = v
		}
	}
	order, via := []int{start}, []int{-1}
	placed := map[int]bool{start: true}
	for len(order) < len(p.labels) {
		for ei, e := range p.edges {
			if placed[e[0]] != placed[e[1]] {
				v := e[0]
				if placed[v] {
					v = e[1]
				}
				order, via = append(order, v), append(via, ei)
				placed[v] = true
				break
			}
		}
	}
	return order, via
}
