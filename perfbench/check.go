package main

import (
	"fmt"
	"slices"
)

// queryResponse mirrors the JSON body of POST /query.
type queryResponse struct {
	Cols      []string  `json:"cols"`
	Rows      [][]int32 `json:"rows"`
	RowCount  int       `json:"row_count"`
	Truncated bool      `json:"truncated"`
	ElapsedMS float64   `json:"elapsed_ms"`
}

// checkQuery checks an answer received over HTTP; see checkRows.
func (r *refGraph) checkQuery(p *refPattern, full int64, limit int, resp *queryResponse) error {
	if resp.RowCount != len(resp.Rows) {
		return fmt.Errorf("%q: row_count %d for %d rows", p.text, resp.RowCount, len(resp.Rows))
	}
	return checkRows(r, p, full, limit, resp.Cols, resp.Rows, resp.Truncated)
}

// checkRows accepts rows, in columns cols, as the answer to p with row
// limit limit (0 = no limit) on a graph where p has full matches, by
// properties alone: there are min(limit, full) rows, every row satisfies
// every condition of p on the reference graph, no row repeats, and
// truncated is set exactly when full exceeds the limit. Distinct valid
// rows of the full count are the full match set, so an unlimited answer is
// checked exactly.
func checkRows[T ~int32](r *refGraph, p *refPattern, full int64, limit int, cols []string, rows [][]T, truncated bool) error {
	want := full
	if limit > 0 && full > int64(limit) {
		want = int64(limit)
	}
	if int64(len(rows)) != want {
		return fmt.Errorf("%q: %d rows, want %d", p.text, len(rows), want)
	}
	if truncated != (full > want) {
		return fmt.Errorf("%q: truncated=%v, want %v (full %d, limit %d)", p.text, truncated, full > want, full, limit)
	}
	// colOf[i] is the pattern node of response column i.
	if len(cols) != len(p.names) {
		return fmt.Errorf("%q: columns %v", p.text, cols)
	}
	colOf := make([]int, len(cols))
	for i, c := range cols {
		colOf[i] = slices.Index(p.names, c)
		if colOf[i] < 0 || slices.Index(cols, c) != i {
			return fmt.Errorf("%q: columns %v", p.text, cols)
		}
	}
	assign := make([]int32, len(p.names))
	for _, row := range rows {
		if len(row) != len(colOf) {
			return fmt.Errorf("%q: row %v has %d columns", p.text, row, len(row))
		}
		for i, v := range row {
			n := colOf[i]
			if v < 0 || int(v) >= r.numNodes() || r.labelOf[v] != p.labels[n] {
				return fmt.Errorf("%q: row %v: node %d is not a %s", p.text, row, v, p.names[n])
			}
			assign[n] = int32(v)
		}
		for _, e := range p.edges {
			if !r.reaches(assign[e[0]], assign[e[1]]) {
				return fmt.Errorf("%q: row %v: %d does not reach %d", p.text, row, assign[e[0]], assign[e[1]])
			}
		}
	}
	sorted := slices.Clone(rows)
	slices.SortFunc(sorted, slices.Compare)
	for i := 1; i < len(sorted); i++ {
		if slices.Equal(sorted[i-1], sorted[i]) {
			return fmt.Errorf("%q: row %v repeats", p.text, sorted[i])
		}
	}
	return nil
}
