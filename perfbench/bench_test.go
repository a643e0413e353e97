package main

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"slices"
	"sort"
	"testing"

	"fastmatch/internal/gdb"
)

// smallInput is a workload's op sequence at test size: a 3000-node graph
// and one unit of operations.
func smallInput(t *testing.T, name string) *input {
	t.Helper()
	s, err := lookupSpec(name)
	if err != nil {
		t.Fatal(err)
	}
	s.nodes, s.unitsPerSecond = 3000, 0.1
	return newInput(s, 7, 1)
}

func startTestServer(t *testing.T, in *input) *client {
	t.Helper()
	db, err := gdb.Build(in.graph, gdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newHandler(db))
	t.Cleanup(func() {
		ts.Close()
		db.Close()
	})
	return newClient(ts.URL)
}

// ask asks the engine for pattern pat with row limit limit.
func ask(t *testing.T, c *client, in *input, pat, limit int) *queryResponse {
	t.Helper()
	data, status, _, err := c.post("/query", queryRequest{Pattern: in.patterns[pat].text, Limit: limit})
	if err != nil || status != 200 {
		t.Fatalf("query %q: status %d, %v", in.patterns[pat].text, status, err)
	}
	var resp queryResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatal(err)
	}
	return &resp
}

func cloneResponse(r *queryResponse) *queryResponse {
	c := *r
	c.Rows = make([][]int32, len(r.Rows))
	for i, row := range r.Rows {
		c.Rows[i] = slices.Clone(row)
	}
	return &c
}

// TestCheckerRejectsCorruptAnswers feeds the checker correct answers and
// corrupted copies of them; it must accept the first and reject the rest.
func TestCheckerRejectsCorruptAnswers(t *testing.T) {
	in := smallInput(t, "paper-battery")
	c := startTestServer(t, in)
	pat := slices.IndexFunc(in.patterns, func(p *refPattern) bool {
		return p.text == "person->profile; profile->interest"
	})
	if pat < 0 || in.full[pat] < 4 {
		t.Fatalf("test pattern missing or too small (%d matches)", in.full[max(pat, 0)])
	}
	full := ask(t, c, in, pat, 0)
	limit := int(in.full[pat] / 2)
	limited := ask(t, c, in, pat, limit)
	check := func(r *queryResponse, lim int) error {
		return in.ref.checkQuery(in.patterns[pat], in.full[pat], lim, r)
	}
	if err := check(full, 0); err != nil {
		t.Fatalf("correct full answer rejected: %v", err)
	}
	if err := check(limited, limit); err != nil {
		t.Fatalf("correct limited answer rejected: %v", err)
	}

	// nonMatching is a row of the right labels that violates a condition:
	// the first row with its last column taken from a row whose first
	// column differs and does not reach it.
	nonMatching := func(r *queryResponse) []int32 {
		for _, o := range r.Rows {
			row := slices.Clone(r.Rows[0])
			row[len(row)-1] = o[len(o)-1]
			bad := cloneResponse(&queryResponse{Cols: r.Cols, Rows: [][]int32{row}, RowCount: 1})
			if in.ref.checkQuery(in.patterns[pat], 1, 0, bad) != nil {
				return row
			}
		}
		t.Fatal("no non-matching row found")
		return nil
	}
	corruptions := map[string]func(r *queryResponse){
		"dropped row": func(r *queryResponse) {
			r.Rows = r.Rows[1:]
			r.RowCount--
		},
		"added non-matching row": func(r *queryResponse) {
			r.Rows = append(r.Rows, nonMatching(r))
			r.RowCount++
		},
		"row replaced by a non-matching one": func(r *queryResponse) {
			r.Rows[1] = nonMatching(r)
		},
		"duplicated row": func(r *queryResponse) {
			r.Rows = append(r.Rows, slices.Clone(r.Rows[0]))
			r.RowCount++
		},
		"row replaced by a duplicate": func(r *queryResponse) {
			r.Rows[1] = slices.Clone(r.Rows[0])
		},
		"truncated flag flipped": func(r *queryResponse) {
			r.Truncated = !r.Truncated
		},
	}
	names := make([]string, 0, len(corruptions))
	for name := range corruptions {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, base := range []struct {
			r     *queryResponse
			limit int
		}{{full, 0}, {limited, limit}} {
			bad := cloneResponse(base.r)
			corruptions[name](bad)
			if err := check(bad, base.limit); err == nil {
				t.Errorf("%s (limit %d): corrupted answer accepted", name, base.limit)
			}
		}
	}
}

// TestWorkloadsSmall runs every workload at test size, over HTTP and as
// traced and untraced replays: no operation may fail, every answer must
// check, and the metrics printed must be exactly those BENCHMARK.json
// declares.
func TestWorkloadsSmall(t *testing.T) {
	declared := readDeclared(t)
	for _, s := range specs {
		t.Run(s.name, func(t *testing.T) {
			in := smallInput(t, s.name)
			c := startTestServer(t, in)
			hr, err := runHTTP(c, in)
			if err != nil {
				t.Fatal(err)
			}
			if hr.failed != [numKinds]int{} {
				t.Errorf("failed operations: %v of %v", hr.failed, hr.attempted)
			}
			for _, e := range hr.checkErrs {
				t.Error(e)
			}
			if hr.attempted[opQuery] == 0 || hr.attempted[opInsert] == 0 || hr.attempted[opDelete] == 0 {
				t.Errorf("workload lacks an operation kind: %v", hr.attempted)
			}
			untraced, traced, cerrs, err := replayPair(in)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range cerrs {
				t.Error(e)
			}
			assertNames(t, "end_to_end", endToEnd(hr, []float64{1}), declared.EndToEnd)
			layers := serverLayers(hr)
			for k, m := range traceLayers(traced, untraced.elapsed) {
				layers[k] = m
			}
			assertNames(t, "per_layer", layers, declared.PerLayer)
		})
	}
}

type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type declaredMetrics struct {
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

func readDeclared(t *testing.T) declaredMetrics {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declaredMetrics
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func assertNames(t *testing.T, kind string, got map[string]metric, want []declaredMetric) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics printed, %d declared", kind, len(got), len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		if !ok || m.Unit != w.Unit {
			t.Errorf("%s: declared %s [%s], printed %+v (present %v)", kind, w.Name, w.Unit, m, ok)
		}
	}
}
