// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload against the query server in its own process, checks every
// answer against an independent reference, and prints the metrics as one
// JSON line. See README.md for the workloads, metrics and reference
// figures.
//
// Usage (from the repository root, through run.sh, which builds it):
//
//	bash perfbench/run.sh --workload paper-battery --seed 1 --seconds 10 --trace 0
//
// With -trace 0 it prints the end-to-end metrics; with -trace 1 the
// per-layer metrics, from the server's counters and a traced in-process
// replay of the same operations.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"fastmatch/internal/graph"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupRuns is how many times a run sets the server up; setup_s is their
// median.
const setupRuns = 7

func main() {
	if len(os.Args) == 2 && os.Args[1] == "-serve" {
		if err := serve(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench server:", err)
			os.Exit(1)
		}
		return
	}
	name := flag.String("workload", "", "workload: paper-battery, probe-stream or churn")
	seed := flag.Int64("seed", 1, "seed of the op sequence")
	seconds := flag.Int("seconds", 10, "run length; sets the number of operations")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	root := flag.String("root", "", "checkout root; spans of a traced run go to <root>/.bench_build/spans")
	flag.Parse()
	res, err := run(*name, *seed, *seconds, *trace == 1, *root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(name string, seed int64, seconds int, traced bool, root string) (*result, error) {
	s, err := lookupSpec(name)
	if err != nil {
		return nil, err
	}
	if seconds < 1 {
		return nil, fmt.Errorf("-seconds must be at least 1")
	}
	in := newInput(s, seed, seconds)
	var text bytes.Buffer
	if err := graph.WriteText(&text, in.graph); err != nil {
		return nil, err
	}
	setups := setupRuns
	if traced {
		setups = 1
	}
	var setupTimes []float64
	var srv *serverProc
	for i := 0; i < setups; i++ {
		p, d, err := startServer(text.Bytes())
		if err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, d.Seconds())
		if i < setups-1 {
			if err := p.stop(); err != nil {
				return nil, err
			}
		} else {
			srv = p
		}
	}
	hr, err := runHTTP(newClient(srv.base), in)
	if serr := srv.stop(); err == nil && serr != nil {
		err = fmt.Errorf("stopping server: %w", serr)
	}
	if err != nil {
		return nil, err
	}

	res := &result{}
	var ops []string
	for k := opKind(0); k < numKinds; k++ {
		res.Attempted += hr.attempted[k]
		res.Failed += hr.failed[k]
		ops = append(ops, fmt.Sprintf("%s attempted=%d failed=%d", k, hr.attempted[k], hr.failed[k]))
	}
	fmt.Printf("%s ops: %s\n", name, strings.Join(ops, ", "))
	errs := hr.checkErrs
	if !traced {
		res.Metrics = endToEnd(hr, setupTimes)
	} else {
		res.Metrics = serverLayers(hr)
		untraced, tr, cerrs, err := replayPair(in)
		if err != nil {
			return nil, err
		}
		errs = append(errs, cerrs...)
		for k, m := range traceLayers(tr, untraced.elapsed) {
			res.Metrics[k] = m
		}
		if root != "" {
			path := filepath.Join(root, ".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", name, seed))
			if err := writeSpans(path, tr.spans); err != nil {
				return nil, err
			}
		}
	}
	res.Correct = len(errs) == 0
	for i, e := range errs {
		if i == 10 {
			fmt.Fprintf(os.Stderr, "... %d more wrong answers\n", len(errs)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "wrong answer:", e)
	}
	return res, nil
}
