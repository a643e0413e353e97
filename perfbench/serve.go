package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	osexec "os/exec"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"fastmatch/internal/exec"
	"fastmatch/internal/gdb"
	"fastmatch/internal/graph"
	"fastmatch/internal/server"
)

// serverState is the body of GET /bench/state: what the benchmark reads
// from the database beyond the server's own /stats.
type serverState struct {
	StoreBytes   int64 `json:"store_bytes"`
	CoverEntries int64 `json:"cover_entries"`
	MaxRSSKB     int64 `json:"max_rss_kb"`
}

// newHandler wraps the query server's HTTP API with GET /bench/state. The
// server runs with fgmserve's defaults; the planner is set explicitly
// because the zero Config selects DP, not the DPS its documentation names.
func newHandler(db *gdb.DB) http.Handler {
	svc := server.New(db, server.Config{DefaultAlgorithm: exec.DPS})
	mux := http.NewServeMux()
	mux.Handle("/", svc.Handler())
	mux.HandleFunc("POST /bench/gc", func(w http.ResponseWriter, _ *http.Request) {
		runtime.GC()
	})
	mux.HandleFunc("GET /bench/state", func(w http.ResponseWriter, _ *http.Request) {
		var ru syscall.Rusage
		_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(serverState{
			StoreBytes:   int64(db.SizeBytes()),
			CoverEntries: int64(db.CoverSize()),
			MaxRSSKB:     ru.Maxrss,
		})
	})
	return mux
}

// serve is the server process: it reads a text graph from stdin, builds
// the database with the server's defaults (1 MB buffer pool, twohop
// index), prints its address and serves until SIGTERM.
func serve() error {
	// Catch SIGTERM before announcing the address: the benchmark may stop
	// the server as soon as it has answered its first request.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, os.Interrupt)
	g, err := graph.ReadText(bufio.NewReaderSize(os.Stdin, 1<<20))
	if err != nil {
		return err
	}
	db, err := gdb.Build(g, gdb.Options{})
	if err != nil {
		return err
	}
	defer db.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	fmt.Printf("listening %s\n", ln.Addr())
	srv := &http.Server{Handler: newHandler(db)}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-sigc:
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return srv.Shutdown(ctx)
	}
}

// serverProc is a running server process.
type serverProc struct {
	cmd  *osexec.Cmd
	base string
}

// startServer starts the server process, hands it the graph text and
// returns once it has answered its first request; setup is the time from
// the first byte of the graph written to that answer.
func startServer(graphText []byte) (*serverProc, time.Duration, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	cmd := osexec.Command(self, "-serve")
	// The server dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, 0, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	p := &serverProc{cmd: cmd}
	t0 := time.Now()
	_, werr := stdin.Write(graphText)
	if cerr := stdin.Close(); werr == nil {
		werr = cerr
	}
	line, rerr := bufio.NewReader(stdout).ReadString('\n')
	addr, ok := strings.CutPrefix(strings.TrimSpace(line), "listening ")
	if werr != nil || rerr != nil || !ok {
		p.stop()
		return nil, 0, fmt.Errorf("server did not start (write: %v, read: %v, line %q)", werr, rerr, line)
	}
	p.base = "http://" + addr
	resp, err := http.Get(p.base + "/healthz")
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	setup := time.Since(t0)
	if err != nil {
		p.stop()
		return nil, 0, fmt.Errorf("server health check: %w", err)
	}
	return p, setup, nil
}

// stop ends the server and waits for it to exit.
func (p *serverProc) stop() error {
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // an exited process is fine
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill() // Wait below reports the outcome
		return errors.Join(errors.New("server ignored SIGTERM"), <-done)
	}
}

// client is the closed-loop load generator: one request at a time over
// one keep-alive loopback connection.
type client struct {
	base string
	http *http.Client
}

func newClient(base string) *client {
	return &client{base: base, http: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}}
}

// post sends body and reads the whole response; the duration runs from
// the send to the last byte read.
func (c *client) post(path string, body any) ([]byte, int, time.Duration, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return nil, 0, 0, err
	}
	t0 := time.Now()
	resp, err := c.http.Post(c.base+path, "application/json", bytes.NewReader(b))
	if err != nil {
		return nil, 0, time.Since(t0), err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return data, resp.StatusCode, time.Since(t0), err
}

func (c *client) getJSON(path string, v any) error {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
