package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/rulingset/mprs/internal/supervise"
	"github.com/rulingset/mprs/internal/transport"
)

// wireStats is one worker process's stream traffic.
type wireStats struct {
	// Frames and Bytes count what the worker wrote; each transport frame
	// is one Write call.
	Frames int64 `json:"frames"`
	Bytes  int64 `json:"bytes"`
	// WriteS is time spent in those writes; WaitS is time blocked reading
	// the supervisor's stream, which is waiting for peer frames.
	WriteS float64 `json:"write_s"`
	WaitS  float64 `json:"wait_s"`
}

// workerMain is the supervised worker process: supervise.WorkerMain over
// stdin/stdout, with the streams wrapped in counters when the supervisor
// side asked for them through wireEnv.
func workerMain() error {
	var env supervise.WorkerEnv
	if err := json.Unmarshal([]byte(os.Getenv(supervise.EnvSpec)), &env); err != nil {
		return fmt.Errorf("decode %s: %w", supervise.EnvSpec, err)
	}
	dir := os.Getenv(wireEnv)
	if dir == "" {
		return supervise.WorkerMain(env, os.Stdin, os.Stdout)
	}
	m := &wireMeter{path: filepath.Join(dir, fmt.Sprintf("w%d-a%d.json", env.Worker, env.Attempt))}
	//detlint:ok detflow -- the env-derived path only names the file the counters are saved to; the streams pass every byte through unchanged
	return supervise.WorkerMain(env, meteredReader{m, os.Stdin}, meteredWriter{m, os.Stdout})
}

// wireMeter accumulates one worker's stream counters. The heartbeat ticker
// and the exchange path write concurrently, hence the lock.
type wireMeter struct {
	mu    sync.Mutex
	stats wireStats
	path  string
}

type meteredReader struct {
	m *wireMeter
	r io.Reader
}

func (r meteredReader) Read(p []byte) (int, error) {
	start := time.Now()
	n, err := r.r.Read(p)
	r.m.mu.Lock()
	r.m.stats.WaitS += time.Since(start).Seconds()
	r.m.mu.Unlock()
	return n, err
}

type meteredWriter struct {
	m *wireMeter
	w io.Writer
}

// Write forwards one frame. Before the worker's final Result or Error frame
// it saves the counters: the supervisor kills the worker's process group
// once every result is in, so nothing after that frame is sure to run.
func (w meteredWriter) Write(p []byte) (int, error) {
	if len(p) > 4 && (p[4] == transport.FrameResult || p[4] == transport.FrameError) {
		w.m.mu.Lock()
		data, err := json.Marshal(w.m.stats)
		w.m.mu.Unlock()
		if err == nil {
			err = os.WriteFile(w.m.path, data, 0o644)
		}
		if err != nil {
			return 0, fmt.Errorf("save wire counters: %w", err)
		}
	}
	start := time.Now()
	n, err := w.w.Write(p)
	w.m.mu.Lock()
	w.m.stats.Frames++
	w.m.stats.Bytes += int64(n)
	w.m.stats.WriteS += time.Since(start).Seconds()
	w.m.mu.Unlock()
	return n, err
}

// readWireStats sums the counters every worker left in dir.
func readWireStats(dir string) (wireStats, error) {
	var sum wireStats
	files, err := filepath.Glob(filepath.Join(dir, "w*-a*.json"))
	if err != nil {
		return sum, err
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return sum, err
		}
		var s wireStats
		if err := json.Unmarshal(data, &s); err != nil {
			return sum, fmt.Errorf("%s: %w", f, err)
		}
		sum.Frames += s.Frames
		sum.Bytes += s.Bytes
		sum.WriteS += s.WriteS
		sum.WaitS += s.WaitS
	}
	return sum, nil
}
