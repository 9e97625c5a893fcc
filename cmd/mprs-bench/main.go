// Command mprs-bench runs the perf-regression harness and diffs its
// artifacts.
//
// Usage:
//
//	mprs-bench run                      # full registry -> BENCH_<stamp>.json
//	mprs-bench run -quick -out ci.json  # CI tier, explicit output
//	mprs-bench run -workloads t2-star   # subset of the registry
//	mprs-bench list                     # registry workloads
//	mprs-bench diff OLD NEW             # compare two artifacts (or traces)
//	mprs-bench -version
//
// `diff` accepts either two BENCH_*.json artifacts or two JSONL trace files
// (detected by content). Every column must match exactly; exit status is 2
// when any delta is found.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/rulingset/mprs/internal/bench"
	"github.com/rulingset/mprs/internal/buildinfo"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mprs-bench:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

func run(args []string, out *os.File) (int, error) {
	if len(args) == 0 {
		return 1, fmt.Errorf("usage: mprs-bench <run|list|diff> [flags] (or -version)")
	}
	switch args[0] {
	case "-version", "--version", "version":
		fmt.Fprintln(out, buildinfo.CLIVersion("mprs-bench"))
		return 0, nil
	case "run":
		return runBench(args[1:], out)
	case "list":
		return runList(args[1:], out)
	case "diff":
		return runDiff(args[1:], out)
	}
	return 1, fmt.Errorf("unknown subcommand %q (want run, list or diff)", args[0])
}

func runBench(args []string, out *os.File) (int, error) {
	fs := flag.NewFlagSet("mprs-bench run", flag.ContinueOnError)
	var (
		quick     = fs.Bool("quick", false, "run the reduced CI tier")
		workloads = fs.String("workloads", "", "comma-separated workload names (default: all)")
		seed      = fs.Int64("seed", 1, "workload/algorithm seed")
		outPath   = fs.String("out", "", "output path (default BENCH_<stamp>.json)")
		quiet     = fs.Bool("q", false, "suppress per-row progress")
	)
	if err := fs.Parse(args); err != nil {
		return 1, err
	}
	if fs.NArg() != 0 {
		return 1, fmt.Errorf("run takes no positional arguments")
	}
	cfg := bench.RunConfig{Quick: *quick, Seed: *seed}
	if *workloads != "" {
		for _, w := range strings.Split(*workloads, ",") {
			cfg.Workloads = append(cfg.Workloads, strings.TrimSpace(w))
		}
	}
	if !*quiet {
		cfg.Progress = func(line string) { fmt.Fprintln(os.Stderr, "  "+line) }
	}
	f, err := bench.Run(cfg)
	if err != nil {
		return 1, err
	}
	path := *outPath
	if path == "" {
		path = fmt.Sprintf("BENCH_%s.json", time.Now().UTC().Format("20060102T150405Z"))
	}
	if err := f.WriteFile(path); err != nil {
		return 1, err
	}
	fmt.Fprintf(out, "wrote %s (%d rows)\n", path, len(f.Results))
	return 0, nil
}

func runList(args []string, out *os.File) (int, error) {
	fs := flag.NewFlagSet("mprs-bench list", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return 1, err
	}
	for _, w := range bench.Registry() {
		fmt.Fprintf(out, "%-14s %-3s %s\n", w.Name, w.Experiment, w.Doc)
		fmt.Fprintf(out, "%-14s     spec=%s quick=%s algos=%s\n",
			"", w.Spec, w.QuickSpec, strings.Join(w.Algos, ","))
	}
	return 0, nil
}

func runDiff(args []string, out *os.File) (int, error) {
	fs := flag.NewFlagSet("mprs-bench diff", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return 1, err
	}
	if fs.NArg() != 2 {
		return 1, fmt.Errorf("usage: mprs-bench diff OLD NEW")
	}
	oldPath, newPath := fs.Arg(0), fs.Arg(1)
	oldKind, err := sniff(oldPath)
	if err != nil {
		return 1, err
	}
	newKind, err := sniff(newPath)
	if err != nil {
		return 1, err
	}
	if oldKind != newKind {
		return 1, fmt.Errorf("cannot diff %s artifact %s against %s artifact %s", oldKind, oldPath, newKind, newPath)
	}
	var deltas []bench.Delta
	switch oldKind {
	case "trace":
		deltas, err = bench.DiffTraces(oldPath, newPath)
	default:
		var oldF, newF *bench.File
		if oldF, err = bench.ReadFile(oldPath); err == nil {
			if newF, err = bench.ReadFile(newPath); err == nil {
				deltas = bench.Diff(oldF, newF)
			}
		}
	}
	if err != nil {
		return 1, err
	}
	for _, d := range deltas {
		fmt.Fprintln(out, d)
	}
	if len(deltas) > 0 {
		fmt.Fprintf(out, "FAIL: %s -> %s\n", oldPath, newPath)
		return 2, nil
	}
	fmt.Fprintf(out, "OK: %s matches %s on every column\n", newPath, oldPath)
	return 0, nil
}

// sniff classifies an artifact file as a bench JSON ("bench") or JSONL trace
// ("trace") by its leading bytes: traces are line-delimited objects starting
// with a schema or round key, bench artifacts with an indented manifest.
func sniff(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	buf := make([]byte, 64)
	n, _ := f.Read(buf)
	head := bytes.TrimLeft(buf[:n], " \t\r\n")
	switch {
	case bytes.HasPrefix(head, []byte(`{"schema":"mprs-trace/`)),
		bytes.HasPrefix(head, []byte(`{"round"`)):
		return "trace", nil
	default:
		return "bench", nil
	}
}
