// Command perfbench is mprs's host-cost benchmark. It drives the library
// from outside, through exported functions only: it generates each
// workload's graph with gen, solves it with a rulingset driver (or on
// supervise.MultiProc), times those calls and checks every output. With
// -trace 1 it instead reports per-layer numbers from the public seams
// (trace.Tracer, mpc.CheckpointSink, the worker's byte streams, and direct
// calls into hash). run.py builds it and is the entry point; see README.md.
//
//	perfbench run -workload NAME -seed N -seconds S -trace 0|1 -workdir DIR
//	perfbench digests FIRST-SEED LAST-SEED > expected.json
//	perfbench worker   (spawned by the supervisor on the multiproc workload)
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"time"

	"github.com/rulingset/mprs/internal/gen"
	"github.com/rulingset/mprs/internal/graph"
	"github.com/rulingset/mprs/internal/mpc"
	"github.com/rulingset/mprs/internal/rulingset"
	"github.com/rulingset/mprs/internal/trace"
)

// expectedJSON records the member digest of every workload at seeds 1-20:
// workload name -> seed -> digest (see digest).
//
//go:embed expected.json
var expectedJSON []byte

// minSolves is the fewest timed solves one run makes, however short -seconds.
const minSolves = 3

const usage = `usage: perfbench run -workload NAME -seed N -seconds S -trace 0|1 -workdir DIR
       perfbench digests FIRST-SEED LAST-SEED > expected.json`

func main() {
	var err error
	switch {
	case len(os.Args) == 2 && os.Args[1] == "worker":
		err = workerMain()
	case len(os.Args) == 4 && os.Args[1] == "digests":
		err = digestsMain(os.Args[2], os.Args[3])
	case len(os.Args) > 1 && os.Args[1] == "run":
		err = runMain(os.Args[2:])
	default:
		fmt.Fprintln(os.Stderr, usage)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", os.Args[1], err)
		os.Exit(1)
	}
}

func runMain(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "input seed: graph generator and randomized algorithm")
	seconds := fs.Float64("seconds", 10, "how long the timed solves run")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	workdir := fs.String("workdir", ".", "directory for checkpoints and trace files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	b, err := newBench(w, *seed, *workdir, false)
	if err != nil {
		return err
	}
	var rep report
	if *traced == 1 {
		rep, err = b.layers()
	} else {
		rep, err = b.endToEnd(*seconds)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bench is one run of one workload at one seed.
type bench struct {
	w       workload
	spec    string
	seed    int64
	workdir string
	nproc   int
	g       *graph.Graph
	// ref is the member digest every solve must reproduce: the recorded
	// one when expected.json has this seed, else the first solve's.
	ref               string
	attempted, failed int
	// restarts sums supervisor worker restarts over the multiproc solves.
	restarts int
	// digests keeps the digest of each labelled solve (for the smoke test).
	digests map[string]string
	metrics map[string]metric
}

func newBench(w workload, seed int64, workdir string, tiny bool) (*bench, error) {
	b := &bench{w: w, spec: w.spec, seed: seed, workdir: workdir, nproc: runtime.NumCPU(),
		digests: map[string]string{}, metrics: map[string]metric{}}
	if tiny {
		b.spec = w.tiny
	} else {
		var expected map[string]map[string]string
		if err := json.Unmarshal(expectedJSON, &expected); err != nil {
			return nil, fmt.Errorf("expected.json: %w", err)
		}
		b.ref = expected[w.digests][fmt.Sprint(seed)]
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, err
	}
	return b, nil
}

func (b *bench) set(name string, value float64, unit string) {
	b.metrics[name] = metric{Value: value, Unit: unit}
}

func (b *bench) report() report {
	return report{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: b.metrics}
}

// build generates the graph n times and returns the median build time.
func (b *bench) build(n int) (float64, error) {
	sp, err := gen.ParseSpec(b.spec)
	if err != nil {
		return 0, err
	}
	times := make([]float64, n)
	for i := range times {
		b.g = nil
		runtime.GC()
		start := time.Now()
		g, err := sp.Build(b.seed)
		times[i] = time.Since(start).Seconds()
		if err != nil {
			return 0, err
		}
		b.g = g
	}
	return median(times), nil
}

// solver is one solve; it returns its own wall time or 0 (see timed).
type solver func() (outcome, time.Duration, error)

func (b *bench) inproc(parallelism int, tr trace.Tracer, sink mpc.CheckpointSink) solver {
	return func() (outcome, time.Duration, error) {
		o := b.w.options(b.seed, parallelism)
		o.Tracer = tr
		if sink != nil {
			o.CheckpointSink = sink
			o.CheckpointEvery = mpCheckpointEvery
		}
		out, err := b.w.solveInProc(b.g, o)
		return out, 0, err
	}
}

func (b *bench) multiproc(mo mpOptions) solver {
	return func() (outcome, time.Duration, error) {
		return b.w.solveMultiproc(b.spec, b.seed, b.workdir, mo)
	}
}

// measured is the workload's timed configuration: in-process at nproc, or
// MultiProc.
func (b *bench) measured() solver {
	if b.w.multiproc {
		return b.multiproc(mpOptions{})
	}
	return b.inproc(b.nproc, nil, nil)
}

// solve times one solve and checks its output.
func (b *bench) solve(label string, s solver) (sample, outcome) {
	var out outcome
	smp, err := timed(func() (time.Duration, error) {
		o, wall, err := s()
		out = o
		return wall, err
	})
	b.check(label, out, err)
	return smp, out
}

// check counts one attempted solve and whether it failed: an error, a
// worker restart, a set that is not independent or not a ruling set of the
// advertised radius, or members that differ from the reference digest.
func (b *bench) check(label string, out outcome, err error) {
	b.attempted++
	b.restarts += out.restarts
	reason := ""
	switch {
	case err != nil:
		reason = err.Error()
	case out.restarts != 0:
		reason = fmt.Sprintf("%d worker restarts", out.restarts)
	default:
		if cerr := rulingset.Check(b.g, rulingset.Result{Members: out.members, Beta: out.beta}); cerr != nil {
			reason = cerr.Error()
			break
		}
		d := digest(out.members)
		b.digests[label] = d
		if b.ref == "" {
			b.ref = d
		}
		if d != b.ref {
			reason = fmt.Sprintf("members digest %s, want %s", d, b.ref)
		}
	}
	if reason != "" {
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s %s solve failed: %s\n", b.w.name, label, reason)
	}
}

// warmUp is the untimed first solve. It runs on another path that must
// give the same members as the timed one, so it doubles as a cross-check:
// parallelism 1 in-process, or the in-process engine for multiproc.
func (b *bench) warmUp() {
	if b.w.multiproc {
		b.solve("in-process", b.inproc(b.nproc, nil, nil))
	} else {
		b.solve("parallelism-1", b.inproc(1, nil, nil))
	}
	fmt.Printf("%s seed %d: %d vertices, members digest %s\n", b.w.name, b.seed, b.g.N(), b.ref)
}

// endToEnd measures the end-to-end metrics with tracing off: the graph is
// built several times for setup_s, an untimed warm-up follows, then timed
// solves repeat for at least seconds and each metric is the median over
// them.
func (b *bench) endToEnd(seconds float64) (report, error) {
	setup, err := b.build(b.w.builds)
	if err != nil {
		return report{}, err
	}
	b.warmUp()
	s := b.measured()
	var ss []sample
	start := time.Now()
	for len(ss) < minSolves || time.Since(start).Seconds() < seconds {
		smp, _ := b.solve("timed", s)
		ss = append(ss, smp)
		fmt.Printf("solve %d: %.4f s wall, %.4f s cpu, %.1f MB allocated\n", len(ss), smp.wall, smp.cpu, smp.allocMB)
	}
	b.set("solve_s", median(field(ss, func(s sample) float64 { return s.wall })), "s")
	b.set("setup_s", setup, "s")
	b.set("cpu_s", median(field(ss, func(s sample) float64 { return s.cpu })), "s")
	b.set("alloc_mb", median(field(ss, func(s sample) float64 { return s.allocMB })), "MB")
	b.set("peak_rss_mb", peakRSSMB(), "MB")
	return b.report(), nil
}

// digestsMain prints expected.json for seeds first..last: the members
// digest of one in-process solve per workload and seed (the multiproc
// workload reuses the in-process job's entries).
func digestsMain(first, last string) error {
	lo, err := strconv.ParseInt(first, 10, 64)
	if err != nil {
		return err
	}
	hi, err := strconv.ParseInt(last, 10, 64)
	if err != nil {
		return err
	}
	expected := map[string]map[string]string{}
	for _, w := range workloads {
		if w.digests != w.name {
			continue
		}
		expected[w.name] = map[string]string{}
		for seed := lo; seed <= hi; seed++ {
			sp, err := gen.ParseSpec(w.spec)
			if err != nil {
				return err
			}
			g, err := sp.Build(seed)
			if err != nil {
				return err
			}
			out, err := w.solveInProc(g, w.options(seed, 0))
			if err == nil {
				err = rulingset.Check(g, rulingset.Result{Members: out.members, Beta: out.beta})
			}
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
			}
			expected[w.name][fmt.Sprint(seed)] = digest(out.members)
		}
	}
	data, err := json.MarshalIndent(expected, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}
