package main

import (
	"os"
	"sync"
	"time"

	"github.com/rulingset/mprs/internal/durable"
	"github.com/rulingset/mprs/internal/hash"
	"github.com/rulingset/mprs/internal/mpc"
	"github.com/rulingset/mprs/internal/telemetry"
	"github.com/rulingset/mprs/internal/trace"
)

// layerMetrics is every per-layer metric with its unit. A traced run prints
// all of them on every workload; one whose layer the workload does not run
// reads 0 (README.md says which apply where).
var layerMetrics = []struct{ name, unit string }{
	{"gen.build_s", "s"},
	{"rulingset.solve_s", "s"},
	{"rulingset.sparsify_s", "s"},
	{"rulingset.seed-search_s", "s"},
	{"rulingset.gather_s", "s"},
	{"rulingset.finish_s", "s"},
	{"rulingset.other_s", "s"},
	{"rulingset.seed_steps", "count"},
	{"hash.markprob_ns", "ns"},
	{"hash.pairmarkprob_ns", "ns"},
	{"mpc.rounds", "count"},
	{"mpc.messages", "count"},
	{"mpc.words", "count"},
	{"mpc.violations", "count"},
	{"mpc.round_s", "s"},
	{"mpc.mallocs_per_round", "count"},
	{"mpc.alloc_mb_per_round", "MB"},
	{"mpc.speedup_x", "x"},
	{"clique.rounds", "count"},
	{"clique.words", "count"},
	{"clique.mallocs_per_round", "count"},
	{"trace.overhead_s", "s"},
	{"durable.persists", "count"},
	{"durable.bytes", "bytes"},
	{"durable.persist_s", "s"},
	{"transport.frames", "count"},
	{"transport.bytes", "bytes"},
	{"transport.write_s", "s"},
	{"transport.wait_s", "s"},
	{"supervise.overhead_s", "s"},
	{"supervise.restarts", "count"},
}

// namedSpans are the phase spans the rulingset drivers annotate; time in
// any other span (and before the first, where the graph is distributed)
// is reported as rulingset.other_s.
var namedSpans = []string{"sparsify", "seed-search", "gather", "finish"}

// Repetitions in a traced run; each layer number is a median over them.
const (
	layerReps   = 3
	layerMPReps = 2
)

// layers is the traced run: per-layer numbers for one workload, measured
// around the library's public seams.
func (b *bench) layers() (report, error) {
	for _, m := range layerMetrics {
		b.set(m.name, 0, m.unit)
	}
	build, err := b.build(b.w.builds)
	if err != nil {
		return report{}, err
	}
	b.set("gen.build_s", build, "s")
	b.warmUp()

	z := b.w.chunkBits
	if z == 0 {
		z = 8 // the library default
	}
	mark, pair, err := hashKernel(b.g.N(), z)
	if err != nil {
		return report{}, err
	}
	b.set("hash.markprob_ns", mark, "ns")
	b.set("hash.pairmarkprob_ns", pair, "ns")

	if b.w.multiproc {
		err = b.multiprocLayers()
	} else {
		err = b.inprocLayers()
	}
	if err != nil {
		return report{}, err
	}
	return b.report(), nil
}

func (b *bench) repeat(label string, n int, s solver) ([]sample, outcome) {
	var ss []sample
	var out outcome
	for i := 0; i < n; i++ {
		smp, o := b.solve(label, s)
		ss = append(ss, smp)
		out = o
	}
	return ss, out
}

func walls(ss []sample) float64 { return median(field(ss, func(s sample) float64 { return s.wall })) }

func (b *bench) inprocLayers() error {
	plain, out := b.repeat("untraced", layerReps, b.inproc(b.nproc, nil, nil))
	clk, traced, err := b.tracedInProc(b.nproc)
	if err != nil {
		return err
	}
	b.set("trace.overhead_s", walls(traced)-walls(plain), "s")
	mallocs := median(field(plain, func(s sample) float64 { return s.mallocs }))
	if b.w.algo == "cliquedet2" {
		b.set("clique.rounds", float64(out.rounds), "count")
		b.set("clique.words", float64(out.words), "count")
		b.set("clique.mallocs_per_round", mallocs/float64(out.rounds), "count")
		return nil
	}
	b.engineLayers(out, clk, plain)
	p1, _ := b.repeat("parallelism-1", layerMPReps, b.inproc(1, nil, nil))
	b.set("mpc.speedup_x", walls(p1)/walls(plain), "x")
	return b.durableLayer(b.nproc)
}

// multiprocLayers measures the supervised job, and the in-process layers of
// the same job at the workers' parallelism 1.
func (b *bench) multiprocLayers() error {
	var plain, traced []sample
	var wires []wireStats
	var out outcome
	for _, tr := range []bool{false, true} {
		for i := 0; i < layerMPReps; i++ {
			dir, err := os.MkdirTemp(b.workdir, "wire-")
			if err != nil {
				return err
			}
			label := "multiproc-untraced"
			if tr {
				label = "multiproc-traced"
			}
			smp, o := b.solve(label, b.multiproc(mpOptions{traced: tr, wireDir: dir}))
			ws, err := readWireStats(dir)
			os.RemoveAll(dir)
			if err != nil {
				return err
			}
			if tr {
				traced = append(traced, smp)
			} else {
				plain = append(plain, smp)
				wires = append(wires, ws)
				out = o
			}
		}
	}
	b.set("trace.overhead_s", walls(traced)-walls(plain), "s")
	ws := wires[medianIndex(plain)]
	b.set("transport.frames", float64(ws.Frames), "count")
	b.set("transport.bytes", float64(ws.Bytes), "bytes")
	b.set("transport.write_s", ws.WriteS, "s")
	b.set("transport.wait_s", ws.WaitS, "s")
	b.set("supervise.restarts", float64(b.restarts), "count")

	p1, _ := b.repeat("parallelism-1", 1, b.inproc(1, nil, nil))
	b.set("supervise.overhead_s", walls(plain)-walls(p1), "s")
	clk, _, err := b.tracedInProc(1)
	if err != nil {
		return err
	}
	b.engineLayers(out, clk, p1)
	return b.durableLayer(1)
}

// engineLayers sets the MPC engine's counts and per-round costs, and the
// span times of the traced solve clk timed.
func (b *bench) engineLayers(out outcome, clk *spanClock, untraced []sample) {
	rounds := float64(out.rounds)
	b.set("mpc.rounds", rounds, "count")
	b.set("mpc.messages", float64(out.messages), "count")
	b.set("mpc.words", float64(out.words), "count")
	b.set("mpc.violations", float64(out.violations), "count")
	b.set("mpc.round_s", median(clk.steps), "s")
	b.set("mpc.mallocs_per_round", median(field(untraced, func(s sample) float64 { return s.mallocs }))/rounds, "count")
	b.set("mpc.alloc_mb_per_round", median(field(untraced, func(s sample) float64 { return s.allocMB }))/rounds, "MB")
}

// tracedInProc runs layerReps in-process solves with the benchmark's span
// clock, a JSONL trace file and a telemetry collector attached, and sets
// the span metrics from the solve with the median wall time.
func (b *bench) tracedInProc(parallelism int) (*spanClock, []sample, error) {
	var ss []sample
	var clocks []*spanClock
	for i := 0; i < layerReps; i++ {
		f, err := os.CreateTemp(b.workdir, "trace-*.jsonl")
		if err != nil {
			return nil, nil, err
		}
		jl := trace.NewJSONL(f)
		clk := &spanClock{}
		s := b.inproc(parallelism, trace.Multi{clk, jl, telemetry.NewCollector(telemetry.CollectorOptions{})}, nil)
		smp, out := b.solve("traced", func() (outcome, time.Duration, error) {
			clk.start()
			o, _, err := s()
			clk.stop()
			return o, 0, err
		})
		err = jl.Close()
		os.Remove(f.Name())
		if err != nil {
			return nil, nil, err
		}
		ss = append(ss, smp)
		clocks = append(clocks, clk)
		b.set("rulingset.seed_steps", float64(out.seedSteps), "count")
	}
	mid := medianIndex(ss)
	clk := clocks[mid]
	b.set("rulingset.solve_s", ss[mid].wall, "s")
	other := 0.0
	for span, t := range clk.spans {
		other += t
		for _, name := range namedSpans {
			if span == name {
				other -= t
			}
		}
	}
	for _, name := range namedSpans {
		b.set("rulingset."+name+"_s", clk.spans[name], "s")
	}
	b.set("rulingset.other_s", other, "s")
	return clk, ss, nil
}

// durableLayer solves once in-process with durable checkpoints every
// mpCheckpointEvery rounds into a fresh directory, timing each Persist.
func (b *bench) durableLayer(parallelism int) error {
	dir, err := os.MkdirTemp(b.workdir, "durable-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := durable.Open(dir, "perfbench "+b.w.name, 0)
	if err != nil {
		return err
	}
	sink := &timingSink{inner: store}
	b.solve("durable", b.inproc(parallelism, nil, sink))
	b.set("durable.persists", float64(sink.persists), "count")
	b.set("durable.bytes", float64(sink.bytes), "bytes")
	b.set("durable.persist_s", sink.seconds, "s")
	return nil
}

// spanClock is the benchmark's tracer: it attributes the wall time between
// span switches to the span that was active, and records the interval
// between consecutive committed supersteps.
type spanClock struct {
	mu       sync.Mutex
	cur      string
	last     time.Time
	lastStep time.Time
	spans    map[string]float64
	steps    []float64
}

func (c *spanClock) start() {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.spans = map[string]float64{}
	c.cur, c.last, c.lastStep = "", now, now
}

func (c *spanClock) stop() { c.SpanChange("") }

// SpanChange implements trace.SpanObserver.
func (c *spanClock) SpanChange(span string) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.spans[c.cur] += now.Sub(c.last).Seconds()
	c.cur, c.last = span, now
}

// Superstep implements trace.Tracer.
func (c *spanClock) Superstep(trace.Event) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.steps = append(c.steps, now.Sub(c.lastStep).Seconds())
	c.lastStep = now
}

// timingSink times every Persist of the durable store it wraps.
type timingSink struct {
	inner    mpc.CheckpointSink
	persists int
	bytes    int64
	seconds  float64
}

// Persist implements mpc.CheckpointSink.
func (t *timingSink) Persist(round int, state [][]uint64) (int64, error) {
	start := time.Now()
	n, err := t.inner.Persist(round, state)
	t.seconds += time.Since(start).Seconds()
	t.persists++
	t.bytes += n
	return n, err
}

// hashSink keeps the kernel calls from being optimised away.
var hashSink float64

// hashKernel times hash.Bits.MarkProb and PairMarkProb over an n-vertex
// family with marking probability 2^-4 and the first z seed bits fixed, the
// state the seed search evaluates after one chunk. It returns ns per call,
// the median of five samples of at least 2^20 calls each.
func hashKernel(n, z int) (mark, pair float64, err error) {
	fam, err := hash.NewBits(n, 4)
	if err != nil {
		return 0, 0, err
	}
	s := fam.NewSeed()
	s.SetChunk(0, z, 0xb5)
	s.Commit(z)
	sweeps := max(1, (1<<20)/n)
	perCall := func(f func(v int) float64) float64 {
		times := make([]float64, 5)
		for i := range times {
			start := time.Now()
			for k := 0; k < sweeps; k++ {
				for v := 0; v < n; v++ {
					hashSink += f(v)
				}
			}
			times[i] = float64(time.Since(start).Nanoseconds()) / float64(sweeps*n)
		}
		return median(times)
	}
	mark = perCall(func(v int) float64 { return fam.MarkProb(s, v) })
	pair = perCall(func(v int) float64 { return fam.PairMarkProb(s, v, (v+1)%n) })
	return mark, pair, nil
}
