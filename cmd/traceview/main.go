// Command traceview renders a JSONL superstep trace (produced by
// `mprs run -trace file=...`) into a human-readable performance report:
// per-span aggregates, the critical (heaviest-loaded) machine per round, and
// the top-k heaviest supersteps.
//
// Usage:
//
//	traceview trace.jsonl            # text report
//	traceview -json trace.jsonl     # machine-readable report
//	traceview -top 5 trace.jsonl    # top-5 heaviest supersteps
//	traceview -version
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"github.com/rulingset/mprs/internal/buildinfo"
	"github.com/rulingset/mprs/internal/metrics"
	"github.com/rulingset/mprs/internal/supervise"
	"github.com/rulingset/mprs/internal/telemetry"
	"github.com/rulingset/mprs/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "traceview:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("traceview", flag.ContinueOnError)
	var (
		asJSON  = fs.Bool("json", false, "emit the report as JSON instead of text")
		topK    = fs.Int("top", 10, "number of heaviest supersteps to list")
		version = fs.Bool("version", false, "print version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintln(out, buildinfo.CLIVersion("traceview"))
		return nil
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: traceview [-json] [-top k] trace.jsonl")
	}
	// A supervisor lifecycle stream gets the restart-timeline report and a
	// flight-recorder artifact gets the crash post-mortem; anything else goes
	// down the superstep-trace path (whose reader validates the schema
	// itself).
	switch schema, _ := sniffSchema(fs.Arg(0)); schema {
	case supervise.LifecycleSchema:
		rep, err := readLifecycle(fs.Arg(0))
		if err != nil {
			return err
		}
		if *asJSON {
			enc := json.NewEncoder(out)
			enc.SetIndent("", "  ")
			return enc.Encode(rep)
		}
		return renderLifecycle(out, rep)
	case telemetry.FlightSchema:
		rep, err := readFlight(fs.Arg(0))
		if err != nil {
			return err
		}
		if *asJSON {
			enc := json.NewEncoder(out)
			enc.SetIndent("", "  ")
			return enc.Encode(rep)
		}
		return renderFlight(out, rep)
	}
	hdr, evs, err := trace.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	rep := analyze(hdr, evs, *topK)
	if *asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	return render(out, rep)
}

// Report is the analysis result for one trace.
type Report struct {
	Header    trace.Header     `json:"header"`
	Rounds    int              `json:"rounds"`
	Messages  int64            `json:"messages"`
	Words     int64            `json:"words"`
	Spans     []trace.SpanStat `json:"spans"`
	Critical  []Critical       `json:"critical,omitempty"`
	Heaviest  []Heavy          `json:"heaviest,omitempty"`
	Recovery  RecoveryStat     `json:"recovery"`
	MaxGiniS  float64          `json:"max_gini_sent"`
	MaxGiniR  float64          `json:"max_gini_recv"`
	WorstSkew string           `json:"worst_skew_span,omitempty"` // span holding the max Gini
}

// Critical is the heaviest-loaded machine of one round (argmax of sent+recv
// words; ties break to the lowest machine id, so the report is deterministic).
type Critical struct {
	Round   int    `json:"round"`
	Span    string `json:"span"`
	Machine int    `json:"machine"`
	Sent    int    `json:"sent"`
	Recv    int    `json:"recv"`
}

// Heavy is one of the top-k supersteps by words moved.
type Heavy struct {
	Round int     `json:"round"`
	Step  string  `json:"step"`
	Span  string  `json:"span"`
	Words int64   `json:"words"`
	Gini  float64 `json:"gini_sent"`
}

// RecoveryStat totals the fault/recovery counters across the trace.
type RecoveryStat struct {
	Crashes        int   `json:"crashes,omitempty"`
	RecoveryRounds int   `json:"recovery_rounds,omitempty"`
	ReplayedWords  int64 `json:"replayed_words,omitempty"`
}

// analyze reduces the trace: the span table and its totals come from
// trace.Spans, which counts each event's rounds from the previous event's
// (or the header's ResumedFrom), so routed rounds count right.
func analyze(hdr trace.Header, evs []trace.Event, topK int) Report {
	rep := Report{Header: hdr, Spans: trace.Spans(hdr.ResumedFrom, evs)}
	for _, s := range rep.Spans {
		rep.Rounds += s.Rounds
		rep.Messages += s.Messages
		rep.Words += s.Words
	}
	for _, ev := range evs {
		rep.Recovery.Crashes += ev.Crashes
		rep.Recovery.RecoveryRounds += ev.RecoveryRounds
		rep.Recovery.ReplayedWords += ev.ReplayedWords
		if ev.GiniSent > rep.MaxGiniS {
			rep.MaxGiniS = ev.GiniSent
			rep.WorstSkew = ev.Span
		}
		if ev.GiniRecv > rep.MaxGiniR {
			rep.MaxGiniR = ev.GiniRecv
		}
		if c, ok := critical(ev); ok {
			rep.Critical = append(rep.Critical, c)
		}
	}
	rep.Heaviest = heaviest(evs, topK)
	return rep
}

// critical finds the round's heaviest machine by sent+recv words. Events
// without per-machine vectors yield none.
func critical(ev trace.Event) (Critical, bool) {
	n := len(ev.Sent)
	if len(ev.Recv) > n {
		n = len(ev.Recv)
	}
	if n == 0 {
		return Critical{}, false
	}
	at := func(xs []int, i int) int {
		if i < len(xs) {
			return xs[i]
		}
		return 0
	}
	best, bestLoad := 0, -1
	for i := 0; i < n; i++ {
		if load := at(ev.Sent, i) + at(ev.Recv, i); load > bestLoad {
			best, bestLoad = i, load
		}
	}
	return Critical{
		Round: ev.Round, Span: ev.Span, Machine: best,
		Sent: at(ev.Sent, best), Recv: at(ev.Recv, best),
	}, true
}

// heaviest returns the top-k supersteps by words, ties broken by round order
// so the report stays deterministic.
func heaviest(evs []trace.Event, k int) []Heavy {
	if k <= 0 {
		return nil
	}
	hs := make([]Heavy, 0, len(evs))
	for _, ev := range evs {
		hs = append(hs, Heavy{Round: ev.Round, Step: ev.Step, Span: ev.Span, Words: int64(ev.Words), Gini: ev.GiniSent})
	}
	sort.SliceStable(hs, func(i, j int) bool {
		if hs[i].Words != hs[j].Words {
			return hs[i].Words > hs[j].Words
		}
		return hs[i].Round < hs[j].Round
	})
	if len(hs) > k {
		hs = hs[:k]
	}
	return hs
}

func render(w io.Writer, rep Report) error {
	if rep.Header.Schema != "" {
		fmt.Fprintf(w, "trace: %s algo=%s spec=%s seed=%d machines=%d\n",
			rep.Header.Schema, rep.Header.Algo, rep.Header.Spec, rep.Header.Seed, rep.Header.Machines)
		if rep.Header.ResumedFrom > 0 {
			fmt.Fprintf(w, "resumed from durable checkpoint at round %d (events before that are in the interrupted run's trace)\n",
				rep.Header.ResumedFrom)
		}
	} else {
		fmt.Fprintln(w, "trace: (no header)")
	}
	fmt.Fprintf(w, "rounds=%d messages=%d words=%d\n", rep.Rounds, rep.Messages, rep.Words)
	if rep.WorstSkew != "" {
		fmt.Fprintf(w, "worst skew: gini_sent=%.4f in span %q (gini_recv max %.4f)\n", rep.MaxGiniS, rep.WorstSkew, rep.MaxGiniR)
	}
	if rep.Recovery != (RecoveryStat{}) {
		fmt.Fprintf(w, "recovery: crashes=%d recovery_rounds=%d replayed_words=%d\n",
			rep.Recovery.Crashes, rep.Recovery.RecoveryRounds, rep.Recovery.ReplayedWords)
	}
	fmt.Fprintln(w)

	spans := metrics.NewTable("per-span", "span", "rounds", "messages", "words", "share", "max_sent", "max_recv", "gini_sent", "gini_recv")
	for _, s := range rep.Spans {
		spans.AddRow(s.Span, s.Rounds, s.Messages, s.Words,
			fmt.Sprintf("%.1f%%", 100*s.Share), s.MaxSent, s.MaxRecv, s.GiniSent, s.GiniRecv)
	}
	if err := spans.Render(w); err != nil {
		return err
	}

	if len(rep.Heaviest) > 0 {
		fmt.Fprintln(w)
		heavy := metrics.NewTable(fmt.Sprintf("top-%d heaviest supersteps", len(rep.Heaviest)),
			"round", "step", "span", "words", "gini_sent")
		for _, h := range rep.Heaviest {
			heavy.AddRow(h.Round, h.Step, h.Span, h.Words, h.Gini)
		}
		if err := heavy.Render(w); err != nil {
			return err
		}
	}

	if len(rep.Critical) > 0 {
		fmt.Fprintln(w)
		// The critical-machine table is per round; summarize who is critical
		// how often, then the per-round detail.
		counts := map[int]int{}
		for _, c := range rep.Critical {
			counts[c.Machine]++
		}
		ids := make([]int, 0, len(counts))
		for id := range counts {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		crit := metrics.NewTable("critical machine frequency", "machine", "rounds_critical")
		for _, id := range ids {
			crit.AddRow(id, counts[id])
		}
		if err := crit.Render(w); err != nil {
			return err
		}
	}
	return nil
}
