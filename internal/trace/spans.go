package trace

// SpanStat aggregates the events of one span (algorithm phase): how many
// rounds it spent, how much traffic it moved, and how skewed that traffic
// was across machines. The skew quantities are what the sparsification
// theorems shape: concentration phases show high imbalance (gather-like
// traffic), local phases stay near-balanced.
type SpanStat struct {
	Span     string `json:"span"`
	Rounds   int    `json:"rounds"`
	Messages int64  `json:"messages"`
	Words    int64  `json:"words"`
	// Share is the span's fraction of the trace's total words.
	Share float64 `json:"words_share"`
	// MaxSent and MaxRecv are the largest per-machine per-round word counts
	// observed inside the span.
	MaxSent int `json:"max_sent"`
	MaxRecv int `json:"max_recv"`
	// GiniSent and GiniRecv are the worst per-round imbalance coefficients
	// observed inside the span.
	GiniSent float64 `json:"gini_sent"`
	GiniRecv float64 `json:"gini_recv"`
}

// Spans reduces a trace's events to one SpanStat per span, in order of first
// appearance. An event accounts for its Round minus the previous event's
// Round, so a routed step that commits several rounds in one event counts
// them all; the first event counts from start, the round the trace begins
// after (0 for a fresh run, Header.ResumedFrom for a resumed one).
func Spans(start int, evs []Event) []SpanStat {
	var spans []SpanStat
	var total int64
	idx := map[string]int{}
	prev := start
	for _, ev := range evs {
		i, ok := idx[ev.Span]
		if !ok {
			i = len(spans)
			idx[ev.Span] = i
			spans = append(spans, SpanStat{Span: ev.Span})
		}
		s := &spans[i]
		rounds := ev.Round - prev
		prev = ev.Round
		s.Rounds += rounds
		s.Messages += int64(ev.Messages)
		s.Words += int64(ev.Words)
		total += int64(ev.Words)
		s.MaxSent = max(s.MaxSent, ev.MaxSent)
		s.MaxRecv = max(s.MaxRecv, ev.MaxRecv)
		s.GiniSent = max(s.GiniSent, ev.GiniSent)
		s.GiniRecv = max(s.GiniRecv, ev.GiniRecv)
	}
	if total > 0 {
		for i := range spans {
			spans[i].Share = float64(spans[i].Words) / float64(total)
		}
	}
	return spans
}

// Log is an in-memory Tracer keeping every event without its per-machine
// vectors: the run's round log, which Spans reduces to the span table.
type Log []Event

// Superstep implements Tracer.
func (l *Log) Superstep(ev Event) {
	ev.Sent, ev.Recv, ev.Resident = nil, nil, nil
	*l = append(*l, ev)
}
