package bench

import (
	"fmt"
	"reflect"
	"strconv"

	"github.com/rulingset/mprs/internal/trace"
)

// Delta is one detected difference between two artifacts.
type Delta struct {
	// Key is the result row ("workload/algo"), or "manifest" for run-level
	// mismatches.
	Key string
	// Field is the JSON column name that differs.
	Field string
	// Old and New are the rendered values.
	Old, New string
	// Cost marks a column where less is better (costColumns).
	Cost bool
}

// String renders the delta as one line labelled by its direction: a
// decrease in a cost column reads IMPROVED, with its relative change, and
// every other delta reads REGRESSION. Either way the artifacts differ, so
// the diff still fails.
func (d Delta) String() string {
	if old, new, ok := d.numbers(); ok && d.Cost && new < old {
		return fmt.Sprintf("IMPROVED %s %s: %s -> %s (%+.0f%%)", d.Key, d.Field, d.Old, d.New, 100*(new-old)/old)
	}
	return fmt.Sprintf("REGRESSION %s %s: %s -> %s", d.Key, d.Field, d.Old, d.New)
}

// numbers parses Old and New as numbers.
func (d Delta) numbers() (old, new float64, ok bool) {
	old, errOld := strconv.ParseFloat(d.Old, 64)
	new, errNew := strconv.ParseFloat(d.New, 64)
	return old, new, errOld == nil && errNew == nil
}

// costColumns are the Result columns where less is better: model costs,
// skew, budget breaches and recovery overhead. A column missing here (the
// input and output shape, the fault plan's crash count) has no better
// direction, so every change to it is a regression.
var costColumns = map[string]bool{
	"rounds": true, "phases": true, "seed_steps": true,
	"messages": true, "words": true,
	"peak_sent": true, "peak_recv": true, "peak_resident": true,
	"skew_sent": true, "skew_recv": true, "gini_sent": true, "gini_recv": true,
	"violations":      true,
	"recovery_rounds": true, "replayed_words": true, "checkpoint_bytes": true,
}

// Diff compares two artifacts. Every column must match exactly, so every
// delta fails the diff; a decrease in a cost column is labelled as an
// improvement, every other delta as a regression. Rows are matched by Key;
// ordering differences alone are not deltas.
func Diff(old, new *File) []Delta {
	var deltas []Delta
	if old.Manifest.Quick != new.Manifest.Quick {
		deltas = append(deltas, Delta{
			Key: "manifest", Field: "quick",
			Old: fmt.Sprint(old.Manifest.Quick), New: fmt.Sprint(new.Manifest.Quick),
		})
	}
	if old.Manifest.Seed != new.Manifest.Seed {
		deltas = append(deltas, Delta{
			Key: "manifest", Field: "seed",
			Old: fmt.Sprint(old.Manifest.Seed), New: fmt.Sprint(new.Manifest.Seed),
		})
	}
	oldRows := make(map[string]Result, len(old.Results))
	for _, r := range old.Results {
		oldRows[r.Key()] = r
	}
	seen := make(map[string]bool, len(new.Results))
	for _, nr := range new.Results {
		key := nr.Key()
		seen[key] = true
		or, ok := oldRows[key]
		if !ok {
			deltas = append(deltas, Delta{Key: key, Field: "(row)", Old: "absent", New: "present"})
			continue
		}
		deltas = append(deltas, diffRow(or, nr)...)
	}
	// Preserve old-artifact order for rows that vanished.
	for _, or := range old.Results {
		if !seen[or.Key()] {
			deltas = append(deltas, Delta{Key: or.Key(), Field: "(row)", Old: "present", New: "absent"})
		}
	}
	return deltas
}

// diffRow compares one matched row pair field by field via reflection, so
// columns added to Result later are diffed automatically. Exact match for
// every column.
func diffRow(old, new Result) []Delta {
	var deltas []Delta
	ot, nt := reflect.ValueOf(old), reflect.ValueOf(new)
	typ := ot.Type()
	for i := 0; i < typ.NumField(); i++ {
		field := jsonName(typ.Field(i))
		if field == "" {
			continue
		}
		ov, nv := ot.Field(i).Interface(), nt.Field(i).Interface()
		if !reflect.DeepEqual(ov, nv) {
			deltas = append(deltas, Delta{
				Key: old.Key(), Field: field,
				Old: fmt.Sprint(ov), New: fmt.Sprint(nv),
				Cost: costColumns[field],
			})
		}
	}
	return deltas
}

// jsonName extracts the JSON column name of a struct field ("" = skip).
func jsonName(f reflect.StructField) string {
	tag := f.Tag.Get("json")
	if tag == "" || tag == "-" {
		return ""
	}
	for i := 0; i < len(tag); i++ {
		if tag[i] == ',' {
			return tag[:i]
		}
	}
	return tag
}

// DiffTraces compares two JSONL trace files event by event. Traces are the
// finest-grained determinism artifact: any divergence — count, ordering, or
// any field of any event — is a regression. Headers are compared on
// their deterministic run parameters (algo, spec, seed, machines) but not on
// build stamps, so traces from different commits remain comparable.
func DiffTraces(oldPath, newPath string) ([]Delta, error) {
	oldHdr, oldEvs, err := trace.ReadFile(oldPath)
	if err != nil {
		return nil, err
	}
	newHdr, newEvs, err := trace.ReadFile(newPath)
	if err != nil {
		return nil, err
	}
	var deltas []Delta
	hdrField := func(field, o, n string) {
		if o != n {
			deltas = append(deltas, Delta{Key: "header", Field: field, Old: o, New: n})
		}
	}
	hdrField("algo", oldHdr.Algo, newHdr.Algo)
	hdrField("spec", oldHdr.Spec, newHdr.Spec)
	hdrField("seed", fmt.Sprint(oldHdr.Seed), fmt.Sprint(newHdr.Seed))
	hdrField("machines", fmt.Sprint(oldHdr.Machines), fmt.Sprint(newHdr.Machines))
	if len(oldEvs) != len(newEvs) {
		deltas = append(deltas, Delta{
			Key: "events", Field: "count",
			Old: fmt.Sprint(len(oldEvs)), New: fmt.Sprint(len(newEvs)),
		})
	}
	limit := len(oldEvs)
	if len(newEvs) < limit {
		limit = len(newEvs)
	}
	for i := 0; i < limit; i++ {
		if !reflect.DeepEqual(oldEvs[i], newEvs[i]) {
			deltas = append(deltas, Delta{
				Key: fmt.Sprintf("event %d", i), Field: "event",
				Old: fmt.Sprintf("%+v", oldEvs[i]), New: fmt.Sprintf("%+v", newEvs[i]),
			})
			if len(deltas) > 20 { // enough to diagnose; avoid drowning the report
				deltas = append(deltas, Delta{
					Key: "events", Field: "(truncated)",
					Old: "", New: "further event deltas omitted",
				})
				break
			}
		}
	}
	return deltas, nil
}
