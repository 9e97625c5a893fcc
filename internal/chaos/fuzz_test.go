package chaos

import (
	"reflect"
	"testing"
)

// FuzzParse asserts the plan parser never panics and that accepted specs are
// stable: re-parsing the spec yields the same schedule, machine plan
// included (reflect.DeepEqual over the whole Plan).
func FuzzParse(f *testing.F) {
	f.Add("wire:corrupt@8:1,disk:torn@4:0,proc:kill@10:2", int64(42))
	f.Add("wire:hbdrop@1:0,wire:hbgarble@2:1", int64(0))
	f.Add("proc:flap@6:1", int64(-1))
	f.Add("disk:manifesttorn@0:3", int64(7))
	f.Add("machine:crash=0.02,machine:crash@4:1", int64(1))
	f.Add("machine:crash=0.05,machine:crash=0.02", int64(9))
	f.Add("machine:crash@3:1,machine:crash@4:2,wire:delay@5:0,wire:dup@6:1", int64(11))
	f.Add("machine:crash=0", int64(5))
	f.Add("machine:crash@5:0,machine:crash=1e-3", int64(2))
	f.Add("wire:@:,::@", int64(3))
	f.Add("off", int64(0))
	f.Fuzz(func(t *testing.T, spec string, seed int64) {
		p, err := Parse(spec, seed)
		if err != nil {
			if p != nil {
				t.Fatal("non-nil plan alongside an error")
			}
			return
		}
		if p == nil {
			return // disabled
		}
		// Surrounding blanks and empty parts are insignificant.
		padded := " " + spec + " ,"
		p2, err := Parse(padded, seed)
		if err != nil {
			t.Fatalf("padded spec %q rejected on re-parse: %v", padded, err)
		}
		if !reflect.DeepEqual(p2, p) {
			t.Fatalf("re-parse of %q changed the schedule: %#v vs %#v", padded, p2, p)
		}
		// Helpers must be total on any accepted plan.
		_ = p.Enabled()
		_ = p.String()
		_ = p.MaxWorker()
		_ = p.Kills()
		_ = p.ValidateWorkers(4) //detlint:ok errdrop -- fuzz target only asserts the helper is total (no panic); a validation error is a legitimate outcome
	})
}
