package main

import (
	"slices"
	"testing"

	"icewafl/internal/experiments"
)

func TestSelectTables(t *testing.T) {
	all := experiments.Tables()
	names := func(args ...string) []string {
		tables, err := selectTables(all, args)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, tb := range tables {
			out = append(out, tb.Name)
		}
		return out
	}
	if got := names(); len(got) != len(all) {
		t.Fatalf("no names selected %d of %d tables", len(got), len(all))
	}
	if got := names("exp2_wanliu_noise"); !slices.Equal(got, []string{"exp2_wanliu_noise"}) {
		t.Fatalf("exact name selected %v", got)
	}
	// A prefix selects its group once, in list order, whatever else names it.
	if got := names("exp6", "exp3", "exp3_disk"); !slices.Equal(got, []string{"exp3_memory", "exp3_disk", "exp6"}) {
		t.Fatalf("prefixes selected %v", got)
	}
	for _, bad := range []string{"exp7", "exp2_guch", "exp"} {
		if _, err := selectTables(all, []string{bad}); err == nil {
			t.Errorf("%q selected tables", bad)
		}
	}
}
