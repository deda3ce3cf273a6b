package main

import (
	"reflect"
	"testing"
)

// A baseline entry without a measured result is reported; measured
// results without a baseline entry are the MISSING check's business.
func TestUnmeasured(t *testing.T) {
	baseline := []Bench{{Name: "BenchmarkA"}, {Name: "BenchmarkGone"}, {Name: "BenchmarkB"}}
	results := []Bench{{Name: "BenchmarkB"}, {Name: "BenchmarkA"}, {Name: "BenchmarkNew"}}
	if got, want := unmeasured(baseline, results), []string{"BenchmarkGone"}; !reflect.DeepEqual(got, want) {
		t.Errorf("unmeasured = %v, want %v", got, want)
	}
	if got := unmeasured(baseline, baseline); got != nil {
		t.Errorf("fully measured baseline reported %v", got)
	}
}
