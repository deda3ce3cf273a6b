package main

import (
	"os"
	"path/filepath"
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

// -update drops an unmeasured entry only when its benchmark function is
// gone from every test file under the snapshot's directory; a partial
// refresh keeps the unmeasured entries of benchmarks that still exist,
// sub-benchmarks included.
func TestDropDeleted(t *testing.T) {
	root := t.TempDir()
	sub := filepath.Join(root, "internal", "sim")
	if err := os.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	src := "package sim\n\nimport \"testing\"\n\nfunc BenchmarkKept(b *testing.B) {}\n\n// func BenchmarkCommented(b *testing.B) {}\n"
	if err := os.WriteFile(filepath.Join(sub, "sim_test.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	// A declaration outside a test file does not keep an entry alive.
	if err := os.WriteFile(filepath.Join(sub, "sim.go"), []byte("package sim\n\nfunc BenchmarkNotATest() {}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	baseline := []Bench{
		{Name: "BenchmarkMeasured"}, {Name: "BenchmarkKept"}, {Name: "BenchmarkGone"},
		{Name: "BenchmarkKept/rooms=4"}, {Name: "BenchmarkCommented"}, {Name: "BenchmarkNotATest"},
	}
	results := []Bench{{Name: "BenchmarkMeasured"}}
	kept, dropped, err := dropDeleted(baseline, results, root)
	if err != nil {
		t.Fatal(err)
	}
	var keptNames []string
	for _, b := range kept {
		keptNames = append(keptNames, b.Name)
	}
	if want := []string{"BenchmarkMeasured", "BenchmarkKept", "BenchmarkKept/rooms=4"}; !reflect.DeepEqual(keptNames, want) {
		t.Errorf("kept %v, want %v", keptNames, want)
	}
	if want := []string{"BenchmarkGone", "BenchmarkCommented", "BenchmarkNotATest"}; !reflect.DeepEqual(dropped, want) {
		t.Errorf("dropped %v, want %v", dropped, want)
	}
	// A full refresh drops nothing and keeps the order.
	kept, dropped, err = dropDeleted(baseline, baseline, root)
	if err != nil || dropped != nil || !reflect.DeepEqual(kept, baseline) {
		t.Errorf("full refresh: kept %v dropped %v err %v", kept, dropped, err)
	}
}
