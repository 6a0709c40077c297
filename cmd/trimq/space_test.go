package main

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestSpaceCommand drives `trimq space` over the fixture store: the human
// form leads with the headline line, the JSON form carries the acceptance
// fields (total vs unique string bytes, duplication ratio, and the
// measured dictionary/row/posting bytes of the interned layout).
func TestSpaceCommand(t *testing.T) {
	path := storeFile(t)
	var out strings.Builder
	if err := run([]string{"-store", path, "space"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"bytes/triple=", "dup=", "layout: dictionary "} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("space output missing %q:\n%s", want, out.String())
		}
	}

	out.Reset()
	if err := run([]string{"-store", path, "-json", "space"}, &out); err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Triples           int     `json:"triples"`
		TotalStringBytes  int64   `json:"total_string_bytes"`
		UniqueStringBytes int64   `json:"unique_string_bytes"`
		DuplicationRatio  float64 `json:"duplication_ratio"`
		BytesPerTriple    float64 `json:"bytes_per_triple"`
		StoreBytes        int64   `json:"store_bytes"`
		Interning         struct {
			DictionaryBytes int64 `json:"dictionary_bytes"`
			TripleBytes     int64 `json:"triple_bytes"`
			IndexBytes      int64 `json:"index_bytes"`
		} `json:"interning"`
		Probes []json.RawMessage `json:"probes"`
	}
	if err := json.Unmarshal([]byte(out.String()), &rep); err != nil {
		t.Fatalf("space -json not JSON: %v\n%s", err, out.String())
	}
	if rep.Triples == 0 || rep.TotalStringBytes <= rep.UniqueStringBytes || rep.DuplicationRatio <= 1 {
		t.Fatalf("space report = %+v", rep)
	}
	in := rep.Interning
	if in.DictionaryBytes <= rep.UniqueStringBytes || in.TripleBytes == 0 || in.IndexBytes == 0 ||
		in.DictionaryBytes+in.TripleBytes+in.IndexBytes != rep.StoreBytes {
		t.Fatalf("layout bytes = %+v, store_bytes %d", in, rep.StoreBytes)
	}
	if want := float64(rep.StoreBytes) / float64(rep.Triples); rep.BytesPerTriple != want {
		t.Fatalf("bytes_per_triple = %v, want %v", rep.BytesPerTriple, want)
	}
	if len(rep.Probes) != 0 {
		t.Fatalf("probes present without -probe: %d", len(rep.Probes))
	}
}

// TestSpaceProbe: -probe appends the eight alloc-per-op measurements.
func TestSpaceProbe(t *testing.T) {
	path := storeFile(t)
	var out strings.Builder
	if err := run([]string{"-store", path, "-json", "-probe", "-probe-iters", "5", "space"}, &out); err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Probes []struct {
			Op          string  `json:"op"`
			Iters       int     `json:"iters"`
			AllocsPerOp float64 `json:"allocs_per_op"`
			NsPerOp     float64 `json:"ns_per_op"`
		} `json:"probes"`
	}
	if err := json.Unmarshal([]byte(out.String()), &rep); err != nil {
		t.Fatalf("space -probe -json not JSON: %v\n%s", err, out.String())
	}
	if len(rep.Probes) != 8 {
		t.Fatalf("got %d probes, want 8: %+v", len(rep.Probes), rep.Probes)
	}
	for _, p := range rep.Probes {
		if p.Iters != 5 || p.NsPerOp <= 0 {
			t.Errorf("probe %+v", p)
		}
	}
}

// TestSpaceMinDupGate: the -min-dup floor exits non-zero only when the
// store's duplication ratio is below it.
func TestSpaceMinDupGate(t *testing.T) {
	path := storeFile(t)
	var out strings.Builder
	if err := run([]string{"-store", path, "-min-dup", "1.01", "space"}, &out); err != nil {
		t.Fatalf("fixture store should clear a 1.01 floor: %v", err)
	}
	out.Reset()
	err := run([]string{"-store", path, "-min-dup", "1000", "space"}, &out)
	if err == nil || !strings.Contains(err.Error(), "below the -min-dup floor") {
		t.Fatalf("impossible floor: err = %v", err)
	}
}
