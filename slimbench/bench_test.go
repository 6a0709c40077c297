package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
	"time"

	"repro/internal/clinical"
	"repro/internal/mark"
	"repro/internal/obs"
	"repro/internal/slimpad"
)

// newRounds builds and sets up a rounds fixture for the seed.
func newRounds(t *testing.T, seed int64) (*rounds, *recorder) {
	t.Helper()
	rec := &recorder{}
	w, err := roundsSpec.build(config{seed: seed}, rec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.setup(); err != nil {
		t.Fatal(err)
	}
	return w.(*rounds), rec
}

// tracedRounds runs n traced rounds ops after a warm-up and returns the
// attribution and the traced run's record.
func tracedRounds(t *testing.T, r *rounds, rec *recorder, n int) (*layerAcc, *window) {
	t.Helper()
	var total window
	counted(r, roundsSpec, 100, 2, rec, nil)
	acc, _, traced := layers(r, roundsSpec, n, 3, rec, &total)
	if total.failed != 0 {
		t.Fatalf("%d of %d ops failed: %v", total.failed, total.attempted, total.errs)
	}
	return acc, traced
}

// The wrapper must not change which resolvers the mark manager registers:
// peek resolves in place, with context, with and without it.
func TestWrapperForwardsExtractorAndContext(t *testing.T) {
	env, err := clinical.NewEnvironmentHistory(7, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	wrapped, _, err := wrappedMarks(env, &recorder{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tg := range targetsOf(env, 0, allLabs) {
		if err := tg.selectIn(env); err != nil {
			t.Fatal(err)
		}
		m, err := wrapped.CreateFromSelection(tg.scheme)
		if err != nil {
			t.Fatal(err)
		}
		if err := env.Marks.Add(m); err != nil {
			t.Fatal(err)
		}
		for name, mm := range map[string]*mark.Manager{"wrapped": wrapped, "raw": env.Marks} {
			if _, err := mm.ResolveWith(m.ID, mark.ResolveInPlace); err != nil {
				t.Errorf("%s %s: no in-place resolution: %v", name, tg.scheme, err)
			}
		}
		w, _ := wrapped.ResolveWith(m.ID, mark.ResolveInPlace)
		r, _ := env.Marks.ResolveWith(m.ID, mark.ResolveInPlace)
		if w != r {
			t.Errorf("%s: in-place element differs: wrapped %+v, raw %+v", tg.scheme, w, r)
		}
		if w.Context == "" {
			t.Errorf("%s: in-place element has no context", tg.scheme)
		}
	}

	// Peek through SLIMPad with both managers.
	for name, mm := range map[string]*mark.Manager{"wrapped": wrapped, "raw": env.Marks} {
		app, err := slimpad.NewApp(mm)
		if err != nil {
			t.Fatal(err)
		}
		_, root, err := app.NewPad("p")
		if err != nil {
			t.Fatal(err)
		}
		if err := env.SelectLab(env.Patients[1], "K"); err != nil {
			t.Fatal(err)
		}
		s, err := app.ClipSelection(root.ID(), "xml", "", slimpad.Coordinate{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := app.PeekScrap(s.ID())
		m, _ := mm.Mark(s.MarkHandles()[0].MarkID())
		if err != nil || got != m.Excerpt {
			t.Errorf("%s peek = %q, %v; want excerpt %q", name, got, err, m.Excerpt)
		}
	}
}

// A delay planted inside the base wrapper must show up as base self time
// and leave every other layer's self time where it was.
func TestPlantedBaseDelayMovesOnlyBase(t *testing.T) {
	const n, delay = 300, 2 * time.Millisecond
	self := func(d time.Duration) *layerAcc {
		r, rec := newRounds(t, 5)
		for _, a := range r.apps {
			a.delay = d
		}
		acc, _ := tracedRounds(t, r, rec, n)
		return acc
	}
	plain, slow := self(0), self(delay)
	perOp := func(a *layerAcc, layer string) float64 { return a.perOp(float64(a.selfNS[layer])) }
	gain := perOp(slow, "base") - perOp(plain, "base")
	want := float64(delay) * slow.perOp(float64(slow.calls["base"]))
	if gain < 0.9*want {
		t.Errorf("base self time rose by %.0f ns/op, want at least %.0f", gain, 0.9*want)
	}
	for _, layer := range []string{"slimpad", "slim", "trim", "wal", "mark"} {
		if d := math.Abs(perOp(slow, layer) - perOp(plain, layer)); d > 0.1*gain {
			t.Errorf("%s self time moved by %.0f ns/op when base gained %.0f", layer, d, gain)
		}
	}
}

// The same seed gives the same op sequence and identical count metrics.
func TestSameSeedSameOpsAndCounts(t *testing.T) {
	run := func() (*layerAcc, *window) {
		r, rec := newRounds(t, 11)
		return tracedRounds(t, r, rec, 400)
	}
	a1, w1 := run()
	a2, w2 := run()
	if !slices.Equal(w1.class, w2.class) {
		t.Fatal("same seed, different op sequences")
	}
	if a1.ops != a2.ops || a1.programSpans != a2.programSpans {
		t.Errorf("ops %d/%d, program spans %d/%d", a1.ops, a2.ops, a1.programSpans, a2.programSpans)
	}
	for _, layer := range []string{"slimpad", "slim", "base", "trim"} {
		if a1.calls[layer] != a2.calls[layer] {
			t.Errorf("%s calls %d vs %d", layer, a1.calls[layer], a2.calls[layer])
		}
	}
}

// Layer self times add up to the traced op time, and the traced op time
// agrees with the latency measured around each op.
func TestLayerSelfTimesAddUp(t *testing.T) {
	r, rec := newRounds(t, 3)
	acc, traced := tracedRounds(t, r, rec, 500)
	if acc.lost != 0 || acc.ops != 500 {
		t.Fatalf("ops=%d lost spans=%d", acc.ops, acc.lost)
	}
	if got := ratio(float64(acc.selfSum()), float64(acc.opNS)); math.Abs(got-1) > 0.10 {
		t.Errorf("layer self times are %.3f of the traced op time", got)
	}
	if got := ratio(float64(acc.selfSum()), float64(sum(traced.lat))); got < 0.9 || got > 1.0001 {
		t.Errorf("layer self times are %.3f of the measured op latency", got)
	}
	for _, layer := range []string{"slimpad", "slim", "base", "trim"} {
		if acc.selfNS[layer] <= 0 {
			t.Errorf("no self time attributed to %s", layer)
		}
	}
}

// Nesting is rebuilt from time containment: self time is a span's
// duration minus its direct children's.
func TestCollectAttributesSelfTime(t *testing.T) {
	t0 := time.Now()
	at := func(startUS, durUS int) (time.Time, time.Duration) {
		return t0.Add(time.Duration(startUS) * time.Microsecond), time.Duration(durUS) * time.Microsecond
	}
	rec := func(op, detail string, span obs.SpanID, startUS, durUS int) obs.OpRecord {
		s, d := at(startUS, durUS)
		return obs.OpRecord{Op: op, Detail: detail, Span: span, Start: s, Dur: d}
	}
	recs := []obs.OpRecord{
		rec("trim.select", "s??", 3, 12, 10),
		rec("dmi.get", "x", 2, 10, 30),
		rec("base.goto", benchDetail, 4, 50, 20),
		rec("op.open", benchDetail, 1, 0, 100),
	}
	a := newLayerAcc("slimpad")
	a.collect(recs, 0)
	want := map[string]int64{"slimpad": 50_000, "slim": 20_000, "trim": 10_000, "base": 20_000}
	for layer, ns := range want {
		if a.selfNS[layer] != ns {
			t.Errorf("%s self = %d ns, want %d", layer, a.selfNS[layer], ns)
		}
	}
	if a.programSpans != 2 || a.calls["slim"] != 1 || a.calls["base"] != 1 {
		t.Errorf("program spans %d, calls %v", a.programSpans, a.calls)
	}
	lost := newLayerAcc("slimpad")
	lost.collect(recs, 3)
	if lost.unattributed != 100_000 || lost.lost != 3 {
		t.Errorf("an op that lost spans is unattributed: %d ns, lost %d", lost.unattributed, lost.lost)
	}
}

// Two query clients share the store: no op may fail, and the paired
// writes leave the store as set-up left it.
func TestQueryTwoClients(t *testing.T) {
	w, err := querySpec.build(config{seed: 4, dir: t.TempDir()}, &recorder{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.setup(); err != nil {
		t.Fatal(err)
	}
	win := timed(w, querySpec, querySpec.clients, 300*time.Millisecond, 4, &recorder{})
	if win.failed != 0 || win.attempted == 0 {
		t.Fatalf("%d of %d ops failed: %v", win.failed, win.attempted, win.errs)
	}
	if probs := w.verify(); len(probs) != 0 {
		t.Error(probs)
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := make([]int64, 1000)
	for i := range xs {
		xs[i] = int64(i + 1)
	}
	if v, beyond := quantile(xs, 0.99); v != 990 || beyond != 10 {
		t.Errorf("p99 of 1..1000 = %d with %d beyond, want 990 with 10", v, beyond)
	}
	if v, _ := quantile(xs, 0.5); v != 500 {
		t.Errorf("p50 of 1..1000 = %d, want 500", v)
	}
}

// BENCHMARK.json declares exactly the workloads and metrics the benchmark
// prints.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, s := range specs {
		want = append(want, s.name)
	}
	if !slices.Equal(names, want) {
		t.Errorf("workloads %v, benchmark runs %v", names, want)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: %d metrics declared, benchmark prints %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit || got[i].Better != d.better {
				t.Errorf("%s[%d] = %+v, benchmark has %s %s %s", kind, i, got[i], d.name, d.unit, d.better)
			}
			if kind == "per_layer" && d.moves == "" {
				t.Errorf("%s does not say which end-to-end metric it should move", d.name)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
}
