package main

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/trim"
)

// benchDetail tags the spans the benchmark records itself, so they are
// told apart from the spans the program emits.
const benchDetail = "slimbench"

// traceRing is the span ring of the traced run. The program's default ring
// holds 256 spans, fewer than one tree gesture emits; the traced run swaps
// in a larger one, reads it back after every op and grows it when an op
// overflowed it.
const traceRing = 1 << 14

// recorder records the benchmark's own spans — around each op, around each
// base-application call and around each durable save — into the program's
// tracer, but only while a traced run is on. Timed runs leave the
// program's instrumentation at its shipped defaults and add nothing.
type recorder struct {
	on atomic.Bool
	// candidates and matched sum EXPLAIN figures of traced store queries.
	candidates, matched atomic.Int64
}

// start opens a benchmark span, or returns nil (a no-op span) when the
// recorder is off.
func (r *recorder) start(op string) *obs.Span {
	if r == nil || !r.on.Load() {
		return nil
	}
	return obs.DefaultTracer.Start(op, benchDetail)
}

// explain adds one traced query's EXPLAIN figures.
func (r *recorder) explain(e trim.Explain) {
	r.candidates.Add(int64(e.Candidates))
	r.matched.Add(int64(e.Matched))
}

// begin swaps a larger ring in for the program's tracer and turns the
// benchmark's spans on; the returned func restores both.
func (r *recorder) begin() (restore func()) {
	prev := obs.DefaultTracer
	tr := obs.NewTracer(traceRing)
	tr.SetSampleRate(prev.SampleRate())
	obs.DefaultTracer = tr
	r.on.Store(true)
	return func() {
		r.on.Store(false)
		obs.DefaultTracer = prev
	}
}

// drain returns the spans recorded since the last drain, oldest first, and
// the number lost to ring overflow. After a loss the ring is grown so the
// next op fits.
func drain() ([]obs.OpRecord, int) {
	tr := obs.DefaultTracer
	recs := tr.Recent()
	lost := 0
	if n := len(recs); n > 0 && recs[n-1].Seq > uint64(n) {
		lost = int(recs[n-1].Seq) - n
		bigger := obs.NewTracer(4 * n)
		bigger.SetSampleRate(tr.SampleRate())
		obs.DefaultTracer = bigger
		return recs, lost
	}
	tr.Reset()
	return recs, lost
}

// layerOf maps a span name to the layer that owns its self time. Spans of
// unknown layers return "".
func layerOf(op, rootLayer string) string {
	prefix, _, _ := strings.Cut(op, ".")
	switch prefix {
	case "op":
		return rootLayer
	case "dmi", "store":
		return "slim"
	case "trim", "base", "wal", "mark":
		return prefix
	}
	return ""
}

// layerAcc attributes the spans of traced ops to layers. A span's self
// time is its duration minus the durations of its direct children. The
// program's DMI spans start new traces when the caller passes no context,
// so nesting is rebuilt from time containment, which is exact for one
// client on one goroutine.
type layerAcc struct {
	rootLayer    string
	ops          int
	opNS         int64
	selfNS       map[string]int64
	calls        map[string]int
	programSpans int
	unattributed int64 // ns in spans of no known layer, or in ops that lost spans
	lost         int
	walSaves     []int64 // durations of durable saves, ns
}

func newLayerAcc(rootLayer string) *layerAcc {
	return &layerAcc{rootLayer: rootLayer, selfNS: map[string]int64{}, calls: map[string]int{}}
}

type spanNode struct {
	rec      obs.OpRecord
	end      time.Time
	childDur int64
}

// collect attributes the spans one traced op left behind.
func (a *layerAcc) collect(recs []obs.OpRecord, lost int) {
	var root *obs.OpRecord
	for i := range recs {
		if recs[i].Detail == benchDetail && strings.HasPrefix(recs[i].Op, "op.") {
			root = &recs[i]
		}
	}
	if root == nil {
		return
	}
	a.ops++
	a.opNS += int64(root.Dur)
	if lost > 0 {
		a.lost += lost
		a.unattributed += int64(root.Dur)
		return
	}
	nodes := make([]*spanNode, len(recs))
	for i, r := range recs {
		nodes[i] = &spanNode{rec: r, end: r.Start.Add(r.Dur)}
	}
	sort.SliceStable(nodes, func(i, j int) bool {
		if !nodes[i].rec.Start.Equal(nodes[j].rec.Start) {
			return nodes[i].rec.Start.Before(nodes[j].rec.Start)
		}
		return nodes[i].rec.Dur > nodes[j].rec.Dur
	})
	var stack []*spanNode
	for _, n := range nodes {
		for len(stack) > 0 {
			top := stack[len(stack)-1]
			if !n.rec.Start.Before(top.rec.Start) && !n.end.After(top.end) {
				break
			}
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			stack[len(stack)-1].childDur += int64(n.rec.Dur)
		}
		stack = append(stack, n)
	}
	for _, n := range nodes {
		r := n.rec
		if r.Detail != benchDetail {
			a.programSpans++
		}
		if !r.Start.Before(root.Start) && !n.end.After(root.Start.Add(root.Dur)) {
			self := int64(r.Dur) - n.childDur
			layer := layerOf(r.Op, a.rootLayer)
			if layer == "" {
				a.unattributed += self
				continue
			}
			a.selfNS[layer] += self
			if r.Span != root.Span {
				a.calls[layer]++
			}
			if r.Op == "wal.save" {
				a.walSaves = append(a.walSaves, int64(r.Dur))
			}
		}
	}
}

// selfSum is the total self time attributed to known layers.
func (a *layerAcc) selfSum() int64 {
	var s int64
	for _, v := range a.selfNS {
		s += v
	}
	return s
}

func (a *layerAcc) perOp(v float64) float64 { return ratio(v, float64(a.ops)) }

// traceRun is the --trace 1 invocation: the layer attribution of a traced
// 1-client run, then an untraced timed run with the workload's own client
// count, then the ladder.
func traceRun(sp spec, cfg config, w workload, rec *recorder, hdr *header, total *window) (map[string]float64, error) {
	m := map[string]float64{}
	total.merge(counted(w, sp, sp.warmOps, cfg.seed+1, rec, nil))
	acc, baseMean, _ := layers(w, sp, sp.tracedOps, cfg.seed+2, rec, total)
	us := func(ns float64) float64 { return ns / 1e3 }
	for _, layer := range []string{"slimpad", "slim", "base", "trim", "wal"} {
		m[layer+".self_us_per_op"] = us(acc.perOp(float64(acc.selfNS[layer])))
	}
	for _, layer := range []string{"slim", "base", "trim"} {
		m[layer+".calls_per_op"] = acc.perOp(float64(acc.calls[layer]))
	}
	m["obs.spans_per_op"] = acc.perOp(float64(acc.programSpans))
	if saves := sortedCopy(acc.walSaves); len(saves) > 0 {
		v, _ := quantile(saves, 0.5)
		m["wal.commit_us"] = us(float64(v))
	}
	m["trim.rows_examined_per_returned"] = ratio(float64(rec.candidates.Load()), float64(rec.matched.Load()))
	m["trace.self_sum_ratio"] = ratio(float64(acc.selfSum()), float64(acc.opNS))
	m["trace.unattributed_share"] = ratio(float64(acc.unattributed), float64(acc.opNS))
	m["trace.overhead_share"] = ratio(ratio(float64(acc.opNS), float64(acc.ops)), baseMean) - 1
	hdr.add("traced", "ops=%d lost_spans=%d program_spans=%d op_mean_us=%.3f untraced_mean_us=%.3f self_by_layer_us=%s",
		acc.ops, acc.lost, acc.programSpans, us(acc.perOp(float64(acc.opNS))), us(baseMean), fmtLayers(acc))

	c0 := sample()
	tri0 := w.triples()
	a := timed(w, sp, sp.clients, time.Duration(cfg.seconds)*time.Second, cfg.seed, rec)
	c1 := sample()
	total.merge(a)
	hdr.window(sp, a, tri0, w.triples())
	c1.sub(c0).into(m, float64(len(a.lat)))
	e := a.endToEnd()
	hdr.add("end_to_end", "%s", e)
	m["latency_p99_us"] = e.p99 / 1e3
	m["steady.triples_delta"] = float64(w.triples() - tri0)
	m["steady.second_half_ops_ratio"] = ratio(float64(a.secondHalf), float64(a.firstHalf))
	classes(sp, a, m)

	l := &ladder{values: m}
	if err := w.ladder(l); err != nil {
		return nil, fmt.Errorf("%s: ladder: %w", sp.name, err)
	}
	hdr.add("ladder", "%s", l.summary())
	return m, nil
}

// layers runs n ops traced, between two untraced runs of the same op
// sequence whose mean op time is the traced run's baseline, so drift
// across the three does not read as tracing overhead. It returns the
// attribution, the baseline mean in ns and the traced run's record.
func layers(w workload, sp spec, n int, seed int64, rec *recorder, total *window) (*layerAcc, float64, *window) {
	before := counted(w, sp, n, seed, rec, nil)
	acc := newLayerAcc(sp.rootLayer)
	restore := rec.begin()
	rec.candidates.Store(0)
	rec.matched.Store(0)
	traced := counted(w, sp, n, seed, rec, acc)
	restore()
	after := counted(w, sp, n, seed, rec, nil)
	for _, win := range []*window{before, traced, after} {
		total.merge(win)
	}
	mean := ratio(float64(sum(before.lat)+sum(after.lat)), float64(len(before.lat)+len(after.lat)))
	return acc, mean, traced
}

func sum(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}

func fmtLayers(a *layerAcc) string {
	var parts []string
	for _, k := range sortedKeys(a.selfNS) {
		parts = append(parts, fmt.Sprintf("%s:%.3f", k, a.perOp(float64(a.selfNS[k]))/1e3))
	}
	return strings.Join(parts, ",")
}

// classes records each op class's median latency and its share of the
// window's total op time.
func classes(sp spec, a *window, m map[string]float64) {
	all := sum(a.lat)
	for c, lat := range a.byClass(len(sp.mix)) {
		oc := sp.mix[c]
		p50, _ := quantile(lat, 0.5)
		m["class."+oc.name+".p50_us"] = float64(p50) / 1e3
		m["class."+oc.name+".time_share"] = ratio(float64(sum(lat)), float64(all))
	}
}

// ladder times single layer entry points on a workload's fixture: each
// entry calls one public function n times and keeps the median.
type ladder struct {
	values map[string]float64
	notes  []string
}

// median returns the median duration, in ns, of n calls of f.
func (l *ladder) median(n int, f func(i int) error) (int64, error) {
	lat := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := f(i); err != nil {
			return 0, err
		}
		lat = append(lat, time.Since(t0).Nanoseconds())
	}
	v, _ := quantile(sortedCopy(lat), 0.5)
	return v, nil
}

// time records the median of n calls of f in microseconds under name.
func (l *ladder) time(name string, n int, f func(i int) error) error {
	v, err := l.median(n, f)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	l.set(name, float64(v)/1e3)
	return nil
}

func (l *ladder) set(name string, v float64) {
	l.values[name] = v
	l.notes = append(l.notes, fmt.Sprintf("%s=%.4g", name, v))
}

func (l *ladder) summary() string { return strings.Join(l.notes, " ") }
