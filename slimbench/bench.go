package main

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds int
	dir     string // scratch directory for the files a workload persists
	traced  bool
}

// opClass is one entry of a workload's op mix.
type opClass struct {
	name   string
	weight int
}

// spec describes a workload: its op mix, its client count and how to build
// it. Every number here is fixed, so two commits run the same workload.
type spec struct {
	name    string
	clients int
	mix     []opClass
	// rootLayer owns the self time of the benchmark's own span around each
	// op: the layer whose public function the op calls.
	rootLayer string
	// setupRuns is how many times set-up runs; setup_s is their median.
	setupRuns int
	// tracedOps is the op count of the untraced and traced 1-client runs
	// of a --trace 1 invocation; warmOps precede them.
	tracedOps, warmOps int
	build              func(cfg config, rec *recorder) (workload, error)
}

// workload is a built fixture. Building it prepares every input that
// exists before the program starts (untimed); setup then makes the program
// ready, the way a user's session would, and is what setup_s times.
type workload interface {
	// params describes the fixture for the run header.
	params() string
	// setup makes the workload ready, replacing any previous state, and
	// returns how long that took, without the benchmark's own bookkeeping.
	setup() (time.Duration, error)
	// op runs one operation of the mix class for the client. A returned
	// error counts the op as failed; wrong results wrap errWrong.
	op(cl *client, class int) error
	// triples is the store's current size.
	triples() int
	// verify checks the state after the run; it returns the problems found.
	verify() []string
	// ladder times single layer entry points on the fixture and records
	// the per-layer values only the workload can measure.
	ladder(l *ladder) error
	close() error
}

// errWrong marks an op that returned without error but with a wrong
// result; it counts against error_rate like a failure.
var errWrong = errors.New("wrong result")

func wrongf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errWrong, fmt.Sprintf(format, args...))
}

var specs = []spec{roundsSpec, querySpec, ingestSpec}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// client is one closed-loop client: it issues its next op only after the
// previous one returned.
type client struct {
	id     int
	rng    *rand.Rand
	seq    int
	rec    *recorder
	traced bool
}

func newClient(id int, seed int64, rec *recorder) *client {
	return &client{id: id, rng: rand.New(rand.NewSource(seed*1_000_003 + int64(id)*7919)), rec: rec}
}

// pick draws the next op class from the mix.
func (cl *client) pick(cum []int) int {
	r := cl.rng.Intn(cum[len(cum)-1])
	return sort.SearchInts(cum, r+1)
}

func cumulative(mix []opClass) []int {
	cum := make([]int, len(mix))
	total := 0
	for i, c := range mix {
		total += c.weight
		cum[i] = total
	}
	return cum
}

// window is the record of one run: every op's latency and class, kept
// whole so percentiles are exact.
type window struct {
	lat       []int64 // ns per op
	at        []int64 // ns from the window's start to the op's completion
	class     []uint8
	attempted int64
	failed    int64
	wrong     int64
	errs      []string
	// firstHalf and secondHalf count ops completed in each half of a timed
	// window, to show whether the workload is steady.
	firstHalf, secondHalf int64
	elapsed               time.Duration
}

func (w *window) note(err error) {
	w.failed++
	if errors.Is(err, errWrong) {
		w.wrong++
	}
	if len(w.errs) < 5 {
		w.errs = append(w.errs, err.Error())
	}
}

func (w *window) merge(o *window) {
	w.lat = append(w.lat, o.lat...)
	w.at = append(w.at, o.at...)
	w.class = append(w.class, o.class...)
	w.attempted += o.attempted
	w.failed += o.failed
	w.wrong += o.wrong
	w.firstHalf += o.firstHalf
	w.secondHalf += o.secondHalf
	for _, e := range o.errs {
		if len(w.errs) < 5 {
			w.errs = append(w.errs, e)
		}
	}
}

// timed runs every client of the workload in a closed loop for d and
// returns the merged record.
func timed(w workload, sp spec, clients int, d time.Duration, seed int64, rec *recorder) *window {
	cum := cumulative(sp.mix)
	parts := make([]*window, clients)
	start := time.Now()
	mid, deadline := start.Add(d/2), start.Add(d)
	var wg sync.WaitGroup
	for i := range parts {
		parts[i] = &window{}
		wg.Add(1)
		go func(cl *client, out *window) {
			defer wg.Done()
			for {
				now := time.Now()
				if !now.Before(deadline) {
					return
				}
				c := cl.pick(cum)
				err := w.op(cl, c)
				end := time.Now()
				out.attempted++
				out.lat = append(out.lat, end.Sub(now).Nanoseconds())
				out.at = append(out.at, end.Sub(start).Nanoseconds())
				out.class = append(out.class, uint8(c))
				if err != nil {
					out.note(err)
				}
				if end.Before(mid) {
					out.firstHalf++
				} else if end.Before(deadline) {
					out.secondHalf++
				}
			}
		}(newClient(i, seed, rec), parts[i])
	}
	wg.Wait()
	all := &window{elapsed: d}
	for _, p := range parts {
		all.merge(p)
	}
	return all
}

// slice is the ops of a timed window that completed in one span of it.
type slice struct {
	lat         []int64 // sorted
	first, last int64   // completion offsets of its first and last op, ns
}

// rate is the slice's completed ops per second, between its first and
// last completion.
func (s slice) rate() float64 {
	return ratio(float64(len(s.lat)-1), float64(s.last-s.first)/1e9)
}

// slices splits a timed window into k equal spans of time by op
// completion; ops completing after the window closed are left out.
func (w *window) slices(k int) []slice {
	out := make([]slice, k)
	span := w.elapsed.Nanoseconds() / int64(k)
	for i, at := range w.at {
		n := int(at / span)
		if n >= k {
			continue
		}
		s := &out[n]
		if len(s.lat) == 0 || at < s.first {
			s.first = at
		}
		s.last = max(s.last, at)
		s.lat = append(s.lat, w.lat[i])
	}
	for _, s := range out {
		sort.Slice(s.lat, func(i, j int) bool { return s.lat[i] < s.lat[j] })
	}
	return out
}

// p99Slices splits the window into as many slices as it can, up to
// windowSlices, while every slice still holds the 1000 samples a p99
// needs (ten beyond it).
func (w *window) p99Slices() []slice {
	for k := windowSlices; k > 1; k-- {
		sl := w.slices(k)
		ok := true
		for _, s := range sl {
			ok = ok && len(s.lat) >= 1000
		}
		if ok {
			return sl
		}
	}
	return w.slices(1)
}

// windowSlices is how many spans of a timed window the end-to-end rates
// and percentiles are taken in; their median is reported, so a transient
// stall of the shared machine in one span does not move the result.
const windowSlices = 5

// endToEnd computes the window's end-to-end figures: each is the median
// over the window's slices of the slice's rate or percentile.
func (w *window) endToEnd() (e endToEndFigures) {
	var rates, p50s, p90s, p99s []float64
	for _, sl := range w.slices(windowSlices) {
		rates = append(rates, sl.rate())
		v, _ := quantile(sl.lat, 0.5)
		p50s = append(p50s, float64(v))
		v, _ = quantile(sl.lat, 0.9)
		p90s = append(p90s, float64(v))
	}
	e.p99Beyond = -1
	p99sl := w.p99Slices()
	for _, sl := range p99sl {
		v, beyond := quantile(sl.lat, 0.99)
		p99s = append(p99s, float64(v))
		if e.p99Beyond < 0 || beyond < e.p99Beyond {
			e.p99Beyond, e.p99Samples = beyond, len(sl.lat)
		}
	}
	e.opsPerS, e.p50, e.p90, e.p99 = medianF(rates), medianF(p50s), medianF(p90s), medianF(p99s)
	e.p99Slices = len(p99sl)
	return e
}

// endToEndFigures are a timed window's rate and latency percentiles (ns),
// with the size of the smallest slice behind p99 and its samples beyond.
type endToEndFigures struct {
	opsPerS, p50, p90, p99           float64
	p99Slices, p99Samples, p99Beyond int
}

func (e endToEndFigures) String() string {
	return fmt.Sprintf("slices=%d p99_slices=%d ops_per_s=%.3f p50_us=%.3f p90_us=%.3f p99_us=%.3f p99_min_slice_samples=%d p99_min_slice_beyond=%d",
		windowSlices, e.p99Slices, e.opsPerS, e.p50/1e3, e.p90/1e3, e.p99/1e3, e.p99Samples, e.p99Beyond)
}

// counted runs n ops on one client. With acc set, the run is traced: each
// op runs inside the benchmark's own span, and the spans it left in the
// tracer are read back and attributed to layers before the next op.
func counted(w workload, sp spec, n int, seed int64, rec *recorder, acc *layerAcc) *window {
	cum := cumulative(sp.mix)
	cl := newClient(0, seed, rec)
	cl.traced = acc != nil
	out := &window{}
	start := time.Now()
	for i := 0; i < n; i++ {
		c := cl.pick(cum)
		t0 := time.Now()
		var err error
		if acc != nil {
			span := rec.start("op." + sp.mix[c].name)
			err = w.op(cl, c)
			span.FinishErr(err)
		} else {
			err = w.op(cl, c)
		}
		out.lat = append(out.lat, time.Since(t0).Nanoseconds())
		out.class = append(out.class, uint8(c))
		out.attempted++
		if err != nil {
			out.note(err)
		}
		if acc != nil {
			acc.collect(drain())
		}
	}
	out.elapsed = time.Since(start)
	return out
}

// byClass returns the window's latencies grouped by op class, each sorted.
func (w *window) byClass(classes int) [][]int64 {
	out := make([][]int64, classes)
	for i, c := range w.class {
		out[c] = append(out[c], w.lat[i])
	}
	for _, l := range out {
		sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
	}
	return out
}

// quantile returns the nearest-rank q-quantile of sorted samples and the
// number of samples above it.
func quantile(sorted []int64, q float64) (v int64, beyond int) {
	if len(sorted) == 0 {
		return 0, 0
	}
	rank := int(float64(len(sorted))*q+0.999999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank], len(sorted) - 1 - rank
}

func sortedCopy(xs []int64) []int64 {
	out := append([]int64(nil), xs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// execute builds the workload, sets it up, runs it and returns the result
// line; the run header goes to out as "# " lines.
func execute(sp spec, cfg config, out io.Writer) (result, error) {
	rec := &recorder{}
	hdr := newHeader(sp, cfg)
	buildStart := time.Now()
	w, err := sp.build(cfg, rec)
	if err != nil {
		return result{}, fmt.Errorf("%s: build: %w", sp.name, err)
	}
	defer w.close()
	hdr.add("fixture", "%s build_s=%.3f", w.params(), time.Since(buildStart).Seconds())

	var setups []float64
	for i := 0; i < sp.setupRuns; i++ {
		d, err := w.setup()
		if err != nil {
			return result{}, fmt.Errorf("%s: setup: %w", sp.name, err)
		}
		setups = append(setups, d.Seconds())
	}
	runtime.GC()
	heapMB := float64(heapAlloc()) / 1e6
	hdr.add("setup", "runs=%d median_s=%.6f all_s=%s live_heap_mb=%.3f", len(setups), medianF(setups), fmtFloats(setups), heapMB)

	res := result{metrics: map[string]float64{}}
	set := func(name string, v float64) { res.metrics[name] = v }
	var total window
	var problems []string

	if !cfg.traced {
		warm := timed(w, sp, sp.clients, warmupFor(cfg.seconds), cfg.seed+1, rec)
		total.merge(warm)
		tri0 := w.triples()
		a := timed(w, sp, sp.clients, time.Duration(cfg.seconds)*time.Second, cfg.seed, rec)
		total.merge(a)
		tri1 := w.triples()
		t0 := time.Now()
		problems = w.verify()
		hdr.add("verify", "s=%.3f problems=%d", time.Since(t0).Seconds(), len(problems))
		hdr.window(sp, a, tri0, tri1)
		e := a.endToEnd()
		hdr.add("end_to_end", "%s", e)
		if e.p99Beyond < 10 {
			hdr.add("warning", "p99 rests on %d samples beyond it (< 10); lengthen --seconds", e.p99Beyond)
		}
		set("ops_per_s", e.opsPerS)
		set("latency_p50_us", e.p50/1e3)
		set("latency_p90_us", e.p90/1e3)
		set("setup_s", medianF(setups))
		set("live_heap_mb", heapMB)
	} else {
		lm, err := traceRun(sp, cfg, w, rec, hdr, &total)
		if err != nil {
			return result{}, err
		}
		problems = w.verify()
		for _, m := range perLayer {
			set(m.name, lm[m.name])
		}
		set("error_rate", ratio(float64(total.failed), float64(total.attempted)))
	}
	for _, p := range problems {
		hdr.add("problem", "%s", p)
	}
	for _, e := range total.errs {
		hdr.add("op_error", "%s", e)
	}
	res.correct = total.failed == 0 && len(problems) == 0
	res.attempted = total.attempted
	res.failed = total.failed
	hdr.write(out)
	return res, nil
}

// warmupFor is the untimed warm-up before a timed window: long enough to
// fill caches and finish lazy set-up, short against the window.
func warmupFor(seconds int) time.Duration {
	return min(time.Duration(seconds)*time.Second/10, time.Second)
}

func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return strings.Join(parts, ",")
}
