package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/obs"
)

func heapAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// counters is a snapshot of the process-wide counters a window's per-layer
// metrics are deltas of: the Go runtime's, the kernel's and the program's
// own obs registry's.
type counters struct {
	allocBytes, allocs uint64
	gcCPU, busyCPU     float64 // seconds, from runtime/metrics
	cpuNS              int64   // user+system, from getrusage
	writeBytes         int64   // /proc/self/io write_bytes
	lockWaitNS         int64   // trim.store lock wait, both modes
	walBytes, walAppends,
	walCompactions int64
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/cpu/classes/idle:cpu-seconds"},
}

func sample() counters {
	var c counters
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.allocBytes, c.allocs = ms.TotalAlloc, ms.Mallocs
	metrics.Read(cpuSamples)
	c.gcCPU = cpuSamples[0].Value.Float64()
	c.busyCPU = cpuSamples[1].Value.Float64() - cpuSamples[2].Value.Float64()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		c.cpuNS = ru.Utime.Nano() + ru.Stime.Nano()
	}
	c.writeBytes = procIO("write_bytes")
	for _, mode := range []string{"r", "w"} {
		c.lockWaitNS += obs.H(fmt.Sprintf(obs.FmtLockWaitNS, obs.LockTrimStore, mode)).Sum()
	}
	c.walBytes = obs.C(obs.NameTrimWALAppendBytes).Value()
	c.walAppends = obs.C(obs.NameTrimWALAppendTotal).Value()
	c.walCompactions = obs.C(obs.NameTrimWALCompactTotal).Value()
	return c
}

func (c counters) sub(o counters) counters {
	return counters{
		allocBytes: c.allocBytes - o.allocBytes, allocs: c.allocs - o.allocs,
		gcCPU: c.gcCPU - o.gcCPU, busyCPU: c.busyCPU - o.busyCPU,
		cpuNS: c.cpuNS - o.cpuNS, writeBytes: c.writeBytes - o.writeBytes,
		lockWaitNS: c.lockWaitNS - o.lockWaitNS,
		walBytes:   c.walBytes - o.walBytes, walAppends: c.walAppends - o.walAppends,
		walCompactions: c.walCompactions - o.walCompactions,
	}
}

// into records the window's per-op rates of a counter delta.
func (c counters) into(m map[string]float64, ops float64) {
	m["runtime.alloc_bytes_per_op"] = ratio(float64(c.allocBytes), ops)
	m["runtime.allocs_per_op"] = ratio(float64(c.allocs), ops)
	m["runtime.gc_cpu_share"] = ratio(c.gcCPU, c.busyCPU)
	m["runtime.cpu_us_per_op"] = ratio(float64(c.cpuNS)/1e3, ops)
	m["disk_bytes_per_op"] = ratio(float64(c.writeBytes), ops)
	m["trim.lock_wait_us_per_op"] = ratio(float64(c.lockWaitNS)/1e3, ops)
	m["wal.bytes_per_commit"] = ratio(float64(c.walBytes), float64(c.walAppends))
	m["wal.compactions"] = float64(c.walCompactions)
}

// procIO reads one field of /proc/self/io: what the kernel counted this
// process writing, measured outside the program. It is -1 where the file
// is missing.
func procIO(field string) int64 {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return -1
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && k == field {
			n, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			if err == nil {
				return n
			}
		}
	}
	return -1
}

// header is the run header printed before the result line: hardware,
// toolchain, commit, seeds, workload parameters and tracer state, then
// what the run observed.
type header struct {
	lines []string
}

// confirmSeed is the seed a performance claim is confirmed on after the
// change was developed against others.
const confirmSeed = 1_000_003

func newHeader(sp spec, cfg config) *header {
	h := &header{}
	h.add("run", "workload=%s seed=%d confirm_seed=%d seconds=%d trace=%v clients=%d",
		sp.name, cfg.seed, confirmSeed, cfg.seconds, cfg.traced, sp.clients)
	h.add("host", "cpu=%q num_cpu=%d gomaxprocs=%d go=%s commit=%s",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit())
	h.add("tracer", "enabled=%v sample_rate=%g traced_run_ring=%d",
		obs.DefaultTracer.Enabled(), obs.DefaultTracer.SampleRate(), traceRing)
	var mix []string
	for _, c := range sp.mix {
		mix = append(mix, fmt.Sprintf("%s:%d", c.name, c.weight))
	}
	h.add("mix", "%s setup_runs=%d traced_ops=%d", strings.Join(mix, ","), sp.setupRuns, sp.tracedOps)
	return h
}

func (h *header) add(key, format string, args ...any) {
	h.lines = append(h.lines, "# "+key+" "+fmt.Sprintf(format, args...))
}

// window records a timed window's steady-state evidence: ops and rates in
// each half, and the store size at both ends.
func (h *header) window(sp spec, a *window, tri0, tri1 int) {
	secs := a.elapsed.Seconds()
	lat := sortedCopy(a.lat)
	p50, _ := quantile(lat, 0.5)
	p99, beyond := quantile(lat, 0.99)
	h.add("window", "ops=%d failed=%d wrong=%d elapsed_s=%.3f ops_per_s=%.1f p50_us=%.3f p99_us=%.3f samples=%d beyond_p99=%d",
		len(a.lat), a.failed, a.wrong, secs, ratio(float64(len(a.lat)), secs),
		float64(p50)/1e3, float64(p99)/1e3, len(lat), beyond)
	half := secs / 2
	h.add("steady", "first_half_ops_per_s=%.1f second_half_ops_per_s=%.1f triples_start=%d triples_end=%d",
		ratio(float64(a.firstHalf), half), ratio(float64(a.secondHalf), half), tri0, tri1)
	for c, l := range a.byClass(len(sp.mix)) {
		p50, _ := quantile(l, 0.5)
		h.add("class", "%s n=%d p50_us=%.3f", sp.mix[c].name, len(l), float64(p50)/1e3)
	}
}

func (h *header) write(w io.Writer) {
	for _, l := range h.lines {
		fmt.Fprintln(w, l)
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the binary was built from, when the build
// had one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}
