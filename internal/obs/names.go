package obs

// This file is the metric and health-check name registry: the single place
// where the /metrics and /healthz name spaces are declared. Every name that
// reaches a registration sink (C, H, HSize, Registry.Counter/Histogram,
// HealthRegistry.Register/Unregister) must be one of these constants, or —
// for per-op/per-scheme families — a Fmt* constant expanded with
// fmt.Sprintf. The metricnames analyzer (internal/analysis) enforces this;
// docs/OBSERVABILITY.md is generated-by-hand from this list and stays
// honest because of it.
//
// Names are dot-separated, lower-case, and lead with the owning layer
// (trim, mark, slim, core, slimpad). Duration histograms end in ".ns",
// size histograms name the quantity, counters name the event.

// TRIM store (internal/trim).
const (
	NameTrimCreateTotal  = "trim.create.total"
	NameTrimCreateNew    = "trim.create.new"
	NameTrimCreateErrors = "trim.create.errors"
	NameTrimCreateNS     = "trim.create.ns"

	NameTrimRemoveTotal = "trim.remove.total"
	NameTrimRemoveHit   = "trim.remove.hit"

	NameTrimSelectTotal = "trim.select.total"
	NameTrimSelectNS    = "trim.select.ns"
	NameTrimCountTotal  = "trim.count.total"
	NameTrimStatsTotal  = "trim.stats.total"

	NameTrimIndexSubject   = "trim.index.subject"
	NameTrimIndexPredicate = "trim.index.predicate"
	NameTrimIndexObject    = "trim.index.object"
	NameTrimIndexScan      = "trim.index.scan"

	NameTrimViewTotal = "trim.view.total"
	NameTrimViewNS    = "trim.view.ns"

	NameTrimBatchTotal   = "trim.batch.total"
	NameTrimBatchApplyNS = "trim.batch.apply.ns"
	NameTrimBatchOps     = "trim.batch.ops"

	NameTrimLoadTriples = "trim.load.triples"
	NameTrimLoadNS      = "trim.load.ns"

	NameTrimObserverFanout = "trim.observer.fanout"

	NameTrimPersistSaveTotal     = "trim.persist.save.total"
	NameTrimPersistSaveErrors    = "trim.persist.save.errors"
	NameTrimPersistLoadTotal     = "trim.persist.load.total"
	NameTrimPersistLoadCorrupt   = "trim.persist.load.corrupt"
	NameTrimPersistLoadRecovered = "trim.persist.load.recovered"
	// Directory fsyncs skipped because the filesystem refused them (the
	// atomic-write sequence treats them as best effort, but counts skips).
	NameTrimPersistDirsyncSkipped = "trim.persist.dirsync_skipped"
	// JSONL export/import (backup and portability interchange).
	NameTrimPersistExportTotal = "trim.persist.export.total"
	NameTrimPersistImportTotal = "trim.persist.import.total"
)

// TRIM write-ahead-log durability backend (internal/trim/wal.go over
// internal/wal): append/commit throughput, fsync cost, replay outcomes,
// and snapshot compaction (docs/ROBUSTNESS.md "Durability backends").
const (
	NameTrimWALAppendTotal  = "trim.wal.append.total"
	NameTrimWALAppendErrors = "trim.wal.append.errors"
	NameTrimWALAppendBytes  = "trim.wal.append.bytes"
	NameTrimWALAppendNS     = "trim.wal.append.ns"

	NameTrimWALSyncTotal = "trim.wal.sync.total"
	NameTrimWALSyncNS    = "trim.wal.sync.ns"

	NameTrimWALCommitOps = "trim.wal.commit.ops"

	NameTrimWALReplayTotal   = "trim.wal.replay.total"
	NameTrimWALReplayRecords = "trim.wal.replay.records"
	NameTrimWALReplayTorn    = "trim.wal.replay.torn"
	NameTrimWALReplayNS      = "trim.wal.replay.ns"

	NameTrimWALCompactTotal  = "trim.wal.compact.total"
	NameTrimWALCompactErrors = "trim.wal.compact.errors"
	NameTrimWALCompactNS     = "trim.wal.compact.ns"
)

// Mark Management (internal/mark). The per-scheme families are bounded by
// the module registry: one dispatch counter per scheme, one latency/error
// pair per (op, scheme).
const (
	FmtMarkDispatch = "mark.dispatch.%s"  // %s = scheme
	FmtMarkOpNS     = "mark.%s.%s.ns"     // op, scheme
	FmtMarkOpErrors = "mark.%s.%s.errors" // op, scheme

	NameMarkMarksAdded          = "mark.marks.added"
	NameMarkMarksRemoved        = "mark.marks.removed"
	NameMarkModulesRegistered   = "mark.modules.registered"
	NameMarkResolversRegistered = "mark.resolvers.registered"

	NameMarkResolveRetries    = "mark.resolve.retries"
	NameMarkResolveFailed     = "mark.resolve.failed"
	NameMarkResolveCached     = "mark.resolve.cached"
	NameMarkQuarantineAdded   = "mark.quarantine.added"
	NameMarkQuarantineCleared = "mark.quarantine.cleared"
	NameMarkDoctorRuns        = "mark.doctor.runs"

	NameMarkPersistSaveTotal = "mark.persist.save.total"
	NameMarkPersistLoadTotal = "mark.persist.load.total"
)

// SLIM DMI (internal/slim). The per-op families are bounded by the DMI
// verb set ("create", "get", "set", "delete", ...).
const (
	NameSlimTriplesTouched = "slim.dmi.triples.touched"
	NameSlimTriplesPerOp   = "slim.dmi.triples_per_op"

	FmtSlimDmiNS     = "slim.dmi.%s.ns"     // %s = op
	FmtSlimDmiTotal  = "slim.dmi.%s.total"  // op
	FmtSlimDmiErrors = "slim.dmi.%s.errors" // op
)

// Core views (internal/core). The per-style family is bounded by the
// ViewStyle enum.
const (
	NameCoreViewNS       = "core.view.ns"
	FmtCoreViewTotal     = "core.view.%s.total" // %s = view style
	NameCoreViewErrors   = "core.view.errors"
	NameCoreViewDegraded = "core.view.degraded"
)

// slimpad (internal/slimpad).
const (
	NameSlimpadRefreshDegraded = "slimpad.refresh.degraded"
)

// Tracing (internal/obs). Sampled/dropped count root-span sampling
// decisions; see Tracer.SetSampleRate.
const (
	NameTraceSampled = "trace.sampled"
	NameTraceDropped = "trace.dropped"
)

// Mark resolve attempt distribution (satellite of the trace-tree work:
// the per-attempt child spans and this histogram are recorded together).
const (
	NameMarkResolveAttempts = "mark.resolve.attempts"
)

// Flight recorder gauges (internal/obs/flight.go): last-sample runtime
// snapshot republished to /metrics so Prometheus can correlate trace
// timings with GC and scheduler pressure.
const (
	NameFlightGoroutines  = "flight.goroutines"
	NameFlightHeapAlloc   = "flight.heap.alloc.bytes"
	NameFlightHeapInuse   = "flight.heap.inuse.bytes"
	NameFlightGCCount     = "flight.gc.count"
	NameFlightGCPauseLast = "flight.gc.pause.last.ns"
	NameFlightGCNext      = "flight.gc.next.bytes"
)

// Workload analytics (internal/obs/window.go, topk.go): the windowed
// sampler's self-accounting and the heavy-hitter sketch totals. Nonzero
// obs.top.evicted means the sketch is estimating, not counting exactly.
const (
	NameObsWindowSamples = "obs.window.samples"
	NameObsTopRecorded   = "obs.top.recorded"
	NameObsTopEvicted    = "obs.top.evicted"
)

// Instrumented locks (internal/obs/lock.go): per-lock wait/hold latency
// histograms and acquisition/contention counters. The first %s is the lock
// name (a Lock* constant below), the second the mode: "w" for exclusive
// acquisitions, "r" for read acquisitions. Wait histograms record every
// acquisition (0 when the lock was free), so sample counts double as
// acquisition counts; contended counts only acquisitions that blocked.
const (
	FmtLockWaitNS    = "lock.%s.%s.wait.ns"
	FmtLockHoldNS    = "lock.%s.%s.hold.ns"
	FmtLockTotal     = "lock.%s.%s.total"
	FmtLockContended = "lock.%s.%s.contended"
)

// Tracked-lock names (obs.NewTrackedMutex/NewTrackedRWMutex). Lock names
// are dot-separated like metric names and lead with the owning layer.
const (
	LockTrimStore   = "trim.store"
	LockMarkManager = "mark.manager"
)

// Store space accounting (internal/trim/space.go): the deep space
// accountant's last-report gauges, republished so Prometheus can plot the
// bytes-per-triple trajectory of the interned store layout. Gauges are integers, so the duplication ratio is exported in
// percent (×100).
const (
	NameTrimSpaceTotal          = "trim.space.total"
	NameTrimSpaceBytesPerTriple = "trim.space.bytes_per_triple"
	NameTrimSpaceStringBytes    = "trim.space.string.bytes"
	NameTrimSpaceUniqueBytes    = "trim.space.string.unique.bytes"
	NameTrimSpaceDupPct         = "trim.space.duplication.pct"
)

// Alloc-per-op probe harness (internal/trim/probe.go, `trimq space
// -probe`).
const (
	NameTrimProbeTotal = "trim.probe.total"
	NameTrimProbeNS    = "trim.probe.ns"
)

// Process space accounting (internal/obs/space.go over
// runtime/metrics/memory classes): heap occupancy split, GC cycle count,
// and the allocation-bytes rate between reads. Served at /debug/space and
// republished as the space_* gauge family on /metrics.
const (
	NameSpaceHeapInuse    = "space.heap.inuse.bytes"
	NameSpaceHeapFree     = "space.heap.free.bytes"
	NameSpaceHeapReleased = "space.heap.released.bytes"
	NameSpaceStacks       = "space.stack.bytes"
	NameSpaceTotal        = "space.total.bytes"
	NameSpaceGCCycles     = "space.gc.cycles"
	NameSpaceAllocRate    = "space.alloc.bytes_per_sec"
)

// Space-source names (obs.RegisterSpaceSource): per-subsystem deep space
// reports rendered under "sources" at /debug/space.
const (
	SpaceSourceTrimStore = "trim.store"
)

// Runtime scheduler and GC telemetry (internal/obs/flight.go over
// runtime/metrics): per-interval deltas of the runtime's cumulative
// scheduling-latency and GC-pause distributions are replayed into these
// histograms, so /metrics and /debug/load see scheduler stalls and GC
// pressure alongside the store's own latencies. runtime.mutex.wait.ns is
// the runtime's total goroutine-blocked-on-sync time (a counter, so the
// window sampler turns it into a blocked-ns-per-second rate).
const (
	NameRuntimeSchedLatencyNS = "runtime.sched.latency.ns"
	NameRuntimeGCPauseNS      = "runtime.gc.pause.ns"
	NameRuntimeMutexWaitNS    = "runtime.mutex.wait.ns"
	NameRuntimeHeapObjects    = "runtime.heap.objects"
	NameRuntimeGomaxprocs     = "runtime.gomaxprocs"
)

// Health and readiness check names (HealthRegistry.Register).
const (
	HealthTrimStore   = "trim.store"
	HealthTrimPersist = "trim.persist"
	HealthTrimWAL     = "trim.wal"

	HealthMarkStore      = "mark.store"
	HealthMarkPersist    = "mark.persist"
	HealthMarkQuarantine = "mark.quarantine"

	HealthSlimpadStore      = "slimpad.store"
	HealthSlimpadPersist    = "slimpad.persist"
	HealthSlimpadQuarantine = "slimpad.quarantine"

	HealthObsFlight     = "obs.flight"
	HealthObsContention = "obs.contention"
	HealthObsSpace      = "obs.space"
)
