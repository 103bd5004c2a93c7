//! Always-on service counters and per-phase latency accounting.
//!
//! The scheduler and worker pool record what the service actually did —
//! accepted/rejected/expired requests, batches, queue depth — into plain
//! relaxed atomics that work in every build. With the `telemetry` cargo
//! feature the same events additionally flow into the process-wide
//! `cham-telemetry` registries (so run records and text reports pick them
//! up); without it this struct is the only (and sufficient) source.
//!
//! [`PhaseHistograms`] extends the same always-on principle to latency:
//! one [`LiveHistogram`] per request phase (plus end-to-end and
//! matrix-encode), folded from each request's span recorder when its
//! reply is written. The `Introspect` wire op serves these as
//! [`IntrospectSnapshot`] — the breakdown must exist in a default
//! (telemetry-off) build because live operators consume it.

use cham_telemetry::histogram::{HistogramSnapshot, LiveHistogram};
use cham_telemetry::json::JsonValue;
use cham_telemetry::span::{phase, PhaseSpan};
use std::sync::atomic::{AtomicU64, Ordering};

/// Live counters for one server instance. All methods are lock-free and
/// safe to call from any thread.
#[derive(Debug, Default)]
pub struct ServeStats {
    accepted: AtomicU64,
    rejected_busy: AtomicU64,
    timed_out: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    batches: AtomicU64,
    batch_requests: AtomicU64,
    peak_queue_depth: AtomicU64,
    internal_errors: AtomicU64,
    rejected_shutdown: AtomicU64,
    faults_injected: AtomicU64,
    reaped_uploads: AtomicU64,
    vectored_writes: AtomicU64,
    gathered_parts: AtomicU64,
}

impl ServeStats {
    /// A zeroed counter set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A request entered the queue; `depth` is the queue depth after the
    /// push (tracked as a high-water mark).
    pub fn on_accepted(&self, depth: usize) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
        self.peak_queue_depth
            .fetch_max(depth as u64, Ordering::Relaxed);
    }

    /// A request bounced off a full queue.
    pub fn on_rejected_busy(&self) {
        self.rejected_busy.fetch_add(1, Ordering::Relaxed);
    }

    /// A request's deadline expired before execution.
    pub fn on_timed_out(&self) {
        self.timed_out.fetch_add(1, Ordering::Relaxed);
    }

    /// `n` requests finished successfully.
    pub fn on_completed(&self, n: usize) {
        self.completed.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// `n` requests failed in the HE layer.
    pub fn on_failed(&self, n: usize) {
        self.failed.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// One coalesced batch of `size` requests was dispatched.
    pub fn on_batch(&self, size: usize) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batch_requests
            .fetch_add(size as u64, Ordering::Relaxed);
    }

    /// `n` requests were answered with a typed `Internal` error (worker
    /// panic or dead pool) instead of hanging their connections.
    pub fn on_internal_error(&self, n: usize) {
        self.internal_errors.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// A request arriving during shutdown was answered `Shutdown`.
    pub fn on_rejected_shutdown(&self) {
        self.rejected_shutdown.fetch_add(1, Ordering::Relaxed);
    }

    /// A fault-injection site fired.
    pub fn on_fault_injected(&self) {
        self.faults_injected.fetch_add(1, Ordering::Relaxed);
    }

    /// `n` idle pending chunk-upload assemblies were reaped.
    pub fn on_reaped_uploads(&self, n: usize) {
        self.reaped_uploads.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// One reply frame went out through the scatter-gather writer,
    /// its body in `parts` buffers.
    pub fn on_vectored_write(&self, parts: usize) {
        self.vectored_writes.fetch_add(1, Ordering::Relaxed);
        self.gathered_parts
            .fetch_add(parts as u64, Ordering::Relaxed);
    }

    /// A point-in-time copy of every counter.
    #[must_use]
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            accepted: self.accepted.load(Ordering::Relaxed),
            rejected_busy: self.rejected_busy.load(Ordering::Relaxed),
            timed_out: self.timed_out.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            batch_requests: self.batch_requests.load(Ordering::Relaxed),
            peak_queue_depth: self.peak_queue_depth.load(Ordering::Relaxed),
            internal_errors: self.internal_errors.load(Ordering::Relaxed),
            rejected_shutdown: self.rejected_shutdown.load(Ordering::Relaxed),
            faults_injected: self.faults_injected.load(Ordering::Relaxed),
            reaped_uploads: self.reaped_uploads.load(Ordering::Relaxed),
            vectored_writes: self.vectored_writes.load(Ordering::Relaxed),
            gathered_parts: self.gathered_parts.load(Ordering::Relaxed),
        }
    }
}

/// Frozen view of [`ServeStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Requests admitted to the queue.
    pub accepted: u64,
    /// Requests rejected with `Busy` (queue full).
    pub rejected_busy: u64,
    /// Requests dropped with `TimedOut` (deadline expired in queue).
    pub timed_out: u64,
    /// Requests that produced a result.
    pub completed: u64,
    /// Requests that failed in the HE layer.
    pub failed: u64,
    /// Coalesced batches dispatched to the worker pool.
    pub batches: u64,
    /// Total requests across all dispatched batches.
    pub batch_requests: u64,
    /// High-water mark of the queue depth.
    pub peak_queue_depth: u64,
    /// Requests answered with a typed `Internal` error (worker panics
    /// caught and reported rather than hanging the connection).
    pub internal_errors: u64,
    /// Requests answered `Shutdown` because they arrived mid-drain.
    pub rejected_shutdown: u64,
    /// Fault-injection sites that fired (0 on a production server).
    pub faults_injected: u64,
    /// Pending chunk-upload assemblies reaped for idling past the
    /// configured deadline.
    pub reaped_uploads: u64,
    /// Reply frames written through the scatter-gather writer.
    pub vectored_writes: u64,
    /// Body buffers those frames were gathered from (above
    /// `vectored_writes` exactly when replies skipped a staging copy).
    pub gathered_parts: u64,
}

impl StatsSnapshot {
    /// Mean requests per dispatched batch (0 when no batch ran).
    #[must_use]
    pub fn avg_batch_size(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batch_requests as f64 / self.batches as f64
        }
    }
}

// ------------------------------------------------- per-phase histograms

/// Always-on per-phase latency histograms for the serving pipeline.
///
/// One histogram per canonical phase (see
/// [`cham_telemetry::span::phase`]), plus `total` (end-to-end
/// queue→reply) and `matrix_encode` (the NTT-encode cost paid once per
/// committed matrix upload, outside any traced request).
#[derive(Debug, Default)]
pub struct PhaseHistograms {
    queue: LiveHistogram,
    batch: LiveHistogram,
    encode: LiveHistogram,
    dot: LiveHistogram,
    keyswitch: LiveHistogram,
    rescale: LiveHistogram,
    serialize: LiveHistogram,
    total: LiveHistogram,
    matrix_encode: LiveHistogram,
}

/// End-to-end request latency pseudo-phase name.
pub const PHASE_TOTAL: &str = "total";
/// Matrix NTT-encode pseudo-phase name (per matrix upload, not per
/// request).
pub const PHASE_MATRIX_ENCODE: &str = "matrix_encode";

impl PhaseHistograms {
    /// Empty histograms.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn by_name(&self, name: &str) -> Option<&LiveHistogram> {
        match name {
            phase::QUEUE => Some(&self.queue),
            phase::BATCH => Some(&self.batch),
            phase::ENCODE => Some(&self.encode),
            phase::DOT => Some(&self.dot),
            phase::KEYSWITCH => Some(&self.keyswitch),
            phase::RESCALE => Some(&self.rescale),
            phase::SERIALIZE => Some(&self.serialize),
            PHASE_TOTAL => Some(&self.total),
            PHASE_MATRIX_ENCODE => Some(&self.matrix_encode),
            _ => None,
        }
    }

    /// Folds one finished request's phase breakdown plus its end-to-end
    /// latency into the aggregate histograms. Unknown phase names are
    /// ignored (the recorder bounds them already).
    pub fn record_request(&self, phases: &[PhaseSpan], total_ns: u64) {
        for p in phases {
            if let Some(h) = self.by_name(p.name) {
                h.record(p.dur_ns);
            }
        }
        self.total.record(total_ns);
    }

    /// Records one `LoadMatrix` NTT-encode duration.
    pub fn record_matrix_encode(&self, dur_ns: u64) {
        self.matrix_encode.record(dur_ns);
    }

    /// Snapshots every phase that has recorded at least one value, in
    /// canonical pipeline order (`total` and `matrix_encode` last).
    #[must_use]
    pub fn snapshot(&self) -> Vec<PhaseStat> {
        let named: [(&'static str, &LiveHistogram); 9] = [
            (phase::QUEUE, &self.queue),
            (phase::BATCH, &self.batch),
            (phase::ENCODE, &self.encode),
            (phase::DOT, &self.dot),
            (phase::KEYSWITCH, &self.keyswitch),
            (phase::RESCALE, &self.rescale),
            (phase::SERIALIZE, &self.serialize),
            (PHASE_TOTAL, &self.total),
            (PHASE_MATRIX_ENCODE, &self.matrix_encode),
        ];
        named
            .into_iter()
            .filter(|(_, h)| h.count() > 0)
            .map(|(name, h)| PhaseStat::from_snapshot(name, &h.snapshot(name, "ns")))
            .collect()
    }
}

/// One phase's latency summary inside an [`IntrospectSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseStat {
    /// Phase name (canonical; see [`cham_telemetry::span::phase`]).
    pub name: String,
    /// Number of recorded durations.
    pub count: u64,
    /// Sum of recorded durations, ns.
    pub sum_ns: u64,
    /// Median latency estimate, ns.
    pub p50_ns: u64,
    /// 99th-percentile latency estimate, ns.
    pub p99_ns: u64,
    /// 99.9th-percentile latency estimate, ns.
    pub p999_ns: u64,
    /// Largest recorded duration, ns.
    pub max_ns: u64,
}

impl PhaseStat {
    fn from_snapshot(name: &str, s: &HistogramSnapshot) -> Self {
        Self {
            name: name.to_string(),
            count: s.count,
            sum_ns: s.sum_nanos,
            p50_ns: s.percentile(0.50) as u64,
            p99_ns: s.percentile(0.99) as u64,
            p999_ns: s.percentile(0.999) as u64,
            max_ns: s.max_nanos,
        }
    }
}

// --------------------------------------------------------- introspection

/// The structured snapshot served by the `Introspect` wire op: live
/// counters, queue/pool occupancy, cache sizes, and the per-phase
/// latency breakdown.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct IntrospectSnapshot {
    /// Service counters at the moment of the probe.
    pub stats: StatsSnapshot,
    /// Requests currently waiting in the scheduler queue.
    pub queue_depth: u32,
    /// The queue's bound.
    pub queue_capacity: u32,
    /// Worker pool size.
    pub workers: u32,
    /// Maximum coalesced batch size.
    pub max_batch: u32,
    /// Cached Galois key sets.
    pub key_cache_len: u32,
    /// Cached matrices.
    pub matrix_cache_len: u32,
    /// Threads in the shared compute pool (0 = inline execution).
    pub pool_threads: u32,
    /// Tasks the compute pool has executed.
    pub pool_tasks: u64,
    /// Tasks obtained by work stealing.
    pub pool_steals: u64,
    /// Request traces currently held by the flight recorder.
    pub flight_traces: u32,
    /// Request traces evicted from the flight recorder ring so far.
    pub flight_dropped: u64,
    /// Operator-assigned node id (`0` = unset) — distinguishes a fleet
    /// of `cham-serve-top` reports.
    pub node_id: u64,
    /// The ring slot this server serves (`0` when standalone — check
    /// `shard_count` to tell the difference).
    pub shard_index: u32,
    /// Total ring slots in the server's cluster (`0` = standalone).
    pub shard_count: u32,
    /// Resolved SIMD backend code (`cham_math::Backend::code`):
    /// 0 = scalar, 1 = avx2, 2 = neon.
    pub simd_backend: u32,
    /// Lane width of the resolved backend (1 = scalar fallback).
    pub simd_lanes: u32,
    /// Elements processed by vector kernels since process start
    /// (`cham_math.simd.dispatch` counter family).
    pub simd_vector_elems: u64,
    /// Elements handled by scalar tails/fallback since process start.
    pub simd_tail_elems: u64,
    /// Per-phase latency summaries (phases with at least one sample).
    pub phases: Vec<PhaseStat>,
}

impl IntrospectSnapshot {
    /// Renders the snapshot as a JSON object — the schema the CI
    /// introspection check validates and `cham-serve-top --json` emits.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        let s = &self.stats;
        let stats = JsonValue::Object(vec![
            ("accepted".into(), s.accepted.into()),
            ("rejected_busy".into(), s.rejected_busy.into()),
            ("timed_out".into(), s.timed_out.into()),
            ("completed".into(), s.completed.into()),
            ("failed".into(), s.failed.into()),
            ("batches".into(), s.batches.into()),
            ("batch_requests".into(), s.batch_requests.into()),
            ("peak_queue_depth".into(), s.peak_queue_depth.into()),
            ("internal_errors".into(), s.internal_errors.into()),
            ("rejected_shutdown".into(), s.rejected_shutdown.into()),
            ("faults_injected".into(), s.faults_injected.into()),
            ("reaped_uploads".into(), s.reaped_uploads.into()),
            ("vectored_writes".into(), s.vectored_writes.into()),
            ("gathered_parts".into(), s.gathered_parts.into()),
        ]);
        let phases = JsonValue::Array(
            self.phases
                .iter()
                .map(|p| {
                    JsonValue::Object(vec![
                        ("name".into(), JsonValue::from(p.name.as_str())),
                        ("count".into(), p.count.into()),
                        ("sum_ns".into(), p.sum_ns.into()),
                        ("p50_ns".into(), p.p50_ns.into()),
                        ("p99_ns".into(), p.p99_ns.into()),
                        ("p999_ns".into(), p.p999_ns.into()),
                        ("max_ns".into(), p.max_ns.into()),
                    ])
                })
                .collect(),
        );
        JsonValue::Object(vec![
            ("schema".into(), JsonValue::from("cham-introspect/v1")),
            ("stats".into(), stats),
            ("queue_depth".into(), u64::from(self.queue_depth).into()),
            (
                "queue_capacity".into(),
                u64::from(self.queue_capacity).into(),
            ),
            ("workers".into(), u64::from(self.workers).into()),
            ("max_batch".into(), u64::from(self.max_batch).into()),
            ("key_cache_len".into(), u64::from(self.key_cache_len).into()),
            (
                "matrix_cache_len".into(),
                u64::from(self.matrix_cache_len).into(),
            ),
            ("pool_threads".into(), u64::from(self.pool_threads).into()),
            ("pool_tasks".into(), self.pool_tasks.into()),
            ("pool_steals".into(), self.pool_steals.into()),
            ("flight_traces".into(), u64::from(self.flight_traces).into()),
            ("flight_dropped".into(), self.flight_dropped.into()),
            ("node_id".into(), self.node_id.into()),
            ("shard_index".into(), u64::from(self.shard_index).into()),
            ("shard_count".into(), u64::from(self.shard_count).into()),
            ("simd_backend".into(), u64::from(self.simd_backend).into()),
            ("simd_lanes".into(), u64::from(self.simd_lanes).into()),
            ("simd_vector_elems".into(), self.simd_vector_elems.into()),
            ("simd_tail_elems".into(), self.simd_tail_elems.into()),
            ("phases".into(), phases),
        ])
    }

    /// The phase summary named `name`, if present.
    #[must_use]
    pub fn phase(&self, name: &str) -> Option<&PhaseStat> {
        self.phases.iter().find(|p| p.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let s = ServeStats::new();
        s.on_accepted(3);
        s.on_accepted(1);
        s.on_rejected_busy();
        s.on_timed_out();
        s.on_batch(4);
        s.on_batch(2);
        s.on_completed(5);
        s.on_failed(1);
        s.on_internal_error(2);
        s.on_rejected_shutdown();
        s.on_fault_injected();
        s.on_fault_injected();
        s.on_fault_injected();
        s.on_reaped_uploads(2);
        s.on_vectored_write(3);
        s.on_vectored_write(1);
        let snap = s.snapshot();
        assert_eq!(snap.accepted, 2);
        assert_eq!(snap.rejected_busy, 1);
        assert_eq!(snap.timed_out, 1);
        assert_eq!(snap.completed, 5);
        assert_eq!(snap.failed, 1);
        assert_eq!(snap.batches, 2);
        assert_eq!(snap.batch_requests, 6);
        assert_eq!(snap.peak_queue_depth, 3);
        assert_eq!(snap.internal_errors, 2);
        assert_eq!(snap.rejected_shutdown, 1);
        assert_eq!(snap.faults_injected, 3);
        assert_eq!(snap.reaped_uploads, 2);
        assert_eq!(snap.vectored_writes, 2);
        assert_eq!(snap.gathered_parts, 4);
        assert!((snap.avg_batch_size() - 3.0).abs() < f64::EPSILON);
        assert_eq!(StatsSnapshot::default().avg_batch_size(), 0.0);
    }

    #[test]
    fn phase_histograms_fold_requests_and_snapshot_in_order() {
        let h = PhaseHistograms::new();
        let phases = vec![
            PhaseSpan {
                name: phase::QUEUE,
                start_ns: 0,
                dur_ns: 100,
                count: 1,
            },
            PhaseSpan {
                name: phase::DOT,
                start_ns: 100,
                dur_ns: 900,
                count: 4,
            },
            PhaseSpan {
                name: "unknown_phase",
                start_ns: 1000,
                dur_ns: 5,
                count: 1,
            },
        ];
        h.record_request(&phases, 1000);
        h.record_request(&phases, 1200);
        h.record_matrix_encode(50);
        let snap = h.snapshot();
        let names: Vec<&str> = snap.iter().map(|p| p.name.as_str()).collect();
        // Canonical order, only phases with samples, unknowns dropped.
        assert_eq!(
            names,
            vec![phase::QUEUE, phase::DOT, PHASE_TOTAL, PHASE_MATRIX_ENCODE]
        );
        let dot = &snap[1];
        assert_eq!(dot.count, 2);
        assert_eq!(dot.sum_ns, 1800);
        assert!(
            dot.p50_ns >= 512 && dot.p50_ns <= 1024,
            "p50 {}",
            dot.p50_ns
        );
        assert_eq!(dot.max_ns, 900);
    }

    #[test]
    fn introspect_snapshot_renders_schema_json() {
        let h = PhaseHistograms::new();
        h.record_request(
            &[PhaseSpan {
                name: phase::ENCODE,
                start_ns: 0,
                dur_ns: 10,
                count: 1,
            }],
            10,
        );
        let snap = IntrospectSnapshot {
            stats: StatsSnapshot {
                accepted: 4,
                completed: 4,
                ..StatsSnapshot::default()
            },
            queue_depth: 1,
            queue_capacity: 64,
            workers: 2,
            max_batch: 8,
            phases: h.snapshot(),
            ..IntrospectSnapshot::default()
        };
        let json = snap.to_json();
        assert_eq!(
            json.get("schema").and_then(JsonValue::as_str),
            Some("cham-introspect/v1")
        );
        assert_eq!(
            json.get("stats")
                .and_then(|s| s.get("accepted"))
                .and_then(JsonValue::as_u64),
            Some(4)
        );
        let phases = json.get("phases").and_then(JsonValue::as_array).unwrap();
        assert_eq!(phases.len(), 2); // encode + total
        assert_eq!(
            phases[0].get("name").and_then(JsonValue::as_str),
            Some(phase::ENCODE)
        );
        assert!(snap.phase(phase::ENCODE).is_some());
        assert!(snap.phase(phase::DOT).is_none());
        // Node identity renders additively (zeros on a standalone node).
        assert_eq!(json.get("node_id").and_then(JsonValue::as_u64), Some(0));
        assert_eq!(json.get("shard_count").and_then(JsonValue::as_u64), Some(0));
        // The rendered JSON parses back (round-trip through the parser).
        let text = json.to_string();
        assert!(JsonValue::parse(&text).is_ok());
    }
}
