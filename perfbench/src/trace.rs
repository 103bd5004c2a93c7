//! Spans the traced run records around the benchmark's own calls into
//! each layer. Kept in memory as a Chrome trace; written out at exit.

use cham_telemetry::trace::ChromeTrace;
use cham_telemetry::JsonValue;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Completed spans, one Chrome-trace complete event each: the track is
/// the request, and the args carry the span's id, its parent (`0` =
/// none) and the request id shared by every span of one operation.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<ChromeTrace>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(ChromeTrace::new()),
        }
    }
}

impl Tracer {
    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// A fresh span (and request) id.
    pub fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Runs `f` inside a span; `f` receives the span's id for its children.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: u64,
        request: u64,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        let id = self.id();
        let start_us = self.now_us();
        let out = f(id);
        let end_us = self.now_us();
        let args = vec![
            ("id".to_string(), JsonValue::UInt(id)),
            ("parent".to_string(), JsonValue::UInt(parent)),
            ("request".to_string(), JsonValue::UInt(request)),
        ];
        self.spans.lock().expect("span list poisoned").complete(
            request,
            name,
            "perfbench",
            start_us,
            end_us - start_us,
            args,
        );
        out
    }

    /// Writes every span to `path` as Chrome-trace JSON.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        self.spans.lock().expect("span list poisoned").write(path)
    }
}

/// Runs `f` in a span when tracing, bare otherwise.
pub fn span<T>(
    tracer: Option<&Tracer>,
    name: &'static str,
    parent: u64,
    request: u64,
    f: impl FnOnce(u64) -> T,
) -> T {
    match tracer {
        Some(t) => t.span(name, parent, request, f),
        None => f(0),
    }
}
