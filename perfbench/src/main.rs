//! `perfbench` — the repository's end-to-end benchmark: verified HMVP
//! serving at the paper's parameters (`ChamParams::cham_default()`,
//! N = 4096), driven through the real stack in one process.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload tall|wide|churn --seed N --seconds S --trace 0|1 [--slow-batch-ms D]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` makes the
//! separate traced run that yields the per-layer ledger. The last line
//! of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! `--slow-batch-ms D` arms the server's seeded `slow_batch` fault (every
//! batch sleeps up to `D` ms) — the sensitivity check, not a workload.

mod drive;
mod ledger;
mod stack;
mod stats;
mod trace;
mod workload;

use cham_serve::{FaultConfig, FaultInjector};
use drive::{Ctx, Kind, Phase};
use stack::Stack;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;
use workload::Workload;

/// The untraced run is cut into this many slices, each [closed loop →
/// part of the open-loop schedule], so every metric samples the whole run
/// rather than one stretch of a host whose speed drifts.
const SLICES: usize = 4;
/// Throw-away set-ups before the measured stack starts and again after
/// it stops; with its own set-up, `setup_s` is the median of
/// `1 + 2 × BRACKET_SETUPS`.
const BRACKET_SETUPS: usize = 4;
/// Fresh-matrix uploads after each set-up of `tall` and `wide`, which
/// upload nothing during traffic, so `upload_p50_ms` has samples there.
const EXTRA_UPLOADS: usize = 2;
/// Open-loop sender connections: enough that arrivals at a third of
/// capacity never wait for a free sender.
const SENDERS: usize = 8;
/// Share of the run the closed loop takes; the open loop gets the rest.
const CLOSED_SHARE: f64 = 0.25;
/// Where segment stores and span dumps go, relative to the checkout.
const WORK_DIR: &str = ".bench_work";

pub struct Args {
    pub wl: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub slow_batch_ms: Option<u64>,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload tall|wide|churn --seed N --seconds S --trace 0|1 \
         [--slow-batch-ms D]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut it = std::env::args().skip(1);
    let (mut wl, mut seed, mut seconds, mut trace, mut slow) = (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        let bad = || -> String { format!("bad value for {flag}: {value}") };
        match flag.as_str() {
            "--workload" => wl = Some(workload::find(&value).unwrap_or_else(|| usage(&bad()))),
            "--seed" => seed = Some(value.parse::<u64>().unwrap_or_else(|_| usage(&bad()))),
            "--seconds" => seconds = Some(value.parse::<f64>().unwrap_or_else(|_| usage(&bad()))),
            "--trace" => trace = Some(value == "1"),
            "--slow-batch-ms" => {
                slow = Some(value.parse::<u64>().unwrap_or_else(|_| usage(&bad())))
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or_else(|| usage("--seconds is required"));
    if seconds.is_nan() || seconds <= 0.0 {
        usage("--seconds must be positive");
    }
    Args {
        wl: wl.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds,
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
        slow_batch_ms: slow,
    }
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The run's outcome, printed as the final JSON line.
pub struct Report {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
}

impl Report {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                // JSON has no infinity: a latency that every sample failed
                // is reported as a day and a half.
                let v = if m.value.is_finite() { m.value } else { 1.0e8 };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The server fault harness for the sensitivity check.
pub fn faults(args_seed: u64, slow_batch_ms: Option<u64>) -> Option<Arc<FaultInjector>> {
    slow_batch_ms.map(|ms| {
        Arc::new(FaultInjector::new(FaultConfig {
            seed: args_seed,
            slow_batch: 1.0,
            delay_max_ms: ms,
            ..FaultConfig::default()
        }))
    })
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The checked-out commit, read from `.git` in the working directory
/// (no `git` process, nothing outside the checkout); `none` elsewhere.
fn git_sha() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let resolve = |head: String| match head.trim().strip_prefix("ref: ") {
        None => Some(head.trim().to_string()),
        Some(name) => read(name).map(|s| s.trim().to_string()).or_else(|| {
            read("packed-refs")?
                .lines()
                .find_map(|l| l.strip_suffix(name).map(|sha| sha.trim().to_string()))
        }),
    };
    read("HEAD")
        .and_then(resolve)
        .unwrap_or_else(|| "none".to_string())
}

fn print_fingerprint(args: &Args, workers: usize) {
    let backend = cham_math::Backend::active();
    let pool = cham_pool::current_threads();
    println!(
        "fingerprint: git_sha={} simd={} lanes={} nproc={} pool_threads={pool} \
         server_workers={} params=cham_default(N=4096,q0=2^34+2^27+1,q1=2^34+2^19+1,\
         p=2^38+2^23+1,t=65537) workload={} seed={} seconds={} open_rate={}/s trace={} \
         slow_batch_ms={}",
        git_sha(),
        backend.name(),
        backend.lanes(),
        nproc(),
        workers,
        args.wl.name,
        args.seed,
        args.seconds,
        args.wl.open_rate,
        u8::from(args.trace),
        args.slow_batch_ms
            .map_or("off".to_string(), |d| d.to_string()),
    );
}

pub fn print_phase(name: &str, p: &Phase) {
    println!(
        "phase {name}: attempted={} succeeded={} failed={} wrong={} wall={:.3}s",
        p.samples.len(),
        p.succeeded(),
        p.failed(),
        p.wrong(),
        p.wall_s
    );
}

/// Open-loop arrivals in a run of `seconds` spending `share` of it there.
pub fn arrivals(wl: &Workload, seconds: f64, share: f64) -> usize {
    ((wl.open_rate * seconds * share).round() as usize).max(1)
}

/// The untraced run: one long-lived stack driven in `SLICES` slices by
/// the same clients throughout, bracketed by throw-away set-ups.
fn measure(args: &Args, workers: usize) -> Report {
    let wl = args.wl;
    let work = Path::new(WORK_DIR).join(format!("run-{}", std::process::id()));
    let extra = if wl.churn { 0 } else { EXTRA_UPLOADS };
    let mut setups = Vec::new();
    let mut uploads = Vec::new();
    let mut set_up = |dir: &str| {
        let faults = faults(args.seed, args.slow_batch_ms);
        let (stack, r) = Stack::start(wl, args.seed, workers, faults, extra, &work.join(dir));
        setups.push(r.seconds);
        if !wl.churn {
            uploads.extend(r.upload_ms);
        }
        stack
    };
    // Throw-away stacks run only while no other is up, so `peak_rss_mb`
    // (read before the post-run ones) sees one stack and its clients.
    for i in 0..BRACKET_SETUPS {
        set_up(&format!("pre{i}")).shutdown();
    }
    let stack = set_up("main");
    let queries = workload::queries(wl, args.seed, &stack.hmvp, &stack.enc);
    stack.precompute_expected(&queries);
    let ctx = Ctx {
        wl,
        stack: &stack,
        queries: &queries,
        tracer: None,
    };
    let count = arrivals(wl, args.seconds, 1.0 - CLOSED_SHARE);
    let schedule = workload::open_schedule(wl, args.seed, count);
    let per_slice = count.div_ceil(SLICES);
    let closed_dur = Duration::from_secs_f64(args.seconds * CLOSED_SHARE / SLICES as f64);
    // One set of long-lived clients, as a real caller keeps them: what
    // they hold (e.g. replay copies of uploads) grows over the whole run.
    let mut closed_clients = stack.clients(args.seed, workload::tag::CLOSED, nproc());
    let mut senders = stack.clients(args.seed, workload::tag::OPEN, SENDERS);
    let mut closed = Phase::default();
    let mut open = Phase::default();
    for (slice, part) in schedule.chunks(per_slice).enumerate() {
        let stream = workload::tag::CLOSED + 10 * slice as u64;
        closed.absorb(drive::closed_loop(
            &ctx,
            args.seed,
            stream,
            &mut closed_clients,
            closed_dur,
        ));
        // Each part of the schedule starts when its slice does.
        let offset = slice
            .checked_sub(1)
            .map_or(0.0, |_| schedule[slice * per_slice - 1].0);
        let part: Vec<_> = part.iter().map(|&(due, op)| (due - offset, op)).collect();
        open.absorb(drive::open_loop(&ctx, &part, &mut senders));
    }
    let peak_rss = peak_rss_mb();
    drop((closed_clients, senders));
    stack.shutdown();
    for i in 0..BRACKET_SETUPS {
        set_up(&format!("post{i}")).shutdown();
    }
    let _ = std::fs::remove_dir_all(&work);

    print_phase("closed", &closed);
    print_phase("open", &open);
    if wl.churn {
        uploads = [&closed, &open]
            .iter()
            .flat_map(|p| p.latencies(Kind::Upload))
            .collect();
    }
    let throughput = closed.succeeded() as f64 / closed.wall_s;
    let lat = open.latencies(Kind::Hmvp);
    let late: Vec<f64> = open.samples.iter().map(|s| s.late_ms).collect();
    let attempted = closed.samples.len() + open.samples.len();
    let failed = closed.failed() + open.failed();
    // Printed, not gated: on `tall` its run-to-run spread is wider than
    // the largest bound a metric may have (see perfbench/README.md).
    println!(
        "latency_p90_ms {:.4} ms: open-loop HMVP latency, {} samples at {}/s, {} beyond p90; \
         highest supported percentile: {}",
        stats::percentile(&lat, 0.9).unwrap_or(f64::INFINITY),
        lat.len(),
        wl.open_rate,
        stats::beyond(lat.len(), 0.9),
        stats::highest_supported(lat.len(), &[0.5, 0.9, 0.99, 0.999])
            .map_or("none".to_string(), |p| format!("p{}", p * 100.0)),
    );
    if let (Some((q1, q3)), Some(mid)) = (stats::quartiles(&lat), stats::median(&lat)) {
        println!("open-loop HMVP latency quartiles: {q1:.3} / {mid:.3} / {q3:.3} ms");
    }
    println!(
        "upload latency: {} samples ({})",
        uploads.len(),
        if wl.churn {
            "churn traffic"
        } else {
            "after each set-up"
        }
    );
    println!(
        "error_rate: {} ({failed} of {attempted}); gen.late_p90_ms: {:.3}; set-ups: {setups:.3?} s",
        failed as f64 / attempted as f64,
        stats::percentile(&late, 0.9).unwrap_or(0.0),
    );
    Report {
        correct: closed.wrong() + open.wrong() == 0,
        attempted,
        failed,
        metrics: vec![
            metric("throughput_rps", throughput, "ops/s"),
            metric(
                "latency_p50_ms",
                stats::median(&lat).unwrap_or(f64::INFINITY),
                "ms",
            ),
            metric(
                "upload_p50_ms",
                stats::median(&uploads).unwrap_or(f64::INFINITY),
                "ms",
            ),
            metric("setup_s", stats::median(&setups).expect("set-ups ran"), "s"),
            metric("peak_rss_mb", peak_rss, "MiB"),
        ],
    }
}

fn main() {
    let args = parse_args();
    let workers = nproc();
    cham_pool::configure_global(workers);
    print_fingerprint(&args, workers);
    let report = if args.trace {
        ledger::traced(&args, workers)
    } else {
        measure(&args, workers)
    };
    for m in &report.metrics {
        println!("metric {:<26} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!("{}", report.json());
}
