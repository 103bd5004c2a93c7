//! The traced run: the per-layer ledger, built only from outside the
//! program — spans around the benchmark's own calls, the counters each
//! crate already exposes, and direct timings of each layer's public
//! functions on the workload's own shape.

use crate::drive::{self, Ctx, Kind, Phase};
use crate::stack::{ServerView, Stack};
use crate::trace::Tracer;
use crate::workload::{self, tag};
use crate::{metric, stats, Args, Metric, Report, SENDERS, WORK_DIR};
use cham_he::ops;
use cham_he::{extract, pack, wire};
use cham_math::{Modulus, NttTable};
use cham_serve::SegmentStore;
use cham_sim::pipeline::HmvpCycleModel;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Shares of `--seconds` the traced run gives each phase: an untraced
/// closed loop (the overhead baseline, split before and after the traced
/// phases so drift cancels), a traced closed loop, a traced open loop.
const UNTRACED_SHARE: f64 = 0.2;
const TRACED_CLOSED_SHARE: f64 = 0.2;
const TRACED_OPEN_SHARE: f64 = 0.4;
/// One-at-a-time requests the ledger reconciles against direct timings.
const SERIAL_REQUESTS: usize = 12;
/// The serve phases must sum to `serve.total_ms` within this share.
const COVERAGE_TOL: f64 = 0.10;
/// Directly timed `cham-he` calls must match the idle server's compute
/// phases within this share; run-to-run noise of single calls on a
/// shared 2-vCPU host is about ±15%.
const COMPUTE_TOL: f64 = 0.25;

/// The serve phases that partition one request's server time.
const PHASES: [&str; 7] = [
    "queue",
    "batch",
    "encode",
    "dot",
    "keyswitch",
    "rescale",
    "serialize",
];

/// Change of one introspection phase between two views, summed over nodes.
fn phase_delta(a: &ServerView, b: &ServerView, name: &str) -> (f64, u64) {
    let get = |v: &ServerView, i: usize| {
        v.introspect[i]
            .phase(name)
            .map_or((0, 0), |p| (p.sum_ns, p.count))
    };
    (0..b.introspect.len()).fold((0.0, 0), |(ns, n), i| {
        let (s0, c0) = get(a, i);
        let (s1, c1) = get(b, i);
        (ns + (s1 - s0) as f64, n + (c1 - c0))
    })
}

/// Mean per request of a phase between two views, in ms.
fn phase_ms(a: &ServerView, b: &ServerView, name: &str) -> f64 {
    let (ns, n) = phase_delta(a, b, name);
    if n == 0 {
        0.0
    } else {
        ns / n as f64 / 1e6
    }
}

fn stat_delta(
    a: &ServerView,
    b: &ServerView,
    f: impl Fn(&cham_serve::StatsSnapshot) -> u64,
) -> u64 {
    a.introspect
        .iter()
        .zip(&b.introspect)
        .map(|(x, y)| f(&y.stats) - f(&x.stats))
        .sum()
}

/// Median wall time of `reps` calls, in ms.
fn time_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    stats::median(&times).expect("reps > 0")
}

struct Counters {
    at: Instant,
    pool: cham_pool::PoolStats,
    simd: (u64, u64),
    flushes: u64,
}

impl Counters {
    fn now() -> Self {
        Self {
            at: Instant::now(),
            pool: cham_pool::global_stats().expect("the pool ran set-up"),
            simd: cham_math::simd_stats().totals(),
            flushes: cham_math::modulus::lazy_flush_count(),
        }
    }
}

fn throughput(p: &Phase) -> f64 {
    p.succeeded() as f64 / p.wall_s
}

/// Serial requests, each followed by the same work timed directly —
/// `dot_products_parallel`, `pack_lwes` and `multiply_parallel` on the
/// request's shape — so both sides of the reconciliation meet the same
/// host state.
fn alternate(ctx: &Ctx<'_>, tracer: &Tracer, seed: u64) -> (Phase, Vec<Metric>) {
    let stack = ctx.stack;
    let params = &*stack.params;
    let hmvp = &stack.hmvp;
    let encoded = hmvp
        .encode_matrix(&stack.catalog.latest().matrix)
        .expect("encode");
    let cts = &ctx.queries[0].cts;
    let threads = stack.batch_threads;
    let req = tracer.id();
    let (mut dots, mut packs, mut mults) = (Vec::new(), Vec::new(), Vec::new());
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
    let serial = drive::serial(ctx, seed, SERIAL_REQUESTS, || {
        let lwes = tracer.span("he.dot_products_parallel", 0, req, |_| {
            let t = Instant::now();
            let lwes = black_box(hmvp.dot_products_parallel(&encoded, cts, threads)).expect("dot");
            dots.push(ms(t));
            lwes
        });
        tracer.span("he.pack_lwes", 0, req, |_| {
            let t = Instant::now();
            black_box(pack::pack_lwes(&lwes, &stack.gkeys, params)).expect("pack");
            packs.push(ms(t));
        });
        tracer.span("he.multiply_parallel", 0, req, |_| {
            let t = Instant::now();
            black_box(hmvp.multiply_parallel(&encoded, cts, &stack.gkeys, threads))
                .expect("multiply");
            mults.push(ms(t));
        });
    });
    let med = |v: &[f64]| stats::median(v).expect("serial requests ran");
    let m = vec![
        metric("he.dot_products_ms", med(&dots), "ms"),
        metric("he.pack_ms", med(&packs), "ms"),
        metric("he.multiply_ms", med(&mults), "ms"),
    ];
    (serial, m)
}

/// Direct timings of each layer's public functions on the workload's shape.
fn direct(ctx: &Ctx<'_>, tracer: &Tracer, work: &Path) -> Vec<Metric> {
    let stack = ctx.stack;
    let params = &*stack.params;
    let hmvp = &stack.hmvp;
    let resident = stack.catalog.latest();
    let cts = &ctx.queries[0].cts;
    let threads = stack.batch_threads;
    let req = tracer.id();
    let timed = |name: &'static str, reps: usize, f: &mut dyn FnMut()| {
        tracer.span(name, 0, req, |_| time_ms(reps, f))
    };

    let encoded = hmvp.encode_matrix(&resident.matrix).expect("encode");
    let encode_ms = timed("he.encode_matrix", 5, &mut || {
        black_box(
            hmvp.encode_matrix(black_box(&resident.matrix))
                .expect("encode"),
        );
    });
    // The path a node takes before queueing a request whose matrix has
    // left its RAM cache: read the segment, decode the NTT-form matrix.
    let store = SegmentStore::open(work.join("restore"), 0).expect("store opens");
    let bytes = wire::encoded_matrix_to_bytes(&encoded).expect("encoded matrix serializes");
    store.put(resident.id, &bytes).expect("segment writes");
    let restore_ms = timed("serve.store.restore", 11, &mut || {
        let bytes = store.get(black_box(resident.id)).expect("segment reads");
        black_box(wire::encoded_matrix_from_bytes(&bytes, params).expect("matrix decodes"));
    });
    let mut aug = cts[0].clone();
    aug.to_ntt();
    let rescale_us = 1e3
        * timed("he.ops.rescale", 31, &mut || {
            black_box(ops::rescale(black_box(&aug), params).expect("rescale"));
        });
    let rescaled = ops::rescale(&aug, params).expect("rescale");
    let extract_us = 1e3
        * timed("he.extract_lwe", 101, &mut || {
            black_box(extract::extract_lwe(black_box(&rescaled), 0).expect("extract"));
        });
    let result = hmvp
        .multiply_parallel(&encoded, cts, &stack.gkeys, threads)
        .expect("multiply");
    let decrypt_ms = timed("he.decrypt_result", 11, &mut || {
        black_box(hmvp.decrypt_result(&result, &stack.dec).expect("decrypt"));
    });
    let frames: Vec<Vec<u8>> = cts.iter().map(wire::rlwe_to_bytes).collect();
    let wire_encode_ms = timed("he.wire.rlwe_to_bytes", 11, &mut || {
        black_box(cts.iter().map(wire::rlwe_to_bytes).collect::<Vec<_>>());
    });
    let wire_decode_ms = timed("he.wire.rlwe_from_bytes", 11, &mut || {
        for f in &frames {
            black_box(wire::rlwe_from_bytes(f, params).expect("decode"));
        }
    });

    let q0 = params.ciphertext_context().moduli()[0].value();
    let table = NttTable::new(params.degree(), Modulus::new(q0).expect("q0")).expect("table");
    let mut limb: Vec<u64> = (0..params.degree() as u64).map(|i| i * 7919 % q0).collect();
    let ntt_fwd_us = 1e3
        * timed("math.ntt.forward", 201, &mut || {
            table.forward(black_box(&mut limb));
        });
    let ntt_inv_us = 1e3
        * timed("math.ntt.inverse", 201, &mut || {
            table.inverse(black_box(&mut limb));
        });

    vec![
        metric("he.encode_matrix_ms", encode_ms, "ms"),
        metric("store.restore_ms", restore_ms, "ms"),
        metric("he.rescale_us_per_row", rescale_us, "us"),
        metric("he.extract_us", extract_us, "us"),
        metric("he.decrypt_ms", decrypt_ms, "ms"),
        metric("he.wire_encode_ms", wire_encode_ms, "ms"),
        metric("he.wire_decode_ms", wire_decode_ms, "ms"),
        metric("math.ntt_fwd_us", ntt_fwd_us, "us"),
        metric("math.ntt_inv_us", ntt_inv_us, "us"),
    ]
}

fn value(ms: &[Metric], name: &str) -> f64 {
    ms.iter()
        .find(|m| m.name == name)
        .map_or(f64::NAN, |m| m.value)
}

/// The traced run: untraced closed loop → traced closed loop → traced
/// open loop → untraced closed loop → serial requests alternating with
/// direct timings → the other direct timings → reconciliation.
pub fn traced(args: &Args, workers: usize) -> Report {
    let wl = args.wl;
    let seed = args.seed;
    let work = Path::new(WORK_DIR).join(format!("trace-{}", std::process::id()));
    let faults = crate::faults(seed, args.slow_batch_ms);
    let (stack, _) = Stack::start(wl, seed, workers, faults, 0, &work.join("s0"));
    let queries = workload::queries(wl, seed, &stack.hmvp, &stack.enc);
    stack.precompute_expected(&queries);
    let tracer = Tracer::default();
    let plain = Ctx {
        wl,
        stack: &stack,
        queries: &queries,
        tracer: None,
    };
    let traced = Ctx {
        tracer: Some(&tracer),
        ..plain
    };
    let secs = |share: f64| Duration::from_secs_f64(args.seconds * share);
    let clients = |stream: u64| stack.clients(seed, stream, crate::nproc());

    let before = drive::closed_loop(
        &plain,
        seed,
        tag::CLOSED,
        &mut clients(tag::CLOSED),
        secs(UNTRACED_SHARE / 2.0),
    );
    let (v0, c0) = (stack.view(), Counters::now());
    let closed = drive::closed_loop(
        &traced,
        seed,
        tag::CLOSED + 50,
        &mut clients(tag::CLOSED + 50),
        secs(TRACED_CLOSED_SHARE),
    );
    let schedule = workload::open_schedule(
        wl,
        seed ^ 0x7ace,
        crate::arrivals(wl, args.seconds, TRACED_OPEN_SHARE),
    );
    let open = drive::open_loop(
        &traced,
        &schedule,
        &mut stack.clients(seed, tag::OPEN, SENDERS),
    );
    let (v1, c1) = (stack.view(), Counters::now());
    let after = drive::closed_loop(
        &plain,
        seed,
        tag::CLOSED + 25,
        &mut clients(tag::CLOSED + 25),
        secs(UNTRACED_SHARE / 2.0),
    );
    let v_serial = stack.view();
    let (serial, mut direct) = alternate(&traced, &tracer, seed);
    let v2 = stack.view();
    direct.extend(self::direct(&traced, &tracer, &work));
    let trace_path = Path::new(WORK_DIR)
        .join("traces")
        .join(format!("{}-{}.json", wl.name, seed));
    if let Err(e) = tracer.write(&trace_path) {
        eprintln!("perfbench: writing {}: {e}", trace_path.display());
    }
    stack.shutdown();
    let _ = std::fs::remove_dir_all(&work);

    for (name, p) in [
        ("untraced-closed-before", &before),
        ("traced-closed", &closed),
        ("traced-open", &open),
        ("untraced-closed-after", &after),
        ("serial", &serial),
    ] {
        crate::print_phase(name, p);
    }

    // Loaded ledger: the traced closed and open loops together.
    let loaded: Vec<&drive::Sample> = closed.samples.iter().chain(&open.samples).collect();
    let mut m: Vec<Metric> = Vec::new();
    let mut phase_sum = 0.0;
    for name in PHASES {
        let v = phase_ms(&v0, &v1, name);
        phase_sum += v;
        m.push(metric(serve_name(name), v, "ms"));
    }
    let total_ms = phase_ms(&v0, &v1, "total");
    let hmvp_calls: Vec<f64> = loaded
        .iter()
        .filter(|s| s.kind == Kind::Hmvp && s.ok)
        .map(|s| s.call_ms)
        .collect();
    let client_ms = hmvp_calls.iter().sum::<f64>() / hmvp_calls.len().max(1) as f64;
    let batches = stat_delta(&v0, &v1, |s| s.batches);
    let counters = {
        let mut c = closed.counters;
        c += open.counters;
        c
    };
    let wall_ns = (c1.at - c0.at).as_secs_f64() * 1e9;
    let pool_threads = c1.pool.threads as f64;
    let late: Vec<f64> = open.samples.iter().map(|s| s.late_ms).collect();
    let phases = [&before, &closed, &open, &after, &serial];
    let attempted: usize = phases.iter().map(|p| p.samples.len()).sum();
    let failed: usize = phases.iter().map(|p| p.failed()).sum();
    let wrong: usize = phases.iter().map(|p| p.wrong()).sum();
    let cycles = HmvpCycleModel::cham().hmvp_cycles(wl.rows, wl.cols);
    m.extend([
        metric("serve.total_ms", total_ms, "ms"),
        metric("serve.outside_ms", client_ms - total_ms, "ms"),
        metric("serve.phase_coverage", phase_sum / total_ms, "ratio"),
        metric(
            "serve.avg_batch_size",
            stat_delta(&v0, &v1, |s| s.batch_requests) as f64 / batches.max(1) as f64,
            "requests",
        ),
        metric(
            "serve.peak_queue_depth",
            v1.introspect
                .iter()
                .map(|i| i.stats.peak_queue_depth)
                .max()
                .unwrap_or(0) as f64,
            "requests",
        ),
        metric(
            "serve.rejected_busy",
            stat_delta(&v0, &v1, |s| s.rejected_busy) as f64,
            "count",
        ),
        metric(
            "serve.timed_out",
            stat_delta(&v0, &v1, |s| s.timed_out) as f64,
            "count",
        ),
        metric(
            "serve.matrix_encodes",
            phase_delta(&v0, &v1, "matrix_encode").1 as f64,
            "count",
        ),
        metric(
            "store.hits",
            (v1.store_hits - v0.store_hits) as f64,
            "count",
        ),
        metric(
            "store.misses",
            (v1.store_misses - v0.store_misses) as f64,
            "count",
        ),
        metric(
            "store.restores",
            (v1.store_restores - v0.store_restores) as f64,
            "count",
        ),
        metric("cluster.requests", counters.requests as f64, "count"),
        metric("cluster.failovers", counters.failovers as f64, "count"),
        metric("cluster.refreshes", counters.refreshes as f64, "count"),
        metric("retry.retries", counters.retries as f64, "count"),
        metric("retry.reconnects", counters.reconnects as f64, "count"),
        metric("retry.reuploads", counters.reuploads as f64, "count"),
        metric(
            "retry.first_try_frac",
            loaded.iter().filter(|s| s.first_try).count() as f64 / loaded.len().max(1) as f64,
            "ratio",
        ),
    ]);
    m.extend(direct);
    m.extend([
        metric(
            "math.simd_vector_elems",
            (c1.simd.0 - c0.simd.0) as f64,
            "count",
        ),
        metric(
            "math.simd_tail_elems",
            (c1.simd.1 - c0.simd.1) as f64,
            "count",
        ),
        metric(
            "math.lazy_flushes",
            (c1.flushes - c0.flushes) as f64,
            "count",
        ),
        metric(
            "pool.tasks",
            (c1.pool.tasks - c0.pool.tasks) as f64,
            "count",
        ),
        metric(
            "pool.steals",
            (c1.pool.steals - c0.pool.steals) as f64,
            "count",
        ),
        metric(
            "pool.busy_frac",
            1.0 - (c1.pool.idle_ns - c0.pool.idle_ns) as f64 / (pool_threads * wall_ns),
            "ratio",
        ),
        metric(
            "trace.overhead_frac",
            1.0 - 2.0 * throughput(&closed) / (throughput(&before) + throughput(&after)),
            "ratio",
        ),
        metric("sim.hmvp_cycles", cycles.total_cycles as f64, "cycles"),
        metric("sim.stall_fraction", cycles.stall_fraction(), "ratio"),
        metric(
            "gen.late_p90_ms",
            stats::percentile(&late, 0.9).unwrap_or(0.0),
            "ms",
        ),
        metric("error_rate", failed as f64 / attempted as f64, "ratio"),
    ]);
    let loaded = Loaded {
        coverage: phase_sum / total_ms,
        outside_ms: total_ms - phase_sum,
        restores_per_request: (v1.store_restores - v0.store_restores) as f64
            / phase_delta(&v0, &v1, "total").1.max(1) as f64,
    };
    m.extend(reconcile(&loaded, &v_serial, &v2, &m));
    Report {
        correct: wrong == 0,
        attempted,
        failed,
        metrics: m,
    }
}

fn serve_name(phase: &str) -> &'static str {
    match phase {
        "queue" => "serve.queue_ms",
        "batch" => "serve.batch_ms",
        "encode" => "serve.encode_ms",
        "dot" => "serve.dot_ms",
        "keyswitch" => "serve.keyswitch_ms",
        "rescale" => "serve.rescale_ms",
        _ => "serve.serialize_ms",
    }
}

/// The server time of the traced loops that no serve phase covers.
struct Loaded {
    /// Serve phases ÷ `serve.total_ms`.
    coverage: f64,
    /// `serve.total_ms` minus the serve phases, per request.
    outside_ms: f64,
    /// Matrices restored from a segment store, per request.
    restores_per_request: f64,
}

/// Checks the ledger: under the traced loads and on the serial requests,
/// where nothing contends, the phases must cover the server total; on the
/// serial requests the directly timed `cham-he` calls must match the
/// server's compute phases.
fn reconcile(loaded: &Loaded, a: &ServerView, b: &ServerView, m: &[Metric]) -> Vec<Metric> {
    let phase = |n: &str| phase_ms(a, b, n);
    let covered: f64 = PHASES.iter().map(|p| phase(p)).sum();
    let coverage = covered / phase("total");
    let compute = phase("encode") + phase("dot") + phase("rescale") + phase("keyswitch");
    let compute_ratio = value(m, "he.multiply_ms") / compute;
    let dot_ratio =
        value(m, "he.dot_products_ms") / (phase("encode") + phase("dot") + phase("rescale"));
    let pack_ratio = value(m, "he.pack_ms") / phase("keyswitch");
    let within = |r: f64, tol: f64| (r - 1.0).abs() <= tol;
    let ok = within(loaded.coverage, COVERAGE_TOL)
        && within(coverage, COVERAGE_TOL)
        && within(compute_ratio, COMPUTE_TOL)
        && within(dot_ratio, COMPUTE_TOL)
        && within(pack_ratio, COMPUTE_TOL);
    println!(
        "ledger (traced loads): coverage {:.3} (tolerance ±{COVERAGE_TOL}); {:.3} ms per request \
         outside every phase; store restores {:.3} per request × store.restore_ms {:.3} = \
         {:.3} ms per request",
        loaded.coverage,
        loaded.outside_ms,
        loaded.restores_per_request,
        value(m, "store.restore_ms"),
        loaded.restores_per_request * value(m, "store.restore_ms"),
    );
    println!(
        "ledger (serial requests, ms per request): {}",
        PHASES
            .iter()
            .chain(&["total"])
            .map(|p| format!("{p}={:.3}", phase(p)))
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!(
        "ledger (serial requests): coverage {coverage:.3} (tolerance ±{COVERAGE_TOL}), \
         he.multiply/serve compute {compute_ratio:.3}, he.dot_products/serve encode+dot+rescale \
         {dot_ratio:.3}, he.pack/serve keyswitch {pack_ratio:.3} (tolerance ±{COMPUTE_TOL})"
    );
    println!(
        "ledger: {}",
        if ok {
            "reconciles"
        } else {
            "DOES NOT RECONCILE"
        }
    );
    vec![
        metric("ledger.coverage", coverage, "ratio"),
        metric("ledger.compute_ratio", compute_ratio, "ratio"),
        metric("ledger.dot_ratio", dot_ratio, "ratio"),
        metric("ledger.pack_ratio", pack_ratio, "ratio"),
        metric("ledger.reconciled", f64::from(u8::from(ok)), "bool"),
    ]
}
