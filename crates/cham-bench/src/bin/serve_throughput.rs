//! Serving throughput: batched multi-worker dispatch with the NTT-matrix
//! cache vs naive per-request dispatch.
//!
//! The naive baseline re-encodes the matrix to NTT form for every request
//! and multiplies serially — what a stateless per-request service would
//! do. The served path runs the real `cham-serve` stack end to end
//! (TCP loopback, framed protocol, content-addressed cache, bounded
//! batching scheduler, worker pool): the matrix is encoded once, requests
//! from concurrent clients coalesce into `multiply_many` batches.
//!
//! Every served result is decrypted and checked against the plain
//! reference product, so the speedup is measured over verified-correct
//! work. `--threads <n>` sets the worker pool size; the run record
//! (`--json`) carries the queue/batch telemetry of the served pass.

use cham_bench::BenchRun;
use cham_he::encrypt::{Decryptor, Encryptor};
use cham_he::hmvp::{Hmvp, Matrix};
use cham_he::keys::{GaloisKeys, SecretKey};
use cham_he::params::ChamParams;
use cham_serve::server::{Server, ServerConfig};
use cham_serve::{RetryClient, ServeClient};
use rand::Rng;
use std::sync::Arc;
use std::time::Instant;

// Wide and short: encoding the matrix to NTT form (rows × 64 column
// tiles of lifts) dominates one multiply (whose packing cost scales with
// rows only), so the served path's encode-once cache is the decisive
// advantage even on a single core. This mirrors the paper's serving
// shapes — HeteroLR matrices are wide (features ≫ batch rows) and reused
// across every iteration.
const ROWS: usize = 4;
const COLS: usize = 128 * 256;
const CLIENTS: usize = 3;
const PER_CLIENT: usize = 4;

fn main() {
    let mut run = BenchRun::from_env("serve_throughput");
    let workers = run.threads();
    let params = Arc::new(ChamParams::insecure_test_default().expect("test params"));
    let mut rng = cham_bench::bench_rng();
    let sk = SecretKey::generate(&params, &mut rng);
    let enc = Encryptor::new(&params, &sk);
    let dec = Decryptor::new(&params, &sk);
    let max_log = params.max_pack_log();
    let gkeys = GaloisKeys::generate_for_packing(&sk, max_log, &mut rng).expect("gk");
    let indices: Vec<usize> = (1..=max_log).map(|j| (1usize << j) + 1).collect();
    let hmvp = Hmvp::from_arc(Arc::clone(&params));
    let t = params.plain_modulus();
    let matrix = Matrix::random(ROWS, COLS, t.value(), &mut rng);
    let total = CLIENTS * PER_CLIENT;

    // Pre-encrypt all inputs so neither pass pays for encryption.
    let mut vectors = Vec::with_capacity(total);
    let mut inputs = Vec::with_capacity(total);
    for _ in 0..total {
        let v: Vec<u64> = (0..COLS).map(|_| rng.gen_range(0..t.value())).collect();
        let cts = hmvp.encrypt_vector(&v, &enc, &mut rng).expect("encrypt");
        vectors.push(v);
        inputs.push(cts);
    }

    let backend = cham_math::Backend::active();
    println!(
        "serve_throughput: {total} requests ({CLIENTS} clients x {PER_CLIENT}), \
         {ROWS}x{COLS} matrix, N = {}, {workers} worker(s), simd = {backend}",
        params.degree()
    );

    // --- Naive per-request dispatch: re-encode + serial multiply. ---
    let t0 = Instant::now();
    for (v, cts) in vectors.iter().zip(&inputs) {
        let em = hmvp.encode_matrix(&matrix).expect("encode");
        let result = hmvp.multiply(&em, cts, &gkeys).expect("multiply");
        let got = hmvp.decrypt_result(&result, &dec).expect("decrypt");
        assert_eq!(got, matrix.mul_vector_mod(v, t).expect("reference"));
    }
    let naive_seconds = t0.elapsed().as_secs_f64();
    println!(
        "naive per-request (re-encode + serial): {naive_seconds:.3} s \
         ({:.1} ms/request)",
        1e3 * naive_seconds / total as f64
    );

    // --- Served: real TCP stack, cache + batching + worker pool. ---
    let config = ServerConfig {
        workers,
        queue_capacity: total.max(8),
        max_batch: 8,
        ..ServerConfig::default()
    };
    let server = Server::start("127.0.0.1:0", Arc::clone(&params), &config).expect("server");
    let mut setup = ServeClient::connect(server.local_addr(), Arc::clone(&params)).expect("client");
    let key_id = setup.load_keys(&gkeys, &indices).expect("load keys");
    let matrix_id = setup.load_matrix(&matrix).expect("load matrix");

    // Clients go through `RetryClient` — the production-resilient path.
    // On this fault-free run its recovery counters must come back zero,
    // which the run record asserts is the steady-state cost of armor.
    let t1 = Instant::now();
    let retry_totals = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for c in 0..CLIENTS {
            let chunk: Vec<usize> = (0..PER_CLIENT).map(|i| c * PER_CLIENT + i).collect();
            let inputs = &inputs;
            let vectors = &vectors;
            let server = &server;
            let params = &params;
            let hmvp = &hmvp;
            let dec = &dec;
            let matrix = &matrix;
            handles.push(scope.spawn(move || {
                let mut client =
                    RetryClient::connect(server.local_addr().to_string(), Arc::clone(params))
                        .expect("client");
                for i in chunk {
                    let result = client
                        .hmvp(key_id, matrix_id, &inputs[i], None)
                        .expect("hmvp");
                    let got = hmvp.decrypt_result(&result, dec).expect("decrypt");
                    assert_eq!(got, matrix.mul_vector_mod(&vectors[i], t).expect("ref"));
                }
                client.stats()
            }));
        }
        let mut retries = 0u64;
        let mut recovered = 0u64;
        for h in handles {
            let s = h.join().expect("client thread");
            retries += s.retries;
            recovered += s.faults_recovered;
        }
        (retries, recovered)
    });
    let served_seconds = t1.elapsed().as_secs_f64();
    let introspect = server.introspect();
    let stats = server.shutdown();

    let speedup = naive_seconds / served_seconds;
    println!(
        "served (cache + batching + {workers} worker(s)): {served_seconds:.3} s \
         ({:.1} ms/request)",
        1e3 * served_seconds / total as f64
    );
    println!(
        "batches: {} (avg size {:.2}), peak queue depth {}, speedup {speedup:.2}x",
        stats.batches,
        stats.avg_batch_size(),
        stats.peak_queue_depth
    );
    assert_eq!(stats.completed, total as u64, "all requests must complete");
    assert!(
        speedup > 1.0,
        "served path must beat naive per-request dispatch (got {speedup:.2}x)"
    );

    // Per-request phase breakdown from the tracing layer: every request
    // was traced end to end, so the attributed phase time must account
    // for the server-side latency (within 10% — the remainder is cache
    // lookups and channel handoffs, which are not phases).
    let total_stat = introspect
        .phase(cham_serve::stats::PHASE_TOTAL)
        .expect("traced requests must populate the total histogram");
    assert_eq!(
        total_stat.count, total as u64,
        "every request must be traced"
    );
    let attributed_ns: u64 = introspect
        .phases
        .iter()
        .filter(|p| cham_telemetry::span::phase::ALL.contains(&p.name.as_str()))
        .map(|p| p.sum_ns)
        .sum();
    let coverage = attributed_ns as f64 / total_stat.sum_ns as f64;
    println!("phase breakdown (p50/p99/p999 across {total} requests):");
    for p in &introspect.phases {
        println!(
            "  {:<14} count={:<6} p50={:>12} ns  p99={:>12} ns  p999={:>12} ns",
            p.name, p.count, p.p50_ns, p.p99_ns, p.p999_ns
        );
    }
    println!(
        "phase coverage: {:.1}% of end-to-end latency attributed",
        100.0 * coverage
    );
    assert!(
        (0.9..=1.1).contains(&coverage),
        "attributed phase time must sum within 10% of end-to-end latency \
         (got {:.1}%)",
        100.0 * coverage
    );

    run.param("rows", ROWS)
        .param("cols", COLS)
        .param("clients", CLIENTS)
        .param("requests", total)
        .param("degree", params.degree())
        .param("workers", workers)
        .param("max_batch", config.max_batch);
    // Fault/recovery accounting: zero on this unfaulted run, but the
    // fields exist so faulted soaks land in the same record shape.
    assert_eq!(stats.faults_injected, 0, "bench runs unfaulted");
    run.metric("naive_seconds", naive_seconds)
        .metric("served_seconds", served_seconds)
        .metric("speedup", speedup)
        .metric("batches", stats.batches)
        .metric("avg_batch_size", stats.avg_batch_size())
        .metric("peak_queue_depth", stats.peak_queue_depth)
        .metric("accepted", stats.accepted)
        .metric("rejected_busy", stats.rejected_busy)
        .metric("timed_out", stats.timed_out)
        .metric("faults_injected", stats.faults_injected)
        .metric("faults_recovered", retry_totals.1)
        .metric("retries", retry_totals.0)
        // Per-request latency distribution and phase attribution, from
        // the tracing layer's introspection snapshot.
        .metric("latency_p50_ns", total_stat.p50_ns)
        .metric("latency_p99_ns", total_stat.p99_ns)
        .metric("latency_p999_ns", total_stat.p999_ns)
        .metric("phase_coverage", coverage);
    // Scatter-gather serialize accounting: how many response frames
    // went out via write_vectored and how many buffers they gathered.
    run.metric("wire_vectored_writes", stats.vectored_writes)
        .metric("wire_gathered_parts", stats.gathered_parts);
    for p in &introspect.phases {
        run.metric(format!("phase_ns.{}", p.name), p.sum_ns);
    }
    run.finish();
}
