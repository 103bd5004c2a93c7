//! Persistent data plane: cold-start vs warm-restart time-to-first-result,
//! and streamed upload memory behavior.
//!
//! Cold pass: a fresh server over an empty `--store-dir` analogue pays
//! the one-time NTT matrix encode before its first HMVP result. Warm
//! pass: the *same* store directory under a restarted server restores
//! the encoded segment instead — the bench pins `matrix_encode == 0` on
//! the warm path and measures the time-to-first-result gap, which is the
//! paper's encode-once amortization made durable across process
//! lifetimes.
//!
//! A further fresh matrix streams in bounded chunks while the bench reads
//! the process peak-RSS high-water mark around the upload (Linux
//! `VmHWM`, reset via `clear_refs` where permitted; the metric is 0 when
//! the kernel interface is unavailable). The scatter-gather serialize
//! counters (`wire_vectored_writes` / `wire_gathered_parts`) come from
//! both servers' always-on stats.
//!
//! Every served result is decrypted and checked against the plain
//! reference product, and the warm result is asserted bit-identical to
//! the cold one.

use cham_bench::BenchRun;
use cham_he::encrypt::{Decryptor, Encryptor};
use cham_he::hmvp::{Hmvp, Matrix};
use cham_he::keys::{GaloisKeys, SecretKey};
use cham_he::params::ChamParams;
use cham_serve::server::{Server, ServerConfig};
use cham_serve::stats::PHASE_MATRIX_ENCODE;
use cham_serve::{protocol, ServeClient};
use rand::Rng;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

const ROWS: usize = 4;
const COLS: usize = 128 * 256;
const HMVPS: usize = 3;

/// Peak resident set (bytes) since process start or the last reset —
/// Linux `VmHWM`; `0` where /proc is unavailable.
fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

/// Resets the peak-RSS high-water mark (best-effort; Linux `clear_refs`).
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

fn matrix_encode_count(server: &Server) -> u64 {
    server
        .phases()
        .snapshot()
        .iter()
        .find(|p| p.name == PHASE_MATRIX_ENCODE)
        .map_or(0, |p| p.count)
}

fn store_dir() -> PathBuf {
    std::env::temp_dir().join(format!("cham-serve-store-bench-{}", std::process::id()))
}

fn main() {
    let mut run = BenchRun::from_env("serve_store");
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
    let body_bytes = protocol::matrix_to_bytes(&matrix).len();

    let mut vectors = Vec::with_capacity(HMVPS);
    let mut inputs = Vec::with_capacity(HMVPS);
    for _ in 0..HMVPS {
        let v: Vec<u64> = (0..COLS).map(|_| rng.gen_range(0..t.value())).collect();
        let cts = hmvp.encrypt_vector(&v, &enc, &mut rng).expect("encrypt");
        vectors.push(v);
        inputs.push(cts);
    }

    let dir = store_dir();
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServerConfig {
        store_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };
    println!(
        "serve_store: {ROWS}x{COLS} matrix ({body_bytes} wire bytes), N = {}, \
         store dir {}",
        params.degree(),
        dir.display()
    );

    // --- Cold start: encode once, spill, serve. ---
    let t0 = Instant::now();
    let server = Server::start("127.0.0.1:0", Arc::clone(&params), &config).expect("server");
    let mut client = ServeClient::connect(server.local_addr(), Arc::clone(&params)).expect("conn");
    let key_id = client.load_keys(&gkeys, &indices).expect("keys");
    let cold_up = client
        .load_matrix_streamed(&matrix, protocol::DEFAULT_CHUNK_BYTES)
        .expect("upload");
    let result = client
        .hmvp(key_id, cold_up.matrix_id, &inputs[0], None)
        .expect("hmvp");
    let cold_first = hmvp.decrypt_result(&result, &dec).expect("decrypt");
    let cold_seconds = t0.elapsed().as_secs_f64();
    assert_eq!(
        cold_first,
        matrix.mul_vector_mod(&vectors[0], t).expect("reference")
    );
    let cold_encodes = matrix_encode_count(&server);
    assert_eq!(cold_encodes, 1, "cold start must encode exactly once");
    for (v, cts) in vectors.iter().zip(&inputs).skip(1) {
        let result = client
            .hmvp(key_id, cold_up.matrix_id, cts, None)
            .expect("hmvp");
        let got = hmvp.decrypt_result(&result, &dec).expect("decrypt");
        assert_eq!(got, matrix.mul_vector_mod(v, t).expect("reference"));
    }
    drop(client);
    let cold_stats = server.shutdown();
    println!("cold start: first verified result in {cold_seconds:.3} s (1 encode)");

    // --- Warm restart: same directory, segment restore, zero encodes. ---
    let t0 = Instant::now();
    let server = Server::start("127.0.0.1:0", Arc::clone(&params), &config).expect("server");
    let mut client = ServeClient::connect(server.local_addr(), Arc::clone(&params)).expect("conn");
    let key_id = client.load_keys(&gkeys, &indices).expect("keys");
    let warm_up = client
        .load_matrix_streamed(&matrix, protocol::DEFAULT_CHUNK_BYTES)
        .expect("upload");
    let result = client
        .hmvp(key_id, warm_up.matrix_id, &inputs[0], None)
        .expect("hmvp");
    let warm_first = hmvp.decrypt_result(&result, &dec).expect("decrypt");
    let warm_seconds = t0.elapsed().as_secs_f64();
    assert_eq!(warm_first, cold_first, "warm result must be bit-identical");
    let warm_encodes = matrix_encode_count(&server);
    assert_eq!(warm_encodes, 0, "warm restart must not re-encode");
    assert_eq!(warm_up.chunks_sent, 0, "warm re-upload must send no chunks");
    let restores = server.cache().store_restores();
    let store_stats = server.cache().store().expect("store").stats();
    println!(
        "warm restart: first verified result in {warm_seconds:.3} s \
         (0 encodes, {restores} restore, {} recovered segment(s))",
        store_stats.recovered
    );
    let warm_speedup = cold_seconds / warm_seconds.max(1e-9);
    println!("time-to-first-result speedup: {warm_speedup:.2}x");

    // --- Streamed upload peak RSS (fresh content so it does not dedup
    // onto a cached entry). ---
    let streamed_matrix = Matrix::random(ROWS, COLS, t.value(), &mut rng);
    reset_peak_rss();
    let up = client
        .load_matrix_streamed(&streamed_matrix, protocol::DEFAULT_CHUNK_BYTES)
        .expect("streamed upload");
    let streamed_peak = peak_rss_bytes();
    assert!(up.chunks_sent > 0);
    println!(
        "upload peak RSS: streamed {streamed_peak} B ({} chunk(s) of {} B)",
        up.chunks_sent,
        protocol::DEFAULT_CHUNK_BYTES
    );
    drop(client);
    let warm_stats = server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    // Scatter-gather copy accounting from the serialize path.
    let vectored_writes = cold_stats.vectored_writes + warm_stats.vectored_writes;
    let gathered_parts = cold_stats.gathered_parts + warm_stats.gathered_parts;

    run.param("rows", ROWS)
        .param("cols", COLS)
        .param("degree", params.degree())
        .param("matrix_wire_bytes", body_bytes)
        .param("chunk_bytes", protocol::DEFAULT_CHUNK_BYTES)
        .param("hmvps", HMVPS);
    run.metric("cold_first_result_seconds", cold_seconds)
        .metric("warm_first_result_seconds", warm_seconds)
        .metric("warm_speedup", warm_speedup)
        .metric("cold_matrix_encodes", cold_encodes)
        .metric("warm_matrix_encodes", warm_encodes)
        .metric("store_restores", restores)
        .metric("store_recovered_segments", store_stats.recovered)
        .metric("store_quarantined_segments", store_stats.quarantined)
        .metric("cold_chunks_sent", u64::from(cold_up.chunks_sent))
        .metric("warm_chunks_sent", u64::from(warm_up.chunks_sent))
        .metric("warm_chunks_skipped", u64::from(warm_up.chunks_skipped))
        .metric("streamed_upload_peak_rss_bytes", streamed_peak)
        .metric("wire_vectored_writes", vectored_writes)
        .metric("wire_gathered_parts", gathered_parts);
    run.finish();
}
