//! Integration tests for the tracing and introspection layer: the
//! `Introspect` and `FlightDump` wire ops against a real server,
//! client-stamped and server-assigned trace ids, and the wire-level
//! negative for a malformed trace-id field.
//!
//! Uses the insecure N=256 test parameters and small matrices so the
//! suite stays fast in debug builds (tier-1 runs `cargo test -q`
//! unoptimized).

use cham_he::encrypt::{Decryptor, Encryptor};
use cham_he::hmvp::{Hmvp, Matrix};
use cham_he::keys::{GaloisKeys, SecretKey};
use cham_he::params::ChamParams;
use cham_serve::protocol::{self, ErrorCode, FrameKind, Hello, DEADLINE_NONE};
use cham_serve::server::{Server, ServerConfig};
use cham_serve::stats::PHASE_TOTAL;
use cham_serve::ServeClient;
use cham_telemetry::span::phase;
use cham_telemetry::trace::read_chrome_trace;
use rand::{Rng, SeedableRng};
use std::net::TcpStream;
use std::sync::{Arc, OnceLock};

struct Fixture {
    params: Arc<ChamParams>,
    sk: SecretKey,
    gkeys: GaloisKeys,
    indices: Vec<usize>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let params = Arc::new(ChamParams::insecure_test_default().unwrap());
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x7ACE);
        let sk = SecretKey::generate(&params, &mut rng);
        let max_log = params.max_pack_log();
        let gkeys = GaloisKeys::generate_for_packing(&sk, max_log, &mut rng).unwrap();
        let indices = (1..=max_log).map(|j| (1usize << j) + 1).collect();
        Fixture {
            params,
            sk,
            gkeys,
            indices,
        }
    })
}

fn start_server(config: &ServerConfig) -> Server {
    let f = fixture();
    Server::start("127.0.0.1:0", Arc::clone(&f.params), config).unwrap()
}

/// Runs `count` verified HMVPs through `client` against a fresh random
/// matrix, returning the trace ids the client stamped.
fn run_verified_hmvps(client: &mut ServeClient, count: usize, seed: u64) -> Vec<u64> {
    let f = fixture();
    let t = f.params.plain_modulus();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let matrix = Matrix::random(8, 32, t.value(), &mut rng);
    let key_id = client.load_keys(&f.gkeys, &f.indices).unwrap();
    let matrix_id = client.load_matrix(&matrix).unwrap();
    let hmvp = Hmvp::from_arc(Arc::clone(&f.params));
    let enc = Encryptor::new(&f.params, &f.sk);
    let dec = Decryptor::new(&f.params, &f.sk);
    let mut ids = Vec::with_capacity(count);
    for _ in 0..count {
        let v: Vec<u64> = (0..matrix.cols())
            .map(|_| rng.gen_range(0..t.value()))
            .collect();
        let cts = hmvp.encrypt_vector(&v, &enc, &mut rng).unwrap();
        let (result, trace_id) = client
            .hmvp_traced(key_id, matrix_id, &cts, None, 0)
            .unwrap();
        let got = hmvp.decrypt_result(&result, &dec).unwrap();
        assert_eq!(got, matrix.mul_vector_mod(&v, t).unwrap());
        ids.push(trace_id);
    }
    ids
}

/// The tentpole end to end: traced requests populate the per-phase
/// histograms, the introspection snapshot, and the flight recorder — and
/// the flight dump round-trips through the trace reader.
#[test]
fn introspect_and_flight_dump_round_trip() {
    let f = fixture();
    let server = start_server(&ServerConfig {
        workers: 2,
        queue_capacity: 16,
        max_batch: 4,
        ..ServerConfig::default()
    });
    let mut client = ServeClient::connect(server.local_addr(), Arc::clone(&f.params)).unwrap();

    const REQUESTS: usize = 4;
    // trace_id 0 means "server assigns one" — the server must generate
    // and record a nonzero id for each request.
    run_verified_hmvps(&mut client, REQUESTS, 0x51);

    let snap = client.introspect().unwrap();
    assert_eq!(snap.stats.completed, REQUESTS as u64);
    assert_eq!(snap.queue_capacity, 16);
    assert_eq!(snap.workers, 2);
    assert_eq!(snap.max_batch, 4);
    assert_eq!(snap.key_cache_len, 1);
    assert_eq!(snap.matrix_cache_len, 1);
    assert_eq!(snap.flight_traces, REQUESTS as u32);
    assert_eq!(snap.flight_dropped, 0);

    // Every request landed in the total histogram, and every pipeline
    // phase saw at least one sample per request.
    let total = snap.phase(PHASE_TOTAL).expect("total histogram");
    assert_eq!(total.count, REQUESTS as u64);
    assert!(total.p50_ns > 0 && total.p50_ns <= total.p99_ns);
    assert!(total.p99_ns <= total.p999_ns && total.p999_ns <= total.max_ns);
    for name in phase::ALL {
        let stat = snap
            .phase(name)
            .unwrap_or_else(|| panic!("phase {name} missing from snapshot"));
        assert!(
            stat.count >= REQUESTS as u64,
            "phase {name}: {} samples for {REQUESTS} requests",
            stat.count
        );
    }
    // Attributed phase time accounts for the end-to-end latency (the
    // same invariant `serve_throughput` gates at 10%; looser here since
    // debug builds run requests in microseconds where the fixed channel
    // handoff costs are proportionally larger).
    let attributed: u64 = snap
        .phases
        .iter()
        .filter(|p| phase::ALL.contains(&p.name.as_str()))
        .map(|p| p.sum_ns)
        .sum();
    assert!(
        attributed as f64 >= 0.5 * total.sum_ns as f64,
        "attributed {attributed} ns of {} ns total",
        total.sum_ns
    );

    // The structured snapshot serializes under the stable schema tag.
    let json = snap.to_json().to_string();
    assert!(json.contains("cham-introspect/v1"), "json: {json}");

    // The flight dump is valid Chrome-trace JSON: one complete-event
    // span per recorded phase of each request, on per-request tracks.
    let dump = client.flight_dump().unwrap();
    let events = read_chrome_trace(&dump).unwrap();
    let complete: Vec<_> = events.iter().filter(|e| e.ph == "X").collect();
    assert!(
        complete.len() >= REQUESTS * phase::ALL.len(),
        "{} complete events for {REQUESTS} requests",
        complete.len()
    );
    for name in phase::ALL {
        assert!(
            complete.iter().any(|e| e.name == name),
            "no {name} span in the flight dump"
        );
    }

    // In-process, the recorder agrees with what went over the wire: one
    // trace per request, each with a nonzero server-assigned id and
    // monotonic, non-overlapping phase spans.
    let flight = server.flight().snapshot();
    assert_eq!(flight.traces.len(), REQUESTS);
    for trace in &flight.traces {
        assert_ne!(trace.trace_id.as_u64(), 0);
        assert!(!trace.phases.is_empty());
        for w in trace.phases.windows(2) {
            assert_eq!(
                w[0].start_ns + w[0].dur_ns,
                w[1].start_ns,
                "phases must tile the request without gaps or overlap"
            );
        }
    }
    server.shutdown();
}

/// A client-stamped trace id survives the full wire round trip into the
/// server's flight recorder.
#[test]
fn client_stamped_trace_id_reaches_the_flight_recorder() {
    let f = fixture();
    let server = start_server(&ServerConfig::default());
    let mut client = ServeClient::connect(server.local_addr(), Arc::clone(&f.params)).unwrap();

    let t = f.params.plain_modulus();
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x1D);
    let matrix = Matrix::random(8, 32, t.value(), &mut rng);
    let key_id = client.load_keys(&f.gkeys, &f.indices).unwrap();
    let matrix_id = client.load_matrix(&matrix).unwrap();
    let hmvp = Hmvp::from_arc(Arc::clone(&f.params));
    let enc = Encryptor::new(&f.params, &f.sk);
    let v: Vec<u64> = (0..matrix.cols())
        .map(|_| rng.gen_range(0..t.value()))
        .collect();
    let cts = hmvp.encrypt_vector(&v, &enc, &mut rng).unwrap();

    const STAMP: u64 = 0xDEAD_BEEF_CAFE_F00D;
    let (_, sent) = client
        .hmvp_traced(key_id, matrix_id, &cts, None, STAMP)
        .unwrap();
    assert_eq!(sent, STAMP);
    let flight = server.flight().snapshot();
    assert!(
        flight.traces.iter().any(|t| t.trace_id.as_u64() == STAMP),
        "stamped id not in flight recorder: {:?}",
        flight.traces.iter().map(|t| t.trace_id).collect::<Vec<_>>()
    );
    server.shutdown();
}

/// An `Hmvp` body with a truncated trace-id field is a typed `BadFrame`,
/// not a confused parse: the malformed-trace-id negative at the wire
/// level.
#[test]
fn server_rejects_truncated_trace_id() {
    let f = fixture();
    let server = start_server(&ServerConfig::default());
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    let hello = Hello::for_params(&f.params);
    protocol::write_frame(&mut stream, FrameKind::Hello, &hello.to_bytes()).unwrap();
    let (kind, _) = protocol::read_frame(&mut stream).unwrap();
    assert_eq!(kind, FrameKind::Result);

    // Body cut off mid-trace-id: key_id + matrix_id + deadline + 4 of the
    // 8 trace-id bytes.
    let mut body = Vec::new();
    body.extend_from_slice(&1u64.to_le_bytes());
    body.extend_from_slice(&2u64.to_le_bytes());
    body.extend_from_slice(&DEADLINE_NONE.to_le_bytes());
    body.extend_from_slice(&0xABCDu32.to_le_bytes());
    protocol::write_frame(&mut stream, FrameKind::Hmvp, &body).unwrap();
    let (kind, body) = protocol::read_frame(&mut stream).unwrap();
    assert_eq!(kind, FrameKind::Error);
    let (code, _) = protocol::error_from_body(&body).unwrap();
    assert_eq!(code, ErrorCode::BadFrame);
    server.shutdown();
}

/// `Introspect` and `FlightDump` are nullary ops: a peer that smuggles a
/// body into one gets a typed `BadFrame`.
#[test]
fn introspect_frame_with_a_body_is_rejected() {
    let f = fixture();
    let server = start_server(&ServerConfig::default());
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    let hello = Hello::for_params(&f.params);
    protocol::write_frame(&mut stream, FrameKind::Hello, &hello.to_bytes()).unwrap();
    let (kind, _) = protocol::read_frame(&mut stream).unwrap();
    assert_eq!(kind, FrameKind::Result);

    protocol::write_frame(&mut stream, FrameKind::Introspect, &[1, 2, 3]).unwrap();
    let (kind, body) = protocol::read_frame(&mut stream).unwrap();
    assert_eq!(kind, FrameKind::Error);
    let (code, _) = protocol::error_from_body(&body).unwrap();
    assert_eq!(code, ErrorCode::BadFrame);
    server.shutdown();
}
