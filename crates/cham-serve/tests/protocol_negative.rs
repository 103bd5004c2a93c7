//! Negative-path protocol tests: every way a peer can misbehave on the
//! wire must surface as a *typed* error on the other side — never a
//! hang, never a panic, never a silently wrong result.
//!
//! The client-side tests run against a hand-rolled rogue listener (a raw
//! `TcpListener` that replies with deliberately broken bytes); the
//! server-side tests run a real [`Server`] and speak raw frames at it.
//!
//! A protocol-revision mismatch is one of those misbehaviours: whichever
//! side notices it, the client surfaces a typed `Incompatible` after
//! exactly one connection attempt.

use cham_serve::protocol::{
    self, ErrorCode, FrameKind, Hello, Response, DEADLINE_NONE, MAX_FRAME_BYTES, PROTOCOL_VERSION,
};
use cham_serve::server::{Server, ServerConfig};
use cham_serve::{ClientConfig, RetryClient, RetryPolicy, ServeClient, ServeError};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;

fn params() -> Arc<cham_he::params::ChamParams> {
    Arc::new(cham_he::params::ChamParams::insecure_test_default().unwrap())
}

/// Spawns a listener that accepts one connection, reads one frame, and
/// runs `respond` on the accepted stream. Returns the address.
fn rogue_server(
    respond: impl FnOnce(&mut TcpStream) + Send + 'static,
) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        // Consume the client's hello frame so the reply is not racing it.
        let _ = protocol::read_frame(&mut stream);
        respond(&mut stream);
    });
    (addr, handle)
}

/// A server that closes mid-frame leaves the client with a typed `Io`
/// error, not a hang.
#[test]
fn server_closing_mid_frame_surfaces_as_io() {
    let (addr, handle) = rogue_server(|stream| {
        // A 100-byte frame is promised; 2 bytes of prefix arrive.
        let _ = stream.write_all(&100u32.to_le_bytes()[..2]);
        let _ = stream.flush();
        // Dropping the stream closes the socket mid-prefix.
    });
    let r = ServeClient::connect(addr, params());
    assert!(matches!(r, Err(ServeError::Io(_))), "got {:?}", r.err());
    handle.join().unwrap();
}

/// An oversized length prefix is rejected client-side before any
/// allocation — a rogue server cannot OOM a client with 4 bytes.
#[test]
fn client_rejects_oversized_length_prefix() {
    let (addr, handle) = rogue_server(|stream| {
        let _ = stream.write_all(&u32::MAX.to_le_bytes());
        let _ = stream.write_all(&[FrameKind::Result as u8]);
        let _ = stream.flush();
    });
    let r = ServeClient::connect(addr, params());
    assert!(
        matches!(r, Err(ServeError::BadFrame(_))),
        "got {:?}",
        r.err()
    );
    handle.join().unwrap();
}

/// A request-kind frame arriving at the client (role reversal) is a
/// typed `BadFrame`, not a confused parse of garbage.
#[test]
fn client_rejects_request_kind_frame_from_server() {
    let (addr, handle) = rogue_server(|stream| {
        let _ = protocol::write_frame(stream, FrameKind::Hmvp, &[0u8; 22]);
    });
    let r = ServeClient::connect(addr, params());
    assert!(
        matches!(r, Err(ServeError::BadFrame(_))),
        "got {:?}",
        r.err()
    );
    handle.join().unwrap();
}

/// The server's per-connection frame bound answers an oversized length
/// prefix with a typed `BadFrame` error frame, then closes — before
/// allocating or reading the promised body.
#[test]
fn server_rejects_oversized_frame_with_typed_error() {
    let p = params();
    let server = Server::start(
        "127.0.0.1:0",
        Arc::clone(&p),
        &ServerConfig {
            max_frame_bytes: 1024,
            ..ServerConfig::default()
        },
    )
    .unwrap();

    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    // A well-formed hello first: the bound is per-frame, not per-connection.
    let hello = Hello::for_params(&p);
    protocol::write_frame(&mut stream, FrameKind::Hello, &hello.to_bytes()).unwrap();
    let (kind, _) = protocol::read_frame(&mut stream).unwrap();
    assert_eq!(kind, FrameKind::Result);

    // Promise a frame past the server's 1 KiB bound (but far under the
    // protocol-wide MAX_FRAME_BYTES, so it is this server's config that
    // rejects it), then watch the typed reply.
    let oversized = 1_000_000u32;
    assert!((oversized as usize) < MAX_FRAME_BYTES);
    stream.write_all(&oversized.to_le_bytes()).unwrap();
    stream.flush().unwrap();
    let (kind, body) = protocol::read_frame(&mut stream).unwrap();
    assert_eq!(kind, FrameKind::Error);
    let (code, message) = protocol::error_from_body(&body).unwrap();
    assert_eq!(code, ErrorCode::BadFrame);
    assert!(message.contains("size bound"), "message: {message}");
    // The stream is desynced from the server's perspective — it closes.
    let mut rest = Vec::new();
    let _ = stream.read_to_end(&mut rest);
    assert!(rest.is_empty());
    server.shutdown();
}

/// A zero deadline on the wire is rejected as malformed rather than
/// silently read as "no deadline".
#[test]
fn server_rejects_zero_deadline_on_the_wire() {
    let p = params();
    let server = Server::start("127.0.0.1:0", Arc::clone(&p), &ServerConfig::default()).unwrap();

    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    let hello = Hello::for_params(&p);
    protocol::write_frame(&mut stream, FrameKind::Hello, &hello.to_bytes()).unwrap();
    let (kind, _) = protocol::read_frame(&mut stream).unwrap();
    assert_eq!(kind, FrameKind::Result);

    // Hand-build an Hmvp body with deadline_ms = 0 (the client API can
    // no longer produce one — it clamps to [1, DEADLINE_NONE]).
    let mut body = Vec::new();
    body.extend_from_slice(&1u64.to_le_bytes()); // key_id
    body.extend_from_slice(&2u64.to_le_bytes()); // matrix_id
    body.extend_from_slice(&0u32.to_le_bytes()); // deadline_ms = 0
    body.extend_from_slice(&1u16.to_le_bytes()); // k = 1
    body.extend_from_slice(&0u32.to_le_bytes()); // empty ciphertext blob
    protocol::write_frame(&mut stream, FrameKind::Hmvp, &body).unwrap();
    let (kind, body) = protocol::read_frame(&mut stream).unwrap();
    assert_eq!(kind, FrameKind::Error);
    let (code, message) = protocol::error_from_body(&body).unwrap();
    assert_eq!(code, ErrorCode::BadFrame);
    assert!(message.contains("deadline_ms"), "message: {message}");
    assert_ne!(DEADLINE_NONE, 0);
    server.shutdown();
}

/// Every wire error code maps back to the intended client-side variant —
/// typed where a typed variant exists, `Remote` where only the server
/// has the context.
#[test]
fn every_wire_code_maps_to_the_intended_variant() {
    use protocol::wire_to_error;
    assert!(matches!(
        wire_to_error(ErrorCode::Busy, "queue full".into()),
        ServeError::Busy
    ));
    assert!(matches!(
        wire_to_error(ErrorCode::TimedOut, "deadline".into()),
        ServeError::TimedOut
    ));
    assert!(matches!(
        wire_to_error(ErrorCode::Shutdown, "going away".into()),
        ServeError::Shutdown
    ));
    match wire_to_error(ErrorCode::Internal, "worker panicked: boom".into()) {
        ServeError::Internal(m) => assert_eq!(m, "worker panicked: boom"),
        other => panic!("got {other:?}"),
    }
    // Unknown ids reconstruct typed variants from the canonical message…
    assert!(matches!(
        wire_to_error(ErrorCode::UnknownKey, format!("{:#018x}", 0xFEEDu64)),
        ServeError::UnknownKey(0xFEED)
    ));
    assert!(matches!(
        wire_to_error(ErrorCode::UnknownMatrix, format!("{:#018x}", 0xBEEFu64)),
        ServeError::UnknownMatrix(0xBEEF)
    ));
    // …and degrade to Remote when the message is not an id.
    assert!(matches!(
        wire_to_error(ErrorCode::UnknownKey, "gone".into()),
        ServeError::Remote {
            code: ErrorCode::UnknownKey,
            ..
        }
    ));
    // BadFrame/Incompatible carry server-side context only.
    assert!(matches!(
        wire_to_error(ErrorCode::BadFrame, "truncated".into()),
        ServeError::Remote {
            code: ErrorCode::BadFrame,
            ..
        }
    ));
    assert!(matches!(
        wire_to_error(ErrorCode::Incompatible, "prime chain".into()),
        ServeError::Remote {
            code: ErrorCode::Incompatible,
            ..
        }
    ));
}

/// Asserts that `message` names both the offered and the local revision.
fn assert_names_both_revisions(message: &str, peer: u16) {
    assert!(
        message.contains(&format!("peer speaks {peer}")),
        "{message}"
    );
    assert!(
        message.contains(&format!("this node speaks {PROTOCOL_VERSION}")),
        "{message}"
    );
}

/// A hello offering any revision but this crate's own — one older, one
/// newer — is refused by a real server with a typed `Incompatible`
/// naming both revisions.
#[test]
fn server_refuses_other_revisions_naming_both() {
    let p = params();
    let server = Server::start("127.0.0.1:0", Arc::clone(&p), &ServerConfig::default()).unwrap();
    for offer in [PROTOCOL_VERSION - 1, PROTOCOL_VERSION + 1] {
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        let hello = Hello {
            version: offer,
            ..Hello::for_params(&p)
        };
        protocol::write_frame(&mut stream, FrameKind::Hello, &hello.to_bytes()).unwrap();
        let (kind, body) = protocol::read_frame(&mut stream).unwrap();
        assert_eq!(kind, FrameKind::Error);
        let (code, message) = protocol::error_from_body(&body).unwrap();
        assert_eq!(code, ErrorCode::Incompatible);
        assert_names_both_revisions(&message, offer);
    }
    server.shutdown();
}

/// A fake server that accepts one connection, hands the client's hello
/// to `respond`, and returns its listener so the caller can prove no
/// second connection was attempted.
fn one_shot_server(
    respond: impl FnOnce(&mut TcpStream, Hello) + Send + 'static,
) -> (SocketAddr, JoinHandle<TcpListener>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let (kind, body) = protocol::read_frame(&mut stream).unwrap();
        assert_eq!(kind, FrameKind::Hello);
        respond(&mut stream, Hello::from_bytes(&body).unwrap());
        listener
    });
    (addr, handle)
}

/// Every connection a client attempts completes its TCP handshake in the
/// listener's backlog, so an empty backlog after the client returned
/// proves it connected exactly once.
fn assert_no_second_connection(handle: JoinHandle<TcpListener>) {
    let listener = handle.join().unwrap();
    listener.set_nonblocking(true).unwrap();
    match listener.accept() {
        Err(e) if e.kind() == ErrorKind::WouldBlock => {}
        other => panic!("client connected again: {other:?}"),
    }
}

/// Connects a `ServeClient` and a `RetryClient` (default policy, eight
/// attempts) each to a fresh fake server answering the hello with
/// `respond`, and hands each client's error to `check` — after proving
/// the client connected exactly once.
fn connect_both_once(
    respond: impl FnOnce(&mut TcpStream, Hello) + Copy + Send + 'static,
    check: impl Fn(ServeError),
) {
    for retrying in [false, true] {
        let (addr, handle) = one_shot_server(respond);
        let result = if retrying {
            let (config, policy) = (ClientConfig::default(), RetryPolicy::default());
            RetryClient::connect_with(addr.to_string(), params(), config, policy).map(drop)
        } else {
            ServeClient::connect(addr, params()).map(drop)
        };
        check(result.expect_err("a revision mismatch was accepted"));
        assert_no_second_connection(handle);
    }
}

/// A server refusing the client's revision is surfaced by both clients
/// as the typed `Incompatible` after one connection attempt — no
/// downgrade retry, no retry loop.
#[test]
fn refused_revision_surfaces_after_one_connection_attempt() {
    let refuse = |stream: &mut TcpStream, hello: Hello| {
        assert_eq!(hello.version, PROTOCOL_VERSION);
        let message = format!(
            "protocol revision mismatch: peer speaks {PROTOCOL_VERSION}, this node speaks {}",
            PROTOCOL_VERSION + 1
        );
        let body = protocol::error_body(ErrorCode::Incompatible, &message);
        protocol::write_frame(stream, FrameKind::Error, &body).unwrap();
    };
    connect_both_once(refuse, |e| match e {
        ServeError::Remote {
            code: ErrorCode::Incompatible,
            message,
        } => assert!(message.contains("revision mismatch"), "{message}"),
        other => panic!("expected a typed Incompatible refusal, got {other:?}"),
    });
}

/// A server echoing any revision but the client's own is rejected
/// client-side with a typed `Incompatible` naming both revisions, again
/// after one connection attempt.
#[test]
fn foreign_revision_echo_is_rejected_client_side() {
    for echo in [PROTOCOL_VERSION - 1, PROTOCOL_VERSION + 1] {
        let answer = move |stream: &mut TcpStream, _: Hello| {
            let resp = Response::Hello {
                workers: 1,
                queue_capacity: 8,
                max_batch: 4,
                version: echo,
                cluster: None,
            };
            protocol::write_frame(stream, FrameKind::Result, &resp.to_bytes()).unwrap();
        };
        connect_both_once(answer, |e| match e {
            ServeError::Incompatible(message) => assert_names_both_revisions(&message, echo),
            other => panic!("echo {echo} accepted: {other:?}"),
        });
    }
}
