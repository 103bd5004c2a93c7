//! Traffic: closed-loop clients, open-loop Poisson arrivals, and the
//! serial requests the ledger reconciles against. Every answer is
//! decrypted and checked against the plain product.

use crate::stack::{Client, ClientCounters, Resident, Stack};
use crate::trace::{self, Tracer};
use crate::workload::{self, Op, OpStream, Query, Workload};
use cham_he::hmvp::Matrix;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What the traffic needs from a running stack.
pub struct Ctx<'a> {
    pub wl: &'static Workload,
    pub stack: &'a Stack,
    pub queries: &'a [Query],
    pub tracer: Option<&'a Tracer>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Hmvp,
    Upload,
}

/// One operation's outcome.
pub struct Sample {
    pub kind: Kind,
    /// Completed and, for an HMVP, decrypted to the right product.
    pub ok: bool,
    /// Decrypted to a wrong product.
    pub wrong: bool,
    /// From due time (open loop) or issue (closed loop) to the decrypted
    /// answer; an upload's is its call time.
    pub ms: f64,
    /// The client call alone: request out to reply in.
    pub call_ms: f64,
    /// How late the generator issued it (open loop).
    pub late_ms: f64,
    /// Succeeded without the client retrying.
    pub first_try: bool,
}

impl Sample {
    /// Latency for percentile purposes: a failed operation misses every
    /// limit.
    pub fn latency_ms(&self) -> f64 {
        if self.ok {
            self.ms
        } else {
            f64::INFINITY
        }
    }
}

#[derive(Default)]
pub struct Phase {
    pub samples: Vec<Sample>,
    pub wall_s: f64,
    pub counters: ClientCounters,
}

impl Phase {
    /// Folds another stretch of the same kind of traffic into this one.
    pub fn absorb(&mut self, other: Phase) {
        self.samples.extend(other.samples);
        self.wall_s += other.wall_s;
        self.counters += other.counters;
    }

    pub fn succeeded(&self) -> usize {
        self.samples.iter().filter(|s| s.ok).count()
    }

    pub fn failed(&self) -> usize {
        self.samples.iter().filter(|s| !s.ok).count()
    }

    pub fn wrong(&self) -> usize {
        self.samples.iter().filter(|s| s.wrong).count()
    }

    /// Latencies of `kind` (failures as infinity).
    pub fn latencies(&self, kind: Kind) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.kind == kind)
            .map(Sample::latency_ms)
            .collect()
    }
}

/// An operation with its generator-side work (the fresh matrix of an
/// upload, the resident an HMVP reads) done before it is issued.
enum Prepared {
    Hmvp {
        query: usize,
        resident: Arc<Resident>,
    },
    Upload(Matrix),
}

fn prepare(ctx: &Ctx<'_>, op: Op) -> Prepared {
    match op {
        Op::Hmvp { query, pick } => Prepared::Hmvp {
            query,
            resident: ctx.stack.catalog.pick(pick),
        },
        Op::Upload { matrix_seed } => {
            let t = ctx.stack.params.plain_modulus().value();
            Prepared::Upload(workload::matrix(ctx.wl, matrix_seed, t))
        }
    }
}

static REPORTED_ERRORS: AtomicUsize = AtomicUsize::new(0);

fn report_error(what: &str, e: &dyn std::fmt::Display) {
    if REPORTED_ERRORS.fetch_add(1, Ordering::Relaxed) < 5 {
        eprintln!("perfbench: {what} failed: {e}");
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn execute(ctx: &Ctx<'_>, client: &mut Client, op: Prepared, due: Instant) -> Sample {
    let issued = Instant::now();
    let late_ms = issued.saturating_duration_since(due).as_secs_f64() * 1e3;
    let retries_before = client.counters().retries;
    let tracer = ctx.tracer;
    let request = tracer.map_or(0, Tracer::id);
    let (kind, ok, wrong, call_ms, ms) = match op {
        Prepared::Upload(matrix) => trace::span(tracer, "bench.upload", 0, request, |root| {
            let started = Instant::now();
            let res = trace::span(tracer, "client.load_matrix", root, request, |_| {
                client.load_matrix(&matrix)
            });
            let call_ms = ms_since(started);
            let ok = match res {
                Ok(id) => {
                    ctx.stack.catalog.push(Resident {
                        id,
                        matrix,
                        expected: Vec::new(),
                    });
                    true
                }
                Err(e) => {
                    report_error("upload", &e);
                    false
                }
            };
            (Kind::Upload, ok, false, call_ms, call_ms)
        }),
        Prepared::Hmvp { query, resident } => {
            trace::span(tracer, "bench.hmvp", 0, request, |root| {
                let q = &ctx.queries[query];
                let stack = ctx.stack;
                let started = Instant::now();
                let res = trace::span(tracer, "client.hmvp", root, request, |_| {
                    client.hmvp(stack.key_id, resident.id, &q.cts)
                });
                let call_ms = ms_since(started);
                let got = match res {
                    Ok(result) => trace::span(tracer, "he.decrypt_result", root, request, |_| {
                        stack.hmvp.decrypt_result(&result, &stack.dec).map_err(|e| {
                            report_error("decrypt", &e);
                        })
                    }),
                    Err(e) => {
                        report_error("hmvp", &e);
                        Err(())
                    }
                };
                let ms = ms_since(due);
                let right = got.as_ref().ok().map(|got| {
                    trace::span(tracer, "bench.verify", root, request, |_| {
                        match resident.expected.get(query) {
                            Some(want) => got == want,
                            None => {
                                let t = stack.params.plain_modulus();
                                resident.matrix.mul_vector_mod(&q.vector, t).ok().as_ref()
                                    == Some(got)
                            }
                        }
                    })
                });
                if right == Some(false) {
                    report_error("verify", &"decrypted a wrong product");
                }
                (
                    Kind::Hmvp,
                    right == Some(true),
                    right == Some(false),
                    call_ms,
                    ms,
                )
            })
        }
    };
    Sample {
        kind,
        ok,
        wrong,
        ms,
        call_ms,
        late_ms,
        first_try: ok && client.counters().retries == retries_before,
    }
}

fn join_clients(
    handles: Vec<std::thread::ScopedJoinHandle<'_, (Vec<Sample>, ClientCounters)>>,
) -> (Vec<Sample>, ClientCounters) {
    let mut samples = Vec::new();
    let mut counters = ClientCounters::default();
    for h in handles {
        let (s, c) = h.join().expect("client thread panicked");
        samples.extend(s);
        counters += c;
    }
    (samples, counters)
}

/// Runs `f` with `client`, returning its samples and what it added to the
/// client's counters.
fn with_client(
    client: &mut Client,
    f: impl FnOnce(&mut Client) -> Vec<Sample>,
) -> (Vec<Sample>, ClientCounters) {
    let before = client.counters();
    let samples = f(client);
    (samples, client.counters() - before)
}

/// One thread per client, each issuing its next operation when the
/// previous answer is verified, until `dur` elapses.
pub fn closed_loop(
    ctx: &Ctx<'_>,
    seed: u64,
    stream: u64,
    clients: &mut [Client],
    dur: Duration,
) -> Phase {
    let started = Instant::now();
    let deadline = started + dur;
    let (samples, counters) = std::thread::scope(|s| {
        let handles = clients
            .iter_mut()
            .zip(0u64..)
            .map(|(client, c)| {
                s.spawn(move || {
                    with_client(client, |client| {
                        let mut ops = OpStream::new(ctx.wl, workload::stream(seed, stream + c));
                        let mut samples = Vec::new();
                        while Instant::now() < deadline {
                            let op = prepare(ctx, ops.next_op());
                            samples.push(execute(ctx, client, op, Instant::now()));
                        }
                        samples
                    })
                })
            })
            .collect();
        join_clients(handles)
    });
    Phase {
        samples,
        wall_s: started.elapsed().as_secs_f64(),
        counters,
    }
}

/// Issues `schedule` on time from `senders`, one connection each, whatever
/// the answers are doing; each request is timed from when it was due.
pub fn open_loop(ctx: &Ctx<'_>, schedule: &[(f64, Op)], senders: &mut [Client]) -> Phase {
    let next = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(20);
    let (samples, counters) = std::thread::scope(|s| {
        let handles = senders
            .iter_mut()
            .map(|client| {
                let next = &next;
                s.spawn(move || {
                    with_client(client, |client| {
                        let mut samples = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(&(due_s, op)) = schedule.get(i) else {
                                break;
                            };
                            let op = prepare(ctx, op);
                            let due = start + Duration::from_secs_f64(due_s);
                            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                                std::thread::sleep(wait);
                            }
                            samples.push(execute(ctx, client, op, due));
                        }
                        samples
                    })
                })
            })
            .collect();
        join_clients(handles)
    });
    Phase {
        samples,
        wall_s: start.elapsed().as_secs_f64(),
        counters,
    }
}

/// `count` HMVPs of the most recent matrix, one at a time from one
/// client, calling `after_each` between them: the idle-server requests
/// the ledger reconciles.
pub fn serial(ctx: &Ctx<'_>, seed: u64, count: usize, mut after_each: impl FnMut()) -> Phase {
    let started = Instant::now();
    let mut client = ctx.stack.client(seed ^ 0x5e71a1);
    let samples = (0..count)
        .map(|i| {
            let op = Prepared::Hmvp {
                query: i % ctx.queries.len(),
                resident: ctx.stack.catalog.latest(),
            };
            let sample = execute(ctx, &mut client, op, Instant::now());
            after_each();
            sample
        })
        .collect();
    Phase {
        samples,
        wall_s: started.elapsed().as_secs_f64(),
        counters: client.counters(),
    }
}
