//! The three traffic mixes and the seeded generator behind them.
//!
//! Every input — keys, matrices, query vectors, arrival times and the
//! `churn` operation sequence — is drawn here from the workload seed; the
//! serving stack only ever sees what this module generated.

use cham_he::ciphertext::RlweCiphertext;
use cham_he::encrypt::Encryptor;
use cham_he::hmvp::{Hmvp, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One traffic mix.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Shape of every matrix the workload serves.
    pub rows: usize,
    pub cols: usize,
    /// Served by a two-node replicated ring with one matrix upload per
    /// [`CHURN_READS`] reads; otherwise one resident matrix on one server.
    pub churn: bool,
    /// Open-loop Poisson arrival rate, operations per second: about a
    /// third of the closed-loop capacity on a 2-vCPU AVX2 host. Near half
    /// capacity the tail follows the host's ±20% speed drift with a
    /// 2× swing in `latency_p90_ms`; at a third it stays in bound.
    pub open_rate: f64,
    /// Distinct pre-encrypted query vectors the traffic cycles through.
    pub queries: usize,
}

/// Why each shape: see `perfbench/README.md`.
pub const WORKLOADS: [Workload; 3] = [
    // Packing (keyswitch) and rescale dominate: 64 output rows, one tile.
    Workload {
        name: "tall",
        rows: 64,
        cols: 4096,
        churn: false,
        open_rate: 4.0,
        queries: 16,
    },
    // Input NTT lift and the fused MAC dominate: 32 column tiles, a
    // 6.3 MB request frame, almost nothing to pack.
    Workload {
        name: "wide",
        rows: 4,
        cols: 131_072,
        churn: false,
        open_rate: 15.0,
        queries: 6,
    },
    // Upload, encode, store spill/restore and ring routing dominate.
    Workload {
        name: "churn",
        rows: 16,
        cols: 4096,
        churn: true,
        open_rate: 13.0,
        queries: 16,
    },
];

/// Reads per upload in `churn`.
pub const CHURN_READS: usize = 3;
/// `churn` reads pick uniformly among this many most recent matrices —
/// more than the nodes' RAM caches hold, so most reads restore from the
/// segment store.
pub const CHURN_WINDOW: usize = 24;
/// Matrices `churn` uploads during set-up, so the first reads have a
/// choice.
pub const CHURN_INITIAL: usize = 4;

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Independent generator streams derived from one workload seed.
pub mod tag {
    pub const KEYS: u64 = 1;
    pub const MATRIX: u64 = 2;
    pub const QUERIES: u64 = 3;
    pub const OPEN: u64 = 4;
    pub const FIRST_RESULT: u64 = 5;
    /// Closed-loop client `c` draws from `CLOSED + c`.
    pub const CLOSED: u64 = 100;
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The generator stream `tag` of `seed`.
pub fn stream(seed: u64, tag: u64) -> StdRng {
    StdRng::seed_from_u64(splitmix(seed ^ splitmix(tag)))
}

/// The matrix with generator seed `matrix_seed`.
pub fn matrix(wl: &Workload, matrix_seed: u64, t: u64) -> Matrix {
    Matrix::random(wl.rows, wl.cols, t, &mut StdRng::seed_from_u64(matrix_seed))
}

/// One pre-encrypted query vector.
pub struct Query {
    pub vector: Vec<u64>,
    pub cts: Vec<RlweCiphertext>,
}

/// The query pool: `wl.queries` vectors over `Z_t`, encrypted once.
pub fn queries(wl: &Workload, seed: u64, hmvp: &Hmvp, enc: &Encryptor) -> Vec<Query> {
    let t = hmvp.params().plain_modulus().value();
    let mut rng = stream(seed, tag::QUERIES);
    (0..wl.queries)
        .map(|_| {
            let vector: Vec<u64> = (0..wl.cols).map(|_| rng.gen_range(0..t)).collect();
            let cts = hmvp
                .encrypt_vector(&vector, enc, &mut rng)
                .expect("a non-empty vector encrypts");
            Query { vector, cts }
        })
        .collect()
}

/// One client operation.
#[derive(Debug, Clone, Copy)]
pub enum Op {
    /// An HMVP of query `query` against a resident matrix; `pick` selects
    /// which one among the recent uploads (`churn`) or is ignored.
    Hmvp { query: usize, pick: u64 },
    /// Upload of a fresh matrix generated from `matrix_seed` (`churn`).
    Upload { matrix_seed: u64 },
}

/// A seeded operation sequence: HMVPs only, or for `churn` one upload
/// after every [`CHURN_READS`] reads.
pub struct OpStream {
    rng: StdRng,
    churn: bool,
    queries: usize,
    issued: usize,
}

impl OpStream {
    pub fn new(wl: &Workload, rng: StdRng) -> Self {
        Self {
            rng,
            churn: wl.churn,
            queries: wl.queries,
            issued: 0,
        }
    }

    pub fn next_op(&mut self) -> Op {
        self.issued += 1;
        if self.churn && self.issued.is_multiple_of(CHURN_READS + 1) {
            Op::Upload {
                matrix_seed: self.rng.gen(),
            }
        } else {
            Op::Hmvp {
                query: self.rng.gen_range(0..self.queries),
                pick: self.rng.gen(),
            }
        }
    }
}

/// Open-loop schedule: `count` Poisson arrivals at `rate` per second, as
/// (due offset in seconds, operation).
///
/// The exponential inter-arrival gaps are stratified — the `count`
/// quantiles of the exponential distribution at `(i + ½) / count`, in a
/// seeded random order — so every seed offers the same load over the
/// same span and seeds differ only in how arrivals bunch. This removes
/// the run-to-run spread that plain sampling adds through the number of
/// arrivals and the drawn gap sizes, without changing the gap
/// distribution.
pub fn open_schedule(wl: &Workload, seed: u64, count: usize) -> Vec<(f64, Op)> {
    let mut rng = stream(seed, tag::OPEN);
    let mut gaps: Vec<f64> = (0..count)
        .map(|i| -(1.0 - (i as f64 + 0.5) / count as f64).ln() / wl.open_rate)
        .collect();
    for i in (1..gaps.len()).rev() {
        gaps.swap(i, rng.gen_range(0..=i));
    }
    let mut ops = OpStream::new(wl, stream(seed, tag::OPEN + 1000));
    let mut due = 0.0;
    gaps.into_iter()
        .map(|gap| {
            due += gap;
            (due, ops.next_op())
        })
        .collect()
}
