//! Bringing the serving stack up and down: keys, servers, clients and
//! the resident-matrix catalog the traffic reads from.

use crate::workload::{self, tag, Workload, CHURN_INITIAL, CHURN_WINDOW};
use cham_cluster::{ClusterClient, Topology};
use cham_he::ciphertext::RlweCiphertext;
use cham_he::encrypt::{Decryptor, Encryptor};
use cham_he::hmvp::{Hmvp, HmvpResult, Matrix};
use cham_he::keys::{GaloisKeys, SecretKey};
use cham_he::params::ChamParams;
use cham_serve::shard::{HashRing, ShardSpec};
use cham_serve::{
    ClientConfig, FaultInjector, IntrospectSnapshot, RetryClient, RetryPolicy, ServeError, Server,
    ServerConfig,
};
use rand::Rng;
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// `churn` ring shape: two nodes, every matrix on both.
const NODES: u16 = 2;
const REPLICATION: u16 = 2;
const VNODES: u32 = 64;
/// Per-node RAM matrix cache in `churn` — well under the
/// [`CHURN_WINDOW`] working set.
const CHURN_MATRIX_CACHE: usize = 4;
/// Per-node store cap in `churn`: room for several windows of encoded
/// 16 × 4096 matrices (1.5 MiB each), so reads restore rather than miss.
const CHURN_STORE_CAP: u64 = 128 << 20;

/// A matrix the servers hold, with what the benchmark needs to check
/// answers against it.
pub struct Resident {
    pub id: u64,
    pub matrix: Matrix,
    /// `expected[q]` = plain product with query `q`, when precomputed
    /// (the fixed matrix of `tall`/`wide`); empty otherwise.
    pub expected: Vec<Vec<u64>>,
}

/// The recent matrices traffic may read: one fixed matrix, or a sliding
/// window of `churn` uploads.
#[derive(Default)]
pub struct Catalog(Mutex<VecDeque<Arc<Resident>>>);

impl Catalog {
    pub fn push(&self, r: Resident) {
        let mut q = self.0.lock().expect("catalog lock poisoned");
        q.push_back(Arc::new(r));
        while q.len() > CHURN_WINDOW {
            q.pop_front();
        }
    }

    /// The resident selected by an operation's `pick`.
    pub fn pick(&self, pick: u64) -> Arc<Resident> {
        let q = self.0.lock().expect("catalog lock poisoned");
        let i = usize::try_from(pick % q.len() as u64).expect("index fits");
        Arc::clone(&q[i])
    }

    pub fn latest(&self) -> Arc<Resident> {
        let q = self.0.lock().expect("catalog lock poisoned");
        Arc::clone(q.back().expect("catalog is never empty after set-up"))
    }
}

/// Client-side recovery counters, summed the same way for both client
/// kinds.
#[derive(Debug, Default, Clone, Copy)]
pub struct ClientCounters {
    pub requests: u64,
    pub retries: u64,
    pub reconnects: u64,
    pub reuploads: u64,
    pub failovers: u64,
    pub refreshes: u64,
}

impl std::ops::Sub for ClientCounters {
    type Output = Self;

    fn sub(self, o: Self) -> Self {
        Self {
            requests: self.requests - o.requests,
            retries: self.retries - o.retries,
            reconnects: self.reconnects - o.reconnects,
            reuploads: self.reuploads - o.reuploads,
            failovers: self.failovers - o.failovers,
            refreshes: self.refreshes - o.refreshes,
        }
    }
}

impl std::ops::AddAssign for ClientCounters {
    fn add_assign(&mut self, o: Self) {
        self.requests += o.requests;
        self.retries += o.retries;
        self.reconnects += o.reconnects;
        self.reuploads += o.reuploads;
        self.failovers += o.failovers;
        self.refreshes += o.refreshes;
    }
}

/// A standalone server's resilient client, or a ring client.
pub enum Client {
    Single(RetryClient),
    Cluster(ClusterClient),
}

impl Client {
    pub fn load_matrix(&mut self, m: &Matrix) -> Result<u64, ServeError> {
        match self {
            Client::Single(c) => c.load_matrix(m),
            Client::Cluster(c) => c.load_matrix(m).map(|h| h.id),
        }
    }

    pub fn hmvp(
        &mut self,
        key_id: u64,
        matrix_id: u64,
        cts: &[RlweCiphertext],
    ) -> Result<HmvpResult, ServeError> {
        match self {
            Client::Single(c) => c.hmvp(key_id, matrix_id, cts, None),
            Client::Cluster(c) => c.hmvp(key_id, matrix_id, cts, None),
        }
    }

    pub fn counters(&self) -> ClientCounters {
        match self {
            Client::Single(c) => {
                let s = c.stats();
                ClientCounters {
                    requests: 0,
                    retries: s.retries,
                    reconnects: s.reconnects,
                    reuploads: s.reuploads,
                    failovers: s.failovers,
                    refreshes: 0,
                }
            }
            Client::Cluster(c) => {
                let s = c.stats();
                ClientCounters {
                    requests: s.per_node_requests.iter().sum(),
                    retries: s.retries,
                    reconnects: s.reconnects,
                    reuploads: s.reuploads,
                    failovers: s.failovers,
                    refreshes: s.refreshes,
                }
            }
        }
    }
}

/// Server-side counters the ledger reads, summed over nodes.
#[derive(Debug, Clone, Default)]
pub struct ServerView {
    pub introspect: Vec<IntrospectSnapshot>,
    pub store_hits: u64,
    pub store_misses: u64,
    pub store_restores: u64,
}

/// A running stack at the paper's parameters.
pub struct Stack {
    pub params: Arc<ChamParams>,
    pub hmvp: Hmvp,
    pub enc: Encryptor,
    pub dec: Decryptor,
    pub gkeys: GaloisKeys,
    pub key_id: u64,
    pub catalog: Catalog,
    pub batch_threads: usize,
    servers: Vec<Server>,
    endpoint: Endpoint,
    work_dir: Option<PathBuf>,
}

enum Endpoint {
    Single(String),
    Cluster(Topology),
}

/// What one set-up cost.
pub struct SetupReport {
    /// Keygen through the first verified result.
    pub seconds: f64,
    /// Each timed matrix upload.
    pub upload_ms: Vec<f64>,
}

fn policy(jitter_seed: u64) -> RetryPolicy {
    RetryPolicy {
        jitter_seed,
        ..RetryPolicy::default()
    }
}

impl Stack {
    /// Keygen → server start → key upload → matrix upload and encode →
    /// one verified HMVP; then `extra_uploads` timed uploads of fresh
    /// matrices the traffic never reads. `work_dir` holds the `churn`
    /// segment stores.
    pub fn start(
        wl: &Workload,
        seed: u64,
        workers: usize,
        faults: Option<Arc<FaultInjector>>,
        extra_uploads: usize,
        work_dir: &Path,
    ) -> (Self, SetupReport) {
        let t0 = Instant::now();
        let params = Arc::new(ChamParams::cham_default().expect("paper parameters build"));
        let mut rng = workload::stream(seed, tag::KEYS);
        let sk = SecretKey::generate(&params, &mut rng);
        let max_log = params.max_pack_log();
        let gkeys = GaloisKeys::generate_for_packing(&sk, max_log, &mut rng)
            .expect("packing keys generate");
        let indices: Vec<usize> = (1..=max_log).map(|j| (1usize << j) + 1).collect();

        let base = ServerConfig {
            workers,
            faults,
            ..ServerConfig::default()
        };
        let batch_threads = base.batch_threads;
        let (servers, endpoint, store_root) = if wl.churn {
            let ring = HashRing::new(NODES, VNODES, REPLICATION);
            let servers: Vec<Server> = (0..NODES)
                .map(|i| {
                    let config = ServerConfig {
                        shard: Some(ShardSpec::new(ring.clone(), i, 1)),
                        node_id: u64::from(i) + 1,
                        matrix_cache: CHURN_MATRIX_CACHE,
                        store_dir: Some(work_dir.join(format!("node{i}"))),
                        store_cap_bytes: CHURN_STORE_CAP,
                        ..base.clone()
                    };
                    Server::start("127.0.0.1:0", Arc::clone(&params), &config)
                        .expect("ring node starts")
                })
                .collect();
            let topology =
                Topology::new(servers.iter().map(|s| s.local_addr().to_string()).collect())
                    .expect("two-node topology")
                    .with_vnodes(VNODES)
                    .with_replication(REPLICATION)
                    .with_epoch(1);
            (
                servers,
                Endpoint::Cluster(topology),
                Some(work_dir.to_path_buf()),
            )
        } else {
            let server =
                Server::start("127.0.0.1:0", Arc::clone(&params), &base).expect("server starts");
            let addr = server.local_addr().to_string();
            (vec![server], Endpoint::Single(addr), None)
        };

        let hmvp = Hmvp::from_arc(Arc::clone(&params));
        let enc = Encryptor::new(&params, &sk);
        let dec = Decryptor::new(&params, &sk);
        let mut stack = Stack {
            params,
            hmvp,
            enc,
            dec,
            gkeys,
            key_id: 0,
            catalog: Catalog::default(),
            batch_threads,
            servers,
            endpoint,
            work_dir: store_root,
        };
        let mut client = stack.client(seed);
        stack.key_id = match &mut client {
            Client::Single(c) => c.load_keys(&stack.gkeys, &indices),
            Client::Cluster(c) => c.load_keys(&stack.gkeys, &indices),
        }
        .expect("key upload");

        let t = stack.params.plain_modulus().value();
        let mut seeds = workload::stream(seed, tag::MATRIX);
        let mut upload_ms = Vec::new();
        for _ in 0..if wl.churn { CHURN_INITIAL } else { 1 } {
            let matrix = workload::matrix(wl, seeds.gen(), t);
            let started = Instant::now();
            let id = client.load_matrix(&matrix).expect("set-up matrix upload");
            upload_ms.push(started.elapsed().as_secs_f64() * 1e3);
            stack.catalog.push(Resident {
                id,
                matrix,
                expected: Vec::new(),
            });
        }

        // The first verified result closes set-up.
        let mut qrng = workload::stream(seed, tag::FIRST_RESULT);
        let v: Vec<u64> = (0..wl.cols).map(|_| qrng.gen_range(0..t)).collect();
        let cts = stack
            .hmvp
            .encrypt_vector(&v, &stack.enc, &mut qrng)
            .expect("encrypt");
        let resident = stack.catalog.latest();
        let result = client
            .hmvp(stack.key_id, resident.id, &cts)
            .expect("first set-up HMVP");
        let got = stack
            .hmvp
            .decrypt_result(&result, &stack.dec)
            .expect("decrypt");
        let want = resident
            .matrix
            .mul_vector_mod(&v, stack.params.plain_modulus())
            .expect("reference product");
        assert_eq!(got, want, "first set-up HMVP decrypted to a wrong product");
        let seconds = t0.elapsed().as_secs_f64();
        for _ in 0..extra_uploads {
            let matrix = workload::matrix(wl, seeds.gen(), t);
            let started = Instant::now();
            client.load_matrix(&matrix).expect("extra matrix upload");
            upload_ms.push(started.elapsed().as_secs_f64() * 1e3);
        }
        (stack, SetupReport { seconds, upload_ms })
    }

    /// A fresh client; `jitter_seed` decorrelates retry backoff.
    pub fn client(&self, jitter_seed: u64) -> Client {
        match &self.endpoint {
            Endpoint::Single(addr) => Client::Single(RetryClient::new(
                addr.as_str(),
                Arc::clone(&self.params),
                ClientConfig::default(),
                policy(jitter_seed),
            )),
            Endpoint::Cluster(topology) => Client::Cluster(ClusterClient::with_config(
                topology.clone(),
                Arc::clone(&self.params),
                ClientConfig::default(),
                policy(jitter_seed),
            )),
        }
    }

    /// `n` fresh clients, jitter-seeded `jitter_seed ^ (stream + i)`.
    pub fn clients(&self, jitter_seed: u64, stream: u64, n: usize) -> Vec<Client> {
        (0..n as u64)
            .map(|i| self.client(jitter_seed ^ (stream + i)))
            .collect()
    }

    /// Precomputes the plain products of the fixed matrix with every query.
    pub fn precompute_expected(&self, queries: &[workload::Query]) {
        let mut q = self.catalog.0.lock().expect("catalog lock poisoned");
        if let [only] = q.make_contiguous() {
            let t = self.params.plain_modulus();
            let expected = queries
                .iter()
                .map(|qv| {
                    only.matrix
                        .mul_vector_mod(&qv.vector, t)
                        .expect("reference")
                })
                .collect();
            *only = Arc::new(Resident {
                id: only.id,
                matrix: only.matrix.clone(),
                expected,
            });
        }
    }

    pub fn view(&self) -> ServerView {
        let mut v = ServerView::default();
        for s in &self.servers {
            v.introspect.push(s.introspect());
            if let Some(store) = s.cache().store() {
                let st = store.stats();
                v.store_hits += st.hits;
                v.store_misses += st.misses;
            }
            v.store_restores += s.cache().store_restores();
        }
        v
    }

    /// Graceful shutdown of every node; removes the segment stores.
    pub fn shutdown(self) {
        for s in self.servers {
            s.shutdown();
        }
        if let Some(dir) = self.work_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}
