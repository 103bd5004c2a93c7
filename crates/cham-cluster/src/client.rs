//! [`ClusterClient`]: topology-aware routing, fan-out, and failover.
//!
//! Routing is by content id. Keys broadcast to every node (every shard
//! needs them to serve its share of requests); matrices go to the `R`
//! replicas the ring assigns their id; an HMVP follows its matrix id.
//! Large matrices are split into row *bands* — each band is its own
//! content-addressed object, landing on its own replica set — and an
//! HMVP against a sharded matrix fans out one sub-request per band,
//! reassembling the packed outputs in row order. Bands are aligned to
//! multiples of the ring dimension `N`, so each band's packed
//! ciphertexts are bit-identical to the corresponding slice of a
//! single-node result: sharding changes *where* rows are computed,
//! never *what* is computed.
//!
//! Failure handling is layered. Within a replica set, the underlying
//! [`RetryClient`] owns retry, reconnection, eviction replay, and
//! failover (its endpoint pool is the replica list, so a dead or
//! draining replica quarantines and the next one serves). Across the
//! cluster, this client owns *misrouting*: a server answering
//! [`ServeError::WrongShard`] proves the client's topology is stale, so
//! the client re-hellos the fleet, rebuilds the slot assignment from
//! each node's advertised `shard_index`, adopts the highest epoch, and
//! retries the operation once against the fresh map.

use crate::ring::HashRing;
use crate::topology::Topology;
use cham_he::ciphertext::RlweCiphertext;
use cham_he::hmvp::{HmvpResult, Matrix};
use cham_he::keys::GaloisKeys;
use cham_he::params::ChamParams;
use cham_he::wire;
use cham_serve::cache::content_hash;
use cham_serve::protocol::matrix_to_bytes;
use cham_serve::{
    ClientConfig, Endpoints, Result, RetryClient, RetryPolicy, ServeClient, ServeError,
};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// One fan-out group after its thread settles: the replica set keying
/// the route, the route's client (returned to the map), and each
/// band's outcome plus the endpoint that served it.
type BandOutcome = (usize, Result<HmvpResult>, Option<String>);
type SettledGroup = (Vec<u16>, RetryClient, Vec<BandOutcome>);

/// A replicated (unsharded) matrix upload: one object, `R` homes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatrixHandle {
    /// Content id (FNV-1a of the wire encoding) — the routing key.
    pub id: u64,
    /// Shape, as accepted by every replica.
    pub rows: usize,
    /// Columns.
    pub cols: usize,
    /// Replica slots holding the matrix at upload time.
    pub replicas: Vec<u16>,
}

/// One row band of a sharded matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Band {
    /// Content id of this band's sub-matrix.
    pub id: u64,
    /// First full-matrix row this band covers.
    pub start_row: usize,
    /// Rows in this band (a multiple of `N` except possibly the last).
    pub rows: usize,
    /// Replica slots holding the band at upload time.
    pub replicas: Vec<u16>,
}

/// A matrix split into row bands spread across the fleet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardedMatrix {
    /// Full-matrix rows.
    pub rows: usize,
    /// Columns.
    pub cols: usize,
    /// Bands in row order (contiguous, covering every row once).
    pub bands: Vec<Band>,
}

/// Aggregate counters across every route this client has used.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ClusterStatsSnapshot {
    /// Retry attempts across all routes.
    pub retries: u64,
    /// Reconnections across all routes.
    pub reconnects: u64,
    /// Key/matrix re-uploads after evictions.
    pub reuploads: u64,
    /// Errors absorbed by ultimately-successful operations.
    pub faults_recovered: u64,
    /// Replica failovers (endpoint switches) across all routes.
    pub failovers: u64,
    /// Matrix chunks actually sent over streamed uploads.
    pub chunks_sent: u64,
    /// Chunks skipped because the server already held them — the
    /// resumable-re-upload savings across retries and failovers.
    pub chunks_skipped: u64,
    /// Topology refreshes triggered by `WrongShard` answers (or called
    /// explicitly).
    pub refreshes: u64,
    /// Successful HMVP sub-requests attributed to each shard slot —
    /// the balance a bench asserts on.
    pub per_node_requests: Vec<u64>,
}

/// A client for a sharded, replicated `cham-serve` fleet.
///
/// Holds one [`RetryClient`] per distinct replica set it has routed to
/// (the "route"), each with the replica addresses as its failover
/// endpoint pool. Uploaded material is remembered per route, so an
/// eviction — or a failover onto a replica that never saw an upload —
/// replays exactly what the failed request needs.
pub struct ClusterClient {
    topology: Topology,
    ring: HashRing,
    params: Arc<ChamParams>,
    config: ClientConfig,
    policy: RetryPolicy,
    routes: HashMap<Vec<u16>, RetryClient>,
    key_uploads: HashMap<u64, Vec<u8>>,
    matrix_uploads: HashMap<u64, (Matrix, Vec<u16>)>,
    per_node_requests: Vec<u64>,
    refreshes: u64,
    retired: ClusterStatsSnapshot,
}

impl ClusterClient {
    /// Builds a client over `topology` with default timeouts and retry
    /// policy. No connection is made until the first operation.
    #[must_use]
    pub fn new(topology: Topology, params: Arc<ChamParams>) -> Self {
        Self::with_config(
            topology,
            params,
            ClientConfig::default(),
            RetryPolicy::default(),
        )
    }

    /// Builds a client with explicit timeouts and retry policy.
    #[must_use]
    pub fn with_config(
        topology: Topology,
        params: Arc<ChamParams>,
        config: ClientConfig,
        policy: RetryPolicy,
    ) -> Self {
        let ring = topology.ring();
        let nodes = topology.len();
        Self {
            topology,
            ring,
            params,
            config,
            policy,
            routes: HashMap::new(),
            key_uploads: HashMap::new(),
            matrix_uploads: HashMap::new(),
            per_node_requests: vec![0; nodes],
            refreshes: 0,
            retired: ClusterStatsSnapshot::default(),
        }
    }

    /// The topology currently routed against.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The ring currently routed with.
    #[must_use]
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// Aggregate counters: live routes + routes retired by refreshes.
    #[must_use]
    pub fn stats(&self) -> ClusterStatsSnapshot {
        let mut s = self.retired.clone();
        for rc in self.routes.values() {
            let r = rc.stats();
            s.retries += r.retries;
            s.reconnects += r.reconnects;
            s.reuploads += r.reuploads;
            s.faults_recovered += r.faults_recovered;
            s.failovers += r.failovers;
            s.chunks_sent += r.chunks_sent;
            s.chunks_skipped += r.chunks_skipped;
        }
        s.refreshes = self.refreshes;
        s.per_node_requests = self.per_node_requests.clone();
        s
    }

    /// Uploads a Galois key set to *every* node — any shard may be
    /// asked to rotate with it. Returns the content id (identical on
    /// every node: ids are content hashes).
    ///
    /// # Errors
    /// The first node whose upload exhausts its retry policy.
    pub fn load_keys(&mut self, keys: &GaloisKeys, indices: &[usize]) -> Result<u64> {
        let bytes = wire::galois_keys_to_bytes(keys, indices)?;
        let mut id = 0;
        for i in 0..self.topology.len() as u16 {
            id = self.route(&[i]).load_keys_bytes(bytes.clone())?;
        }
        // Seed every existing multi-replica route's replay store too, so
        // a failover there can re-upload without a broadcast round.
        for rc in self.routes.values_mut() {
            rc.remember_keys_bytes(id, bytes.clone());
        }
        self.key_uploads.insert(id, bytes);
        Ok(id)
    }

    /// Uploads a matrix to the `R` replicas its content id maps to.
    ///
    /// # Errors
    /// Upload failures after retry/failover, or a server disagreeing
    /// about the content id (a corrupted transfer).
    pub fn load_matrix(&mut self, matrix: &Matrix) -> Result<MatrixHandle> {
        match self.try_load_matrix(matrix) {
            Err(ServeError::WrongShard { .. }) => {
                self.refresh_topology()?;
                self.try_load_matrix(matrix)
            }
            other => other,
        }
    }

    fn try_load_matrix(&mut self, matrix: &Matrix) -> Result<MatrixHandle> {
        // The id is the hash of the wire encoding — computable locally,
        // which is what lets the client route *before* uploading.
        let id = content_hash(&matrix_to_bytes(matrix));
        let replicas = self.ring.replicas(id);
        for &i in &replicas {
            let got = self.route(&[i]).load_matrix(matrix)?;
            if got != id {
                return Err(ServeError::BadFrame(
                    "server reported a different matrix id than the upload hashes to",
                ));
            }
        }
        for (key, rc) in &mut self.routes {
            if key.iter().any(|r| replicas.contains(r)) {
                rc.remember_matrix(id, matrix.clone());
            }
        }
        self.matrix_uploads
            .insert(id, (matrix.clone(), replicas.clone()));
        Ok(MatrixHandle {
            id,
            rows: matrix.rows(),
            cols: matrix.cols(),
            replicas,
        })
    }

    /// Splits `matrix` into row bands of about `band_rows` rows —
    /// rounded up to a multiple of the ring dimension `N`, so each
    /// band's packed outputs are bit-identical to the corresponding
    /// single-node slice — and uploads each band to its own replica
    /// set. Each band uploads as streamed, resumable chunks (see `cham_serve::ServeClient::load_matrix_streamed`),
    /// so a mid-band disconnect re-sends only the missing pieces.
    ///
    /// # Errors
    /// Any band upload failing after retry/failover.
    pub fn load_matrix_sharded(
        &mut self,
        matrix: &Matrix,
        band_rows: usize,
    ) -> Result<ShardedMatrix> {
        let degree = self.params.degree();
        let band_rows = band_rows.max(1).div_ceil(degree) * degree;
        let mut bands = Vec::new();
        let mut start = 0;
        while start < matrix.rows() {
            let rows = band_rows.min(matrix.rows() - start);
            let mut data = Vec::with_capacity(rows * matrix.cols());
            for r in start..start + rows {
                data.extend_from_slice(matrix.row(r));
            }
            let sub = Matrix::from_data(rows, matrix.cols(), data)?;
            let handle = self.load_matrix(&sub)?;
            bands.push(Band {
                id: handle.id,
                start_row: start,
                rows,
                replicas: handle.replicas,
            });
            start += rows;
        }
        Ok(ShardedMatrix {
            rows: matrix.rows(),
            cols: matrix.cols(),
            bands,
        })
    }

    /// One HMVP against a replicated matrix, routed to its replica set
    /// with failover, re-routed once through a topology refresh on a
    /// `WrongShard` answer.
    ///
    /// # Errors
    /// Non-recoverable errors, or recoverable ones that exhausted the
    /// retry policy.
    pub fn hmvp(
        &mut self,
        key_id: u64,
        matrix_id: u64,
        cts: &[RlweCiphertext],
        deadline: Option<Duration>,
    ) -> Result<HmvpResult> {
        match self.try_hmvp(key_id, matrix_id, cts, deadline) {
            Err(ServeError::WrongShard { .. }) => {
                self.refresh_topology()?;
                self.try_hmvp(key_id, matrix_id, cts, deadline)
            }
            other => other,
        }
    }

    fn try_hmvp(
        &mut self,
        key_id: u64,
        matrix_id: u64,
        cts: &[RlweCiphertext],
        deadline: Option<Duration>,
    ) -> Result<HmvpResult> {
        let replicas = self.ring.replicas(matrix_id);
        let result = self.route(&replicas).hmvp(key_id, matrix_id, cts, deadline);
        if result.is_ok() {
            self.attribute(&replicas);
        }
        result
    }

    /// One HMVP against a sharded matrix: fans one sub-request per band
    /// out across the fleet (bands sharing a replica set share one
    /// connection and thread), reassembles the packed outputs in row
    /// order. On any band answering `WrongShard`, refreshes the
    /// topology and replays the whole fan-out once.
    ///
    /// # Errors
    /// The first band error, after every in-flight band settles.
    pub fn hmvp_sharded(
        &mut self,
        key_id: u64,
        sharded: &ShardedMatrix,
        cts: &[RlweCiphertext],
        deadline: Option<Duration>,
    ) -> Result<HmvpResult> {
        match self.try_hmvp_sharded(key_id, sharded, cts, deadline) {
            Err(ServeError::WrongShard { .. }) => {
                self.refresh_topology()?;
                self.try_hmvp_sharded(key_id, sharded, cts, deadline)
            }
            other => other,
        }
    }

    fn try_hmvp_sharded(
        &mut self,
        key_id: u64,
        sharded: &ShardedMatrix,
        cts: &[RlweCiphertext],
        deadline: Option<Duration>,
    ) -> Result<HmvpResult> {
        // Group bands by the replica set the *current* ring assigns
        // them (which after a refresh may differ from upload time).
        let mut groups: HashMap<Vec<u16>, Vec<usize>> = HashMap::new();
        for (i, band) in sharded.bands.iter().enumerate() {
            groups
                .entry(self.ring.replicas(band.id))
                .or_default()
                .push(i);
        }
        // Each group's RetryClient leaves the route map for the scope's
        // duration — threads own their connection exclusively.
        let mut work: Vec<(Vec<u16>, Vec<usize>, RetryClient)> = Vec::with_capacity(groups.len());
        for (replicas, band_indices) in groups {
            self.route(&replicas);
            let rc = self
                .routes
                .remove(&replicas)
                .expect("route created just above");
            work.push((replicas, band_indices, rc));
        }
        let mut settled: Vec<SettledGroup> = std::thread::scope(|scope| {
            let handles: Vec<_> = work
                .drain(..)
                .map(|(replicas, band_indices, mut rc)| {
                    scope.spawn(move || {
                        let mut outs = Vec::with_capacity(band_indices.len());
                        for i in band_indices {
                            let band = &sharded.bands[i];
                            let r = rc.hmvp(key_id, band.id, cts, deadline);
                            let failed = r.is_err();
                            // The endpoint right after the call is the
                            // replica that actually served (or None on
                            // failure) — captured per band, because a
                            // later failover would misattribute
                            // earlier successes.
                            let served_at = rc.endpoint().map(String::from);
                            outs.push((i, r, served_at));
                            if failed {
                                // One terminal failure fails the
                                // fan-out; don't hammer the shard
                                // with the rest of the group.
                                break;
                            }
                        }
                        (replicas, rc, outs)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("fan-out worker panicked"))
                .collect()
        });
        let mut band_results: Vec<Option<HmvpResult>> =
            (0..sharded.bands.len()).map(|_| None).collect();
        let mut first_err: Option<ServeError> = None;
        for (replicas, rc, outs) in settled.drain(..) {
            for (i, result, served_at) in outs {
                match result {
                    Ok(v) => {
                        let slot = served_at
                            .as_deref()
                            .and_then(|addr| self.topology.shard_index_of(addr))
                            .or_else(|| replicas.first().copied());
                        if let Some(slot) = slot {
                            self.per_node_requests[usize::from(slot)] += 1;
                        }
                        band_results[i] = Some(v);
                    }
                    Err(e) => {
                        // WrongShard outranks other errors: it is the
                        // one the caller can fix with a refresh.
                        let wrong = matches!(e, ServeError::WrongShard { .. });
                        if first_err.is_none()
                            || (wrong && !matches!(first_err, Some(ServeError::WrongShard { .. })))
                        {
                            first_err = Some(e);
                        }
                    }
                }
            }
            self.routes.insert(replicas, rc);
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        // Reassemble in row order: bands are contiguous row ranges, and
        // band alignment to N means concatenating packed outputs yields
        // exactly the single-node packing.
        let mut packed = Vec::new();
        for r in band_results {
            packed.extend(r.expect("every band settled without error").packed);
        }
        Ok(HmvpResult {
            packed,
            len: sharded.rows,
        })
    }

    /// Quarantines one node's address in every route that can reach it
    /// — the sink for the health loop's confirmed-down verdicts. The
    /// cooldown is the policy's `down_quarantine` (`None`) or an
    /// explicit override; either way it outlasts the optimistic
    /// per-failure cooldown, so routing stops re-dialing a node the
    /// monitor has condemned until it has actually answered probes
    /// again. Returns how many routes held the address.
    pub fn quarantine_node(&mut self, addr: &str, cooldown: Option<Duration>) -> usize {
        let mut hit = 0;
        for rc in self.routes.values_mut() {
            if rc.quarantine_endpoint(addr, cooldown) {
                hit += 1;
            }
        }
        hit
    }

    /// Rebuilds the slot→address assignment from the fleet's own hello
    /// answers: every reachable node reports the `shard_index` it
    /// enforces, the client adopts that placement and the highest
    /// advertised epoch, and drops every cached route (their endpoint
    /// pools may now be wrong). Unreachable nodes keep their current
    /// slot. Called automatically when a server answers `WrongShard`.
    ///
    /// # Errors
    /// [`ServeError::BadFrame`] when no node is reachable, a node
    /// disagrees about the fleet size, or two nodes claim one slot.
    pub fn refresh_topology(&mut self) -> Result<()> {
        let fleet = self.topology.len();
        let mut placed: Vec<Option<String>> = vec![None; fleet];
        let mut epoch = self.topology.epoch();
        let mut reachable = 0usize;
        for addr in self.topology.nodes() {
            let Ok(client) =
                ServeClient::connect_with(addr.as_str(), Arc::clone(&self.params), &self.config)
            else {
                continue;
            };
            reachable += 1;
            let Some(identity) = client.server_info().cluster else {
                // A pre-cluster (or unsharded) server: nothing to learn.
                continue;
            };
            if usize::from(identity.shard_count) != fleet {
                return Err(ServeError::BadFrame(
                    "a node disagrees about the cluster size",
                ));
            }
            let slot = usize::from(identity.shard_index);
            if let Some(prior) = &placed[slot] {
                if prior != addr {
                    return Err(ServeError::BadFrame("two nodes claim the same shard slot"));
                }
            }
            placed[slot] = Some(addr.clone());
            epoch = epoch.max(identity.epoch);
        }
        if reachable == 0 {
            return Err(ServeError::BadFrame(
                "no cluster node answered the topology refresh",
            ));
        }
        let nodes: Vec<String> = placed
            .iter()
            .enumerate()
            .map(|(i, slot)| {
                slot.clone()
                    .unwrap_or_else(|| self.topology.addr(i as u16).to_string())
            })
            .collect();
        self.topology = Topology::new(nodes)?
            .with_epoch(epoch)
            .with_vnodes(self.ring.vnodes())
            .with_replication(self.topology.replication());
        self.ring = self.topology.ring();
        self.retire_routes();
        self.refreshes += 1;
        Ok(())
    }

    /// The route (one `RetryClient` whose endpoint pool is the replica
    /// addresses) for a replica set, created and seeded on first use.
    fn route(&mut self, replicas: &[u16]) -> &mut RetryClient {
        if !self.routes.contains_key(replicas) {
            let addrs: Vec<String> = replicas
                .iter()
                .map(|&i| self.topology.addr(i).to_string())
                .collect();
            let mut rc = RetryClient::new(
                Endpoints::fixed(addrs),
                Arc::clone(&self.params),
                self.config,
                self.policy,
            );
            // Seed the replay store with everything this route's shards
            // should already hold, so an eviction or a failover onto a
            // cold replica recovers without caller involvement.
            for (&id, bytes) in &self.key_uploads {
                rc.remember_keys_bytes(id, bytes.clone());
            }
            for (&id, (matrix, homes)) in &self.matrix_uploads {
                if homes.iter().any(|h| replicas.contains(h)) {
                    rc.remember_matrix(id, matrix.clone());
                }
            }
            self.routes.insert(replicas.to_vec(), rc);
        }
        self.routes.get_mut(replicas).expect("route just ensured")
    }

    /// Credits a successful request to the slot that actually served it
    /// (the route's live endpoint; its primary when disconnected).
    fn attribute(&mut self, replicas: &[u16]) {
        let slot = self
            .routes
            .get(replicas)
            .and_then(RetryClient::endpoint)
            .and_then(|addr| self.topology.shard_index_of(addr))
            .or_else(|| replicas.first().copied());
        if let Some(slot) = slot {
            self.per_node_requests[usize::from(slot)] += 1;
        }
    }

    /// Drops every cached route, folding its counters into the retired
    /// accumulator so `stats()` never loses history.
    fn retire_routes(&mut self) {
        for (_, rc) in self.routes.drain() {
            let s = rc.stats();
            self.retired.retries += s.retries;
            self.retired.reconnects += s.reconnects;
            self.retired.reuploads += s.reuploads;
            self.retired.faults_recovered += s.faults_recovered;
            self.retired.failovers += s.failovers;
            self.retired.chunks_sent += s.chunks_sent;
            self.retired.chunks_skipped += s.chunks_skipped;
        }
    }
}
