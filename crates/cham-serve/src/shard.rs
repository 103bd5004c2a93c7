//! Consistent-hash ring and shard identity for multi-node serving.
//!
//! A cluster of `cham-serve` processes partitions content-addressed
//! material (Galois key sets, matrices — see [`crate::cache`]) across
//! shard *slots* `0..nodes` with a classic consistent-hash ring:
//! every slot projects [`HashRing::vnodes`] virtual points onto the
//! `u64` circle, a key hashes to a point on the same circle, and its
//! owners are the next [`HashRing::replication`] *distinct* slots
//! clockwise from that point. Because a slot's points depend only on
//! `(slot, vnode)`, growing or shrinking the cluster by one node moves
//! roughly `1/nodes` of the keyspace and nothing else — the consistent-
//! hashing contract the `cham-cluster` property tests pin.
//!
//! The ring deliberately speaks in **slot indices**, not addresses. The
//! address a slot answers at lives in the client's `Topology`
//! (`cham-cluster`), which can go stale; a server knows only its own
//! [`ShardSpec`] and answers misrouted requests with a typed
//! [`crate::ServeError::WrongShard`] carrying the ring epoch, so a
//! stale client refreshes its address map instead of retrying blindly.

/// Default virtual nodes per slot. 64 is the floor at which the
/// distribution-balance property holds within 15%; the default doubles
/// it for headroom.
pub const DEFAULT_VNODES: u32 = 128;

/// Default replication factor (each key lives on this many slots).
pub const DEFAULT_REPLICATION: u16 = 2;

/// SplitMix64 finalizer: a cheap, well-distributed `u64 -> u64` mixer.
/// Used both to project `(slot, vnode)` pairs onto the ring and to hash
/// keys before lookup, so raw content ids need no distribution
/// guarantees of their own.
#[must_use]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A consistent-hash ring over `nodes` shard slots.
///
/// Construction is deterministic: two rings built with the same
/// `(nodes, vnodes, replication)` agree on every lookup, so clients and
/// servers never exchange ring state — only the three parameters (which
/// travel in the hello response) and the epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashRing {
    /// Sorted `(point, slot)` pairs — the unit circle.
    points: Vec<(u64, u16)>,
    nodes: u16,
    vnodes: u32,
    replication: u16,
}

impl HashRing {
    /// Builds the ring for `nodes` slots.
    ///
    /// `vnodes` and `replication` are clamped to at least 1; replica
    /// sets never exceed `nodes` (a 2-way ring over one node has
    /// one-element replica sets).
    #[must_use]
    pub fn new(nodes: u16, vnodes: u32, replication: u16) -> Self {
        let nodes = nodes.max(1);
        let vnodes = vnodes.max(1);
        let mut points = Vec::with_capacity(nodes as usize * vnodes as usize);
        for slot in 0..nodes {
            for v in 0..vnodes {
                // The point depends only on (slot, vnode): adding a new
                // slot adds its points and moves nobody else's.
                let point = mix64((u64::from(slot) << 32) | u64::from(v));
                points.push((point, slot));
            }
        }
        points.sort_unstable();
        Self {
            points,
            nodes,
            vnodes,
            replication: replication.max(1),
        }
    }

    /// Ring with the default vnode count and replication factor.
    #[must_use]
    pub fn with_defaults(nodes: u16) -> Self {
        Self::new(nodes, DEFAULT_VNODES, DEFAULT_REPLICATION)
    }

    /// Number of shard slots.
    #[must_use]
    pub fn nodes(&self) -> u16 {
        self.nodes
    }

    /// Virtual nodes per slot.
    #[must_use]
    pub fn vnodes(&self) -> u32 {
        self.vnodes
    }

    /// Configured replication factor (replica sets are capped at
    /// [`Self::nodes`]).
    #[must_use]
    pub fn replication(&self) -> u16 {
        self.replication
    }

    /// Index into `points` where the clockwise walk for `key` starts.
    fn start(&self, key: u64) -> usize {
        let h = mix64(key);
        let i = self.points.partition_point(|p| p.0 < h);
        if i == self.points.len() {
            0
        } else {
            i
        }
    }

    /// The slot that owns `key` (first replica).
    #[must_use]
    pub fn primary(&self, key: u64) -> u16 {
        self.points[self.start(key)].1
    }

    /// The ordered replica set for `key`: the first
    /// `min(replication, nodes)` *distinct* slots clockwise from the
    /// key's point. The first entry is [`Self::primary`].
    #[must_use]
    pub fn replicas(&self, key: u64) -> Vec<u16> {
        let want = (self.replication as usize).min(self.nodes as usize);
        let mut out = Vec::with_capacity(want);
        let start = self.start(key);
        for off in 0..self.points.len() {
            let slot = self.points[(start + off) % self.points.len()].1;
            if !out.contains(&slot) {
                out.push(slot);
                if out.len() == want {
                    break;
                }
            }
        }
        out
    }

    /// Whether `slot` is one of `key`'s replicas — the check a shard-
    /// configured server runs before accepting an upload or HMVP.
    #[must_use]
    pub fn owns(&self, key: u64, slot: u16) -> bool {
        self.replicas(key).contains(&slot)
    }
}

/// One server's place in a cluster: the shared ring, this node's slot,
/// and the topology epoch (bumped whenever the operator rewires the
/// fleet, so a stale client's [`crate::ServeError::WrongShard`] carries
/// enough context to know *its* map is the old one).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSpec {
    /// The ring every cluster member agrees on.
    pub ring: HashRing,
    /// This server's slot in `0..ring.nodes()`.
    pub shard_index: u16,
    /// Monotonic topology epoch.
    pub epoch: u64,
}

impl ShardSpec {
    /// Builds a spec, clamping `shard_index` into range.
    #[must_use]
    pub fn new(ring: HashRing, shard_index: u16, epoch: u64) -> Self {
        let shard_index = shard_index.min(ring.nodes().saturating_sub(1));
        Self {
            ring,
            shard_index,
            epoch,
        }
    }
}

/// Cluster identity a server advertises in its hello response (absent
/// on standalone servers). Clients use the
/// advertised `shard_index` to rebuild a stale address map without any
/// out-of-band discovery service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterIdentity {
    /// Operator-assigned node id (for log/top attribution; `0` = unset).
    pub node_id: u64,
    /// The slot this server serves.
    pub shard_index: u16,
    /// Total slots in the ring (`0` never appears — standalone servers
    /// advertise no identity at all).
    pub shard_count: u16,
    /// The server's topology epoch.
    pub epoch: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_is_deterministic_and_in_range() {
        let a = HashRing::new(5, 64, 2);
        let b = HashRing::new(5, 64, 2);
        for key in 0..1000u64 {
            assert_eq!(a.primary(key), b.primary(key));
            assert!(a.primary(key) < 5);
            assert_eq!(a.replicas(key), b.replicas(key));
        }
    }

    #[test]
    fn replicas_are_distinct_capped_and_led_by_primary() {
        let ring = HashRing::new(3, 32, 2);
        for key in 0..500u64 {
            let reps = ring.replicas(key);
            assert_eq!(reps.len(), 2);
            assert_ne!(reps[0], reps[1]);
            assert_eq!(reps[0], ring.primary(key));
            assert!(ring.owns(key, reps[0]) && ring.owns(key, reps[1]));
        }
        // Replication beyond the node count caps at the node count.
        let tiny = HashRing::new(2, 16, 5);
        assert_eq!(tiny.replicas(42).len(), 2);
        let solo = HashRing::new(1, 16, 3);
        assert_eq!(solo.replicas(42), vec![0]);
        assert!(solo.owns(7, 0));
    }

    #[test]
    fn degenerate_parameters_are_clamped() {
        let ring = HashRing::new(0, 0, 0);
        assert_eq!(ring.nodes(), 1);
        assert_eq!(ring.vnodes(), 1);
        assert_eq!(ring.replication(), 1);
        assert_eq!(ring.primary(99), 0);
        let spec = ShardSpec::new(HashRing::with_defaults(3), 9, 1);
        assert_eq!(spec.shard_index, 2);
    }

    #[test]
    fn ownership_excludes_non_replicas() {
        let ring = HashRing::new(4, 64, 2);
        for key in 0..200u64 {
            let reps = ring.replicas(key);
            let owners = (0..4u16).filter(|&s| ring.owns(key, s)).count();
            assert_eq!(owners, reps.len());
        }
    }
}
