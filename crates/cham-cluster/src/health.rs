//! Failure detection: a seeded-jitter heartbeat loop over `Ping`.
//!
//! A [`HealthMonitor`] probes every node of a [`Topology`] with the
//! protocol's existing `Ping`/`Pong` stats frames (short timeouts, one
//! fresh connection per probe — a wedged accept loop must fail the
//! probe, not hang it) and runs a per-node state machine:
//!
//! ```text
//!             misses >= suspect_after        misses >= down_after
//!        Up ───────────────────────▶ Suspect ────────────────────▶ Down
//!         ▲                            │  ▲                         │
//!         └────────────────────────────┘  └─────────────────────────┘
//!            hits >= recover_after            first successful probe
//! ```
//!
//! `Down` is deliberately sticky on the way up: a recovering node is
//! promoted `Down → Suspect` on its first answered probe and must then
//! string together [`HealthConfig::recover_after`] consecutive answers
//! before it is `Up` again — one lucky probe against a flapping node
//! must not route traffic back to it. Probe order is fixed (slot
//! order) but the *pacing* is jittered from a seeded stream
//! ([`HealthMonitor::next_pause`]), so a fleet of monitors started
//! together does not probe in lockstep.
//!
//! Verdicts are plain data ([`HealthTransition`]); feeding a `Down`
//! verdict into routing (`ClusterClient::quarantine_node`, backed by
//! `RetryPolicy::down_quarantine`) is the caller's choice — the
//! monitor never mutates routing state behind the client's back.
//! Every probe and transition lands in always-on
//! `cham_cluster.health.*` counters, and an attached
//! [`FlightRecorder`] gets one event per state change.

use crate::topology::Topology;
use cham_he::params::ChamParams;
use cham_serve::{ClientConfig, ServeClient};
use cham_telemetry::counter_add;
use cham_telemetry::flight::{FlightEventKind, FlightRecorder};
use std::sync::Arc;
use std::time::Duration;

/// Where the state machine places a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeHealth {
    /// Answering probes; routable.
    Up,
    /// Missed recent probes (or is freshly back from `Down`) — not yet
    /// condemned, not yet trusted.
    Suspect,
    /// Confirmed dead: missed [`HealthConfig::down_after`] consecutive
    /// probes. Routing should quarantine it past the optimistic
    /// per-failure cooldown.
    Down,
}

/// Thresholds and pacing for the heartbeat loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthConfig {
    /// Base pause between probe rounds; each round's actual pause is
    /// `interval` scaled by seeded jitter in `[0.5, 1.5]`.
    pub interval: Duration,
    /// Seed for the jitter stream (deterministic per monitor).
    pub jitter_seed: u64,
    /// Consecutive misses before `Up` demotes to `Suspect` (≥ 1).
    pub suspect_after: u32,
    /// Consecutive misses before `Suspect` condemns to `Down`
    /// (≥ `suspect_after`).
    pub down_after: u32,
    /// Consecutive hits a `Suspect` node needs to be `Up` (≥ 1).
    pub recover_after: u32,
    /// Per-probe connect/read bound — well under `interval`, so one
    /// dead node cannot stall the round past the next tick.
    pub probe_timeout: Duration,
}

impl Default for HealthConfig {
    fn default() -> Self {
        Self {
            interval: Duration::from_millis(500),
            jitter_seed: 0,
            suspect_after: 1,
            down_after: 3,
            recover_after: 2,
            probe_timeout: Duration::from_millis(250),
        }
    }
}

/// One node's place in the state machine plus its streak counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeState {
    /// Current verdict.
    pub health: NodeHealth,
    /// Consecutive missed probes (reset by any hit).
    pub misses: u32,
    /// Consecutive answered probes (reset by any miss).
    pub hits: u32,
}

/// A state change produced by one probe round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthTransition {
    /// Ring slot of the node that changed.
    pub slot: u16,
    /// Its address (cloned from the topology, so verdicts stay
    /// meaningful after the monitor is dropped).
    pub addr: String,
    /// State before the round.
    pub from: NodeHealth,
    /// State after the round.
    pub to: NodeHealth,
}

// Same generator cham-serve seeds its fault and jitter streams with;
// duplicated because it is crate-private there and three lines long.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The per-fleet heartbeat monitor. Owns no sockets between rounds.
pub struct HealthMonitor {
    topology: Topology,
    params: Arc<ChamParams>,
    config: HealthConfig,
    probe_config: ClientConfig,
    states: Vec<NodeState>,
    rng: SplitMix64,
    flight: Option<Arc<FlightRecorder>>,
}

impl HealthMonitor {
    /// Builds a monitor over `topology`; every node starts `Up` (the
    /// optimistic prior — a fleet is presumed healthy until probed).
    /// Degenerate thresholds are clamped into a consistent shape.
    #[must_use]
    pub fn new(topology: Topology, params: Arc<ChamParams>, config: HealthConfig) -> Self {
        let suspect_after = config.suspect_after.max(1);
        let config = HealthConfig {
            suspect_after,
            down_after: config.down_after.max(suspect_after),
            recover_after: config.recover_after.max(1),
            ..config
        };
        let probe_config = ClientConfig {
            connect_timeout: config.probe_timeout,
            read_timeout: Some(config.probe_timeout),
            write_timeout: Some(config.probe_timeout),
        };
        let states = vec![
            NodeState {
                health: NodeHealth::Up,
                misses: 0,
                hits: 0,
            };
            topology.len()
        ];
        Self {
            topology,
            params,
            config,
            probe_config,
            states,
            rng: SplitMix64(config.jitter_seed),
            flight: None,
        }
    }

    /// Attaches a flight recorder; every subsequent state change lands
    /// in it as an event (demotions as `Fault`, recoveries as
    /// `Shutdown`-kind "cleared" notes — the recorder has no neutral
    /// kind, and a recovery is operationally a fault *ending*).
    #[must_use]
    pub fn with_flight(mut self, flight: Arc<FlightRecorder>) -> Self {
        self.flight = Some(flight);
        self
    }

    /// The effective (clamped) configuration.
    #[must_use]
    pub fn config(&self) -> &HealthConfig {
        &self.config
    }

    /// Current verdict per slot.
    #[must_use]
    pub fn states(&self) -> &[NodeState] {
        &self.states
    }

    /// Slots currently condemned `Down`.
    #[must_use]
    pub fn down_slots(&self) -> Vec<u16> {
        self.states
            .iter()
            .enumerate()
            .filter(|(_, s)| s.health == NodeHealth::Down)
            .map(|(i, _)| i as u16)
            .collect()
    }

    /// The jittered pause before the next probe round: `interval`
    /// scaled by `[0.5, 1.5]` from the seeded stream.
    pub fn next_pause(&mut self) -> Duration {
        self.config.interval.mul_f64(0.5 + self.rng.next_f64())
    }

    /// One probe round over the real fleet: pings every node under the
    /// short probe timeouts and advances the state machine. Returns
    /// the transitions this round produced.
    pub fn tick(&mut self) -> Vec<HealthTransition> {
        let params = Arc::clone(&self.params);
        let probe_config = self.probe_config;
        self.tick_with(|addr| {
            ServeClient::connect_with(addr, Arc::clone(&params), &probe_config)
                .and_then(|mut c| c.ping())
                .is_ok()
        })
    }

    /// One probe round with an injected probe function — the pure
    /// state-machine driver [`Self::tick`] wraps, and what the unit
    /// tests script failure sequences through.
    pub fn tick_with(&mut self, mut probe: impl FnMut(&str) -> bool) -> Vec<HealthTransition> {
        let addrs: Vec<String> = self.topology.nodes().to_vec();
        let mut transitions = Vec::new();
        for (i, addr) in addrs.iter().enumerate() {
            counter_add!("cham_cluster.health.probes", 1);
            let answered = probe(addr);
            let s = &mut self.states[i];
            if answered {
                s.hits += 1;
                s.misses = 0;
            } else {
                counter_add!("cham_cluster.health.misses", 1);
                s.misses += 1;
                s.hits = 0;
            }
            let next = match s.health {
                NodeHealth::Up if s.misses >= self.config.suspect_after => NodeHealth::Suspect,
                NodeHealth::Suspect if s.misses >= self.config.down_after => NodeHealth::Down,
                NodeHealth::Suspect if s.hits >= self.config.recover_after => NodeHealth::Up,
                // One answered probe lifts a condemned node back to
                // Suspect; it earns Up via the recover streak.
                NodeHealth::Down if answered => NodeHealth::Suspect,
                current => current,
            };
            if next != s.health {
                let from = s.health;
                s.health = next;
                match next {
                    NodeHealth::Up => counter_add!("cham_cluster.health.recovered", 1),
                    NodeHealth::Suspect => counter_add!("cham_cluster.health.suspected", 1),
                    NodeHealth::Down => counter_add!("cham_cluster.health.down", 1),
                }
                if let Some(flight) = &self.flight {
                    let kind = match next {
                        NodeHealth::Up => FlightEventKind::Shutdown,
                        _ => FlightEventKind::Fault,
                    };
                    flight.record_event(
                        kind,
                        format!("health: node {i} ({addr}) {from:?} -> {next:?}"),
                        None,
                    );
                }
                transitions.push(HealthTransition {
                    slot: i as u16,
                    addr: addr.clone(),
                    from,
                    to: next,
                });
            }
        }
        transitions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn monitor(config: HealthConfig) -> HealthMonitor {
        let t = Topology::parse("a:1,b:2,c:3").unwrap();
        let params = Arc::new(cham_he::params::ChamParams::insecure_test_default().unwrap());
        HealthMonitor::new(t, params, config)
    }

    #[test]
    fn demotion_escalates_through_suspect_to_down() {
        let mut m = monitor(HealthConfig {
            suspect_after: 1,
            down_after: 3,
            recover_after: 2,
            ..HealthConfig::default()
        });
        // Node "b:2" stops answering; the others stay healthy.
        let dead = |addr: &str| addr != "b:2";

        let t1 = m.tick_with(dead);
        assert_eq!(t1.len(), 1);
        assert_eq!(t1[0].slot, 1);
        assert_eq!(
            (t1[0].from, t1[0].to),
            (NodeHealth::Up, NodeHealth::Suspect)
        );

        // Second miss: still suspect (down needs 3 consecutive).
        assert!(m.tick_with(dead).is_empty());
        let t3 = m.tick_with(dead);
        assert_eq!(t3.len(), 1);
        assert_eq!(
            (t3[0].from, t3[0].to),
            (NodeHealth::Suspect, NodeHealth::Down)
        );
        assert_eq!(m.down_slots(), vec![1]);
        // Healthy nodes never transitioned.
        assert_eq!(m.states()[0].health, NodeHealth::Up);
        assert_eq!(m.states()[2].health, NodeHealth::Up);
        // Down is absorbing while the node stays dead.
        assert!(m.tick_with(dead).is_empty());
    }

    #[test]
    fn recovery_is_sticky_down_to_suspect_to_up() {
        let mut m = monitor(HealthConfig {
            suspect_after: 1,
            down_after: 2,
            recover_after: 2,
            ..HealthConfig::default()
        });
        for _ in 0..2 {
            m.tick_with(|addr| addr != "c:3");
        }
        assert_eq!(m.down_slots(), vec![2]);

        // First answered probe: Down -> Suspect, not Up.
        let t = m.tick_with(|_| true);
        assert_eq!(t.len(), 1);
        assert_eq!(
            (t[0].from, t[0].to),
            (NodeHealth::Down, NodeHealth::Suspect)
        );

        // A flap resets the recovery streak (hits back to 0) but a
        // single miss is not enough to re-condemn...
        assert!(m.tick_with(|addr| addr != "c:3").is_empty());
        // ...while a second consecutive miss is.
        let t = m.tick_with(|addr| addr != "c:3");
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].to, NodeHealth::Down);

        // Back to Suspect on the first answer, then the full recover
        // streak earns Up.
        assert_eq!(m.tick_with(|_| true)[0].to, NodeHealth::Suspect);
        let t = m.tick_with(|_| true);
        assert_eq!(t.len(), 1);
        assert_eq!((t[0].from, t[0].to), (NodeHealth::Suspect, NodeHealth::Up));
        assert!(m.down_slots().is_empty());
    }

    #[test]
    fn jittered_pause_is_seeded_and_bounded() {
        let base = Duration::from_millis(100);
        let cfg = HealthConfig {
            interval: base,
            jitter_seed: 42,
            ..HealthConfig::default()
        };
        let mut a = monitor(cfg);
        let mut b = monitor(cfg);
        for _ in 0..16 {
            let pa = a.next_pause();
            assert_eq!(pa, b.next_pause());
            assert!(pa >= base.mul_f64(0.5) && pa <= base.mul_f64(1.5));
        }
        // A different seed walks a different schedule.
        let mut c = monitor(HealthConfig {
            jitter_seed: 43,
            ..cfg
        });
        let schedule_a: Vec<_> = (0..8).map(|_| a.next_pause()).collect();
        let schedule_c: Vec<_> = (0..8).map(|_| c.next_pause()).collect();
        assert_ne!(schedule_a, schedule_c);
    }

    #[test]
    fn degenerate_thresholds_are_clamped() {
        let m = monitor(HealthConfig {
            suspect_after: 0,
            down_after: 0,
            recover_after: 0,
            ..HealthConfig::default()
        });
        assert_eq!(m.config().suspect_after, 1);
        assert_eq!(m.config().down_after, 1);
        assert_eq!(m.config().recover_after, 1);
    }
}
