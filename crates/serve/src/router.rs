//! Request routing across replicas.
//!
//! Every routing decision — a fresh arrival, an eviction spilling to a
//! sibling, a draining replica redistributing its residents, a finished
//! prefill handing its KV to the decode side — goes through
//! [`RouterPolicy::route`]. The fleet hands it a deterministic snapshot of
//! every *accepting* replica that can take the work ([`ReplicaView`],
//! ascending id — in a disaggregated fleet arrivals see only the
//! prefill-capable subset and KV handoffs only the decode-capable subset)
//! and the request's session id; the policy returns the destination replica
//! id. Routing is deterministic in its inputs and call order: the fleet
//! report is asserted bit-identical across host thread counts and reruns.

use serde::{Deserialize, Serialize};

/// A deterministic snapshot of one replica, as the router sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ReplicaView {
    /// Replica index within the fleet.
    pub(crate) id: usize,
    /// KV blocks currently resident (running requests plus migrated-in
    /// reservations).
    pub(crate) resident_blocks: u64,
    /// Projected KV demand of the waiting queue, in blocks.
    pub(crate) queued_blocks: u64,
}

/// The routing policies, selectable on
/// [`FleetBuilder::router`](crate::FleetBuilder::router).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RouterPolicy {
    /// Cycle through the accepting replicas in order.
    RoundRobin,
    /// Send to the replica with the fewest KV blocks committed (resident
    /// plus projected waiting-queue demand); ties break on the lowest id.
    LeastLoaded,
    /// Pin each session to a replica by rendezvous (highest-random-weight)
    /// hash of `(session, replica)`: a session keeps hitting the replica
    /// that holds its warm KV pages, and removing a replica remaps *only*
    /// the sessions that lived on it.
    CacheAffinity,
}

impl RouterPolicy {
    /// Stable lowercase name, used in report rows.
    pub fn name(self) -> &'static str {
        match self {
            RouterPolicy::RoundRobin => "round-robin",
            RouterPolicy::LeastLoaded => "least-loaded",
            RouterPolicy::CacheAffinity => "cache-affinity",
        }
    }

    /// Picks a destination for `session` among `views` — the accepting
    /// replicas in ascending id order, never empty — and returns its id.
    ///
    /// `cursor` is round-robin's state: the last id it routed to. Round-robin
    /// tracks that *id* rather than a position counter, because a counter
    /// taken modulo the *current* view count aliases across accepting-set
    /// changes: after two routes over `[0, 1, 2]` it stands at 2, and if
    /// replica 0 then drains, `2 % 2` serves replica 1 *again*. Picking the
    /// smallest accepting id strictly greater than the last one (wrapping to
    /// the lowest) keeps the rotation fair through drains and failures. The
    /// other policies leave `cursor` untouched.
    pub(crate) fn route(
        self,
        cursor: &mut Option<usize>,
        session: u64,
        views: &[ReplicaView],
    ) -> usize {
        match self {
            RouterPolicy::RoundRobin => {
                let first = views[0].id;
                // Views arrive in ascending id order: the first id strictly
                // greater than the last-routed one is the cycle successor.
                let pick = cursor.map_or(first, |last| {
                    views
                        .iter()
                        .map(|v| v.id)
                        .find(|&id| id > last)
                        .unwrap_or(first)
                });
                *cursor = Some(pick);
                pick
            }
            RouterPolicy::LeastLoaded => {
                views
                    .iter()
                    .min_by_key(|v| (v.resident_blocks + v.queued_blocks, v.id))
                    .expect("routing is never called with zero views")
                    .id
            }
            RouterPolicy::CacheAffinity => {
                views
                    .iter()
                    .max_by_key(|v| (fnv1a64(session, fnv1a64(v.id as u64, 0)), v.id))
                    .expect("routing is never called with zero views")
                    .id
            }
        }
    }
}

/// FNV-1a over the little-endian bytes of `x`; deterministic across
/// platforms.
fn fnv1a64(x: u64, seed: u64) -> u64 {
    let mut h = 0xcbf29ce484222325u64 ^ seed;
    for b in x.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(id: usize, resident: u64, queued: u64) -> ReplicaView {
        ReplicaView {
            id,
            resident_blocks: resident,
            queued_blocks: queued,
        }
    }

    /// `policy` routing `session` over `views` with a fresh cursor.
    fn route_once(policy: RouterPolicy, session: u64, views: &[ReplicaView]) -> usize {
        policy.route(&mut None, session, views)
    }

    #[test]
    fn round_robin_cycles_and_survives_shrinkage() {
        let mut cursor = None;
        let mut r = |views: &[ReplicaView]| RouterPolicy::RoundRobin.route(&mut cursor, 0, views);
        let views: Vec<_> = (0..3).map(|i| view(i, 0, 0)).collect();
        let picks: Vec<_> = (0..6).map(|_| r(&views)).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
        // A replica disappears mid-stream: the cycle continues over the rest.
        let fewer = vec![view(0, 0, 0), view(2, 0, 0)];
        let picks: Vec<_> = (0..4).map(|_| r(&fewer)).collect();
        assert_eq!(picks, vec![0, 2, 0, 2]);
    }

    #[test]
    fn round_robin_does_not_alias_across_a_mid_cycle_drain() {
        // Regression: the old implementation kept a global counter and took
        // it modulo the *current* view count. After two routes over
        // [0, 1, 2] that counter stood at 2, so when replica 0 drained the
        // next pick was views[2 % 2] = replica 1 — serving 1 twice in a row
        // and skipping 2, purely because of the counter's parity.
        let mut cursor = None;
        let mut r = |views: &[ReplicaView]| RouterPolicy::RoundRobin.route(&mut cursor, 0, views);
        let full: Vec<_> = (0..3).map(|i| view(i, 0, 0)).collect();
        assert_eq!(r(&full), 0);
        assert_eq!(r(&full), 1);
        // Replica 0 drains mid-cycle: the cycle successor of 1 is 2.
        let survivors = vec![view(1, 0, 0), view(2, 0, 0)];
        let picks: Vec<_> = (0..8).map(|_| r(&survivors)).collect();
        assert_eq!(
            picks,
            vec![2, 1, 2, 1, 2, 1, 2, 1],
            "the survivors must alternate starting from the cycle successor"
        );
        let to_1 = picks.iter().filter(|&&p| p == 1).count();
        assert_eq!(to_1, 4, "survivors must split the stream evenly");
    }

    #[test]
    fn round_robin_wraps_and_routes_each_subset_fairly() {
        // The fleet keeps one cursor per routing phase, so the prefill
        // subset {0, 1} and the decode subset {4, 5} each keep a fair cycle
        // even when arrivals and handoffs interleave.
        let rr = RouterPolicy::RoundRobin;
        let (mut prefill, mut decode) = (None, None);
        let pre = vec![view(0, 0, 0), view(1, 0, 0)];
        let dec = vec![view(4, 0, 0), view(5, 0, 0)];
        let picks: Vec<_> = (0..4)
            .flat_map(|_| {
                [
                    rr.route(&mut prefill, 0, &pre),
                    rr.route(&mut decode, 0, &dec),
                ]
            })
            .collect();
        assert_eq!(picks, vec![0, 4, 1, 5, 0, 4, 1, 5]);
        // A cursor past the top accepting id wraps to the lowest.
        let mut cursor = None;
        assert_eq!(rr.route(&mut cursor, 0, &dec), 4);
        assert_eq!(rr.route(&mut cursor, 0, &dec), 5);
        assert_eq!(
            rr.route(&mut cursor, 0, &pre),
            0,
            "no id > 5: wrap to the lowest"
        );
    }

    #[test]
    fn least_loaded_picks_min_resident_blocks() {
        let r = |views: &[ReplicaView]| route_once(RouterPolicy::LeastLoaded, 9, views);
        assert_eq!(r(&[view(0, 40, 0), view(1, 7, 0), view(2, 12, 0)]), 1);
        // Queued demand counts as committed load.
        assert_eq!(r(&[view(0, 10, 0), view(1, 2, 30), view(2, 12, 0)]), 0);
        // Ties break on the lowest id.
        assert_eq!(r(&[view(0, 5, 0), view(1, 5, 0)]), 0);
    }

    #[test]
    fn affinity_is_deterministic_and_spreads_sessions() {
        let r = |s: u64, views: &[ReplicaView]| route_once(RouterPolicy::CacheAffinity, s, views);
        let views: Vec<_> = (0..4).map(|i| view(i, 0, 0)).collect();
        let a: Vec<_> = (0..256).map(|s| r(s, &views)).collect();
        let b: Vec<_> = (0..256).map(|s| r(s, &views)).collect();
        assert_eq!(a, b, "same session must always map to the same replica");
        // Load does not perturb the mapping (it is a pure session hash).
        let loaded: Vec<_> = (0..4).map(|i| view(i, 100 * i as u64, 9)).collect();
        let c: Vec<_> = (0..256).map(|s| r(s, &loaded)).collect();
        assert_eq!(a, c);
        // Every replica owns a reasonable share of 256 sessions.
        for id in 0..4 {
            let n = a.iter().filter(|&&x| x == id).count();
            assert!((20..=110).contains(&n), "replica {id} owns {n}/256");
        }
    }

    #[test]
    fn affinity_is_stable_under_replica_failure() {
        let r = |s: u64, views: &[ReplicaView]| route_once(RouterPolicy::CacheAffinity, s, views);
        let full: Vec<_> = (0..4).map(|i| view(i, 0, 0)).collect();
        let before: Vec<_> = (0..512).map(|s| r(s, &full)).collect();
        // Replica 2 fails: only its sessions may remap.
        let survivors: Vec<_> = full.iter().copied().filter(|v| v.id != 2).collect();
        for (s, &was) in before.iter().enumerate() {
            let now = r(s as u64, &survivors);
            if was == 2 {
                assert_ne!(now, 2);
            } else {
                assert_eq!(now, was, "session {s} moved despite its replica surviving");
            }
        }
    }
}
