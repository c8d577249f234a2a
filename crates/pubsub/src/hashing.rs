//! Consistent hashing with virtual identifiers.
//!
//! This is both the bootstrap mapping of Dynamoth (plan 0 and every
//! channel a plan does not mention, §II-C) and the baseline load
//! balancer the paper compares against in Experiment 2. Each server
//! owns a configurable number of *virtual identifiers* on a 64-bit ring;
//! a channel maps to the server owning the first identifier clockwise
//! from the channel's hash.
//!
//! Hashing uses a fixed avalanche mix (the output step of
//! [`dynamoth_sim::SimRng`]) rather than `std`'s `RandomState` so that
//! mappings are stable across processes and runs.

use crate::channel::Channel as ChannelId;
use crate::ids::ServerId;

/// Number of virtual identifiers per server used by default; high enough
/// that channel shares are roughly even, matching the paper's
/// assumption.
pub const DEFAULT_VNODES: u32 = 100;

fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A consistent-hashing ring mapping channels to servers.
///
/// # Examples
///
/// ```
/// use dynamoth_pubsub::{Channel, Ring, ServerId};
///
/// let s0 = ServerId::from_index(0);
/// let s1 = ServerId::from_index(1);
/// let ring = Ring::new(&[s0, s1], 100);
/// let home = ring.server_for(Channel(42));
/// assert!(home == s0 || home == s1);
/// // Lookups are deterministic.
/// assert_eq!(home, ring.server_for(Channel(42)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ring {
    // Sorted by point for binary search.
    points: Vec<(u64, ServerId)>,
    servers: Vec<ServerId>,
    vnodes: u32,
}

impl Ring {
    /// Builds a ring over `servers`, each owning `vnodes` virtual
    /// identifiers.
    ///
    /// # Panics
    ///
    /// Panics if `servers` is empty or `vnodes` is zero.
    pub fn new(servers: &[ServerId], vnodes: u32) -> Self {
        assert!(!servers.is_empty(), "ring needs at least one server");
        assert!(vnodes > 0, "vnodes must be positive");
        let mut ring = Ring {
            points: Vec::with_capacity(servers.len() * vnodes as usize),
            servers: Vec::new(),
            vnodes,
        };
        for &s in servers {
            ring.insert_points(s);
            ring.servers.push(s);
        }
        ring.points.sort_unstable();
        ring
    }

    fn insert_points(&mut self, server: ServerId) {
        let base = mix(server.0.index() as u64 ^ 0xABCD_EF01);
        for k in 0..self.vnodes {
            self.points.push((mix(base ^ mix(k as u64)), server));
        }
    }

    /// The server responsible for `channel`.
    pub fn server_for(&self, channel: ChannelId) -> ServerId {
        let h = mix(channel.0 ^ 0x1234_5678_9ABC_DEF0);
        let idx = self.points.partition_point(|&(p, _)| p < h);
        // Wrap around the ring.
        let (_, server) = self.points[idx % self.points.len()];
        server
    }

    /// The server responsible for `channel`, skipping the virtual
    /// identifiers of `excluded` servers (used by the reliability
    /// extension to route around servers believed dead). Returns `None`
    /// when every server is excluded. Deterministic: every client
    /// excluding the same set resolves to the same survivor.
    pub fn server_for_excluding(
        &self,
        channel: ChannelId,
        excluded: &[ServerId],
    ) -> Option<ServerId> {
        let h = mix(channel.0 ^ 0x1234_5678_9ABC_DEF0);
        let start = self.points.partition_point(|&(p, _)| p < h);
        (0..self.points.len())
            .map(|k| self.points[(start + k) % self.points.len()].1)
            .find(|s| !excluded.contains(s))
    }

    /// The distinct servers in ring order starting at `channel`'s hash
    /// point: the natural owner first, then each successive fallback.
    /// This is the walk order of the bounded-load spill rule
    /// (*Consistent Hashing with Bounded Loads*, arXiv 1608.01350): the
    /// emergency replan takes the first server on this walk whose
    /// projected load stays under the (1+ε)× mean cap. Deterministic
    /// for a given ring, and consistent with
    /// [`Self::server_for_excluding`]: excluding a set and taking the
    /// first non-excluded walk entry agree.
    pub fn walk(&self, channel: ChannelId) -> Vec<ServerId> {
        let h = mix(channel.0 ^ 0x1234_5678_9ABC_DEF0);
        let start = self.points.partition_point(|&(p, _)| p < h);
        let mut order = Vec::with_capacity(self.servers.len());
        // A seen-set instead of `order.contains` per point: the walk
        // runs per channel in the replan and placement hot loops, and a
        // linear scan per virtual identifier made it O(points²) on
        // large rings.
        let mut seen: std::collections::HashSet<ServerId> =
            std::collections::HashSet::with_capacity(self.servers.len());
        for k in 0..self.points.len() {
            let s = self.points[(start + k) % self.points.len()].1;
            if seen.insert(s) {
                order.push(s);
                if order.len() == self.servers.len() {
                    break;
                }
            }
        }
        order
    }

    /// Adds a server to the ring (used by the consistent-hashing
    /// baseline when it rents a new machine). No-op if already present.
    pub fn add_server(&mut self, server: ServerId) {
        if self.servers.contains(&server) {
            return;
        }
        self.servers.push(server);
        self.insert_points(server);
        self.points.sort_unstable();
    }

    /// Removes a server; its virtual identifiers (and channels) fall to
    /// the remaining servers.
    ///
    /// # Panics
    ///
    /// Panics if removing the last server.
    pub fn remove_server(&mut self, server: ServerId) {
        if !self.servers.contains(&server) {
            return;
        }
        assert!(self.servers.len() > 1, "cannot remove the last server");
        self.servers.retain(|&s| s != server);
        self.points.retain(|&(_, s)| s != server);
    }

    /// The servers currently on the ring, in insertion order.
    pub fn servers(&self) -> &[ServerId] {
        &self.servers
    }

    /// Number of servers on the ring.
    pub fn len(&self) -> usize {
        self.servers.len()
    }

    /// `false` always (a ring cannot be empty).
    pub fn is_empty(&self) -> bool {
        self.servers.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn servers(n: usize) -> Vec<ServerId> {
        (0..n).map(ServerId::from_index).collect()
    }

    #[test]
    fn lookup_is_deterministic() {
        let ring = Ring::new(&servers(4), 100);
        for c in 0..100 {
            assert_eq!(ring.server_for(ChannelId(c)), ring.server_for(ChannelId(c)));
        }
    }

    #[test]
    fn single_server_gets_everything() {
        let ring = Ring::new(&servers(1), 10);
        for c in 0..50 {
            assert_eq!(ring.server_for(ChannelId(c)), servers(1)[0]);
        }
    }

    #[test]
    fn distribution_is_roughly_even() {
        let ss = servers(4);
        let ring = Ring::new(&ss, DEFAULT_VNODES);
        let mut counts = vec![0usize; 4];
        let n = 10_000;
        for c in 0..n {
            let s = ring.server_for(ChannelId(c));
            counts[ss.iter().position(|&x| x == s).unwrap()] += 1;
        }
        for &count in &counts {
            let share = count as f64 / n as f64;
            assert!(
                (0.15..0.35).contains(&share),
                "share {share} should be near 0.25: {counts:?}"
            );
        }
    }

    #[test]
    fn walk_visits_every_server_once_and_agrees_with_exclusion() {
        let ss = servers(5);
        let ring = Ring::new(&ss, DEFAULT_VNODES);
        for c in 0..200 {
            let walk = ring.walk(ChannelId(c));
            assert_eq!(walk.len(), 5, "walk must cover every server");
            let mut sorted = walk.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 5, "walk entries must be distinct");
            assert_eq!(walk[0], ring.server_for(ChannelId(c)));
            // Excluding the first k walk entries resolves to entry k.
            for k in 0..5 {
                assert_eq!(
                    ring.server_for_excluding(ChannelId(c), &walk[..k]),
                    Some(walk[k])
                );
            }
            assert_eq!(ring.server_for_excluding(ChannelId(c), &walk), None);
        }
    }

    #[test]
    fn lookups_are_independent_of_insertion_order() {
        // `points` is sorted by the (point, server) tuple, so even when
        // two servers' virtual identifiers collide on the same point the
        // tie-break is the server id — never the order servers were
        // added. Build the same membership three ways (constructor
        // order, reversed, and incremental add/remove) and require
        // identical walks everywhere.
        let ss = servers(5);
        let forward = Ring::new(&ss, DEFAULT_VNODES);
        let mut reversed_ids = ss.clone();
        reversed_ids.reverse();
        let reversed = Ring::new(&reversed_ids, DEFAULT_VNODES);
        let mut incremental = Ring::new(&[ss[3]], DEFAULT_VNODES);
        for &s in [ss[1], ss[4], ss[0], ss[2]].iter() {
            incremental.add_server(s);
        }
        // A detour through extra membership must not leave residue.
        incremental.add_server(ServerId::from_index(9));
        incremental.remove_server(ServerId::from_index(9));
        for c in 0..500 {
            let channel = ChannelId(c);
            let walk = forward.walk(channel);
            assert_eq!(walk, reversed.walk(channel));
            assert_eq!(walk, incremental.walk(channel));
            assert_eq!(forward.server_for(channel), reversed.server_for(channel));
            assert_eq!(forward.server_for(channel), incremental.server_for(channel));
        }
    }

    #[test]
    fn adding_a_server_moves_only_some_channels() {
        let ss = servers(4);
        let mut ring = Ring::new(&ss, DEFAULT_VNODES);
        let before: Vec<ServerId> = (0..1_000).map(|c| ring.server_for(ChannelId(c))).collect();
        let new = ServerId::from_index(9);
        ring.add_server(new);
        let mut moved = 0;
        for c in 0..1_000 {
            let after = ring.server_for(ChannelId(c));
            if after != before[c as usize] {
                // Every moved channel must move to the new server.
                assert_eq!(after, new, "channel {c} moved to an old server");
                moved += 1;
            }
        }
        // Roughly 1/5 of channels should move.
        assert!((100..350).contains(&moved), "moved {moved}");
    }

    #[test]
    fn removing_a_server_relocates_only_its_channels() {
        let ss = servers(4);
        let mut ring = Ring::new(&ss, DEFAULT_VNODES);
        let victim = ss[2];
        let before: Vec<ServerId> = (0..1_000).map(|c| ring.server_for(ChannelId(c))).collect();
        ring.remove_server(victim);
        for c in 0..1_000 {
            let after = ring.server_for(ChannelId(c));
            if before[c as usize] != victim {
                assert_eq!(after, before[c as usize], "unaffected channel {c} moved");
            } else {
                assert_ne!(after, victim);
            }
        }
    }

    #[test]
    fn exclusion_lookup_routes_around_dead_servers() {
        let ss = servers(4);
        let ring = Ring::new(&ss, DEFAULT_VNODES);
        for c in 0..200 {
            let channel = ChannelId(c);
            let home = ring.server_for(channel);
            assert_eq!(ring.server_for_excluding(channel, &[]), Some(home));
            let alt = ring.server_for_excluding(channel, &[home]).unwrap();
            assert_ne!(alt, home);
            // Unaffected channels keep their home.
            let other = ss.iter().copied().find(|&s| s != home).unwrap();
            if home != other {
                assert_eq!(ring.server_for_excluding(channel, &[other]), Some(home));
            }
        }
        assert_eq!(ring.server_for_excluding(ChannelId(1), &ss), None);
    }

    #[test]
    fn add_is_idempotent_and_remove_of_absent_is_noop() {
        let ss = servers(2);
        let mut ring = Ring::new(&ss, 10);
        ring.add_server(ss[0]);
        assert_eq!(ring.len(), 2);
        ring.remove_server(ServerId::from_index(77));
        assert_eq!(ring.len(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn empty_ring_panics() {
        let _ = Ring::new(&[], 10);
    }

    #[test]
    #[should_panic(expected = "cannot remove the last server")]
    fn removing_last_server_panics() {
        let ss = servers(1);
        let mut ring = Ring::new(&ss, 10);
        ring.remove_server(ss[0]);
    }
}
