//! Channel-level (micro) rebalancing — Algorithm 1 of the paper.
//!
//! For every channel the load balancer computes the
//! publications-to-subscribers ratio `P_ratio` and its inverse `S_ratio`
//! and decides whether the channel should use *all-subscribers*
//! replication (very high publication volume), *all-publishers*
//! replication (very high subscriber count), or no replication. When
//! both quantities are very large, all-subscribers wins because
//! all-publishers would multiply every publication by the replica count
//! (§III-B1, corner case).

use crate::channel::Channel as ChannelId;
use crate::hashing::Ring;
use crate::ids::ServerId;
use crate::plan::{ChannelMapping, Plan};

use super::estimator::LoadView;
use super::metrics::ChannelAggregate;
use super::Tuning;

/// The outcome of Algorithm 1 for one channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicationDecision {
    /// Use all-subscribers replication over this many servers.
    AllSubscribers(usize),
    /// Use all-publishers replication over this many servers.
    AllPublishers(usize),
    /// Do not replicate (cancel replication if active).
    None,
}

/// Algorithm 1: decides whether `channel` metrics warrant replication
/// and over how many servers.
pub fn decide(agg: &ChannelAggregate, cfg: impl Into<Tuning>) -> ReplicationDecision {
    let cfg: Tuning = cfg.into();
    let pubs = agg.publications_per_tick;
    let subs = agg.subscribers;
    let p_ratio = pubs / subs.max(1.0);
    let s_ratio = subs / pubs.max(1.0);
    if p_ratio > cfg.all_subs_threshold && pubs > cfg.publication_threshold {
        let n = (p_ratio / cfg.all_subs_threshold).ceil() as usize;
        ReplicationDecision::AllSubscribers(n.clamp(2, cfg.max_replication))
    } else if s_ratio > cfg.all_pubs_threshold && subs > cfg.subscriber_threshold {
        let n = (s_ratio / cfg.all_pubs_threshold).ceil() as usize;
        ReplicationDecision::AllPublishers(n.clamp(2, cfg.max_replication))
    } else {
        ReplicationDecision::None
    }
}

/// Applies Algorithm 1 to every channel in `aggregates`, mutating
/// `plan` and the estimated `view`. Returns `true` if the plan changed.
///
/// Server selection follows §III-B1: when replication is enabled or
/// grown, the least-loaded servers are added first; when it shrinks or
/// is cancelled, the busiest members are freed first.
///
/// `excluded` is the balancer's quarantine set: unmapped channels
/// resolve through [`Plan::resolve_excluding`] so a channel ring-homed
/// on a dead broker is attributed to the healthy server actually
/// carrying it.
pub fn apply(
    plan: &mut Plan,
    ring: &Ring,
    aggregates: &[(ChannelId, ChannelAggregate)],
    view: &mut LoadView,
    active: &[ServerId],
    cfg: impl Into<Tuning>,
    excluded: &[ServerId],
) -> bool {
    let cfg: Tuning = cfg.into();
    let mut changed = false;
    for (channel, agg) in aggregates {
        let decision = decide(agg, cfg);
        let current = plan.resolve_excluding(*channel, ring, excluded);
        match decision {
            ReplicationDecision::None => {
                if current.is_replicated() {
                    // Cancel replication: collapse to the member that is
                    // currently least loaded.
                    let keep = least_loaded_member(view, current.servers());
                    plan.set(*channel, ChannelMapping::Single(keep));
                    view.rereplicate(*channel, &[keep]);
                    changed = true;
                }
            }
            ReplicationDecision::AllSubscribers(n) | ReplicationDecision::AllPublishers(n) => {
                let n = n.min(active.len());
                if n < 2 {
                    continue; // not enough servers to replicate
                }
                // Stability: if the channel already runs the right scheme
                // over the right number of (still active) servers, keep
                // the existing membership instead of reshuffling it.
                let mode_matches = matches!(
                    (&decision, &current),
                    (
                        ReplicationDecision::AllSubscribers(_),
                        ChannelMapping::AllSubscribers(_)
                    ) | (
                        ReplicationDecision::AllPublishers(_),
                        ChannelMapping::AllPublishers(_)
                    )
                );
                if mode_matches
                    && current.replication_factor() == n
                    && current.servers().iter().all(|s| active.contains(s))
                {
                    continue;
                }
                let members = select_members(view, current.servers(), active, n);
                let mapping = match decision {
                    ReplicationDecision::AllSubscribers(_) => {
                        ChannelMapping::AllSubscribers(members.clone())
                    }
                    ReplicationDecision::AllPublishers(_) => {
                        ChannelMapping::AllPublishers(members.clone())
                    }
                    ReplicationDecision::None => unreachable!(),
                };
                if mapping != current {
                    // `n >= 2` holds above, but a degenerate member
                    // list must not unwind the balancer thread.
                    if plan.try_set(*channel, mapping).is_err() {
                        continue;
                    }
                    view.rereplicate(*channel, &members);
                    changed = true;
                }
            }
        }
    }
    changed
}

fn least_loaded_member(view: &LoadView, members: &[ServerId]) -> ServerId {
    members
        .iter()
        .copied()
        .min_by(|&a, &b| {
            view.load_ratio(a)
                .total_cmp(&view.load_ratio(b))
                .then(a.cmp(&b))
        })
        // Decoded mappings always have members, but a degenerate empty
        // list degrades to server 0 instead of unwinding the balancer.
        .unwrap_or(ServerId::from_index(0))
}

/// Chooses `n` servers for a replicated channel: existing members are
/// kept (busiest dropped first when shrinking), then the least-loaded
/// non-member servers fill the remaining slots.
fn select_members(
    view: &LoadView,
    current: &[ServerId],
    active: &[ServerId],
    n: usize,
) -> Vec<ServerId> {
    // Existing members sorted least-loaded first, so truncation frees
    // the busiest first.
    let mut members: Vec<ServerId> = current
        .iter()
        .copied()
        .filter(|s| active.contains(s))
        .collect();
    members.sort_by(|&a, &b| {
        view.load_ratio(a)
            .total_cmp(&view.load_ratio(b))
            .then(a.cmp(&b))
    });
    members.truncate(n);
    if members.len() < n {
        let mut candidates: Vec<ServerId> = active
            .iter()
            .copied()
            .filter(|s| !members.contains(s))
            .collect();
        candidates.sort_by(|&a, &b| {
            view.load_ratio(a)
                .total_cmp(&view.load_ratio(b))
                .then(a.cmp(&b))
        });
        members.extend(candidates.into_iter().take(n - members.len()));
    }
    members
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balance::metrics::{ChannelTick, LlaReport, MetricsStore};
    use dynamoth_sim::NodeId;

    fn sid(i: usize) -> ServerId {
        ServerId(NodeId::from_index(i))
    }

    fn cfg() -> Tuning {
        Tuning {
            all_subs_threshold: 100.0,
            publication_threshold: 500.0,
            all_pubs_threshold: 20.0,
            subscriber_threshold: 100.0,
            max_replication: 3,
            ..Tuning::default()
        }
    }

    fn agg(pubs: f64, subs: f64) -> ChannelAggregate {
        ChannelAggregate {
            publications_per_tick: pubs,
            subscribers: subs,
            ..Default::default()
        }
    }

    #[test]
    fn high_publication_ratio_triggers_all_subscribers() {
        // 2000 pubs/tick to 1 subscriber: P_ratio = 2000.
        let d = decide(&agg(2_000.0, 1.0), cfg());
        assert_eq!(d, ReplicationDecision::AllSubscribers(3)); // ceil(20) clamped to 3
    }

    #[test]
    fn high_subscriber_ratio_triggers_all_publishers() {
        // 10 pubs/tick, 500 subscribers: S_ratio = 50.
        let d = decide(&agg(10.0, 500.0), cfg());
        assert_eq!(d, ReplicationDecision::AllPublishers(3));
    }

    #[test]
    fn small_channels_are_not_replicated() {
        assert_eq!(decide(&agg(3.0, 12.0), cfg()), ReplicationDecision::None);
        // High ratio but too few publications.
        assert_eq!(decide(&agg(400.0, 1.0), cfg()), ReplicationDecision::None);
        // Many subscribers but ratio below threshold.
        assert_eq!(decide(&agg(50.0, 600.0), cfg()), ReplicationDecision::None);
    }

    #[test]
    fn corner_case_prefers_all_subscribers() {
        // Both publications AND subscribers are huge; the first branch
        // (all-subscribers) must win (§III-B1 corner case).
        let mut c = cfg();
        c.all_subs_threshold = 1.5;
        c.publication_threshold = 100.0;
        let d = decide(&agg(100_000.0, 1_000.0), c);
        assert!(matches!(d, ReplicationDecision::AllSubscribers(_)), "{d:?}");
    }

    #[test]
    fn n_servers_scales_with_ratio() {
        let mut c = cfg();
        c.max_replication = 16;
        // P_ratio = 450 → ceil(4.5) = 5 servers.
        assert_eq!(
            decide(&agg(900.0, 2.0), c),
            ReplicationDecision::AllSubscribers(5)
        );
    }

    fn view_with_loads(loads: &[(usize, u64)]) -> LoadView {
        let mut store = MetricsStore::new(1);
        for &(s, egress) in loads {
            store.record(LlaReport {
                server: sid(s),
                tick: 0,
                measured_egress_bytes: egress,
                capacity_bytes: 1_000.0,
                cpu_busy_micros: 0,
                channels: vec![(
                    ChannelId(9),
                    ChannelTick {
                        bytes_out: egress / 2,
                        ..Default::default()
                    },
                )],
            });
        }
        let servers: Vec<ServerId> = loads.iter().map(|&(s, _)| sid(s)).collect();
        LoadView::from_store(&store, &servers, 1_000.0)
    }

    #[test]
    fn apply_enables_replication_on_least_loaded_servers() {
        let active = vec![sid(0), sid(1), sid(2), sid(3)];
        let ring = Ring::new(&active, 16);
        let mut plan = Plan::bootstrap();
        let mut view = view_with_loads(&[(0, 900), (1, 100), (2, 500), (3, 200)]);
        let aggregates = vec![(ChannelId(9), agg(2_000.0, 1.0))];
        let changed = apply(
            &mut plan,
            &ring,
            &aggregates,
            &mut view,
            &active,
            cfg(),
            &[],
        );
        assert!(changed);
        let mapping = plan.mapping(ChannelId(9)).unwrap();
        match mapping {
            ChannelMapping::AllSubscribers(v) => {
                assert_eq!(v.len(), 3);
                // Depending on where the channel hashed, its current home
                // is kept; the fill servers must be the least loaded.
                assert!(v.contains(&sid(1)), "{v:?}");
                assert!(v.contains(&sid(3)), "{v:?}");
            }
            other => panic!("expected all-subscribers, got {other:?}"),
        }
    }

    #[test]
    fn apply_cancels_replication_when_load_drops() {
        let active = vec![sid(0), sid(1)];
        let ring = Ring::new(&active, 16);
        let mut plan = Plan::bootstrap();
        plan.set(
            ChannelId(9),
            ChannelMapping::AllSubscribers(vec![sid(0), sid(1)]),
        );
        let mut view = view_with_loads(&[(0, 900), (1, 100)]);
        let aggregates = vec![(ChannelId(9), agg(1.0, 1.0))];
        let changed = apply(
            &mut plan,
            &ring,
            &aggregates,
            &mut view,
            &active,
            cfg(),
            &[],
        );
        assert!(changed);
        // Collapsed onto the least loaded member.
        assert_eq!(
            plan.mapping(ChannelId(9)),
            Some(&ChannelMapping::Single(sid(1)))
        );
    }

    #[test]
    fn apply_is_stable_when_nothing_changes() {
        let active = vec![sid(0), sid(1)];
        let ring = Ring::new(&active, 16);
        let mut plan = Plan::bootstrap();
        let mut view = view_with_loads(&[(0, 500), (1, 500)]);
        let aggregates = vec![(ChannelId(9), agg(2.0, 3.0))];
        assert!(!apply(
            &mut plan,
            &ring,
            &aggregates,
            &mut view,
            &active,
            cfg(),
            &[]
        ));
        assert!(plan.is_empty());
    }

    #[test]
    fn replication_never_exceeds_active_servers() {
        let active = vec![sid(0), sid(1)];
        let ring = Ring::new(&active, 16);
        let mut plan = Plan::bootstrap();
        let mut view = view_with_loads(&[(0, 500), (1, 500)]);
        let aggregates = vec![(ChannelId(9), agg(100_000.0, 1.0))];
        apply(
            &mut plan,
            &ring,
            &aggregates,
            &mut view,
            &active,
            cfg(),
            &[],
        );
        assert_eq!(plan.mapping(ChannelId(9)).unwrap().replication_factor(), 2);
    }

    #[test]
    fn single_active_server_disables_replication() {
        let active = vec![sid(0)];
        let ring = Ring::new(&active, 16);
        let mut plan = Plan::bootstrap();
        let mut view = view_with_loads(&[(0, 500)]);
        let aggregates = vec![(ChannelId(9), agg(100_000.0, 1.0))];
        assert!(!apply(
            &mut plan,
            &ring,
            &aggregates,
            &mut view,
            &active,
            cfg(),
            &[]
        ));
    }
}
