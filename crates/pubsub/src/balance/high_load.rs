//! System-level high-load rebalancing — Algorithm 2 of the paper.
//!
//! While any pub/sub server's load ratio exceeds `LR_high`, the busiest
//! channels of the most loaded server are migrated to the least loaded
//! server until the *estimated* load ratio of the source falls below
//! `LR_safe`. If the pool has no capacity left to absorb the excess,
//! additional servers must be rented from the cloud.

use crate::channel::Channel as ChannelId;
use crate::hashing::Ring;
use crate::plan::Plan;

use super::estimator::LoadView;
use super::Tuning;

/// Result of a high-load rebalancing pass.
#[derive(Debug, Clone)]
pub struct HighLoadOutcome {
    /// The candidate plan `P*`.
    pub plan: Plan,
    /// `true` if `plan` differs from the input plan.
    pub changed: bool,
    /// Number of additional servers that should be rented because the
    /// current pool cannot absorb the load.
    pub servers_wanted: usize,
}

/// Algorithm 2. `plan` is the current plan; `view` the estimated loads
/// of the active servers (consumed and mutated as migrations are
/// simulated); `ring` resolves channels the plan does not mention, so a
/// migration is recorded only when the source actually serves the
/// channel. `excluded` (the quarantine set) makes that ownership gate
/// honor failover reality: an unmapped channel ring-homed on a dead
/// broker is effectively served by the first healthy walk server, and a
/// migration away from it must stick.
pub fn rebalance(
    plan: &Plan,
    view: &mut LoadView,
    ring: &Ring,
    cfg: impl Into<Tuning>,
    excluded: &[crate::ids::ServerId],
) -> HighLoadOutcome {
    let cfg: Tuning = cfg.into();
    let mut p_star = plan.clone();
    let mut changed = false;
    let mut servers_wanted = 0usize;
    // Servers we already failed to relieve; prevents infinite loops.
    let mut exhausted: Vec<crate::ids::ServerId> = Vec::new();

    while let Some((h_max, lr_max)) = view
        .servers()
        .filter(|s| !exhausted.contains(s))
        .map(|s| (s, view.load_ratio(s)))
        .max_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
    {
        if lr_max < cfg.lr_high {
            break;
        }

        // Inner loop: shed channels until the estimate is safe.
        let mut moved_any = false;
        let mut skip: Vec<ChannelId> = Vec::new();
        while view.load_ratio(h_max) >= cfg.lr_safe {
            let Some((h_min, lr_min)) = view.min_loaded(Some(h_max)) else {
                break; // single-server cluster: nothing to migrate to
            };
            let Some((channel, bytes)) = view.busiest_channel(h_max, &skip) else {
                break; // no channels left to move
            };
            // Do not overload the receiving server (§III-B3): skip
            // channels whose traffic would push it past LR_safe, and try
            // the next busiest.
            if lr_min + view.ratio_of(bytes) > cfg.lr_safe && view.servers().count() > 1 {
                skip.push(channel);
                continue;
            }
            // Never move a replicated channel here — its members are
            // managed by channel-level rebalancing.
            if p_star
                .mapping(channel)
                .is_some_and(crate::plan::ChannelMapping::is_replicated)
            {
                skip.push(channel);
                continue;
            }
            p_star.migrate_excluding(channel, h_max, h_min, ring, excluded);
            view.migrate(channel, h_max, h_min);
            changed = true;
            moved_any = true;
        }

        if view.load_ratio(h_max) >= cfg.lr_safe {
            // Could not bring this server down with the current pool.
            exhausted.push(h_max);
            if !moved_any || view.load_ratio(h_max) >= cfg.lr_high {
                servers_wanted += 1;
            }
        }
    }

    HighLoadOutcome {
        plan: p_star,
        changed,
        servers_wanted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balance::metrics::{ChannelTick, LlaReport, MetricsStore};
    use crate::ids::ServerId;
    use dynamoth_sim::NodeId;

    fn sid(i: usize) -> ServerId {
        ServerId(NodeId::from_index(i))
    }

    /// Ring over servers `0..n`, matching the view fixtures below.
    fn ring(n: usize) -> Ring {
        let ids: Vec<ServerId> = (0..n).map(sid).collect();
        Ring::new(&ids, 64)
    }

    /// The first `k` channel ids the ring homes on server `s`; fixtures
    /// must place channels on their ring home, or the ring-gated
    /// `Plan::migrate` rightly refuses to move them.
    fn chans_on(r: &Ring, s: usize, k: usize) -> Vec<u64> {
        (0..)
            .filter(|&c| r.server_for(ChannelId(c)) == sid(s))
            .take(k)
            .collect()
    }

    fn cfg() -> Tuning {
        Tuning {
            lr_high: 0.9,
            lr_safe: 0.7,
            ..Tuning::default()
        }
    }

    /// Builds a view where each server carries the listed channels
    /// (channel, bytes/tick); capacity is 1000 bytes/tick.
    fn view(servers: &[(usize, Vec<(u64, u64)>)]) -> LoadView {
        let mut store = MetricsStore::new(1);
        for (s, channels) in servers {
            let egress: u64 = channels.iter().map(|&(_, b)| b).sum();
            store.record(LlaReport {
                server: sid(*s),
                tick: 0,
                measured_egress_bytes: egress,
                capacity_bytes: 1_000.0,
                cpu_busy_micros: 0,
                channels: channels
                    .iter()
                    .map(|&(c, b)| {
                        (
                            ChannelId(c),
                            ChannelTick {
                                bytes_out: b,
                                ..Default::default()
                            },
                        )
                    })
                    .collect(),
            });
        }
        let ids: Vec<ServerId> = servers.iter().map(|&(s, _)| sid(s)).collect();
        LoadView::from_store(&store, &ids, 1_000.0)
    }

    #[test]
    fn no_rebalance_below_threshold() {
        let r = ring(2);
        let mut v = view(&[(0, vec![(1, 500)]), (1, vec![(2, 400)])]);
        let out = rebalance(&Plan::bootstrap(), &mut v, &r, cfg(), &[]);
        assert!(!out.changed);
        assert_eq!(out.servers_wanted, 0);
    }

    #[test]
    fn overloaded_server_sheds_busiest_channels() {
        // Server 0 at 1.2, server 1 at 0.1.
        let r = ring(2);
        let c0 = chans_on(&r, 0, 3);
        let c1 = chans_on(&r, 1, 1);
        let mut v = view(&[
            (0, vec![(c0[0], 500), (c0[1], 400), (c0[2], 300)]),
            (1, vec![(c1[0], 100)]),
        ]);
        let out = rebalance(&Plan::bootstrap(), &mut v, &r, cfg(), &[]);
        assert!(out.changed);
        assert_eq!(out.servers_wanted, 0);
        // The busiest channel moved to server 1.
        assert_eq!(
            out.plan.mapping(ChannelId(c0[0])),
            Some(&crate::plan::ChannelMapping::Single(sid(1)))
        );
        // Post-condition: estimated loads are at or below LR_safe
        // everywhere (the source can land exactly on the threshold).
        for s in [sid(0), sid(1)] {
            assert!(
                v.load_ratio(s) <= 0.7 + 1e-9,
                "{} at {}",
                s,
                v.load_ratio(s)
            );
        }
    }

    #[test]
    fn requests_servers_when_pool_exhausted() {
        // Both servers hot: no migration target can absorb anything.
        let mut v = view(&[(0, vec![(1, 600), (2, 600)]), (1, vec![(3, 600), (4, 600)])]);
        let out = rebalance(&Plan::bootstrap(), &mut v, &ring(2), cfg(), &[]);
        assert!(out.servers_wanted >= 1, "wanted {}", out.servers_wanted);
    }

    #[test]
    fn single_server_requests_growth() {
        let mut v = view(&[(0, vec![(1, 950)])]);
        let out = rebalance(&Plan::bootstrap(), &mut v, &ring(1), cfg(), &[]);
        assert!(!out.changed);
        assert_eq!(out.servers_wanted, 1);
    }

    #[test]
    fn does_not_overload_the_target() {
        // One giant channel (950) that would blow past LR_safe on the
        // idle server, plus small ones that fit.
        let r = ring(2);
        let c0 = chans_on(&r, 0, 3);
        let mut v = view(&[
            (0, vec![(c0[0], 950), (c0[1], 100), (c0[2], 100)]),
            (1, vec![]),
        ]);
        let out = rebalance(&Plan::bootstrap(), &mut v, &r, cfg(), &[]);
        // The giant channel must NOT have been migrated.
        assert!(
            out.plan.mapping(ChannelId(c0[0])).is_none(),
            "giant channel moved: {:?}",
            out.plan.mapping(ChannelId(c0[0]))
        );
        // The small channels moved instead.
        assert!(out.changed);
    }

    #[test]
    fn replicated_channels_are_left_to_channel_level() {
        use crate::plan::ChannelMapping;
        let mut plan = Plan::bootstrap();
        plan.set(
            ChannelId(1),
            ChannelMapping::AllSubscribers(vec![sid(0), sid(1)]),
        );
        let mut v = view(&[(0, vec![(1, 1_200)]), (1, vec![])]);
        let out = rebalance(&plan, &mut v, &ring(2), cfg(), &[]);
        // Mapping unchanged for the replicated channel.
        assert_eq!(
            out.plan.mapping(ChannelId(1)),
            Some(&ChannelMapping::AllSubscribers(vec![sid(0), sid(1)]))
        );
    }

    #[test]
    fn zero_capacity_view_neither_panics_nor_hangs() {
        // Regression: capacity 0 used to make load_ratio return NaN,
        // which blew up the `partial_cmp().unwrap()` in the hottest-
        // server scan. With ratios saturating at +inf instead, the pass
        // must terminate (exhausting the pool) rather than panic or
        // spin.
        let mut store = MetricsStore::new(1);
        store.record(LlaReport {
            server: sid(0),
            tick: 0,
            measured_egress_bytes: 900,
            capacity_bytes: 0.0,
            cpu_busy_micros: 0,
            channels: [(
                ChannelId(1),
                ChannelTick {
                    bytes_out: 900,
                    ..Default::default()
                },
            )]
            .into_iter()
            .collect(),
        });
        let mut v = LoadView::from_store(&store, &[sid(0), sid(1)], 0.0);
        let out = rebalance(&Plan::bootstrap(), &mut v, &ring(2), cfg(), &[]);
        assert!(out.servers_wanted >= 1);
    }

    #[test]
    fn terminates_on_pathological_input() {
        // Many hot servers, no capacity anywhere: must terminate.
        let mut v = view(&[
            (0, vec![(1, 1_000)]),
            (1, vec![(2, 1_000)]),
            (2, vec![(3, 1_000)]),
            (3, vec![(4, 1_000)]),
        ]);
        let out = rebalance(&Plan::bootstrap(), &mut v, &ring(4), cfg(), &[]);
        assert!(out.servers_wanted >= 1);
    }
}
