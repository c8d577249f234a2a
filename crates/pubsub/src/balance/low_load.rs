//! System-level low-load rebalancing (§III-B4).
//!
//! When the global average load ratio falls below a threshold, the
//! least-loaded server is drained: its channels are migrated to the
//! remaining servers as long as their estimated load stays below
//! `LR_safe`. When the server holds no more channels it is released
//! back to the cloud. The operation aborts (and releases nothing) if
//! the remaining pool cannot absorb all channels.

use crate::hashing::Ring;
use crate::ids::ServerId;
use crate::plan::Plan;

use super::estimator::LoadView;
use super::Tuning;

/// Result of a low-load rebalancing pass.
#[derive(Debug, Clone)]
pub struct LowLoadOutcome {
    /// The candidate plan with the drained server's channels migrated.
    pub plan: Plan,
    /// The server that can be released once the plan is applied.
    pub release: ServerId,
}

/// Attempts to drain one server. Returns `None` when the global load is
/// not low enough, only one server is active, or the remaining servers
/// cannot absorb the drained channels without approaching overload.
/// `excluded` (the quarantine set) keeps the ring-gated migrations in
/// agreement with where routers actually send unmapped channels.
pub fn rebalance(
    plan: &Plan,
    view: &mut LoadView,
    ring: &Ring,
    cfg: impl Into<Tuning>,
    excluded: &[ServerId],
) -> Option<LowLoadOutcome> {
    let cfg: Tuning = cfg.into();
    if view.servers().count() <= 1 {
        return None;
    }
    if view.average_load_ratio() >= cfg.lr_low {
        return None;
    }
    let (victim, _) = view.min_loaded(None)?;

    // Stage the drain on a scratch copy: an abort part-way through must
    // leave the caller's estimates exactly as they were, or later
    // decisions in the same evaluation run against phantom migrations.
    let mut staged = view.clone();
    let mut p_star = plan.clone();
    let channels = staged.channels_on(victim);
    for (channel, bytes) in channels {
        // Replicated channels must first be collapsed by channel-level
        // rebalancing; draining a replica member here would fight it.
        if p_star.mapping(channel).is_some_and(|m| m.is_replicated()) {
            return None;
        }
        let (target, lr) = staged.min_loaded(Some(victim))?;
        if lr + staged.ratio_of(bytes) > cfg.lr_safe {
            return None; // pool cannot absorb; abort the drain
        }
        p_star.migrate_excluding(channel, victim, target, ring, excluded);
        staged.migrate(channel, victim, target);
    }
    *view = staged;
    Some(LowLoadOutcome {
        plan: p_star,
        release: victim,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balance::metrics::{ChannelTick, LlaReport, MetricsStore};
    use crate::channel::Channel as ChannelId;
    use dynamoth_sim::NodeId;

    fn sid(i: usize) -> ServerId {
        ServerId(NodeId::from_index(i))
    }

    /// Ring over servers `0..n`, matching the view fixtures below.
    fn ring(n: usize) -> Ring {
        let ids: Vec<ServerId> = (0..n).map(sid).collect();
        Ring::new(&ids, 64)
    }

    /// The first `k` channel ids the ring homes on server `s`.
    fn chans_on(r: &Ring, s: usize, k: usize) -> Vec<u64> {
        (0..)
            .filter(|&c| r.server_for(ChannelId(c)) == sid(s))
            .take(k)
            .collect()
    }

    fn cfg() -> Tuning {
        Tuning {
            lr_low: 0.35,
            lr_safe: 0.7,
            ..Tuning::default()
        }
    }

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
    fn drains_least_loaded_server_when_global_load_is_low() {
        let r = ring(2);
        let c0 = chans_on(&r, 0, 1);
        let c1 = chans_on(&r, 1, 2);
        let mut v = view(&[
            (0, vec![(c0[0], 300)]),
            (1, vec![(c1[0], 100), (c1[1], 50)]),
        ]);
        let out = rebalance(&Plan::bootstrap(), &mut v, &r, cfg(), &[]).expect("drain");
        assert_eq!(out.release, sid(1));
        // Both channels moved to server 0.
        assert_eq!(
            out.plan.mapping(ChannelId(c1[0])),
            Some(&crate::plan::ChannelMapping::Single(sid(0)))
        );
        assert_eq!(
            out.plan.mapping(ChannelId(c1[1])),
            Some(&crate::plan::ChannelMapping::Single(sid(0)))
        );
        assert_eq!(v.channels_on(sid(1)).len(), 0);
    }

    #[test]
    fn no_drain_when_load_is_moderate() {
        let mut v = view(&[(0, vec![(1, 600)]), (1, vec![(2, 500)])]);
        assert!(rebalance(&Plan::bootstrap(), &mut v, &ring(2), cfg(), &[]).is_none());
    }

    #[test]
    fn no_drain_with_single_server() {
        let mut v = view(&[(0, vec![(1, 10)])]);
        assert!(rebalance(&Plan::bootstrap(), &mut v, &ring(1), cfg(), &[]).is_none());
    }

    #[test]
    fn aborts_when_pool_cannot_absorb() {
        // Average is low but the victim's single channel would push the
        // other server past LR_safe.
        let mut v = view(&[(0, vec![(1, 500)]), (1, vec![(2, 250)])]);
        let mut c = cfg();
        c.lr_low = 0.5;
        assert!(rebalance(&Plan::bootstrap(), &mut v, &ring(2), c, &[]).is_none());
    }

    #[test]
    fn aborted_drain_leaves_estimates_intact() {
        // The first channel fits under LR_safe, the second does not: the
        // drain must abort AND roll the staged migration of the first
        // channel back out of the estimator, or the caller's view shows
        // a migration that never produced a plan.
        let r = ring(2);
        let c0 = chans_on(&r, 0, 1);
        let c1 = chans_on(&r, 1, 2);
        let mut v = view(&[(0, vec![(c0[0], 600)]), (1, vec![(c1[0], 80), (c1[1], 50)])]);
        let mut c = cfg();
        c.lr_low = 0.5;
        let before: Vec<f64> = [0, 1].map(|i| v.load_ratio(sid(i))).to_vec();
        assert!(rebalance(&Plan::bootstrap(), &mut v, &r, c, &[]).is_none());
        let after: Vec<f64> = [0, 1].map(|i| v.load_ratio(sid(i))).to_vec();
        assert_eq!(before, after, "aborted drain corrupted the load view");
        assert_eq!(v.channels_on(sid(1)).len(), 2);
    }

    #[test]
    fn aborts_on_replicated_channels() {
        use crate::plan::ChannelMapping;
        let mut plan = Plan::bootstrap();
        plan.set(
            ChannelId(2),
            ChannelMapping::AllSubscribers(vec![sid(0), sid(1)]),
        );
        let mut v = view(&[(0, vec![(1, 200)]), (1, vec![(2, 50)])]);
        assert!(rebalance(&plan, &mut v, &ring(2), cfg(), &[]).is_none());
    }

    #[test]
    fn idle_server_is_released_without_migrations() {
        let mut v = view(&[(0, vec![(1, 300)]), (1, vec![])]);
        let out = rebalance(&Plan::bootstrap(), &mut v, &ring(2), cfg(), &[]).expect("drain");
        assert_eq!(out.release, sid(1));
        assert!(out.plan.is_empty());
    }
}
