//! Regression test for replicated-mapping wire-id correlation: a
//! publisher routing a channel as `AllPublishers` sends one copy to
//! every member broker, and a subscriber whose `AllSubscribers` view
//! has it subscribed on *all* of those members — the shape every pooled
//! virtual-client connection of the scale harness observes — receives
//! each copy. Were each copy framed by its own connection, under that
//! connection's origin, the copies would carry *different* ids and no
//! dedup window (client, router or sidecar) could correlate them: every
//! publish would surface twice. The router frames every publication
//! once, under its one origin, and hands the identical bytes to every
//! member, so the router-level dedup window suppresses the extra
//! copies.
//!
//! Deterministic per seed: run with `CHAOS_SEED=<n>` for a different
//! schedule (CI runs two).

use std::collections::{HashMap, HashSet};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use dynamoth_pubsub::{
    ChannelMapping, ClientConfig, MessageId, PlanId, RoutedClient, RouterConfig, TcpBroker,
};

mod common;

use common::{seed, sid, wait_until, with_deadline};

const CH: &str = "ticker";
const N: usize = 50;

fn router_cfg(seed: u64) -> RouterConfig {
    RouterConfig {
        client: ClientConfig {
            tick: Duration::from_millis(5),
            seed: Some(seed),
            ..ClientConfig::default()
        },
        seed: Some(seed),
        ..RouterConfig::default()
    }
}

/// Drains delivered messages into the exactly-once accounting: payload
/// counts plus the set of wire ids, which must stay duplicate-free.
fn pump_deliveries(
    sub: &RoutedClient,
    counts: &mut HashMap<String, usize>,
    ids: &mut HashSet<MessageId>,
) {
    while let Some(msg) = sub.try_message() {
        let id = msg.id.expect("routed deliveries carry wire ids");
        assert!(ids.insert(id), "duplicate wire id delivered: {id:?}");
        let body = String::from_utf8(msg.payload).expect("utf8 payload");
        *counts.entry(body).or_insert(0) += 1;
    }
}

#[test]
fn replicated_channel_is_not_double_counted_through_one_pooled_connection() {
    with_deadline(60, || {
        let seed = seed(0x0D15_EA5E);
        let brokers: Vec<TcpBroker> = (0..2)
            .map(|_| TcpBroker::bind("127.0.0.1:0").expect("bind broker"))
            .collect();
        let direct: Vec<SocketAddr> = brokers.iter().map(|b| b.local_addr()).collect();
        let members = vec![sid(0), sid(1)];

        // One pooled connection observing the replicated channel on
        // every member — each publish will reach it twice.
        let sub = RoutedClient::connect(direct.clone(), router_cfg(seed ^ 1));
        sub.install_local_mapping(
            CH,
            ChannelMapping::AllSubscribers(members.clone()),
            PlanId(1),
        );
        sub.subscribe(CH);
        wait_until(
            "subscriptions on both members",
            Duration::from_secs(10),
            || brokers.iter().all(|b| b.channel_subscribers(CH) >= 1),
        );

        let publisher = RoutedClient::connect(direct, router_cfg(seed ^ 2));
        publisher.install_local_mapping(CH, ChannelMapping::AllPublishers(members), PlanId(1));

        let mut published: Vec<String> = Vec::new();
        for i in 0..N {
            let body = format!("m-{i}");
            publisher.publish(CH, body.as_bytes());
            published.push(body);
        }

        let mut counts: HashMap<String, usize> = HashMap::new();
        let mut ids: HashSet<MessageId> = HashSet::new();
        {
            let want = published.clone();
            wait_until("all deliveries", Duration::from_secs(30), || {
                pump_deliveries(&sub, &mut counts, &mut ids);
                want.iter().all(|b| counts.contains_key(b))
            });
        }
        // Quiet period: the second copy of every publish must be
        // suppressed, not delivered late.
        let quiet = Instant::now() + Duration::from_millis(1000);
        while Instant::now() < quiet {
            pump_deliveries(&sub, &mut counts, &mut ids);
            std::thread::sleep(Duration::from_millis(20));
        }

        assert_eq!(counts.len(), published.len(), "unexpected extra payloads");
        for body in &published {
            assert_eq!(
                counts.get(body).copied(),
                Some(1),
                "{body} was not delivered exactly once"
            );
        }
        assert_eq!(ids.len(), published.len());
        // The dedup window did the suppression — one duplicate per
        // publish arrived and was correlated by its shared wire id.
        let stats = sub.stats();
        assert!(
            stats.duplicates_suppressed >= N as u64,
            "replicated copies were not suppressed: {stats:?}"
        );

        sub.shutdown();
        publisher.shutdown();
        for broker in brokers {
            broker.shutdown();
        }
    });
}
