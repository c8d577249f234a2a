//! End-to-end test of the live control plane (DESIGN.md §9): three real
//! brokers self-report load, a [`LiveLoadBalancer`] notices one of them
//! running hot under skewed traffic and migrates channels off it with
//! **no manual `install` call anywhere**, the formerly hot broker's
//! load ratio drops back under `LR_high`, delivery stays exactly-once
//! by wire-id accounting throughout the migration, and once traffic
//! stops the low-load drain releases a broker.
//!
//! Deterministic per seed: run with `CHAOS_SEED=<n>` for a different
//! schedule (CI runs two).

use std::collections::{HashMap, HashSet};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use dynamoth_pubsub::{
    channel_id_of, BalancerConfig, ChaosProxy, ClientConfig, DispatcherSidecar, LiveLoadBalancer,
    LoadReporter, MessageId, PlanId, Ring, RoutedClient, RouterConfig, SidecarConfig, TcpBroker,
    Timing, Tuning, DEFAULT_VNODES,
};

mod common;

use common::{seed, sid, with_deadline};

const PAYLOAD: usize = 2048;
const HOT_CHANNELS: usize = 4;

/// One timing for every component: a 50 ms round-trip bound over the
/// 1 ms proxies, and brokers reporting every 100 ms to a balancer that
/// evaluates on the same clock and suspects a broker after three missed
/// reports.
fn client_cfg(seed: u64) -> ClientConfig {
    ClientConfig {
        timing: Timing::new(Duration::from_millis(50), Duration::from_millis(100), 3)
            .expect("valid timing"),
        tick: Duration::from_millis(5),
        seed: Some(seed),
        ..ClientConfig::default()
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
fn skewed_traffic_trips_autonomous_rebalancing() {
    with_deadline(240, || {
        let seed = seed(0xBA1A_4CE5);
        let tuning = Tuning::default();

        let brokers: Vec<TcpBroker> = (0..3)
            .map(|_| TcpBroker::bind("127.0.0.1:0").expect("bind broker"))
            .collect();
        let direct: Vec<SocketAddr> = brokers.iter().map(|b| b.local_addr()).collect();
        // The routed clients go through fault proxies (seeded latency);
        // sidecars, reporters and the balancer are broker-colocated in
        // this deployment and use the direct addresses.
        let proxies: Vec<ChaosProxy> = direct
            .iter()
            .enumerate()
            .map(|(i, &addr)| ChaosProxy::spawn(addr, seed ^ (0x40 + i as u64)).expect("proxy"))
            .collect();
        let proxied: Vec<SocketAddr> = proxies.iter().map(|p| p.local_addr()).collect();
        for proxy in &proxies {
            proxy.set_latency(Duration::from_millis(1));
        }
        let sidecars: Vec<DispatcherSidecar> = (0..3)
            .map(|i| {
                DispatcherSidecar::start(
                    sid(i),
                    direct.clone(),
                    SidecarConfig {
                        tick: Duration::from_millis(5),
                        client: client_cfg(seed ^ (0x50 + i as u64)),
                    },
                )
            })
            .collect();
        let reporters: Vec<LoadReporter> = brokers
            .iter()
            .enumerate()
            .map(|(i, b)| {
                LoadReporter::start(
                    b.load_handle(),
                    i,
                    direct[i],
                    client_cfg(seed ^ (0x60 + i as u64)),
                )
            })
            .collect();

        // Pick the hot broker and channels the ring homes on it, so all
        // offered load lands on one machine until the balancer acts.
        let ring = Ring::new(&(0..3).map(sid).collect::<Vec<_>>(), DEFAULT_VNODES);
        let hot = ring.server_for(channel_id_of("hot-00")).index();
        let channels: Vec<String> = (0..)
            .map(|i| format!("hot-{i:02}"))
            .filter(|name| ring.server_for(channel_id_of(name)).index() == hot)
            .take(HOT_CHANNELS)
            .collect();

        let router_cfg = |s: u64| RouterConfig {
            client: client_cfg(s),
            seed: Some(s),
            ..RouterConfig::default()
        };
        let sub = RoutedClient::connect(proxied.clone(), router_cfg(seed ^ 1));
        let publisher = RoutedClient::connect(proxied, router_cfg(seed ^ 2));
        for name in &channels {
            sub.subscribe(name);
        }
        let registered = Instant::now() + Duration::from_secs(10);
        while brokers[hot].channel_subscribers(&channels[0]) == 0 {
            assert!(Instant::now() < registered, "subscriptions never landed");
            std::thread::sleep(Duration::from_millis(10));
        }

        let mut counts: HashMap<String, usize> = HashMap::new();
        let mut ids: HashSet<MessageId> = HashSet::new();
        let mut published: Vec<String> = Vec::new();
        let mut next = 0usize;
        let mut publish_round = |publisher: &RoutedClient, published: &mut Vec<String>| {
            for name in &channels {
                let mut body = format!("{name}:{next}:");
                body.push_str(&"x".repeat(PAYLOAD.saturating_sub(body.len())));
                publisher.publish(name, body.as_bytes());
                published.push(body);
                next += 1;
            }
        };

        // Traffic first, balancer second: the metrics window must fill
        // with the skew, not with startup zeros.
        for _ in 0..10 {
            publish_round(&publisher, &mut published);
            std::thread::sleep(Duration::from_millis(10));
            pump_deliveries(&sub, &mut counts, &mut ids);
        }
        // ~40 publications × ~2 KiB per 100 ms report lands on the hot
        // broker: LR ≈ 1.6 against this capacity, with the two cold
        // brokers near zero — exactly the Algorithm 2 trigger.
        let balancer = LiveLoadBalancer::start(
            direct.clone(),
            BalancerConfig {
                capacity_floor: 50_000.0,
                window: 2,
                warmup_ticks: 2,
                client: client_cfg(seed ^ 3),
                // This test exercises the *reactive* Algorithm 2 path;
                // the proactive placement pass would defuse the hot
                // broker before it ever trips LR_high.
                placement_pass: false,
                ..BalancerConfig::default()
            },
        );

        // Phase 1: keep publishing until the balancer trips a high-load
        // rebalance and installs a plan — autonomously; this test never
        // calls install() or migrate() itself.
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let stats = balancer.stats();
            if stats.high_load_rebalances >= 1 && stats.plans_installed >= 1 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "balancer never rebalanced: {stats:?}"
            );
            publish_round(&publisher, &mut published);
            std::thread::sleep(Duration::from_millis(10));
            pump_deliveries(&sub, &mut counts, &mut ids);
        }

        // Phase 2: under continued traffic, a hot channel actually moves
        // (the subscriber learns a post-bootstrap plan that no longer
        // includes the hot broker) and the hot broker's measured load
        // ratio falls back under LR_high.
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let moved = channels.iter().any(|name| {
                sub.local_mapping(name).is_some_and(|(mapping, plan)| {
                    plan > PlanId(0) && !mapping.servers().contains(&sid(hot))
                })
            });
            let hot_lr = balancer
                .stats()
                .load_ratios
                .iter()
                .find(|(idx, _)| *idx == hot)
                .map(|&(_, lr)| lr);
            if moved && hot_lr.is_some_and(|lr| lr < tuning.lr_high) {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "migration never converged: moved={moved} hot_lr={hot_lr:?} {:?}",
                balancer.stats()
            );
            publish_round(&publisher, &mut published);
            std::thread::sleep(Duration::from_millis(10));
            pump_deliveries(&sub, &mut counts, &mut ids);
        }

        // Phase 3: stop publishing; every publication must arrive
        // exactly once (the reconfiguration ran mid-traffic).
        let want: HashSet<String> = published.iter().cloned().collect();
        let deadline = Instant::now() + Duration::from_secs(60);
        while !want.iter().all(|b| counts.contains_key(b)) {
            assert!(
                Instant::now() < deadline,
                "{} of {} publications undelivered",
                want.iter().filter(|b| !counts.contains_key(*b)).count(),
                want.len()
            );
            std::thread::sleep(Duration::from_millis(20));
            pump_deliveries(&sub, &mut counts, &mut ids);
        }
        let quiet = Instant::now() + Duration::from_millis(1500);
        while Instant::now() < quiet {
            pump_deliveries(&sub, &mut counts, &mut ids);
            std::thread::sleep(Duration::from_millis(20));
        }
        assert_eq!(counts.len(), published.len(), "unexpected extra payloads");
        for body in &published {
            assert_eq!(
                counts.get(body).copied(),
                Some(1),
                "a publication was not delivered exactly once"
            );
        }
        assert_eq!(ids.len(), published.len());

        // Phase 4: the cluster is now idle, so the average load ratio
        // sinks under LR_low and the balancer drains a broker.
        let deadline = Instant::now() + Duration::from_secs(45);
        loop {
            let stats = balancer.stats();
            if stats.low_load_drains >= 1 && stats.active_brokers < 3 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "idle cluster never drained: {stats:?}"
            );
            std::thread::sleep(Duration::from_millis(50));
        }

        balancer.shutdown();
        sub.shutdown();
        publisher.shutdown();
        for reporter in reporters {
            reporter.shutdown();
        }
        for sidecar in sidecars {
            sidecar.shutdown();
        }
        for proxy in proxies {
            proxy.shutdown();
        }
        for broker in brokers {
            broker.shutdown();
        }
    });
}
