//! Whole-broker failure detection, emergency replan and the
//! kill-to-recovery SLO (DESIGN.md §12): a broker hard-killed under
//! sustained traffic is declared dead within
//! `suspect_after × report_interval + probe_timeout` (plus scheduling
//! slack), the balancer's emergency replan lands its channels on
//! survivors under the bounded-load cap, routers surface an explicit
//! failover gap — and once the application re-publishes its
//! unconfirmed tail, nothing is lost.
//!
//! Deterministic per seed: run with `CHAOS_SEED=<n>` for a different
//! schedule (CI runs two).

use std::collections::HashSet;
use std::net::SocketAddr;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use dynamoth_pubsub::{
    channel_id_of, BalancerConfig, ChannelChange, ChannelMapping, ChaosProxy, ClientConfig,
    ClientEvent, DispatcherSidecar, GapReason, LiveLoadBalancer, LoadReporter, PlanId, Ring,
    RoutedClient, RouterConfig, ServerId, SidecarConfig, SidecarEvent, TcpBroker, TcpPubSubClient,
    DEFAULT_VNODES,
};

const PAYLOAD: usize = 1024;
// Enough channels that the (1+ε)× bounded-load cap is attainable at
// channel granularity: with 2 survivors and ε=0.25 the cap is 0.625 of
// total, so ≥5 near-equal channels leave first-fit room under it (3
// channels would force a 2:1 split, max 2/3 > cap).
const VICTIM_CHANNELS: usize = 6;

fn seed() -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xFA11_0FE2)
}

/// Hard watchdog: a wedged client, sidecar, reporter or balancer fails
/// fast instead of hanging CI.
fn with_deadline(secs: u64, body: impl FnOnce() + Send + 'static) {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        body();
        let _ = tx.send(());
    });
    match rx.recv_timeout(Duration::from_secs(secs)) {
        Ok(()) | Err(mpsc::RecvTimeoutError::Disconnected) => {
            if let Err(panic) = worker.join() {
                std::panic::resume_unwind(panic);
            }
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("test exceeded its {secs}s watchdog deadline")
        }
    }
}

fn sid(i: usize) -> ServerId {
    ServerId::from_index(i)
}

fn client_cfg(seed: u64) -> ClientConfig {
    ClientConfig {
        reconnect_base: Duration::from_millis(10),
        reconnect_cap: Duration::from_millis(200),
        connect_timeout: Duration::from_millis(250),
        heartbeat_interval: Duration::from_millis(100),
        liveness_timeout: Duration::from_secs(2),
        tick: Duration::from_millis(5),
        seed: Some(seed),
        ..ClientConfig::default()
    }
}

fn wait_until(what: &str, timeout: Duration, mut pred: impl FnMut() -> bool) {
    let deadline = Instant::now() + timeout;
    while !pred() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Kill a broker's proxy under sustained traffic and walk the whole
/// recovery: suspect → probe → dead within the SLO bound, quarantine,
/// emergency replan under the `(1+ε)` cap, an explicit
/// `Gap {{ reason: Failover }}` at the subscriber, and zero loss once
/// the publisher re-publishes its tail.
#[test]
fn hard_kill_is_detected_replanned_and_survived() {
    with_deadline(240, || {
        let seed = seed();
        let report_interval = Duration::from_millis(100);
        let suspect_after: u32 = 3;
        let probe_timeout = Duration::from_millis(250);

        let brokers: Vec<TcpBroker> = (0..3)
            .map(|_| TcpBroker::bind("127.0.0.1:0").expect("bind broker"))
            .collect();
        let direct: Vec<SocketAddr> = brokers.iter().map(|b| b.local_addr()).collect();
        // EVERY component reaches every broker through that broker's
        // proxy, so killing one proxy is indistinguishable from the
        // whole broker host dying: clients, sidecars, reporters and the
        // balancer's probes all lose it at once.
        let proxies: Vec<ChaosProxy> = direct
            .iter()
            .enumerate()
            .map(|(i, &addr)| ChaosProxy::spawn(addr, seed ^ (0x40 + i as u64)).expect("proxy"))
            .collect();
        let proxied: Vec<SocketAddr> = proxies.iter().map(|p| p.local_addr()).collect();

        let sidecars: Vec<DispatcherSidecar> = (0..3)
            .map(|i| {
                DispatcherSidecar::start(
                    sid(i),
                    proxied.clone(),
                    SidecarConfig {
                        ttl: Duration::from_secs(30),
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
                    proxied[i],
                    report_interval,
                    client_cfg(seed ^ (0x60 + i as u64)),
                )
            })
            .collect();

        // Channels homed on the victim, so the kill strands real load.
        let ring = Ring::new(&(0..3).map(sid).collect::<Vec<_>>(), DEFAULT_VNODES);
        let victim = ring.server_for(channel_id_of("f-00")).index();
        let channels: Vec<String> = (0..)
            .map(|i| format!("f-{i:02}"))
            .filter(|name| ring.server_for(channel_id_of(name)).index() == victim)
            .take(VICTIM_CHANNELS)
            .collect();

        let router_cfg = |s: u64| RouterConfig {
            client: client_cfg(s),
            switch_grace: Duration::from_secs(1),
            failover_after: Duration::from_millis(700),
            probe_timeout,
            reprobe_interval: Duration::from_millis(500),
            seed: Some(s),
            ..RouterConfig::default()
        };
        let sub = RoutedClient::connect(proxied.clone(), router_cfg(seed ^ 1));
        let publisher = RoutedClient::connect(proxied.clone(), router_cfg(seed ^ 2));
        for name in &channels {
            sub.subscribe(name);
        }
        wait_until("subscriptions landed", Duration::from_secs(10), || {
            brokers[victim].channel_subscribers(&channels[0]) > 0
        });

        let mut delivered: HashSet<String> = HashSet::new();
        let mut published: Vec<(String, String)> = Vec::new();
        let mut failover_gap = false;
        let mut next = 0usize;
        let mut publish_round =
            |publisher: &RoutedClient, published: &mut Vec<(String, String)>| {
                for name in &channels {
                    let mut body = format!("{name}:{next}:");
                    body.push_str(&"x".repeat(PAYLOAD.saturating_sub(body.len())));
                    publisher.publish(name, body.as_bytes());
                    published.push((name.clone(), body));
                    next += 1;
                }
            };
        let pump =
            |sub: &RoutedClient, delivered: &mut HashSet<String>, failover_gap: &mut bool| {
                while let Some(msg) = sub.try_message() {
                    delivered.insert(String::from_utf8(msg.payload).expect("utf8 payload"));
                }
                while let Some(event) = sub.try_event() {
                    if matches!(
                        event.event,
                        ClientEvent::Gap {
                            reason: GapReason::Failover,
                            ..
                        }
                    ) {
                        *failover_gap = true;
                    }
                }
            };

        let balancer = LiveLoadBalancer::start(
            proxied.clone(),
            BalancerConfig {
                // High floor keeps every LR far below `lr_high`, so the
                // ordinary load balancer stays quiet and the victim's
                // channels are still homed on it when the kill lands —
                // the emergency replan is the only mover in this test.
                capacity_floor: 500_000.0,
                tick: Duration::from_millis(100),
                window: 2,
                warmup_ticks: 2,
                install_refresh: Duration::from_secs(2),
                client: client_cfg(seed ^ 3),
                report_interval,
                suspect_after,
                probe_timeout,
                ..BalancerConfig::default()
            },
        );

        // Steady state first: traffic flowing, every broker reporting.
        for _ in 0..30 {
            publish_round(&publisher, &mut published);
            std::thread::sleep(Duration::from_millis(10));
            pump(&sub, &mut delivered, &mut failover_gap);
        }
        wait_until("pre-kill deliveries", Duration::from_secs(30), || {
            pump(&sub, &mut delivered, &mut failover_gap);
            published.iter().all(|(_, b)| delivered.contains(b))
        });

        // ── The kill ──────────────────────────────────────────────────
        proxies[victim].kill_upstream_hard();
        let killed_at = Instant::now();

        // Detection SLO: suspect after K missed reports, dead once the
        // confirmation probe fails. Allow scheduling slack on top of
        // the analytic bound (balancer tick granularity, probe syscall,
        // CI jitter).
        let slo = report_interval * suspect_after + probe_timeout + Duration::from_millis(2_500);
        while balancer.stats().deaths_declared == 0 {
            assert!(
                killed_at.elapsed() < slo,
                "death not declared within the SLO bound {slo:?}: {:?}",
                balancer.stats()
            );
            publish_round(&publisher, &mut published);
            std::thread::sleep(Duration::from_millis(10));
            pump(&sub, &mut delivered, &mut failover_gap);
        }
        let detection_latency = killed_at.elapsed();

        // Quarantine + emergency replan on the survivors.
        wait_until("emergency replan", Duration::from_secs(10), || {
            let stats = balancer.stats();
            stats.quarantined.contains(&victim) && stats.emergency_replans >= 1
        });
        let stats = balancer.stats();
        let replan = stats.last_replan.clone().expect("replan summary");
        assert_eq!(replan.dead, victim);
        assert!(
            replan.channels_moved >= VICTIM_CHANNELS,
            "replan moved {} channels, expected at least {VICTIM_CHANNELS}",
            replan.channels_moved
        );
        // Bounded-load invariant: immediately after the replan no
        // survivor's projected load ratio exceeds the (1+ε)× mean cap.
        assert!(
            replan.max_survivor_lr <= replan.cap_ratio + 1e-9,
            "survivor over the bounded-load cap: {replan:?}"
        );

        // Keep traffic flowing across the failover window; the router
        // re-points publications and subscriptions onto survivors.
        let deadline = Instant::now() + Duration::from_secs(20);
        while !failover_gap {
            assert!(
                Instant::now() < deadline,
                "no Gap {{ reason: Failover }} surfaced at the subscriber"
            );
            publish_round(&publisher, &mut published);
            std::thread::sleep(Duration::from_millis(10));
            pump(&sub, &mut delivered, &mut failover_gap);
        }

        // The failover gap is the application's cue: frames the victim
        // acknowledged but never fanned out are unquantifiable across
        // incarnations, so the publisher re-publishes its tail.
        // Re-publications get fresh wire ids; the distinct-body
        // accounting below absorbs the resulting duplicates.
        let tail: Vec<(String, String)> = published.clone();
        for (name, body) in &tail {
            publisher.publish(name, body.as_bytes());
        }

        // Zero loss: every body published before, during and after the
        // kill is eventually delivered via the survivors.
        for _ in 0..20 {
            publish_round(&publisher, &mut published);
            std::thread::sleep(Duration::from_millis(10));
            pump(&sub, &mut delivered, &mut failover_gap);
        }
        wait_until("post-failover zero loss", Duration::from_secs(60), || {
            pump(&sub, &mut delivered, &mut failover_gap);
            let missing = published
                .iter()
                .filter(|(_, b)| !delivered.contains(b))
                .count();
            missing == 0
        });

        // The router independently declared the victim dead and
        // re-pointed the stranded subscriptions.
        let sub_stats = sub.stats();
        assert!(
            sub_stats.dead_brokers.contains(&victim),
            "subscriber router never marked the victim dead: {sub_stats:?}"
        );
        assert!(sub_stats.deaths_detected >= 1);
        assert!(sub_stats.failover_repoints >= 1);

        eprintln!(
            "kill-to-death {detection_latency:?} (SLO bound {slo:?}), replan {replan:?}, \
             {} bodies delivered",
            delivered.len()
        );

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

/// Cold-start regression: a broker killed before *any* traffic has been
/// measured used to produce a `(1+ε)×0/n = 0` byte cap in the emergency
/// replan. Zero total now means uncapped — the load-capped walk
/// degenerates to plain consistent hashing over the survivors — and the
/// replan must still rehome every stranded subscription. Survivors run
/// without reporters so their measured egress is exactly `None → 0`.
#[test]
fn cold_start_kill_replans_uncapped() {
    with_deadline(180, || {
        let seed = seed();
        let report_interval = Duration::from_millis(100);

        let brokers: Vec<TcpBroker> = (0..3)
            .map(|_| TcpBroker::bind("127.0.0.1:0").expect("bind broker"))
            .collect();
        let direct: Vec<SocketAddr> = brokers.iter().map(|b| b.local_addr()).collect();
        let proxies: Vec<ChaosProxy> = direct
            .iter()
            .enumerate()
            .map(|(i, &addr)| ChaosProxy::spawn(addr, seed ^ (0xC0 + i as u64)).expect("proxy"))
            .collect();
        let proxied: Vec<SocketAddr> = proxies.iter().map(|p| p.local_addr()).collect();

        let sidecars: Vec<DispatcherSidecar> = (0..3)
            .map(|i| {
                DispatcherSidecar::start(
                    sid(i),
                    proxied.clone(),
                    SidecarConfig {
                        ttl: Duration::from_secs(30),
                        tick: Duration::from_millis(5),
                        client: client_cfg(seed ^ (0xD0 + i as u64)),
                    },
                )
            })
            .collect();

        // Subscribe-only channels homed on the victim: they appear in
        // LLA reports (current-subscriber gauge) with zero bytes, so
        // the balancer knows their names but has measured no load.
        let ring = Ring::new(&(0..3).map(sid).collect::<Vec<_>>(), DEFAULT_VNODES);
        let victim = ring.server_for(channel_id_of("cs-00")).index();
        let channels: Vec<String> = (0..)
            .map(|i| format!("cs-{i:02}"))
            .filter(|name| ring.server_for(channel_id_of(name)).index() == victim)
            .take(VICTIM_CHANNELS)
            .collect();

        // ONLY the victim reports. The survivors' egress therefore
        // reads zero at replan time, which is exactly the cold-start
        // total==0 input the old cap computation got wrong. (The
        // balancer keeps the silent survivors as permanent suspects —
        // their probes succeed — which does not block the replan.)
        let victim_reporter = LoadReporter::start(
            brokers[victim].load_handle(),
            victim,
            proxied[victim],
            report_interval,
            client_cfg(seed ^ 0xE0),
        );

        let router_cfg = |s: u64| RouterConfig {
            client: client_cfg(s),
            switch_grace: Duration::from_secs(1),
            failover_after: Duration::from_millis(700),
            probe_timeout: Duration::from_millis(250),
            reprobe_interval: Duration::from_millis(500),
            seed: Some(s),
            ..RouterConfig::default()
        };
        let sub = RoutedClient::connect(proxied.clone(), router_cfg(seed ^ 0xE1));
        let publisher = RoutedClient::connect(proxied.clone(), router_cfg(seed ^ 0xE2));
        for name in &channels {
            sub.subscribe(name);
        }
        wait_until("subscriptions landed", Duration::from_secs(10), || {
            channels
                .iter()
                .all(|name| brokers[victim].channel_subscribers(name) > 0)
        });

        let balancer = LiveLoadBalancer::start(
            proxied.clone(),
            BalancerConfig {
                capacity_floor: 500_000.0,
                tick: Duration::from_millis(100),
                window: 2,
                warmup_ticks: 2,
                install_refresh: Duration::from_secs(2),
                client: client_cfg(seed ^ 0xE3),
                report_interval,
                suspect_after: 3,
                probe_timeout: Duration::from_millis(250),
                ..BalancerConfig::default()
            },
        );
        // The victim's reports must have carried the channel names
        // before the kill, or the replan has nothing to rehome.
        wait_until("victim reported", Duration::from_secs(15), || {
            balancer.stats().reports_received >= 3
        });

        proxies[victim].kill_upstream_hard();

        wait_until("emergency replan", Duration::from_secs(15), || {
            let stats = balancer.stats();
            stats.quarantined.contains(&victim) && stats.emergency_replans >= 1
        });
        let replan = balancer.stats().last_replan.clone().expect("summary");
        assert_eq!(replan.dead, victim);
        assert!(
            replan.channels_moved >= VICTIM_CHANNELS,
            "cold-start replan stranded channels: {replan:?}"
        );
        // The regression: with nothing measured anywhere the cap must
        // be *uncapped*, never zero.
        assert!(
            replan.cap_ratio.is_infinite(),
            "zero-total replan should be uncapped, got cap_ratio {}",
            replan.cap_ratio
        );
        assert!(
            replan.max_survivor_lr <= 1e-9,
            "survivors carried load in a cold-start replan: {replan:?}"
        );

        // The rehomed subscriptions must actually work: publish one
        // body per channel and require full delivery via survivors.
        let mut delivered: HashSet<String> = HashSet::new();
        let mut published: Vec<String> = Vec::new();
        for name in &channels {
            let body = format!("{name}:post-kill");
            publisher.publish(name, body.as_bytes());
            published.push(body);
        }
        wait_until("post-replan delivery", Duration::from_secs(60), || {
            while let Some(msg) = sub.try_message() {
                delivered.insert(String::from_utf8(msg.payload).expect("utf8"));
            }
            while sub.try_event().is_some() {}
            if !published.iter().all(|b| delivered.contains(b)) {
                // Failover re-publish protocol: the tail is retried
                // until the routers settle on survivors.
                for name in &channels {
                    publisher.publish(name, format!("{name}:post-kill").as_bytes());
                }
                std::thread::sleep(Duration::from_millis(50));
                return false;
            }
            true
        });

        balancer.shutdown();
        sub.shutdown();
        publisher.shutdown();
        victim_reporter.shutdown();
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

/// Quarantine-blind fallback regression: channels first observed *after*
/// a broker death, whose plain-ring home is the corpse, are actually
/// served by the first healthy walk successor. `Plan::resolve`,
/// `Plan::migrate` and `Plan::diff` used to consult the plain ring for
/// them, so the reactive rebalancer either gated its migrations on a
/// home nobody uses (no-op plans) or addressed installs to the corpse.
/// With the quarantine set threaded through, a hot post-mortem channel
/// must produce a real, installed plan change.
#[test]
fn post_mortem_hot_channels_are_rebalanced_off_the_effective_home() {
    with_deadline(240, || {
        let seed = seed();
        let report_interval = Duration::from_millis(100);

        let brokers: Vec<TcpBroker> = (0..3)
            .map(|_| TcpBroker::bind("127.0.0.1:0").expect("bind broker"))
            .collect();
        let direct: Vec<SocketAddr> = brokers.iter().map(|b| b.local_addr()).collect();
        let proxies: Vec<ChaosProxy> = direct
            .iter()
            .enumerate()
            .map(|(i, &addr)| ChaosProxy::spawn(addr, seed ^ (0xF0 + i as u64)).expect("proxy"))
            .collect();
        let proxied: Vec<SocketAddr> = proxies.iter().map(|p| p.local_addr()).collect();

        let sidecars: Vec<DispatcherSidecar> = (0..3)
            .map(|i| {
                DispatcherSidecar::start(
                    sid(i),
                    proxied.clone(),
                    SidecarConfig {
                        ttl: Duration::from_secs(30),
                        tick: Duration::from_millis(5),
                        client: client_cfg(seed ^ (0x100 + i as u64)),
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
                    proxied[i],
                    report_interval,
                    client_cfg(seed ^ (0x110 + i as u64)),
                )
            })
            .collect();

        let ring = Ring::new(&(0..3).map(sid).collect::<Vec<_>>(), DEFAULT_VNODES);
        let victim = ring.server_for(channel_id_of("pm-00")).index();
        // Channels whose plain home is the victim; after the kill their
        // effective home is each one's first healthy walk successor.
        let channels: Vec<String> = (0..)
            .map(|i| format!("pm-{i:02}"))
            .filter(|name| ring.server_for(channel_id_of(name)).index() == victim)
            .take(VICTIM_CHANNELS)
            .collect();

        let balancer = LiveLoadBalancer::start(
            proxied.clone(),
            BalancerConfig {
                // Low floor so the post-kill traffic genuinely trips the
                // reactive LR_high threshold on the effective home.
                capacity_floor: 50_000.0,
                tick: Duration::from_millis(100),
                window: 2,
                warmup_ticks: 2,
                install_refresh: Duration::from_secs(2),
                client: client_cfg(seed ^ 0x120),
                report_interval,
                suspect_after: 3,
                probe_timeout: Duration::from_millis(250),
                // Pin the *reactive* path: with the pass on, proactive
                // placement would fix the hot spot before Algorithm 2
                // ever exercises the quarantine-aware migrate gate.
                placement_pass: false,
                ..BalancerConfig::default()
            },
        );
        wait_until("all brokers reporting", Duration::from_secs(15), || {
            balancer.stats().reports_received >= 9
        });

        // The kill comes FIRST; the hot channels above have never been
        // published or subscribed, so the emergency replan cannot know
        // them and they stay unmapped.
        proxies[victim].kill_upstream_hard();
        wait_until("death declared", Duration::from_secs(15), || {
            let stats = balancer.stats();
            stats.quarantined.contains(&victim) && stats.deaths_declared >= 1
        });
        let installs_after_replan = balancer.stats().plans_installed;

        let router_cfg = |s: u64| RouterConfig {
            client: client_cfg(s),
            switch_grace: Duration::from_secs(1),
            failover_after: Duration::from_millis(700),
            probe_timeout: Duration::from_millis(250),
            reprobe_interval: Duration::from_millis(500),
            seed: Some(s),
            ..RouterConfig::default()
        };
        let sub = RoutedClient::connect(proxied.clone(), router_cfg(seed ^ 0x121));
        let publisher = RoutedClient::connect(proxied.clone(), router_cfg(seed ^ 0x122));
        for name in &channels {
            sub.subscribe(name);
        }
        // The routers discover the corpse on their own (probe timeout),
        // land the subscriptions on the healthy walk successors, and
        // the post-mortem traffic heats those survivors up.
        let mut delivered: HashSet<String> = HashSet::new();
        let mut published: Vec<String> = Vec::new();
        let mut next = 0usize;
        let deadline = Instant::now() + Duration::from_secs(90);
        loop {
            let stats = balancer.stats();
            if stats.plans_installed > installs_after_replan
                && (stats.high_load_rebalances >= 1 || stats.channel_level_rebalances >= 1)
            {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "reactive rebalancer never produced an installed plan for \
                 post-mortem channels: {stats:?}"
            );
            for name in &channels {
                let mut body = format!("{name}:{next}:");
                body.push_str(&"y".repeat(PAYLOAD.saturating_sub(body.len())));
                publisher.publish(name, body.as_bytes());
                published.push(body);
                next += 1;
            }
            std::thread::sleep(Duration::from_millis(10));
            while let Some(msg) = sub.try_message() {
                delivered.insert(String::from_utf8(msg.payload).expect("utf8"));
            }
            while sub.try_event().is_some() {}
        }

        // Migration must not lose the stream: re-publish the tail (the
        // failover protocol's cue covers the kill window) and require
        // every distinct body to arrive.
        let tail = published.clone();
        for body in &tail {
            let name = body.split(':').next().expect("name prefix");
            publisher.publish(name, body.as_bytes());
        }
        wait_until(
            "zero loss across migration",
            Duration::from_secs(60),
            || {
                while let Some(msg) = sub.try_message() {
                    delivered.insert(String::from_utf8(msg.payload).expect("utf8"));
                }
                while sub.try_event().is_some() {}
                published.iter().all(|b| delivered.contains(b))
            },
        );

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

/// Satellite: a sidecar peer connection dying mid-migration (old→new
/// forwarding active) must not drop in-flight forwards. The peer client
/// gives up, `SidecarEvent::PeerUnavailable` surfaces, and the stranded
/// frames are rescued onto a fresh connection and delivered once the
/// peer heals.
#[test]
fn sidecar_peer_death_mid_migration_loses_no_forwards() {
    with_deadline(120, || {
        let seed = seed();
        let b0 = TcpBroker::bind("127.0.0.1:0").expect("bind b0");
        let b1 = TcpBroker::bind("127.0.0.1:0").expect("bind b1");
        let proxy1 = ChaosProxy::spawn(b1.local_addr(), seed ^ 0x77).expect("proxy");
        // Sidecar 0 reaches broker 1 only through the proxy; its own
        // broker is direct (colocated).
        let directory = vec![b0.local_addr(), proxy1.local_addr()];

        let sidecar = DispatcherSidecar::start(
            sid(0),
            directory,
            SidecarConfig {
                ttl: Duration::from_secs(60),
                tick: Duration::from_millis(5),
                client: ClientConfig {
                    // A tight budget so the peer outage actually
                    // exhausts it: blackholed connects succeed at the
                    // TCP level but deliver nothing, so the liveness
                    // timeout burns one attempt per ~300 ms.
                    max_reconnect_attempts: Some(2),
                    reconnect_base: Duration::from_millis(10),
                    reconnect_cap: Duration::from_millis(50),
                    connect_timeout: Duration::from_millis(250),
                    heartbeat_interval: Duration::from_millis(100),
                    liveness_timeout: Duration::from_millis(300),
                    tick: Duration::from_millis(5),
                    seed: Some(seed ^ 0x78),
                    ..ClientConfig::default()
                },
            },
        );
        sidecar.install(
            ChannelChange {
                channel: "mig".to_owned(),
                old: ChannelMapping::Single(sid(0)),
                new: ChannelMapping::Single(sid(1)),
            },
            PlanId(1),
        );

        // Subscriber sits on the NEW home directly; the stale publisher
        // still publishes to the OLD home, so every delivery crosses
        // the sidecar's old→new forward.
        let subscriber = TcpPubSubClient::connect_addr(b1.local_addr(), client_cfg(seed ^ 0x79));
        subscriber.subscribe("mig");
        let publisher = TcpPubSubClient::connect_addr(b0.local_addr(), client_cfg(seed ^ 0x7A));
        wait_until("subscription landed", Duration::from_secs(10), || {
            b1.channel_subscribers("mig") > 0
        });

        let mut delivered: HashSet<String> = HashSet::new();
        let mut peer_unavailable = false;
        let pump = |delivered: &mut HashSet<String>, peer_unavailable: &mut bool| {
            while let Some(msg) = subscriber.try_message() {
                delivered.insert(String::from_utf8(msg.payload).expect("utf8"));
            }
            while let Some(event) = sidecar.try_event() {
                if event == (SidecarEvent::PeerUnavailable { broker: 1 }) {
                    *peer_unavailable = true;
                }
            }
        };

        // Phase A: the forward path works.
        let mut published: Vec<String> = Vec::new();
        for i in 0..10 {
            let body = format!("pre-{i}");
            publisher.publish("mig", body.as_bytes());
            published.push(body);
            std::thread::sleep(Duration::from_millis(5));
        }
        wait_until("pre-outage forwards", Duration::from_secs(30), || {
            pump(&mut delivered, &mut peer_unavailable);
            published.iter().all(|b| delivered.contains(b))
        });

        // Phase B: the peer dies mid-window — half-open, so the peer
        // client's reconnects succeed at the TCP level and the retry
        // budget drains on liveness timeouts. Frames forwarded during
        // the outage pile up in the dying client.
        proxy1.set_black_hole(true);
        proxy1.reset_all();
        for i in 0..20 {
            let body = format!("mid-{i}");
            publisher.publish("mig", body.as_bytes());
            published.push(body);
            std::thread::sleep(Duration::from_millis(25));
        }
        wait_until("peer gave up", Duration::from_secs(30), || {
            pump(&mut delivered, &mut peer_unavailable);
            peer_unavailable
        });

        // Phase C: the peer heals; the rescued frames must all arrive.
        proxy1.set_black_hole(false);
        proxy1.reset_all();
        for i in 0..10 {
            let body = format!("post-{i}");
            publisher.publish("mig", body.as_bytes());
            published.push(body);
            std::thread::sleep(Duration::from_millis(5));
        }
        wait_until("no forward lost", Duration::from_secs(60), || {
            pump(&mut delivered, &mut peer_unavailable);
            published.iter().all(|b| delivered.contains(b))
        });

        sidecar.shutdown();
        subscriber.shutdown();
        publisher.shutdown();
        proxy1.shutdown();
        b0.shutdown();
        b1.shutdown();
    });
}

/// Quarantine is until-re-report, not forever: a broker that dies is
/// skipped by planning, but once a broker at its address reports again
/// (a restart — by definition a new incarnation) the balancer re-admits
/// it. Also covers the reporter-shutdown satellite: a `LoadReporter`
/// whose broker shuts down exits on its own instead of spinning its
/// reconnect loop.
#[test]
fn dead_broker_is_quarantined_until_it_reports_again() {
    with_deadline(120, || {
        let seed = seed();
        let report_interval = Duration::from_millis(100);
        let mut brokers: Vec<TcpBroker> = (0..2)
            .map(|_| TcpBroker::bind("127.0.0.1:0").expect("bind broker"))
            .collect();
        let direct: Vec<SocketAddr> = brokers.iter().map(|b| b.local_addr()).collect();
        let mut reporters: Vec<LoadReporter> = brokers
            .iter()
            .enumerate()
            .map(|(i, b)| {
                LoadReporter::start(
                    b.load_handle(),
                    i,
                    direct[i],
                    report_interval,
                    client_cfg(seed ^ (0x90 + i as u64)),
                )
            })
            .collect();
        let balancer = LiveLoadBalancer::start(
            direct.clone(),
            BalancerConfig {
                capacity_floor: 50_000.0,
                tick: Duration::from_millis(100),
                window: 2,
                warmup_ticks: 2,
                client: client_cfg(seed ^ 0x92),
                report_interval,
                suspect_after: 2,
                probe_timeout: Duration::from_millis(250),
                ..BalancerConfig::default()
            },
        );
        wait_until("both brokers reporting", Duration::from_secs(15), || {
            balancer.stats().reports_received >= 6
        });

        // Real broker shutdown (not a proxy): the listener closes, so
        // probes are refused and the reporter's load handle reads
        // shutdown.
        let victim_addr = direct[1];
        let victim = brokers.remove(1);
        victim.shutdown();

        // Satellite: the reporter notices its broker is gone and stops
        // by itself — no reconnect spin, no explicit shutdown() needed.
        let victim_reporter = reporters.remove(1);
        wait_until("reporter self-stopped", Duration::from_secs(10), || {
            victim_reporter.is_finished()
        });

        wait_until("death declared", Duration::from_secs(15), || {
            let stats = balancer.stats();
            stats.deaths_declared >= 1 && stats.quarantined == vec![1]
        });

        // Restart: a fresh broker on the same address (retry the bind —
        // the old listener's port may take a moment to free), plus a
        // fresh reporter. Its reports must lift the quarantine.
        let rebind_deadline = Instant::now() + Duration::from_secs(30);
        let revived = loop {
            match TcpBroker::bind(victim_addr.to_string()) {
                Ok(b) => break b,
                Err(e) => {
                    assert!(
                        Instant::now() < rebind_deadline,
                        "could not rebind the victim's address: {e}"
                    );
                    std::thread::sleep(Duration::from_millis(50));
                }
            }
        };
        let revived_reporter = LoadReporter::start(
            revived.load_handle(),
            1,
            victim_addr,
            report_interval,
            client_cfg(seed ^ 0x93),
        );

        wait_until("quarantine lifted", Duration::from_secs(15), || {
            let stats = balancer.stats();
            stats.quarantined.is_empty() && stats.brokers_recovered >= 1
        });

        balancer.shutdown();
        revived_reporter.shutdown();
        for reporter in reporters {
            reporter.shutdown();
        }
        revived.shutdown();
        for broker in brokers {
            broker.shutdown();
        }
    });
}
