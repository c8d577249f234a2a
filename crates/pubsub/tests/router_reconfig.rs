//! Live-cluster reconfiguration test for the routed TCP tier: a hot
//! channel migrates across a 3-broker cluster mid-traffic — first
//! `Single → Single`, then `Single → AllSubscribers` — while every
//! client↔broker path runs through a [`ChaosProxy`] injecting latency
//! and stalls. The acceptance bar is the paper's: zero lost and zero
//! duplicated deliveries (wire-id accounting), wrong-server
//! publications forwarded until publishers and subscribers converge on
//! the new plan, and all sidecar forwarding state torn down once its
//! TTL lapses.
//!
//! Two more tests pin down what the old home's sidecar sends, and for
//! how long: a subscriber that reaches the old home after the new home
//! stopped forwarding back still hears a `<switch>` beacon and catches up
//! by replay at the new home, and a stale publisher that never reroutes
//! has every publication forwarded while earning a bounded number of
//! control frames, not one per publication. A last one checks that
//! installed state expires on its TTL with no traffic to wake a sidecar.
//!
//! Deterministic per seed: run with `CHAOS_SEED=<n>` for a different
//! schedule (CI runs two).

use std::collections::{HashMap, HashSet};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use dynamoth_pubsub::dispatcher::RESEND_CAP;
use dynamoth_pubsub::{
    channel_id_of, ChannelChange, ChannelMapping, ChaosProxy, ClientConfig, Direction,
    DispatcherSidecar, MessageId, PlanId, Ring, RoutedClient, RouterConfig, ServerId,
    SidecarConfig, TcpBroker, TcpPubSubClient, Timing, DEFAULT_VNODES,
};

mod common;

use common::{seed, sid, timing, wait_until, with_deadline};

const CH: &str = "hotspot";

/// The chaos test's proxies stall one direction for up to 300 ms, so
/// every component there runs on a 300 ms round-trip bound.
fn chaos_timing() -> Timing {
    timing(Duration::from_millis(300))
}

fn client_cfg(seed: u64, timing: Timing) -> ClientConfig {
    ClientConfig {
        timing,
        tick: Duration::from_millis(5),
        seed: Some(seed),
        ..ClientConfig::default()
    }
}

fn router_cfg(seed: u64, timing: Timing) -> RouterConfig {
    RouterConfig {
        client: client_cfg(seed, timing),
        seed: Some(seed),
        ..RouterConfig::default()
    }
}

fn sidecar_cfg(seed: u64, timing: Timing) -> SidecarConfig {
    SidecarConfig {
        client: client_cfg(seed, timing),
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
fn hot_channel_migrates_across_live_cluster_exactly_once() {
    with_deadline(180, || {
        let seed = seed(0x0D15_EA5E);
        let brokers: Vec<TcpBroker> = (0..3)
            .map(|_| TcpBroker::bind("127.0.0.1:0").expect("bind broker"))
            .collect();
        let direct: Vec<SocketAddr> = brokers.iter().map(|b| b.local_addr()).collect();
        // Every router↔broker path runs through a fault proxy; sidecars
        // are broker-colocated and use the direct addresses.
        let proxies: Vec<ChaosProxy> = direct
            .iter()
            .enumerate()
            .map(|(i, &addr)| ChaosProxy::spawn(addr, seed ^ (0x10 + i as u64)).expect("proxy"))
            .collect();
        let proxied: Vec<SocketAddr> = proxies.iter().map(|p| p.local_addr()).collect();
        for proxy in &proxies {
            proxy.set_latency(Duration::from_millis(2));
        }
        let sidecars: Vec<DispatcherSidecar> = (0..3)
            .map(|i| {
                DispatcherSidecar::start(
                    sid(i),
                    direct.clone(),
                    sidecar_cfg(seed ^ (0x20 + i as u64), chaos_timing()),
                )
            })
            .collect();

        let sub = RoutedClient::connect(proxied.clone(), router_cfg(seed ^ 1, chaos_timing()));
        let publisher = RoutedClient::connect(proxied, router_cfg(seed ^ 2, chaos_timing()));

        // Where the ring homes the channel before any plan exists; the
        // two migrations then walk it across the other two brokers.
        let ring: Vec<ServerId> = (0..3).map(sid).collect();
        let origin = Ring::new(&ring, DEFAULT_VNODES)
            .server_for(channel_id_of(CH))
            .index();
        let first = (origin + 1) % 3;
        let second = (origin + 2) % 3;

        sub.subscribe(CH);
        wait_until("initial subscription", Duration::from_secs(10), || {
            brokers[origin].channel_subscribers(CH) >= 1
        });

        let mut counts: HashMap<String, usize> = HashMap::new();
        let mut ids: HashSet<MessageId> = HashSet::new();
        let mut published: Vec<String> = Vec::new();
        let mut next = 0usize;
        let mut publish_one = |publisher: &RoutedClient, published: &mut Vec<String>| {
            let body = format!("p-{next}");
            publisher.publish(CH, body.as_bytes());
            published.push(body);
            next += 1;
        };

        // Phase 0: steady traffic on the ring-resolved home.
        for _ in 0..10 {
            publish_one(&publisher, &mut published);
        }
        {
            let want = published.clone();
            wait_until("pre-migration deliveries", Duration::from_secs(30), || {
                pump_deliveries(&sub, &mut counts, &mut ids);
                want.iter().all(|b| counts.contains_key(b))
            });
        }

        // Phase 1: migrate Single(origin) → Single(first) under plan 1,
        // mid-traffic, with stalls on both ends of the move. The
        // new-home sidecar is installed (and its watch confirmed) first
        // so no forwarded publication can fall in a gap.
        let plan1 = PlanId(1);
        let change1 = ChannelChange {
            channel: CH.to_owned(),
            old: ChannelMapping::Single(sid(origin)),
            new: ChannelMapping::Single(sid(first)),
        };
        sidecars[first].install(change1.clone(), plan1);
        wait_until("new-home watch (plan 1)", Duration::from_secs(10), || {
            brokers[first].channel_subscribers(CH) >= 1
        });
        sidecars[origin].install(change1.clone(), plan1);
        wait_until("old-home watch (plan 1)", Duration::from_secs(10), || {
            brokers[origin].channel_subscribers(CH) >= 2
        });
        proxies[origin].stall(Direction::ServerToClient, Duration::from_millis(300));
        proxies[first].stall(Direction::ClientToServer, Duration::from_millis(200));

        let target1 = (ChannelMapping::Single(sid(first)), plan1);
        let converge_deadline = Instant::now() + Duration::from_secs(45);
        loop {
            assert!(
                Instant::now() < converge_deadline,
                "plan 1 never converged: publisher={:?} subscriber={:?}",
                publisher.local_mapping(CH),
                sub.local_mapping(CH)
            );
            publish_one(&publisher, &mut published);
            // Keep the reconfiguration window open while unconverged.
            sidecars[first].install(change1.clone(), plan1);
            sidecars[origin].install(change1.clone(), plan1);
            std::thread::sleep(Duration::from_millis(25));
            pump_deliveries(&sub, &mut counts, &mut ids);
            if publisher.local_mapping(CH).as_ref() == Some(&target1)
                && sub.local_mapping(CH).as_ref() == Some(&target1)
            {
                break;
            }
        }

        // Phase 2: migrate Single(first) → AllSubscribers([origin,
        // second]) under plan 2 — the channel goes replicated while
        // traffic keeps flowing through a stalled old home.
        let members = vec![sid(origin), sid(second)];
        let plan2 = PlanId(2);
        let change2 = ChannelChange {
            channel: CH.to_owned(),
            old: ChannelMapping::Single(sid(first)),
            new: ChannelMapping::AllSubscribers(members.clone()),
        };
        sidecars[origin].install(change2.clone(), plan2);
        sidecars[second].install(change2.clone(), plan2);
        wait_until("new-home watches (plan 2)", Duration::from_secs(10), || {
            brokers[origin].channel_subscribers(CH) >= 1
                && brokers[second].channel_subscribers(CH) >= 1
        });
        sidecars[first].install(change2.clone(), plan2);
        wait_until("old-home watch (plan 2)", Duration::from_secs(10), || {
            brokers[first].channel_subscribers(CH) >= 2
        });
        proxies[first].stall(Direction::ServerToClient, Duration::from_millis(300));

        let target2 = (ChannelMapping::AllSubscribers(members), plan2);
        let converge_deadline = Instant::now() + Duration::from_secs(45);
        loop {
            assert!(
                Instant::now() < converge_deadline,
                "plan 2 never converged: publisher={:?} subscriber={:?}",
                publisher.local_mapping(CH),
                sub.local_mapping(CH)
            );
            publish_one(&publisher, &mut published);
            sidecars[origin].install(change2.clone(), plan2);
            sidecars[second].install(change2.clone(), plan2);
            sidecars[first].install(change2.clone(), plan2);
            std::thread::sleep(Duration::from_millis(25));
            pump_deliveries(&sub, &mut counts, &mut ids);
            if publisher.local_mapping(CH).as_ref() == Some(&target2)
                && sub.local_mapping(CH).as_ref() == Some(&target2)
            {
                break;
            }
        }

        // Phase 3: steady traffic on the replicated mapping.
        for _ in 0..10 {
            publish_one(&publisher, &mut published);
        }
        {
            let want = published.clone();
            wait_until("all deliveries", Duration::from_secs(60), || {
                pump_deliveries(&sub, &mut counts, &mut ids);
                want.iter().all(|b| counts.contains_key(b))
            });
        }
        // Quiet period: any straggling forwarded duplicate must be
        // suppressed, not delivered.
        let quiet = Instant::now() + Duration::from_millis(1500);
        while Instant::now() < quiet {
            pump_deliveries(&sub, &mut counts, &mut ids);
            std::thread::sleep(Duration::from_millis(20));
        }

        // Exactly-once: every publication delivered once, none twice,
        // none lost, and never a repeated wire id (pump_deliveries
        // asserts id uniqueness on every insert).
        assert_eq!(counts.len(), published.len(), "unexpected extra payloads");
        for body in &published {
            assert_eq!(
                counts.get(body).copied(),
                Some(1),
                "{body} was not delivered exactly once"
            );
        }
        assert_eq!(ids.len(), published.len());

        // The reconfiguration machinery actually ran: the old homes
        // forwarded wrong-server publications and emitted both control
        // frame kinds; the routers applied them.
        let old_home = sidecars[origin].stats();
        assert!(old_home.forwarded >= 1, "old home never forwarded");
        assert!(old_home.switches_emitted >= 1, "no <switch> emitted");
        assert!(old_home.moved_emitted >= 1, "no MOVED emitted");
        let second_old_home = sidecars[first].stats();
        assert!(
            second_old_home.forwarded >= 1,
            "plan-2 old home never forwarded"
        );
        assert!(
            publisher.stats().moved_applied >= 2,
            "publisher converged without MOVED frames: {:?}",
            publisher.stats()
        );
        assert!(
            sub.stats().switches_applied >= 2,
            "subscriber converged without <switch> frames: {:?}",
            sub.stats()
        );

        // TTL teardown: with convergence reached nothing refreshes the
        // sidecar state, so every watch unsubscribes and the forwarding
        // tables empty out.
        wait_until("sidecar TTL teardown", Duration::from_secs(20), || {
            sidecars.iter().all(|s| s.stats().active_channels == 0)
        });
        assert!(sidecars[origin].stats().expired >= 1);
        // Final subscriber placement is exactly the plan-2 mapping: one
        // subscription on each AllSubscribers member, nothing on the
        // drained broker (grace-period unsubscribes included).
        wait_until("final subscriptions", Duration::from_secs(20), || {
            brokers[origin].channel_subscribers(CH) == 1
                && brokers[second].channel_subscribers(CH) == 1
                && brokers[first].channel_subscribers(CH) == 0
        });

        sub.shutdown();
        publisher.shutdown();
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

/// Two brokers and their sidecars, with no proxy in between and the
/// default timing, plus a channel whose ring home is broker 0: the old
/// home of [`Pair::migrate`].
struct Pair {
    brokers: Vec<TcpBroker>,
    direct: Vec<SocketAddr>,
    sidecars: Vec<DispatcherSidecar>,
    channel: String,
}

impl Pair {
    fn start(seed: u64, timing: Timing) -> Pair {
        let brokers: Vec<TcpBroker> = (0..2)
            .map(|_| TcpBroker::bind("127.0.0.1:0").expect("bind broker"))
            .collect();
        let direct: Vec<SocketAddr> = brokers.iter().map(|b| b.local_addr()).collect();
        let sidecars = (0..2)
            .map(|i| {
                let cfg = sidecar_cfg(seed ^ (0x20 + i as u64), timing);
                DispatcherSidecar::start(sid(i), direct.clone(), cfg)
            })
            .collect();
        let ring = Ring::new(&[sid(0), sid(1)], DEFAULT_VNODES);
        let channel = (0..)
            .map(|i| format!("moving-{i}"))
            .find(|c| ring.server_for(channel_id_of(c)).index() == 0)
            .expect("some name homes on broker 0");
        Pair {
            brokers,
            direct,
            sidecars,
            channel,
        }
    }

    fn router(&self, seed: u64) -> RoutedClient {
        RoutedClient::connect(self.direct.clone(), router_cfg(seed, Timing::default()))
    }

    /// Moves the channel from broker 0 to broker 1 under plan 1 and waits
    /// for both watches. Returns when the install was made.
    fn migrate(&self) -> Instant {
        let ch = &self.channel;
        let on_old = self.brokers[0].channel_subscribers(ch);
        let change = ChannelChange {
            channel: ch.clone(),
            old: ChannelMapping::Single(sid(0)),
            new: ChannelMapping::Single(sid(1)),
        };
        let installed = Instant::now();
        for sidecar in &self.sidecars {
            sidecar.install(change.clone(), PlanId(1));
        }
        wait_until("both sidecar watches", Duration::from_secs(10), || {
            self.brokers[0].channel_subscribers(ch) > on_old
                && self.brokers[1].channel_subscribers(ch) >= 1
        });
        installed
    }

    fn shutdown(self) {
        for sidecar in self.sidecars {
            sidecar.shutdown();
        }
        for broker in self.brokers {
            broker.shutdown();
        }
    }
}

#[test]
fn late_subscriber_on_the_old_home_hears_the_beacon_and_replays_at_the_new_home() {
    with_deadline(60, || {
        let seed = seed(0x0D15_EA5E);
        let pair = Pair::start(seed, Timing::default());
        let ch = pair.channel.clone();
        let installed = pair.migrate();

        // Traffic at the new home only. Inside the forward-back window its
        // copies reach the old home, whose sidecar takes the first one as
        // its wrong-home observation and starts the beacon.
        let publisher =
            TcpPubSubClient::connect_with(pair.direct[1], client_cfg(seed ^ 3, Timing::default()))
                .expect("new-home publisher");
        for i in 0..10 {
            publisher.publish(&ch, format!("early-{i}").as_bytes());
        }
        wait_until("the first <switch>", Duration::from_secs(10), || {
            pair.sidecars[0].stats().switches_emitted >= 1
        });
        let closed =
            installed + Timing::default().forward_back_window() + Duration::from_millis(200);
        std::thread::sleep(closed.saturating_duration_since(Instant::now()));
        let forwarded_back = pair.sidecars[1].stats().forwarded;
        assert!(forwarded_back >= 1, "the new home never forwarded back");

        // A fresh router with no local plan: the ring sends it to the old
        // home, where nothing is copied any more.
        let sub = pair.router(seed ^ 4);
        sub.subscribe(&ch);
        wait_until(
            "late subscription on the old home",
            Duration::from_secs(10),
            || {
                pair.brokers[0].channel_subscribers(&ch) >= 2 // sidecar watch + subscriber
            },
        );
        let confirmed = Instant::now();
        let late: Vec<String> = (0..10).map(|i| format!("late-{i}")).collect();
        for body in &late {
            publisher.publish(&ch, body.as_bytes());
        }

        // Only a beacon can tell it: the first `<switch>` went out before
        // it subscribed, and a plain subscription replays nothing.
        let slack = Duration::from_secs(1);
        let heard_by = (confirmed + RESEND_CAP + slack).saturating_duration_since(Instant::now());
        wait_until("a <switch> beacon on the old home", heard_by, || {
            sub.local_mapping(&ch) == Some((ChannelMapping::Single(sid(1)), PlanId(1)))
        });

        // The late publications reach it through the sequence-0 replay at
        // the new home, each exactly once.
        let mut counts: HashMap<String, usize> = HashMap::new();
        let mut ids: HashSet<MessageId> = HashSet::new();
        wait_until("late publications", Duration::from_secs(10), || {
            pump_deliveries(&sub, &mut counts, &mut ids);
            late.iter().all(|b| counts.contains_key(b))
        });
        let quiet = Instant::now() + Duration::from_millis(500);
        while Instant::now() < quiet {
            pump_deliveries(&sub, &mut counts, &mut ids);
            std::thread::sleep(Duration::from_millis(20));
        }
        for body in &late {
            assert_eq!(
                counts.get(body),
                Some(&1),
                "{body} not delivered exactly once"
            );
        }
        assert_eq!(
            pair.sidecars[1].stats().forwarded,
            forwarded_back,
            "the new home forwarded back after its window closed"
        );

        sub.shutdown();
        publisher.shutdown();
        pair.shutdown();
    });
}

#[test]
fn stale_publisher_that_never_reroutes_costs_a_bounded_number_of_control_frames() {
    with_deadline(60, || {
        let seed = seed(0x0D15_EA5E);
        let pair = Pair::start(seed, Timing::default());
        let ch = pair.channel.clone();
        let sub = pair.router(seed ^ 5);
        sub.subscribe(&ch);
        wait_until(
            "subscription on the old home",
            Duration::from_secs(10),
            || pair.brokers[0].channel_subscribers(&ch) >= 1,
        );
        pair.migrate();

        // A plain client never subscribes to its control channel, so it
        // ignores `MOVED` and keeps publishing to the old home.
        let publisher =
            TcpPubSubClient::connect_with(pair.direct[0], client_cfg(seed ^ 6, Timing::default()))
                .expect("stale publisher");
        let mut counts: HashMap<String, usize> = HashMap::new();
        let mut ids: HashSet<MessageId> = HashSet::new();
        let mut published = Vec::new();
        let start = Instant::now();
        while start.elapsed() < Duration::from_secs(3) {
            let body = format!("stale-{}", published.len());
            publisher.publish(&ch, body.as_bytes());
            published.push(body);
            std::thread::sleep(Duration::from_millis(10));
            pump_deliveries(&sub, &mut counts, &mut ids);
        }
        let stale = published.len() as u64;
        wait_until("every stale publication", Duration::from_secs(20), || {
            pump_deliveries(&sub, &mut counts, &mut ids);
            pair.sidecars[0].stats().forwarded >= stale
                && published.iter().all(|b| counts.contains_key(b))
        });
        let quiet = Instant::now() + Duration::from_millis(500);
        while Instant::now() < quiet {
            pump_deliveries(&sub, &mut counts, &mut ids);
            std::thread::sleep(Duration::from_millis(20));
        }

        assert_eq!(counts.len(), published.len(), "unexpected extra payloads");
        for body in &published {
            assert_eq!(
                counts.get(body),
                Some(&1),
                "{body} not delivered exactly once"
            );
        }
        assert_eq!(
            sub.local_mapping(&ch),
            Some((ChannelMapping::Single(sid(1)), PlanId(1)))
        );
        let old_home = pair.sidecars[0].stats();
        assert_eq!(old_home.forwarded, stale, "{old_home:?}");
        assert!(
            (1..=20).contains(&old_home.switches_emitted),
            "<switch> frames not bounded: {old_home:?} for {stale} publications"
        );
        assert!(
            (1..=20).contains(&old_home.moved_emitted),
            "MOVED frames not bounded: {old_home:?} for {stale} publications"
        );

        sub.shutdown();
        publisher.shutdown();
        pair.shutdown();
    });
}

/// Nothing but the TTL deadline wakes a sidecar whose channel sees no
/// traffic: if the pump forgot it, the state would live for ever.
#[test]
fn installed_state_expires_on_its_ttl_without_traffic() {
    with_deadline(60, || {
        let timing = Timing::new(Duration::from_millis(10), Duration::from_millis(100), 3)
            .expect("valid timing");
        let ttl = timing.ttl();
        assert_eq!(ttl, Duration::from_secs(1));
        let pair = Pair::start(seed(0x0D15_EA5E), timing);
        let ch = pair.channel.clone();
        let installed = pair.migrate();
        // (expired, active channels, watch subscriptions) per sidecar.
        let state = |i: usize| {
            let stats = pair.sidecars[i].stats();
            let watching = pair.brokers[i].channel_subscribers(&ch);
            (stats.expired, stats.active_channels, watching)
        };
        wait_until("both states installed", Duration::from_secs(10), || {
            (0..2).all(|i| state(i) == (0, 1, 1))
        });
        while installed.elapsed() < ttl - Duration::from_millis(50) {
            for i in 0..2 {
                assert_eq!(state(i), (0, 1, 1), "sidecar {i} expired early");
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let by = (installed + ttl + Duration::from_millis(200))
            .saturating_duration_since(Instant::now());
        wait_until("both states expired", by, || {
            (0..2).all(|i| state(i) == (1, 0, 0))
        });
        pair.shutdown();
    });
}
