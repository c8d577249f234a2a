//! End-to-end tests of sequence-numbered retention and resumable
//! subscriptions: the guarantee the dedup window alone could never give.
//! Wire-id deduplication makes redelivery exactly-once only while the
//! subscriber is *connected*; an outage longer than the publisher's
//! retry horizon used to turn "exactly once" into "at most once, quietly".
//! With per-channel sequences and a bounded retention ring, a subscriber
//! that reconnects resumes from its high-water sequence — and when the
//! gap no longer fits retention, the broker says so explicitly with a
//! gap marker instead of silently skipping.
//!
//! Deterministic per seed (`CHAOS_SEED=<n>`, CI runs two); every test
//! body runs under a hard watchdog.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use dynamoth_pubsub::{
    channel_id_of, BrokerConfig, ChannelChange, ChannelMapping, ChaosProxy, ClientConfig,
    ClientEvent, DispatcherSidecar, Message, PlanId, Ring, RoutedClient, RouterConfig, ServerId,
    SidecarConfig, TcpBroker, TcpPubSubClient, DEFAULT_VNODES,
};

mod common;

use common::{seed, timing, wait_until, with_deadline};

/// A 20 ms round-trip bound (fast reconnects and liveness) and fast ticks
/// so faults resolve in test time; seeded so the jitter schedule replays.
fn chaos_cfg(seed: u64) -> ClientConfig {
    ClientConfig {
        timing: timing(Duration::from_millis(20)),
        tick: Duration::from_millis(5),
        seed: Some(seed),
        ..ClientConfig::default()
    }
}

/// Drains events until one matches `pred`, returning *everything* seen
/// up to and including the match, so callers can also assert which
/// events did NOT fire. Panics at the deadline.
fn events_until(
    client: &TcpPubSubClient,
    what: &str,
    timeout: Duration,
    pred: impl Fn(&ClientEvent) -> bool,
) -> Vec<ClientEvent> {
    let deadline = Instant::now() + timeout;
    let mut seen = Vec::new();
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        match client.event_timeout(left.max(Duration::from_millis(1))) {
            Some(event) => {
                let done = pred(&event);
                seen.push(event);
                if done {
                    return seen;
                }
            }
            None => {
                if Instant::now() >= deadline {
                    panic!("timed out waiting for event: {what} (saw {seen:?})");
                }
            }
        }
    }
}

/// Collects messages until `n` arrived; panics at the deadline.
fn collect_messages(client: &TcpPubSubClient, n: usize, what: &str) -> Vec<Vec<u8>> {
    let mut got = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(30);
    while got.len() < n {
        assert!(
            Instant::now() < deadline,
            "only {}/{n} messages arrived waiting for {what}",
            got.len()
        );
        if let Some(msg) = client.message_timeout(Duration::from_millis(100)) {
            got.push(msg.payload);
        }
    }
    got
}

/// The tentpole guarantee: a subscriber that is down while *more than a
/// dedup window* of traffic flows loses nothing — the broker replays
/// the retained suffix from the subscriber's high-water sequence and
/// announces the resume, with no gap.
#[test]
fn outage_longer_than_dedup_window_loses_nothing_with_retention() {
    const DURING: usize = 50;
    with_deadline(120, || {
        let seed = seed(0x0D15_EA5E);
        let broker = TcpBroker::bind("127.0.0.1:0").expect("bind");
        let proxy = ChaosProxy::spawn(broker.local_addr(), seed).expect("proxy");

        // A dedup window far smaller than the outage traffic: whatever
        // arrives after the outage cannot be explained by redelivery
        // suppression — only by sequence-based replay.
        let cfg = ClientConfig {
            dedup_window: 16,
            ..chaos_cfg(seed ^ 1)
        };
        let sub = TcpPubSubClient::connect_with(proxy.local_addr(), cfg).expect("subscriber");
        sub.subscribe("room");
        let publisher =
            TcpPubSubClient::connect_with(broker.local_addr(), chaos_cfg(seed ^ 2)).expect("pub");
        wait_until("subscription", Duration::from_secs(10), || {
            broker.channel_subscribers("room") >= 1
        });

        for i in 0..5 {
            publisher.publish("room", format!("pre-{i}").as_bytes());
        }
        let pre = collect_messages(&sub, 5, "pre-outage messages");
        assert_eq!(
            pre,
            (0..5)
                .map(|i| format!("pre-{i}").into_bytes())
                .collect::<Vec<_>>()
        );

        // Outage: the subscriber's path dies and stays dark.
        proxy.set_black_hole(true);
        proxy.reset_all();
        wait_until(
            "broker notices the dead subscriber",
            Duration::from_secs(10),
            || broker.channel_subscribers("room") == 0,
        );

        // 50 publications — 3× the dedup window — flow while the
        // subscriber is down. All of them land in the retention ring.
        for i in 0..DURING {
            publisher.publish("room", format!("during-{i}").as_bytes());
        }
        wait_until("outage traffic retained", Duration::from_secs(10), || {
            broker.channel_retention("room").1 >= (5 + DURING) as u64
        });

        proxy.set_black_hole(false);
        let events = events_until(&sub, "resume", Duration::from_secs(30), |e| {
            matches!(e, ClientEvent::Resumed { channel, replayed }
                if channel == "room" && *replayed == DURING as u64)
        });
        assert!(
            !events.iter().any(|e| matches!(e, ClientEvent::Gap { .. })),
            "no gap expected when retention covers the outage: {events:?}"
        );

        // Every outage publication arrives exactly once, in order, with
        // monotonically increasing broker sequences.
        let mut seqs = Vec::new();
        let mut bodies = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(30);
        while bodies.len() < DURING {
            assert!(
                Instant::now() < deadline,
                "only {}/{DURING} replayed",
                bodies.len()
            );
            if let Some(msg) = sub.message_timeout(Duration::from_millis(100)) {
                seqs.push(msg.seq.expect("replayed frames carry sequences"));
                bodies.push(msg.payload);
            }
        }
        let expected: Vec<Vec<u8>> = (0..DURING)
            .map(|i| format!("during-{i}").into_bytes())
            .collect();
        assert_eq!(bodies, expected);
        assert!(
            seqs.windows(2).all(|w| w[0] < w[1]),
            "sequences not monotone: {seqs:?}"
        );
        // Nothing arrives twice afterwards.
        assert_eq!(sub.message_timeout(Duration::from_millis(300)), None);

        sub.shutdown();
        publisher.shutdown();
        proxy.shutdown();
        broker.shutdown();
    });
}

fn replayed(i: usize) -> Vec<u8> {
    format!("replayed-{i}").into_bytes()
}

/// Takes `n` messages from `next` without waiting: each must be the
/// next replayed one.
fn assert_replay_queued(what: &str, n: usize, mut next: impl FnMut() -> Option<Message>) {
    for i in 0..n {
        assert_eq!(
            next().map(|m| m.payload),
            Some(replayed(i)),
            "{what}: replayed message {i} not queued when Resumed was visible"
        );
    }
}

/// A resume's replay reaches the caller before its `Resumed` does: once
/// the event is visible, every message replayed ahead of it already
/// comes out of `try_message`, without waiting. Checked on a plain
/// client resubscribing from sequence 0 and on a routed client resuming
/// after an outage.
#[test]
fn a_resumes_replay_is_returned_before_its_event_is_visible() {
    const REPLAYED: usize = 300;
    with_deadline(120, || {
        let seed = seed(0x0D15_EA5E);
        let broker = TcpBroker::bind("127.0.0.1:0").expect("bind");
        let proxy = ChaosProxy::spawn(broker.local_addr(), seed ^ 0x40).expect("proxy");
        let publisher =
            TcpPubSubClient::connect_with(broker.local_addr(), chaos_cfg(seed ^ 11)).expect("pub");

        // A plain client asks for the channel's whole history.
        for i in 0..REPLAYED {
            publisher.publish("history", &replayed(i));
        }
        wait_until("history retained", Duration::from_secs(10), || {
            broker.channel_retention("history").1 >= REPLAYED as u64
        });
        let plain = TcpPubSubClient::connect_with(broker.local_addr(), chaos_cfg(seed ^ 12))
            .expect("plain subscriber");
        plain.subscribe_from("history", 0);
        wait_until("plain client resumed", Duration::from_secs(10), || {
            std::iter::from_fn(|| plain.try_event()).any(
                |e| matches!(e, ClientEvent::Resumed { replayed, .. } if replayed == REPLAYED as u64),
            )
        });
        assert_replay_queued("plain client", REPLAYED, || plain.try_message());

        // A routed client resumes from its high-water mark after an outage.
        let routed = RoutedClient::connect(
            vec![proxy.local_addr()],
            RouterConfig {
                client: chaos_cfg(seed ^ 13),
                seed: Some(seed ^ 14),
                ..RouterConfig::default()
            },
        );
        routed.subscribe("room");
        wait_until("routed subscription", Duration::from_secs(10), || {
            broker.channel_subscribers("room") >= 1
        });
        publisher.publish("room", b"pre");
        let pre = routed.message_timeout(Duration::from_secs(10));
        assert_eq!(pre.map(|m| m.payload), Some(b"pre".to_vec()));
        proxy.set_black_hole(true);
        proxy.reset_all();
        wait_until(
            "broker drops the routed subscriber",
            Duration::from_secs(10),
            || broker.channel_subscribers("room") == 0,
        );
        for i in 0..REPLAYED {
            publisher.publish("room", &replayed(i));
        }
        wait_until("outage traffic retained", Duration::from_secs(10), || {
            broker.channel_retention("room").1 > REPLAYED as u64
        });
        proxy.set_black_hole(false);
        wait_until("routed client resumed", Duration::from_secs(30), || {
            std::iter::from_fn(|| routed.try_event()).any(|e| {
                matches!(e.event, ClientEvent::Resumed { replayed, .. } if replayed == REPLAYED as u64)
            })
        });
        assert_replay_queued("routed client", REPLAYED, || routed.try_message());

        routed.shutdown();
        plain.shutdown();
        publisher.shutdown();
        proxy.shutdown();
        broker.shutdown();
    });
}

/// When the outage outgrows retention the broker must say so: an
/// explicit gap marker sized exactly to the evicted prefix, then the
/// retained suffix. Silence is the one forbidden outcome — every
/// publication is either delivered or counted in `Gap::missed`.
#[test]
fn outage_beyond_retention_surfaces_an_explicit_gap() {
    const DURING: usize = 50;
    const RETAIN: usize = 8;
    with_deadline(120, || {
        let seed = seed(0x0D15_EA5E);
        let broker = TcpBroker::bind_with(
            "127.0.0.1:0",
            BrokerConfig {
                retention_frames: RETAIN,
                ..BrokerConfig::default()
            },
        )
        .expect("bind");
        let proxy = ChaosProxy::spawn(broker.local_addr(), seed ^ 0x10).expect("proxy");

        let sub = TcpPubSubClient::connect_with(proxy.local_addr(), chaos_cfg(seed ^ 3))
            .expect("subscriber");
        sub.subscribe("room");
        let publisher =
            TcpPubSubClient::connect_with(broker.local_addr(), chaos_cfg(seed ^ 4)).expect("pub");
        wait_until("subscription", Duration::from_secs(10), || {
            broker.channel_subscribers("room") >= 1
        });

        for i in 0..5 {
            publisher.publish("room", format!("pre-{i}").as_bytes());
        }
        collect_messages(&sub, 5, "pre-outage messages");

        proxy.set_black_hole(true);
        proxy.reset_all();
        wait_until(
            "broker notices the dead subscriber",
            Duration::from_secs(10),
            || broker.channel_subscribers("room") == 0,
        );
        for i in 0..DURING {
            publisher.publish("room", format!("during-{i}").as_bytes());
        }
        wait_until("outage traffic sequenced", Duration::from_secs(10), || {
            broker.channel_retention("room").1 >= (5 + DURING) as u64
        });
        // The ring only kept the tail.
        assert_eq!(broker.channel_retention("room").0, RETAIN);

        proxy.set_black_hole(false);
        let events = events_until(
            &sub,
            "gap then resume",
            Duration::from_secs(30),
            |e| matches!(e, ClientEvent::Resumed { channel, .. } if channel == "room"),
        );
        let missed = events
            .iter()
            .find_map(|e| match e {
                ClientEvent::Gap {
                    channel, missed, ..
                } if channel == "room" => Some(*missed),
                _ => None,
            })
            .expect("an under-retained resume must surface a gap, never silence");
        let replayed = events
            .iter()
            .find_map(|e| match e {
                ClientEvent::Resumed { channel, replayed } if channel == "room" => Some(*replayed),
                _ => None,
            })
            .unwrap();
        // Full accounting: everything published during the outage is
        // either replayed or explicitly declared missing.
        assert_eq!(
            missed + replayed,
            DURING as u64,
            "missed ({missed}) + replayed ({replayed}) must cover the outage"
        );
        assert_eq!(replayed, RETAIN as u64);

        // The replayed tail is exactly the newest RETAIN publications.
        let bodies = collect_messages(&sub, RETAIN, "replayed tail");
        let expected: Vec<Vec<u8>> = (DURING - RETAIN..DURING)
            .map(|i| format!("during-{i}").into_bytes())
            .collect();
        assert_eq!(bodies, expected);

        sub.shutdown();
        publisher.shutdown();
        proxy.shutdown();
        broker.shutdown();
    });
}

/// A broker restart resets the sequence space. The replacement broker
/// cannot replay what it never saw — but the subscriber must learn
/// that, explicitly, through a restart gap, and publications queued
/// client-side during the outage must still arrive exactly once through
/// the publisher's retry machinery.
#[test]
fn broker_restart_surfaces_a_gap_and_queued_publications_survive() {
    with_deadline(120, || {
        let seed = seed(0x0D15_EA5E);
        let broker_a = TcpBroker::bind("127.0.0.1:0").expect("bind a");
        let sub_proxy = ChaosProxy::spawn(broker_a.local_addr(), seed ^ 0x20).expect("sub proxy");
        let pub_proxy = ChaosProxy::spawn(broker_a.local_addr(), seed ^ 0x21).expect("pub proxy");

        let sub = TcpPubSubClient::connect_with(sub_proxy.local_addr(), chaos_cfg(seed ^ 5))
            .expect("subscriber");
        sub.subscribe("queue");
        let publisher = TcpPubSubClient::connect_with(
            pub_proxy.local_addr(),
            ClientConfig {
                publish_retries: 10_000,
                ..chaos_cfg(seed ^ 6)
            },
        )
        .expect("publisher");
        wait_until("subscription", Duration::from_secs(10), || {
            broker_a.channel_subscribers("queue") >= 1
        });
        for i in 0..3 {
            publisher.publish("queue", format!("pre-{i}").as_bytes());
        }
        collect_messages(&sub, 3, "pre-restart messages");

        // The broker dies and a replacement comes up elsewhere. The
        // publisher's path stays dark for now, so its outage traffic
        // queues client-side.
        let broker_b = TcpBroker::bind("127.0.0.1:0").expect("bind b");
        sub_proxy.set_upstream(broker_b.local_addr());
        pub_proxy.set_upstream(broker_b.local_addr());
        pub_proxy.set_black_hole(true);
        sub_proxy.reset_all();
        pub_proxy.reset_all();
        broker_a.shutdown();
        for i in 0..10 {
            publisher.publish("queue", format!("during-{i}").as_bytes());
        }

        // The subscriber resumes on the replacement asking for its old
        // high-water — which is *ahead* of the fresh broker's counter.
        // That discontinuity must surface as a gap (the client resets
        // its resume state), never as a silent live subscription.
        let events = events_until(
            &sub,
            "restart gap",
            Duration::from_secs(30),
            |e| matches!(e, ClientEvent::Gap { channel, .. } if channel == "queue"),
        );
        assert!(
            events
                .iter()
                .any(|e| matches!(e, ClientEvent::Gap { channel, .. } if channel == "queue")),
            "no gap surfaced across the restart: {events:?}"
        );
        wait_until(
            "resubscription on the replacement",
            Duration::from_secs(20),
            || broker_b.channel_subscribers("queue") >= 1,
        );

        // Only now may the publisher reach the new broker: its queued
        // outage traffic flushes into the live subscription.
        pub_proxy.set_black_hole(false);
        let mut counts: HashMap<Vec<u8>, usize> = HashMap::new();
        let deadline = Instant::now() + Duration::from_secs(30);
        while counts.len() < 10 {
            assert!(
                Instant::now() < deadline,
                "only {}/10 queued publications arrived",
                counts.len()
            );
            if let Some(msg) = sub.message_timeout(Duration::from_millis(100)) {
                *counts.entry(msg.payload).or_insert(0) += 1;
            }
        }
        for i in 0..10 {
            assert_eq!(
                counts.get(format!("during-{i}").as_bytes()).copied(),
                Some(1),
                "during-{i} not delivered exactly once"
            );
        }
        assert_eq!(sub.message_timeout(Duration::from_millis(300)), None);

        sub.shutdown();
        publisher.shutdown();
        sub_proxy.shutdown();
        pub_proxy.shutdown();
        broker_b.shutdown();
    });
}

/// The hardest case: the channel *migrates* while the subscriber is
/// down. The old home's retention ring holds both the missed
/// publications and the sidecar's `<switch>` emissions, so the
/// resuming subscriber replays its way into learning the new home,
/// re-subscribes there from sequence 0, and loses nothing end to end.
#[test]
fn mid_outage_switch_migration_still_resumes_on_the_new_home() {
    with_deadline(180, || {
        let seed = seed(0x0D15_EA5E);
        let brokers: Vec<TcpBroker> = (0..2)
            .map(|_| TcpBroker::bind("127.0.0.1:0").expect("bind"))
            .collect();
        let direct: Vec<SocketAddr> = brokers.iter().map(|b| b.local_addr()).collect();

        // Sidecars talk to their brokers on clean paths.
        let side_cfg = SidecarConfig {
            client: chaos_cfg(seed ^ 7),
        };
        let sidecars: Vec<DispatcherSidecar> = (0..2)
            .map(|i| {
                DispatcherSidecar::start(ServerId::from_index(i), direct.clone(), side_cfg.clone())
            })
            .collect();

        // Pick a channel whose ring home is broker 0, so the routed
        // subscriber starts there without any plan traffic.
        let ring_ids: Vec<ServerId> = (0..2).map(ServerId::from_index).collect();
        let ring = Ring::new(&ring_ids, DEFAULT_VNODES);
        let channel = (0..)
            .map(|i| format!("migrant-{i}"))
            .find(|c| ring.server_for(channel_id_of(c)).index() == 0)
            .unwrap();

        // The subscriber reaches broker 0 only through a chaos proxy;
        // broker 1 is reached directly.
        let proxy = ChaosProxy::spawn(direct[0], seed ^ 0x30).expect("proxy");
        let directory = vec![proxy.local_addr(), direct[1]];
        let sub = RoutedClient::connect(
            directory,
            RouterConfig {
                client: chaos_cfg(seed ^ 8),
                seed: Some(seed ^ 9),
                ..RouterConfig::default()
            },
        );
        sub.subscribe(&channel);
        // One subscription from the routed client, one from broker 0's
        // own sidecar once the migration installs (none yet).
        wait_until(
            "routed subscription on old home",
            Duration::from_secs(10),
            || brokers[0].channel_subscribers(&channel) >= 1,
        );

        // A stale publisher keeps talking to the old home throughout.
        let publisher =
            TcpPubSubClient::connect_with(direct[0], chaos_cfg(seed ^ 10)).expect("publisher");
        for i in 0..3 {
            publisher.publish(&channel, format!("pre-{i}").as_bytes());
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        let mut got = 0;
        while got < 3 {
            assert!(
                Instant::now() < deadline,
                "pre-migration messages never arrived"
            );
            if sub.message_timeout(Duration::from_millis(100)).is_some() {
                got += 1;
            }
        }

        // Outage: the subscriber loses the old home entirely.
        proxy.set_black_hole(true);
        proxy.reset_all();
        wait_until(
            "old home sees the subscriber gone",
            Duration::from_secs(10),
            || brokers[0].channel_subscribers(&channel) == 0,
        );

        // Mid-outage, the balancer migrates the channel 0 → 1. Both
        // sidecars subscribe their watches and start the forwarding
        // window.
        let change = ChannelChange {
            channel: channel.clone(),
            old: ChannelMapping::Single(ServerId::from_index(0)),
            new: ChannelMapping::Single(ServerId::from_index(1)),
        };
        for sidecar in &sidecars {
            sidecar.install(change.clone(), PlanId(1));
        }
        wait_until(
            "sidecar watches on the channel",
            Duration::from_secs(10),
            || {
                brokers[0].channel_subscribers(&channel) >= 1
                    && brokers[1].channel_subscribers(&channel) >= 1
            },
        );

        // Outage traffic from the stale publisher: the old home's
        // sidecar forwards each to the new home and emits a `<switch>`
        // on the channel (then beacons) — all of it lands in broker 0's
        // retention ring, waiting for the subscriber.
        for i in 0..10 {
            publisher.publish(&channel, format!("during-{i}").as_bytes());
        }
        wait_until("forwarding window active", Duration::from_secs(20), || {
            sidecars[0].stats().forwarded >= 10 && sidecars[0].stats().switches_emitted >= 1
        });

        // Heal: the subscriber resumes on the old home, replays the
        // missed publications *and* the switch frames, re-points to the
        // new home, and keeps receiving there.
        proxy.set_black_hole(false);
        let mut counts: HashMap<Vec<u8>, usize> = HashMap::new();
        let deadline = Instant::now() + Duration::from_secs(60);
        while (0..10).any(|i| !counts.contains_key(format!("during-{i}").as_bytes())) {
            assert!(
                Instant::now() < deadline,
                "outage traffic incomplete after resume: {:?}",
                counts
                    .keys()
                    .map(|k| String::from_utf8_lossy(k).into_owned())
                    .collect::<Vec<_>>()
            );
            if let Some(msg) = sub.message_timeout(Duration::from_millis(100)) {
                *counts.entry(msg.payload).or_insert(0) += 1;
            }
        }
        wait_until(
            "switch applied from replay",
            Duration::from_secs(20),
            || sub.stats().switches_applied >= 1,
        );
        assert_eq!(
            sub.local_mapping(&channel),
            Some((ChannelMapping::Single(ServerId::from_index(1)), PlanId(1)))
        );

        // Post-migration traffic published straight to the new home.
        wait_until(
            "subscription on the new home",
            Duration::from_secs(20),
            || {
                brokers[1].channel_subscribers(&channel) >= 2 // sidecar watch + subscriber
            },
        );
        let mover =
            TcpPubSubClient::connect_with(direct[1], chaos_cfg(seed ^ 11)).expect("new-home pub");
        for i in 0..5 {
            mover.publish(&channel, format!("post-{i}").as_bytes());
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        while (0..5).any(|i| !counts.contains_key(format!("post-{i}").as_bytes())) {
            assert!(
                Instant::now() < deadline,
                "post-migration traffic incomplete"
            );
            if let Some(msg) = sub.message_timeout(Duration::from_millis(100)) {
                *counts.entry(msg.payload).or_insert(0) += 1;
            }
        }

        // Zero loss, exactly once, across outage AND migration: every
        // during-* and post-* publication was delivered exactly once
        // (forwarded copies and replays were all deduplicated).
        std::thread::sleep(Duration::from_millis(300));
        while let Some(msg) = sub.try_message() {
            *counts.entry(msg.payload).or_insert(0) += 1;
        }
        for i in 0..10 {
            assert_eq!(
                counts.get(format!("during-{i}").as_bytes()).copied(),
                Some(1),
                "during-{i} not delivered exactly once"
            );
        }
        for i in 0..5 {
            assert_eq!(
                counts.get(format!("post-{i}").as_bytes()).copied(),
                Some(1),
                "post-{i} not delivered exactly once"
            );
        }

        mover.shutdown();
        publisher.shutdown();
        sub.shutdown();
        for sidecar in sidecars {
            sidecar.shutdown();
        }
        proxy.shutdown();
        for broker in brokers {
            broker.shutdown();
        }
    });
}
