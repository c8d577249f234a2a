//! Chaos suite for the real-network path: a [`ChaosProxy`] sits between
//! [`TcpPubSubClient`]s and the broker and injects the faults the
//! paper's reconfiguration machinery has to survive — broker restarts,
//! half-open connections, stalls, latency, and torn frames.
//!
//! Every test is deterministic per seed: run with `CHAOS_SEED=<n>` to
//! replay a different fault schedule (CI runs the suite twice with two
//! seeds). Each test body runs under a hard watchdog so a hung client
//! or broker fails fast instead of wedging the suite.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use dynamoth_pubsub::client::frame_payload;
use dynamoth_pubsub::resp::{self, Value};
use dynamoth_pubsub::{
    ChaosProxy, ClientConfig, ClientEvent, Direction, DisconnectReason, DropCause, MessageId,
    TcpBroker, TcpPubSubClient,
};

mod common;

use common::{seed, timing, with_deadline};

/// Client tuning for chaos tests: a 20 ms round-trip bound (fast
/// reconnects and liveness, so faults resolve in test time) and fast
/// ticks, seeded so the jitter schedule replays.
fn chaos_cfg(seed: u64) -> ClientConfig {
    ClientConfig {
        timing: timing(Duration::from_millis(20)),
        tick: Duration::from_millis(5),
        seed: Some(seed),
        ..ClientConfig::default()
    }
}

/// Consumes events until one matches `pred`; panics at the deadline.
fn wait_for_event(
    client: &TcpPubSubClient,
    what: &str,
    timeout: Duration,
    pred: impl Fn(&ClientEvent) -> bool,
) -> ClientEvent {
    let deadline = Instant::now() + timeout;
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        match client.event_timeout(left.max(Duration::from_millis(1))) {
            Some(event) if pred(&event) => return event,
            Some(_) => {}
            None => {
                if Instant::now() >= deadline {
                    panic!("timed out waiting for event: {what}");
                }
            }
        }
    }
}

/// Polls until the broker registers `n` subscriptions.
fn wait_subscriptions(broker: &TcpBroker, n: usize, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while broker.subscription_count() != n {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A broker restart mid-stream: clients reconnect with backoff, the
/// subscriber transparently re-subscribes, and every post-reconnect
/// publication arrives exactly once, in order. Publications issued
/// *during* the outage are retried and must never arrive more than
/// once (pub/sub has no persistence, so at-most-once is their bound).
#[test]
fn broker_restart_reconnects_resubscribes_and_delivers_exactly_once() {
    with_deadline(120, || {
        let seed = seed(0x0D15_EA5E);
        let broker_a = TcpBroker::bind("127.0.0.1:0").expect("bind a");
        let proxy = ChaosProxy::spawn(broker_a.local_addr(), seed).expect("proxy");

        let sub = TcpPubSubClient::connect_with(proxy.local_addr(), chaos_cfg(seed ^ 1))
            .expect("subscriber");
        sub.subscribe("room");
        let publisher = TcpPubSubClient::connect_with(proxy.local_addr(), chaos_cfg(seed ^ 2))
            .expect("publisher");
        wait_for_event(&sub, "subscriber connect", Duration::from_secs(10), |e| {
            matches!(e, ClientEvent::Connected { .. })
        });
        wait_subscriptions(&broker_a, 1, "initial subscription");

        for i in 0..5 {
            publisher.publish("room", format!("pre-{i}").as_bytes());
        }
        for i in 0..5 {
            let msg = sub
                .message_timeout(Duration::from_secs(10))
                .unwrap_or_else(|| panic!("pre-{i} never arrived"));
            assert_eq!(msg.payload, format!("pre-{i}").into_bytes());
            assert!(msg.id.is_some(), "client publishes carry wire ids");
        }

        // "Restart" the broker: a replacement comes up elsewhere, the
        // proxy retargets and resets every existing connection — exactly
        // what a crashed-and-respawned broker looks like. The reset
        // comes *before* the old broker's shutdown so clients cannot
        // slip a doomed reconnect in between the two faults.
        let broker_b = TcpBroker::bind("127.0.0.1:0").expect("bind b");
        proxy.set_upstream(broker_b.local_addr());
        proxy.reset_all();
        broker_a.shutdown();

        // Publications issued while the broker is gone queue client-side.
        for i in 0..3 {
            publisher.publish("room", format!("during-{i}").as_bytes());
        }

        wait_for_event(
            &sub,
            "subscriber resubscribe",
            Duration::from_secs(20),
            |e| matches!(e, ClientEvent::Resubscribed { channels: 1 }),
        );
        wait_subscriptions(&broker_b, 1, "resubscription on the new broker");
        wait_for_event(
            &publisher,
            "publisher reconnect",
            Duration::from_secs(20),
            |e| matches!(e, ClientEvent::Connected { .. }),
        );

        // Settle the restart: keep publishing sync markers until one
        // round-trips to the subscriber's *live* session. Pub/sub has no
        // persistence, so only from that point on is every publication
        // guaranteed to reach the re-registered subscriber.
        let mut counts: HashMap<Vec<u8>, usize> = HashMap::new();
        let mut ids: Vec<MessageId> = Vec::new();
        let mut synced = false;
        let mut syncs = 0;
        let deadline = Instant::now() + Duration::from_secs(30);
        while !synced {
            assert!(Instant::now() < deadline, "the restart never settled");
            publisher.publish("room", format!("sync-{syncs}").as_bytes());
            syncs += 1;
            let round = Instant::now() + Duration::from_millis(300);
            while !synced && Instant::now() < round {
                let Some(msg) = sub.message_timeout(Duration::from_millis(50)) else {
                    continue;
                };
                synced = msg.payload.starts_with(b"sync-");
                *counts.entry(msg.payload).or_insert(0) += 1;
                ids.extend(msg.id);
            }
        }

        for i in 0..20 {
            publisher.publish("room", format!("post-{i}").as_bytes());
        }

        // Collect until every post-restart publication arrived.
        let mut posts: Vec<String> = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(30);
        while posts.len() < 20 {
            assert!(
                Instant::now() < deadline,
                "only {}/20 post-restart messages arrived",
                posts.len()
            );
            let Some(msg) = sub.message_timeout(Duration::from_millis(100)) else {
                continue;
            };
            *counts.entry(msg.payload.clone()).or_insert(0) += 1;
            ids.extend(msg.id);
            let body = String::from_utf8(msg.payload).expect("utf8 payload");
            if body.starts_with("post-") {
                posts.push(body);
            }
        }

        // Every post-restart publication exactly once, in publish order.
        let expected: Vec<String> = (0..20).map(|i| format!("post-{i}")).collect();
        assert_eq!(posts, expected);
        // Nothing — pre, during or post — was ever delivered twice, and
        // the dedup machinery saw a unique id on every delivery.
        for (body, count) in &counts {
            assert_eq!(
                *count,
                1,
                "{} delivered {count} times",
                String::from_utf8_lossy(body)
            );
        }
        let unique: std::collections::HashSet<MessageId> = ids.iter().copied().collect();
        assert_eq!(unique.len(), ids.len(), "duplicate wire id slipped through");

        sub.shutdown();
        publisher.shutdown();
        proxy.shutdown();
        broker_b.shutdown();
    });
}

/// The dedup window itself: a raw socket publishes the *same* framed
/// payload twice (what a retry whose ack was lost produces on the
/// wire), and the subscribing client delivers it once and reports the
/// suppressed duplicate.
#[test]
fn duplicate_wire_ids_are_suppressed_and_reported() {
    with_deadline(60, || {
        let seed = seed(0x0D15_EA5E);
        let broker = TcpBroker::bind("127.0.0.1:0").expect("bind");

        let sub = TcpPubSubClient::connect_with(broker.local_addr(), chaos_cfg(seed ^ 3))
            .expect("subscriber");
        sub.subscribe("dup");
        wait_subscriptions(&broker, 1, "subscription");

        // A raw publisher re-sending a byte-identical framed payload —
        // same wire id — as a retry would.
        let framed = frame_payload(MessageId { origin: 7, seq: 99 }, b"hello");
        let mut raw = TcpStream::connect(broker.local_addr()).expect("raw publisher");
        let publish = Value::array(vec![
            Value::bulk("PUBLISH"),
            Value::bulk("dup"),
            Value::Bulk(Some(framed)),
        ]);
        let mut wire = Vec::new();
        resp::encode(&publish, &mut wire);
        raw.write_all(&wire).expect("first publish");
        raw.write_all(&wire).expect("duplicate publish");

        let msg = sub
            .message_timeout(Duration::from_secs(10))
            .expect("first delivery");
        assert_eq!(msg.payload, b"hello");
        assert_eq!(msg.id, Some(MessageId { origin: 7, seq: 99 }));

        // The duplicate is suppressed and surfaced as an event …
        wait_for_event(&sub, "duplicate drop", Duration::from_secs(10), |e| {
            matches!(
                e,
                ClientEvent::Dropped {
                    cause: DropCause::Duplicate { channel }
                } if channel == "dup"
            )
        });
        // … and never delivered as a message.
        assert_eq!(sub.message_timeout(Duration::from_millis(300)), None);

        sub.shutdown();
        broker.shutdown();
    });
}

/// A half-open connection — accepted, never answered — is invisible to
/// TCP but must be detected by the heartbeat/liveness deadline, after
/// which the client recovers on its own once the path heals.
#[test]
fn half_open_broker_detected_within_liveness_timeout() {
    with_deadline(60, || {
        let seed = seed(0x0D15_EA5E);
        let broker = TcpBroker::bind("127.0.0.1:0").expect("bind");
        let proxy = ChaosProxy::spawn(broker.local_addr(), seed).expect("proxy");
        proxy.set_black_hole(true);

        let cfg = chaos_cfg(seed ^ 4);
        let liveness = cfg.timing.liveness_timeout();
        // The worker's deadline starts when its connect returns, which is
        // after this instant and before the test sees `Connected`: only a
        // clock started here bounds it from below.
        let started = Instant::now();
        let client = TcpPubSubClient::connect_with(proxy.local_addr(), cfg).expect("client");

        wait_for_event(&client, "connect", Duration::from_secs(10), |e| {
            matches!(e, ClientEvent::Connected { .. })
        });
        let event = wait_for_event(
            &client,
            "liveness disconnect",
            Duration::from_secs(10),
            |e| matches!(e, ClientEvent::Disconnected { .. }),
        );
        let detected_in = started.elapsed();
        assert_eq!(
            event,
            ClientEvent::Disconnected {
                reason: DisconnectReason::LivenessTimeout
            }
        );
        // Within the configured timeout, plus scheduling slack.
        assert!(
            detected_in >= liveness,
            "declared dead after {detected_in:?}, before the {liveness:?} deadline"
        );
        assert!(
            detected_in < liveness + Duration::from_secs(1),
            "took {detected_in:?} to detect a half-open broker (timeout {liveness:?})"
        );
        // The black hole never let a byte reach the real broker.
        assert_eq!(broker.connections_accepted(), 0);

        // Heal the path: the client's reconnect loop reaches the broker
        // without any caller intervention.
        proxy.set_black_hole(false);
        let deadline = Instant::now() + Duration::from_secs(10);
        while broker.connections_accepted() == 0 {
            assert!(Instant::now() < deadline, "client never recovered");
            std::thread::sleep(Duration::from_millis(10));
        }

        client.shutdown();
        proxy.shutdown();
        broker.shutdown();
    });
}

/// Stalls and added latency delay delivery but lose nothing: the
/// connection outlives the stall (the stall is a round trip the timing
/// bounds, so it is shorter than the liveness deadline) and every
/// message arrives exactly once, in order.
#[test]
fn stalls_and_latency_delay_but_do_not_lose_or_reorder() {
    with_deadline(60, || {
        let seed = seed(0x0D15_EA5E);
        let broker = TcpBroker::bind("127.0.0.1:0").expect("bind");
        let proxy = ChaosProxy::spawn(broker.local_addr(), seed).expect("proxy");
        let stall = Duration::from_millis(400);
        let cfg = |seed| ClientConfig {
            timing: timing(stall),
            ..chaos_cfg(seed)
        };

        let sub =
            TcpPubSubClient::connect_with(proxy.local_addr(), cfg(seed ^ 5)).expect("subscriber");
        sub.subscribe("laggy");
        let publisher =
            TcpPubSubClient::connect_with(proxy.local_addr(), cfg(seed ^ 6)).expect("publisher");
        wait_subscriptions(&broker, 1, "subscription");

        proxy.set_latency(Duration::from_millis(5));
        for i in 0..5 {
            publisher.publish("laggy", format!("m-{i}").as_bytes());
        }
        // Freeze the broker→client direction mid-stream; bytes queue
        // behind the stall.
        proxy.stall(Direction::ServerToClient, stall);
        for i in 5..10 {
            publisher.publish("laggy", format!("m-{i}").as_bytes());
        }

        let mut bodies = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(20);
        while bodies.len() < 10 {
            assert!(
                Instant::now() < deadline,
                "only {}/10 messages arrived through the stall",
                bodies.len()
            );
            if let Some(msg) = sub.message_timeout(Duration::from_millis(100)) {
                bodies.push(String::from_utf8(msg.payload).expect("utf8"));
            }
        }
        let expected: Vec<String> = (0..10).map(|i| format!("m-{i}")).collect();
        assert_eq!(bodies, expected);
        assert_eq!(sub.message_timeout(Duration::from_millis(200)), None);

        sub.shutdown();
        publisher.shutdown();
        proxy.shutdown();
        broker.shutdown();
    });
}

/// Random frame truncation: the proxy keeps tearing the publisher's
/// connection mid-frame, leaving the broker (and the publisher) torn
/// RESP. Nobody may panic, the broker must keep serving, and publish
/// retry + dedup must still deliver every publication exactly once to
/// a subscriber on a clean path.
#[test]
fn torn_frames_never_panic_and_retries_still_deliver_exactly_once() {
    const MESSAGES: usize = 120;
    with_deadline(180, || {
        let seed = seed(0x0D15_EA5E);
        let broker = TcpBroker::bind("127.0.0.1:0").expect("bind");

        // Subscriber on a clean, direct connection: it observes what
        // actually got through.
        let sub = TcpPubSubClient::connect_with(broker.local_addr(), chaos_cfg(seed ^ 7))
            .expect("subscriber");
        sub.subscribe("torn");
        wait_subscriptions(&broker, 1, "subscription");

        // Publisher behind a truncating proxy: every chunk has a 25%
        // chance of being cut in half with the connection killed.
        let proxy = ChaosProxy::spawn(broker.local_addr(), seed).expect("proxy");
        proxy.set_truncate_probability(0.25);
        let cfg = ClientConfig {
            publish_retries: 10_000,
            ..chaos_cfg(seed ^ 8)
        };
        let publisher = TcpPubSubClient::connect_with(proxy.local_addr(), cfg).expect("publisher");
        for i in 0..MESSAGES {
            publisher.publish("torn", format!("t-{i}").as_bytes());
        }

        let mut counts: HashMap<String, usize> = HashMap::new();
        let deadline = Instant::now() + Duration::from_secs(150);
        while counts.len() < MESSAGES {
            assert!(
                Instant::now() < deadline,
                "only {}/{MESSAGES} publications survived truncation chaos \
                 ({} truncations injected)",
                counts.len(),
                proxy.truncations()
            );
            if let Some(msg) = sub.message_timeout(Duration::from_millis(100)) {
                *counts
                    .entry(String::from_utf8(msg.payload).expect("utf8"))
                    .or_insert(0) += 1;
            }
        }
        for i in 0..MESSAGES {
            assert_eq!(
                counts.get(&format!("t-{i}")).copied(),
                Some(1),
                "t-{i} was not delivered exactly once"
            );
        }
        // The publisher never gave up, and the broker survived every
        // torn frame: it still serves a brand-new direct connection.
        let mut probe = TcpStream::connect(broker.local_addr()).expect("probe connect");
        let mut wire = Vec::new();
        resp::encode(&Value::array(vec![Value::bulk("PING")]), &mut wire);
        probe.write_all(&wire).expect("probe ping");
        probe
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut reply = Vec::new();
        let mut chunk = [0u8; 64];
        loop {
            match resp::decode(&reply).expect("valid resp") {
                Some((value, _)) => {
                    assert_eq!(value, Value::Simple("PONG".into()));
                    break;
                }
                None => {
                    let n = probe.read(&mut chunk).expect("probe read");
                    assert!(n > 0, "broker closed the probe connection");
                    reply.extend_from_slice(&chunk[..n]);
                }
            }
        }

        sub.shutdown();
        publisher.shutdown();
        proxy.shutdown();
        broker.shutdown();
    });
}
