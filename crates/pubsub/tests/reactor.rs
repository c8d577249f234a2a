//! Regression suite for the reactor-core broker engine: exact overflow
//! accounting under both [`OverflowPolicy`] variants, bounded shutdown
//! drains, half-open detection via the liveness timer wheel, and
//! per-loop statistics consistency.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use dynamoth_pubsub::resp::{self, Value};
use dynamoth_pubsub::{BrokerConfig, OverflowPolicy, TcpBroker};

struct RespClient {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl RespClient {
    fn connect(addr: std::net::SocketAddr) -> RespClient {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        RespClient {
            stream,
            buf: Vec::new(),
        }
    }

    fn send(&mut self, words: &[&str]) {
        let value = Value::array(words.iter().map(|w| Value::bulk(*w)).collect());
        let mut out = Vec::new();
        resp::encode(&value, &mut out);
        self.stream.write_all(&out).expect("write");
    }

    fn recv(&mut self) -> Value {
        self.try_recv(Duration::from_secs(10))
            .expect("timed out waiting for a frame")
    }

    fn try_recv(&mut self, timeout: Duration) -> Option<Value> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some((value, used)) = resp::decode(&self.buf).expect("valid resp") {
                self.buf.drain(..used);
                return Some(value);
            }
            if Instant::now() >= deadline {
                return None;
            }
            let mut chunk = [0u8; 16 * 1024];
            match self.stream.read(&mut chunk) {
                Ok(0) => return None,
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut => {}
                Err(_) => return None,
            }
        }
    }
}

/// Under `DropOldest`, every frame the broker ever creates for a
/// connection is accounted for exactly once — flushed to the kernel,
/// shed at push time, or discarded by the shutdown drain — and the
/// drops are attributed to the one connection that could not keep up.
#[test]
fn drop_oldest_accounting_is_exact_per_connection() {
    // Loopback socket buffers can absorb multiple megabytes before the
    // outbox starts queueing, so push well past that.
    const PUBLISHES: u64 = 1_000;
    let broker = TcpBroker::bind_with(
        "127.0.0.1:0",
        BrokerConfig {
            outbox_limit_bytes: 32 * 1024,
            overflow_policy: OverflowPolicy::DropOldest,
            shutdown_drain_timeout: Duration::from_millis(200),
            ..BrokerConfig::default()
        },
    )
    .expect("bind");
    let addr = broker.local_addr();

    let mut slow = RespClient::connect(addr);
    slow.send(&["SUBSCRIBE", "hose"]);
    assert_eq!(slow.recv(), resp::subscription_push("subscribe", "hose", 1));
    // From here on, `slow` never reads: its socket buffer fills, then
    // its 32 KiB outbox sheds oldest frames on every further push.

    let payload = "y".repeat(16 * 1024);
    let mut publisher = RespClient::connect(addr);
    for _ in 0..PUBLISHES {
        publisher.send(&["PUBLISH", "hose", &payload]);
        assert_eq!(
            publisher.recv(),
            Value::Integer(1),
            "DropOldest must keep the subscriber alive"
        );
    }

    // Let the loops quiesce so the pre-shutdown snapshot is stable: the
    // slow connection's flushes are all Pending against a full socket
    // buffer, so two identical consecutive samples mean nothing is
    // still in flight.
    let deadline = Instant::now() + Duration::from_secs(10);
    let before = loop {
        let a = broker.health();
        std::thread::sleep(Duration::from_millis(50));
        let b = broker.health();
        if a.flush == b.flush && a.dropped_frames == b.dropped_frames {
            break b;
        }
        assert!(Instant::now() < deadline, "counters never quiesced");
    };

    // All drops so far belong to the slow connection, exactly.
    assert!(before.dropped_frames > 0, "outbox never overflowed");
    assert_eq!(before.overflow_kills, 0);
    let drops = broker.per_connection_drops();
    let nonzero: Vec<_> = drops.iter().filter(|(_, d)| *d > 0).collect();
    assert_eq!(nonzero.len(), 1, "drops must be attributed to one conn");
    assert_eq!(nonzero[0].1, before.dropped_frames);

    // Conservation across shutdown: 1 subscribe ack + one push per
    // publish + one publisher reply per publish were created; each is
    // either flushed or dropped — nothing vanishes, nothing is counted
    // twice.
    let drain = broker.shutdown();
    let flushed_total = before.flush.frames + drain.frames_flushed;
    let dropped_total = before.dropped_frames + drain.frames_dropped;
    assert_eq!(
        flushed_total + dropped_total,
        1 + 2 * PUBLISHES,
        "frames leaked or were double-counted (flushed {flushed_total}, dropped {dropped_total})"
    );
}

/// Under `Kill`, the overflowing subscriber is disconnected — exactly
/// once, and only it — and surviving connections report zero drops.
#[test]
fn kill_policy_reports_exactly_one_overflow_kill() {
    let broker = TcpBroker::bind_with(
        "127.0.0.1:0",
        BrokerConfig {
            outbox_limit_bytes: 64 * 1024,
            overflow_policy: OverflowPolicy::Kill,
            ..BrokerConfig::default()
        },
    )
    .expect("bind");
    let addr = broker.local_addr();

    let mut slow = RespClient::connect(addr);
    slow.send(&["SUBSCRIBE", "hose"]);
    assert_eq!(slow.recv(), resp::subscription_push("subscribe", "hose", 1));

    let payload = "z".repeat(16 * 1024);
    let mut publisher = RespClient::connect(addr);
    let mut killed = false;
    for _ in 0..4_000 {
        publisher.send(&["PUBLISH", "hose", &payload]);
        match publisher.recv() {
            Value::Integer(0) => {
                killed = true;
                break;
            }
            Value::Integer(1) => {}
            other => panic!("unexpected reply {other:?}"),
        }
    }
    assert!(killed, "overflow never killed the slow subscriber");

    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let health = broker.health();
        if health.open_connections == 1 && health.subscriptions == 0 {
            assert_eq!(health.overflow_kills, 1);
            assert_eq!(health.connections_live, 1);
            break;
        }
        assert!(Instant::now() < deadline, "kill teardown never completed");
        std::thread::sleep(Duration::from_millis(10));
    }
    // The survivor (the publisher) shed nothing.
    for (_, drops) in broker.per_connection_drops() {
        assert_eq!(drops, 0);
    }
    broker.shutdown();
}

/// Shutdown honors `shutdown_drain_timeout`: a subscriber that stopped
/// reading cannot stall the broker, and its undeliverable frames are
/// reported dropped in the [`dynamoth_pubsub::ShutdownStats`].
#[test]
fn shutdown_drain_is_bounded_and_accounted() {
    let broker = TcpBroker::bind_with(
        "127.0.0.1:0",
        BrokerConfig {
            outbox_limit_bytes: 8 * 1024 * 1024,
            shutdown_drain_timeout: Duration::from_millis(250),
            ..BrokerConfig::default()
        },
    )
    .expect("bind");
    let addr = broker.local_addr();

    let mut slow = RespClient::connect(addr);
    slow.send(&["SUBSCRIBE", "wall"]);
    assert_eq!(slow.recv(), resp::subscription_push("subscribe", "wall", 1));

    // Enough queued bytes to overrun any socket buffer, well under the
    // outbox budget — the frames sit in the outbox at shutdown time.
    let payload = "w".repeat(64 * 1024);
    let mut publisher = RespClient::connect(addr);
    for _ in 0..128 {
        publisher.send(&["PUBLISH", "wall", &payload]);
        assert_eq!(publisher.recv(), Value::Integer(1));
    }

    let start = Instant::now();
    let stats = broker.shutdown();
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(3),
        "drain was not bounded: {elapsed:?}"
    );
    assert!(
        stats.frames_dropped > 0,
        "a non-reading subscriber must leave dropped frames"
    );
}

/// With a liveness timeout configured, a half-open connection (peer
/// silent, no FIN ever arriving) is reaped by the timer wheel within
/// the deadline, while a connection that keeps PINGing survives.
#[test]
fn liveness_timeout_reaps_silent_connections_only() {
    let broker = TcpBroker::bind_with(
        "127.0.0.1:0",
        BrokerConfig {
            liveness_timeout: Some(Duration::from_millis(400)),
            ..BrokerConfig::default()
        },
    )
    .expect("bind");
    let addr = broker.local_addr();

    let mut silent = RespClient::connect(addr);
    silent.send(&["SUBSCRIBE", "quiet"]);
    assert_eq!(
        silent.recv(),
        resp::subscription_push("subscribe", "quiet", 1)
    );
    // `silent` now never writes again — a half-open peer as far as the
    // broker can tell (we just never send the FIN either).

    let mut pinger = RespClient::connect(addr);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        pinger.send(&["PING"]);
        assert_eq!(
            pinger.recv(),
            Value::Simple("PONG".into()),
            "live connection was reaped"
        );
        let health = broker.health();
        if health.liveness_kills == 1 {
            assert_eq!(health.subscriptions, 0, "silent subscription not swept");
            break;
        }
        assert!(
            Instant::now() < deadline,
            "silent connection was never reaped"
        );
        std::thread::sleep(Duration::from_millis(100));
    }
    // The broker actually closed the silent socket.
    let saw_close = silent.try_recv(Duration::from_secs(2)).is_none();
    assert!(saw_close);
    broker.shutdown();
}

/// The per-loop breakdowns sum to the aggregate counters, connections
/// are spread across loops, and the peak gauge tracks the high-water
/// mark.
#[test]
fn per_loop_stats_sum_to_aggregate() {
    const CLIENTS: usize = 8;
    let broker = TcpBroker::bind_with(
        "127.0.0.1:0",
        BrokerConfig {
            io_loops: 4,
            ..BrokerConfig::default()
        },
    )
    .expect("bind");
    assert_eq!(broker.io_loops(), 4);
    let addr = broker.local_addr();

    let mut subs: Vec<RespClient> = Vec::new();
    for i in 0..CLIENTS {
        let mut c = RespClient::connect(addr);
        let ch = format!("ch-{i}");
        c.send(&["SUBSCRIBE", &ch]);
        assert_eq!(c.recv(), resp::subscription_push("subscribe", &ch, 1));
        subs.push(c);
    }
    let mut publisher = RespClient::connect(addr);
    for i in 0..CLIENTS {
        publisher.send(&["PUBLISH", &format!("ch-{i}"), "hello"]);
        assert_eq!(publisher.recv(), Value::Integer(1));
    }
    for (i, c) in subs.iter_mut().enumerate() {
        let push = c.recv();
        assert_eq!(push, resp::message_push(&format!("ch-{i}"), b"hello"));
    }

    let health = broker.health();
    let per_loop = broker.per_loop_flush_stats();
    assert_eq!(per_loop.len(), 4);
    let agg = broker.flush_stats();
    assert_eq!(per_loop.iter().map(|l| l.frames).sum::<u64>(), agg.frames);
    assert_eq!(per_loop.iter().map(|l| l.writes).sum::<u64>(), agg.writes);
    assert!(per_loop.iter().map(|l| l.bytes).sum::<u64>() > 0);
    assert_eq!(
        per_loop.iter().map(|l| l.connections).sum::<usize>(),
        health.open_connections
    );
    assert_eq!(health.open_connections, CLIENTS + 1);
    assert_eq!(health.connections_live, CLIENTS + 1);
    assert!(health.peak_connections > CLIENTS);
    // Least-loaded placement: 9 connections over 4 loops can't all pile
    // onto one loop.
    assert!(per_loop.iter().filter(|l| l.connections > 0).count() >= 3);
    broker.shutdown();
}
