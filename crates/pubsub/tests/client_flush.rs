//! The client worker's flush rule and its sleep, pinned by six tests:
//!
//! - an idle connected worker sleeps until its next heartbeat instead of
//!   waking every tick;
//! - [`FLUSH_BATCH`] publications leave without waiting out a long
//!   linger (the size trigger);
//! - a lone publication leaves within one linger ([`ClientConfig::tick`]);
//! - `shutdown` returns at once, from an idle connection and from a
//!   reconnect backoff alike;
//! - a `take_unsent` that stops waiting before the worker answers leaves
//!   the queue with the worker.
//!
//! The wake-up count reads this process's `dm-client` threads, so the
//! tests run one at a time.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use dynamoth_pubsub::client::{parse_payload, FLUSH_BATCH};
use dynamoth_pubsub::resp::{self, Value};
use dynamoth_pubsub::{ClientConfig, ClientEvent, TcpBroker, TcpPubSubClient};

mod common;

use common::wait_until;

static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// The watchdog of [`common::with_deadline`], holding the file-wide lock
/// for the duration of `body`.
fn with_deadline(secs: u64, body: impl FnOnce() + Send + 'static) {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    common::with_deadline(secs, body);
}

fn config(tick: Duration) -> ClientConfig {
    ClientConfig {
        tick,
        seed: Some(common::seed(1)),
        ..ClientConfig::default()
    }
}

/// [`config`] with a 10 s heartbeat, so that nothing but the rule under
/// test wakes the worker within a test.
fn quiet_config(tick: Duration) -> ClientConfig {
    ClientConfig {
        timing: common::timing(Duration::from_secs(2)),
        ..config(tick)
    }
}

fn connected(client: &TcpPubSubClient) {
    wait_until("connection", Duration::from_secs(10), || {
        matches!(client.try_event(), Some(ClientEvent::Connected { .. }))
    });
}

/// A plain RESP socket subscribed to one channel.
struct RawSubscriber {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl RawSubscriber {
    fn subscribe(broker: &TcpBroker, channel: &str) -> RawSubscriber {
        let mut stream = TcpStream::connect(broker.local_addr()).expect("connect");
        let mut wire = Vec::new();
        resp::encode_command(&[b"SUBSCRIBE", channel.as_bytes()], &mut wire);
        stream.write_all(&wire).expect("subscribe");
        stream
            .set_read_timeout(Some(Duration::from_millis(10)))
            .expect("read timeout");
        wait_until("subscription", Duration::from_secs(10), || {
            broker.channel_subscribers(channel) == 1
        });
        RawSubscriber {
            stream,
            buf: Vec::new(),
        }
    }

    /// The body of the next `message` push, or `None` at `deadline`.
    fn next(&mut self, deadline: Instant) -> Option<Vec<u8>> {
        loop {
            while let Some((value, used)) = resp::decode(&self.buf).expect("valid resp") {
                self.buf.drain(..used);
                if let Value::Array(Some(items)) = value {
                    if let [Value::Bulk(Some(kind)), _, Value::Bulk(Some(payload))] =
                        items.as_slice()
                    {
                        if kind == b"message" {
                            return Some(parse_payload(payload).1.to_vec());
                        }
                    }
                }
            }
            if Instant::now() >= deadline {
                return None;
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => return None,
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut => {}
                Err(e) => panic!("read: {e}"),
            }
        }
    }
}

/// With nothing queued the worker sleeps until its next `PING` (every
/// 500 ms at the default timing): two heartbeats, each a `PING` out and a
/// `PONG` in, make four wake-ups a second. Waking every 20 ms tick made
/// about fifty.
#[cfg(target_os = "linux")]
#[test]
fn an_idle_worker_sleeps_until_its_heartbeat() {
    with_deadline(60, || {
        let broker = TcpBroker::bind("127.0.0.1:0").expect("bind broker");
        let client =
            TcpPubSubClient::connect_addr(broker.local_addr(), config(Duration::from_millis(20)));
        connected(&client);
        let workers: Vec<(String, String)> = common::threads()
            .into_iter()
            .filter(|(_, name)| name == "dm-client")
            .collect();
        assert_eq!(workers.len(), 1, "client threads: {workers:?}");
        let tid = &workers[0].0;
        // Past the connection's first pass.
        std::thread::sleep(Duration::from_millis(100));
        let before = common::voluntary_switches(tid);
        std::thread::sleep(Duration::from_secs(1));
        let woke = common::voluntary_switches(tid) - before;
        assert!(woke <= 5, "idle worker woke {woke} times in 1 s");
        client.shutdown();
        broker.shutdown();
    });
}

/// A linger longer than the test does not hold back a full batch. (A
/// linger ends on a clock the process shares, so a 10 s one could end
/// within the second this test waits.)
#[test]
fn a_full_batch_leaves_without_waiting_out_the_linger() {
    with_deadline(60, || {
        let broker = TcpBroker::bind("127.0.0.1:0").expect("bind broker");
        let mut sub = RawSubscriber::subscribe(&broker, "batch");
        let publisher = TcpPubSubClient::connect_addr(
            broker.local_addr(),
            quiet_config(Duration::from_secs(3600)),
        );
        connected(&publisher);
        let sent = Instant::now();
        // The first wakes the worker, which takes it and arms the linger;
        // the batch is only complete in the caller's queue.
        publisher.publish("batch", &0u64.to_be_bytes());
        std::thread::sleep(Duration::from_millis(100));
        for i in 1..FLUSH_BATCH as u64 {
            publisher.publish("batch", &i.to_be_bytes());
        }
        for i in 0..FLUSH_BATCH as u64 {
            let body = sub
                .next(sent + Duration::from_secs(1))
                .unwrap_or_else(|| panic!("publication {i} still queued after 1 s"));
            assert_eq!(body, i.to_be_bytes());
        }
        publisher.shutdown();
        broker.shutdown();
    });
}

/// One publication on an idle connection waits at most one linger.
#[test]
fn a_lone_publication_leaves_within_one_linger() {
    with_deadline(60, || {
        let tick = Duration::from_millis(200);
        let broker = TcpBroker::bind("127.0.0.1:0").expect("bind broker");
        let mut sub = RawSubscriber::subscribe(&broker, "lone");
        let publisher = TcpPubSubClient::connect_addr(broker.local_addr(), quiet_config(tick));
        connected(&publisher);
        for trial in 0..3u8 {
            // Long enough for the worker to be asleep with nothing queued.
            std::thread::sleep(Duration::from_millis(300));
            let sent = Instant::now();
            publisher.publish("lone", &[trial]);
            let body = sub.next(sent + tick + Duration::from_secs(5));
            let waited = sent.elapsed();
            assert_eq!(body, Some(vec![trial]), "trial {trial} lost");
            assert!(
                waited < tick + Duration::from_millis(100),
                "trial {trial} waited {waited:?} against a {tick:?} linger"
            );
        }
        publisher.shutdown();
        broker.shutdown();
    });
}

#[test]
fn shutdown_of_an_idle_client_is_immediate() {
    with_deadline(60, || {
        let broker = TcpBroker::bind("127.0.0.1:0").expect("bind broker");
        let client =
            TcpPubSubClient::connect_addr(broker.local_addr(), config(Duration::from_millis(20)));
        connected(&client);
        std::thread::sleep(Duration::from_millis(100));
        let stopping = Instant::now();
        client.shutdown();
        let took = stopping.elapsed();
        assert!(took < Duration::from_millis(100), "shutdown took {took:?}");
        broker.shutdown();
    });
}

/// The reconnect backoff waits on the worker's poll, so shutdown ends it
/// at once. A 10 s round-trip bound makes the backoff seconds long.
#[test]
fn shutdown_ends_a_reconnect_backoff_at_once() {
    with_deadline(60, || {
        let closed = TcpListener::bind("127.0.0.1:0")
            .expect("bind")
            .local_addr()
            .expect("addr");
        let client = TcpPubSubClient::connect_addr(
            closed,
            ClientConfig {
                timing: common::timing(Duration::from_secs(10)),
                ..config(Duration::from_millis(20))
            },
        );
        wait_until("refused connect", Duration::from_secs(10), || {
            matches!(client.try_event(), Some(ClientEvent::Disconnected { .. }))
        });
        std::thread::sleep(Duration::from_millis(50));
        let stopping = Instant::now();
        client.shutdown();
        let took = stopping.elapsed();
        assert!(took < Duration::from_millis(100), "shutdown took {took:?}");
    });
}

/// A rescue that stops waiting before the worker answers takes nothing
/// with it: the next rescue gets every publication, each exactly once.
#[test]
fn a_take_unsent_that_stops_waiting_leaves_the_queue_with_the_worker() {
    with_deadline(60, || {
        // Accepts and never replies: nothing is ever acknowledged.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let client = TcpPubSubClient::connect_addr(
            listener.local_addr().expect("addr"),
            config(Duration::from_millis(5)),
        );
        let (_silent, _) = listener.accept().expect("accept");
        connected(&client);
        for i in 0..10u8 {
            client.publish("held", &[i]);
        }
        let first = client.take_unsent(Duration::ZERO);
        let second = client.take_unsent(Duration::from_secs(1));
        let mut seqs: Vec<u64> = first
            .iter()
            .chain(&second)
            .map(|(_, framed)| parse_payload(framed).0.expect("framed").seq)
            .collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (0..10).collect::<Vec<u64>>());
        client.shutdown();
    });
}
