//! The delivery path's thread budget, pinned by four tests:
//!
//! - a publication that reaches the broker reaches
//!   [`RoutedClient::try_message`] without waiting for anything but the
//!   subscriber's own worker — no pump pass, no poll, no sleep;
//! - an idle router owns B+1 threads over B brokers and its control
//!   thread (`dm-router`) sleeps instead of ticking;
//! - tearing a connection down is the control thread's job even when
//!   the verdict arrives on the very connection it condemns;
//! - a connection cut in the middle of a batched flush returns the
//!   whole batch to the queue, in order, ids unchanged.
//!
//! Every test here counts or times `dm-*` threads of this process, so
//! they run one at a time.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

use dynamoth_pubsub::{
    channel_id_of, control_channel, resp, ChannelMapping, ChaosProxy, ClientConfig, ClientEvent,
    ControlFrame, Direction, GapReason, PlanId, Quarantine, Ring, RoutedClient, RouterConfig,
    ServerId, TcpBroker, TcpPubSubClient, DEFAULT_VNODES,
};

static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Hard watchdog: a wedged client or router fails fast. Holds the
/// file-wide lock for the duration of `body`.
fn with_deadline(secs: u64, body: impl FnOnce() + Send + 'static) {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
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

/// Polls `pred` until it holds; panics at the deadline.
fn wait_until(what: &str, timeout: Duration, mut pred: impl FnMut() -> bool) {
    let deadline = Instant::now() + timeout;
    while !pred() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn brokers(n: usize) -> (Vec<TcpBroker>, Vec<SocketAddr>) {
    let brokers: Vec<TcpBroker> = (0..n)
        .map(|_| TcpBroker::bind("127.0.0.1:0").expect("bind broker"))
        .collect();
    let directory = brokers.iter().map(|b| b.local_addr()).collect();
    (brokers, directory)
}

/// One channel name per broker of an `n`-broker directory, each homed
/// on that broker by the ring every router falls back to.
fn channel_per_broker(n: usize) -> Vec<String> {
    let servers: Vec<ServerId> = (0..n).map(ServerId::from_index).collect();
    let ring = Ring::new(&servers, DEFAULT_VNODES);
    (0..n)
        .map(|broker| {
            (0..)
                .map(|i| format!("room-{i}"))
                .find(|name| ring.server_for(channel_id_of(name)).index() == broker)
                .expect("some name homes on every broker")
        })
        .collect()
}

/// A router subscribed to one channel on each of `brokers`, every
/// subscription confirmed.
fn router_on_every_broker(
    brokers: &[TcpBroker],
    directory: &[SocketAddr],
    cfg: RouterConfig,
) -> (RoutedClient, Vec<String>) {
    let channels = channel_per_broker(brokers.len());
    let router = RoutedClient::connect(directory.to_vec(), cfg);
    for channel in &channels {
        router.subscribe(channel);
    }
    wait_until("subscriptions", Duration::from_secs(10), || {
        brokers
            .iter()
            .zip(&channels)
            .all(|(b, c)| b.channel_subscribers(c) == 1)
    });
    (router, channels)
}

/// `(tid, name)` of every live thread of this process.
#[cfg(target_os = "linux")]
fn threads() -> Vec<(String, String)> {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .flatten()
        .filter_map(|task| {
            let comm = std::fs::read_to_string(task.path().join("comm")).ok()?;
            let tid = task.file_name().into_string().ok()?;
            Some((tid, comm.trim_end().to_owned()))
        })
        .collect()
}

#[cfg(target_os = "linux")]
fn voluntary_switches(tid: &str) -> u64 {
    let status =
        std::fs::read_to_string(format!("/proc/self/task/{tid}/status")).expect("thread status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("voluntary_ctxt_switches")
}

/// A `PUBLISH` written to the broker's socket is in `try_message` as
/// soon as the subscriber's worker has decoded it. With a pump thread
/// polling every 5 ms in between, the median was ≈2.5 ms.
#[test]
fn delivery_reaches_try_message_without_a_pump_pass() {
    with_deadline(60, || {
        let (brokers, directory) = brokers(1);
        let (router, channels) =
            router_on_every_broker(&brokers, &directory, RouterConfig::default());
        let mut raw = TcpStream::connect(directory[0]).expect("raw publisher");
        raw.set_nodelay(true).expect("nodelay");

        let mut waits = Vec::new();
        let mut ack = [0u8; 16];
        for trial in 0..100u32 {
            let body = trial.to_be_bytes();
            let mut wire = Vec::new();
            resp::encode_command(&[b"PUBLISH", channels[0].as_bytes(), &body], &mut wire);
            let sent = Instant::now();
            raw.write_all(&wire).expect("publish");
            let msg = loop {
                if let Some(msg) = router.try_message() {
                    break msg;
                }
                assert!(
                    sent.elapsed() < Duration::from_secs(5),
                    "trial {trial} lost"
                );
                std::hint::spin_loop();
            };
            waits.push(sent.elapsed());
            assert_eq!(msg.payload, body);
            // `:1\r\n` — keep the raw socket's replies drained.
            let n = raw.read(&mut ack).expect("ack");
            assert_eq!(&ack[..n], b":1\r\n");
        }
        waits.sort();
        let median = waits[waits.len() / 2];
        assert!(
            median < Duration::from_millis(1),
            "median socket-to-try_message wait {median:?}, worst {:?}",
            waits[waits.len() - 1]
        );

        router.shutdown();
        for broker in brokers {
            broker.shutdown();
        }
    });
}

/// B+1 threads over B brokers, and the +1 blocks on its inbox: an idle
/// router has no deadline, so its control thread does not wake at all
/// (the pump it replaces slept 5 ms at a time — 200 wake-ups a second).
#[cfg(target_os = "linux")]
#[test]
fn idle_router_owns_b_plus_one_threads_and_its_control_thread_sleeps() {
    with_deadline(60, || {
        let dm_threads = || -> Vec<(String, String)> {
            threads()
                .into_iter()
                .filter(|(_, name)| name.starts_with("dm-"))
                .collect()
        };
        assert_eq!(dm_threads(), Vec::new(), "another test's threads are alive");

        let (brokers, directory) = brokers(3);
        let (router, _channels) =
            router_on_every_broker(&brokers, &directory, RouterConfig::default());
        assert_eq!(router.stats().connections, 3);

        let owned = dm_threads();
        let named = |want: &str| owned.iter().filter(|(_, name)| name == want).count();
        assert_eq!(owned.len(), 4, "threads owned: {owned:?}");
        assert_eq!(named("dm-client"), 3);
        assert_eq!(named("dm-router"), 1);

        let (control_tid, _) = owned
            .iter()
            .find(|(_, name)| name == "dm-router")
            .expect("control thread");
        let before = voluntary_switches(control_tid);
        std::thread::sleep(Duration::from_secs(1));
        let woke = voluntary_switches(control_tid) - before;
        assert!(woke < 20, "idle control thread woke {woke} times in 1 s");

        // A thread that never wakes must still stop at once.
        let stopping = Instant::now();
        router.shutdown();
        assert!(stopping.elapsed() < Duration::from_secs(2));
        assert_eq!(dm_threads(), Vec::new(), "threads leaked past shutdown");
        for broker in brokers {
            broker.shutdown();
        }
    });
}

/// The balancer's death verdict about broker *i* reaches the router on
/// connection *i* itself (the broker is in fact up; the verdict is what
/// counts). Acting on it means joining connection *i*'s worker — which
/// would never return if the worker were the one acting.
#[test]
fn quarantine_verdict_arriving_on_the_condemned_connection_is_applied() {
    with_deadline(60, || {
        let (brokers, directory) = brokers(3);
        let (router, channels) =
            router_on_every_broker(&brokers, &directory, RouterConfig::default());
        let condemned = 1;
        let channel = &channels[condemned];

        // Learn connection `condemned`'s private control channel from
        // the wire id of a publication the router routes over it.
        let helper = TcpPubSubClient::connect_addr(directory[condemned], ClientConfig::default());
        helper.subscribe(channel);
        wait_until("helper subscription", Duration::from_secs(10), || {
            brokers[condemned].channel_subscribers(channel) == 2
        });
        router.publish(channel, b"who are you");
        let origin = helper
            .message_timeout(Duration::from_secs(10))
            .and_then(|m| m.id)
            .expect("routed publications carry a wire id")
            .origin;
        helper.unsubscribe(channel);

        let verdict = ControlFrame::Moved {
            channel: "elsewhere".to_owned(),
            mapping: ChannelMapping::Single(ServerId::from_index(0)),
            plan: PlanId(1),
            quarantine: vec![Quarantine {
                broker: condemned,
                incarnation: 1,
            }],
        };
        helper.publish(&control_channel(origin), &verdict.encode());

        // (The death mark itself is lifted again by the first revival
        // probe: the broker is reachable.)
        wait_until("verdict applied", Duration::from_secs(10), || {
            let stats = router.stats();
            stats.deaths_detected == 1 && stats.moved_applied == 1
        });
        let stats = router.stats();
        assert_eq!(stats.failover_repoints, 1);
        assert_eq!(stats.connections, 2, "the condemned connection is gone");

        // The stranded subscription moved to a survivor, with the
        // discontinuity surfaced, and deliveries flow there.
        let mut gap = None;
        wait_until("failover gap event", Duration::from_secs(10), || {
            while let Some(e) = router.try_event() {
                if let ClientEvent::Gap { .. } = e.event {
                    gap = Some(e);
                }
            }
            gap.is_some()
        });
        let gap = gap.expect("gap");
        assert_eq!(gap.broker, condemned);
        assert_eq!(
            gap.event,
            ClientEvent::Gap {
                channel: channel.clone(),
                missed: 0,
                reason: GapReason::Failover,
            }
        );
        let mut new_home = None;
        wait_until("re-pointed subscription", Duration::from_secs(10), || {
            new_home =
                (0..3).find(|&b| b != condemned && brokers[b].channel_subscribers(channel) == 1);
            new_home.is_some()
        });
        let survivor = TcpPubSubClient::connect_addr(
            directory[new_home.expect("new home")],
            ClientConfig::default(),
        );
        survivor.publish(channel, b"over here");
        wait_until("delivery via the survivor", Duration::from_secs(10), || {
            // The router's own "who are you" is queued ahead of it.
            router
                .try_message()
                .is_some_and(|msg| msg.payload == b"over here")
        });

        survivor.shutdown();
        helper.shutdown();
        router.shutdown();
        for broker in brokers {
            broker.shutdown();
        }
    });
}

/// The publisher's connection dies with most of a 2 000-publication
/// batch written or queued and none of it acknowledged. Everything in
/// flight goes back to the queue oldest first with the id it was first
/// framed with, so after the reconnect the subscriber ends up with each
/// publication once, in publish order.
#[test]
fn connection_cut_mid_flush_resends_the_batch_in_order_with_the_same_ids() {
    with_deadline(120, || {
        const N: usize = 2_000;
        let fast = |seed| ClientConfig {
            reconnect_base: Duration::from_millis(10),
            reconnect_cap: Duration::from_millis(100),
            // The re-sent prefix must still be inside the window.
            dedup_window: 2 * N,
            seed: Some(seed),
            ..ClientConfig::default()
        };
        let broker = TcpBroker::bind("127.0.0.1:0").expect("bind broker");
        let proxy = ChaosProxy::spawn(broker.local_addr(), 7).expect("proxy");
        let sub = TcpPubSubClient::connect_addr(broker.local_addr(), fast(1));
        sub.subscribe("feed");
        let publisher = TcpPubSubClient::connect_addr(proxy.local_addr(), fast(2));
        wait_until("subscription", Duration::from_secs(10), || {
            broker.channel_subscribers("feed") == 1
        });
        wait_until("publisher connection", Duration::from_secs(10), || {
            matches!(publisher.try_event(), Some(ClientEvent::Connected { .. }))
        });

        // 1 ms per 4 KiB chunk: the 2 MB batch takes the proxy half a
        // second, so the cut below lands well inside it. No reply gets
        // back before the cut, so nothing sent before it is acknowledged.
        proxy.set_latency(Duration::from_millis(1));
        proxy.stall(Direction::ServerToClient, Duration::from_secs(60));
        let forwarded_before = proxy.bytes_forwarded();
        let body = |i: usize| {
            let mut body = vec![b'.'; 1024];
            body[..8].copy_from_slice(&(i as u64).to_be_bytes());
            body
        };
        for i in 0..N {
            publisher.publish("feed", &body(i));
        }
        wait_until(
            "part of the batch forwarded",
            Duration::from_secs(10),
            || proxy.bytes_forwarded() - forwarded_before >= 200 * 1024,
        );
        proxy.reset_all();
        proxy.set_latency(Duration::ZERO);
        proxy.stall(Direction::ServerToClient, Duration::ZERO);

        let mut origin = None;
        for i in 0..N {
            let msg = sub
                .message_timeout(Duration::from_secs(20))
                .unwrap_or_else(|| panic!("publication {i} lost"));
            assert_eq!(msg.payload, body(i), "out of order or duplicated at {i}");
            let id = msg.id.expect("framed");
            assert_eq!(id.seq, i as u64, "publication {i} was re-framed");
            assert_eq!(*origin.get_or_insert(id.origin), id.origin);
        }
        assert_eq!(sub.message_timeout(Duration::from_millis(300)), None);

        // The cut did happen, and it did make the publisher re-send.
        let mut reconnected = false;
        while let Some(event) = publisher.try_event() {
            reconnected |= matches!(event, ClientEvent::Connected { .. });
        }
        assert!(reconnected, "the publisher never lost its connection");
        let mut suppressed = 0;
        while let Some(event) = sub.try_event() {
            if let ClientEvent::Dropped { .. } = event {
                suppressed += 1;
            }
        }
        assert!(
            suppressed > 0,
            "nothing was re-sent: the cut missed the flush"
        );

        publisher.shutdown();
        sub.shutdown();
        proxy.shutdown();
        broker.shutdown();
    });
}
