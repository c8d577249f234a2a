//! Routed fan-out benchmark of the multi-broker TCP tier.
//!
//! Drives real [`RoutedClient`]s against a live broker *cluster*:
//! subscriber routers subscribe to every channel, publisher threads
//! round-robin publications across the channels, and the consistent-hash
//! ring spreads those channels over the directory — so the same offered
//! load can be measured on 1 broker vs N brokers. The per-cluster
//! delivery ceiling is the number the paper's rebalancing economics rent
//! servers against; comparing the `brokers = 1` row with the `brokers =
//! N` row shows what the plan-routed tier buys.
//!
//! [`bench_router`] runs one grid cell and returns a [`RouterBenchRow`];
//! [`write_router_json`] serialises a series as the `BENCH_router.json`
//! tracking artifact.

use std::io::Write as IoWrite;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dynamoth_pubsub::{ClientConfig, RoutedClient, RouterConfig, TcpBroker};

/// One cell of the routed fan-out grid.
#[derive(Debug, Clone)]
pub struct RouterBenchConfig {
    /// Brokers in the directory.
    pub brokers: usize,
    /// Channels, named so the ring spreads them across the directory.
    pub channels: usize,
    /// Subscriber routers; each subscribes to every channel.
    pub subscribers: usize,
    /// Publisher threads, each with its own router, round-robining over
    /// the channels.
    pub publishers: usize,
    /// Wall-clock publishing window.
    pub duration: Duration,
    /// Publication payload size in bytes.
    pub payload_bytes: usize,
    /// Seed for all router PRNGs (origins, member picks).
    pub seed: u64,
}

impl Default for RouterBenchConfig {
    fn default() -> Self {
        RouterBenchConfig {
            brokers: 3,
            channels: 12,
            subscribers: 2,
            publishers: 4,
            duration: Duration::from_millis(1_000),
            payload_bytes: 64,
            seed: 0xBEEF,
        }
    }
}

/// Measured results of one grid cell.
#[derive(Debug, Clone)]
pub struct RouterBenchRow {
    /// Brokers in the directory.
    pub brokers: usize,
    /// Channels spread over the ring.
    pub channels: usize,
    /// Subscriber routers.
    pub subscribers: usize,
    /// Publisher threads.
    pub publishers: usize,
    /// Publishing window actually used, seconds.
    pub publish_secs: f64,
    /// Publications issued by the publishers.
    pub published: u64,
    /// Message deliveries across all subscriber routers.
    pub delivered: u64,
    /// Deliveries owed: `published × subscribers`.
    pub expected: u64,
    /// Publish throughput, publications/s.
    pub publish_per_s: f64,
    /// Delivery throughput, deliveries/s (over publish window + drain).
    pub deliver_per_s: f64,
    /// `delivered / expected` (queue shedding under overload shows up
    /// here, not as a hang).
    pub delivery_ratio: f64,
    /// Cross-broker duplicates suppressed by the subscriber routers
    /// (should be 0 without reconfiguration traffic).
    pub duplicates_suppressed: u64,
}

fn quiet_client() -> ClientConfig {
    ClientConfig {
        tick: Duration::from_millis(1),
        ..ClientConfig::default()
    }
}

/// Runs one grid cell against a fresh broker cluster on loopback.
pub fn bench_router(cfg: &RouterBenchConfig) -> RouterBenchRow {
    let brokers: Vec<TcpBroker> = (0..cfg.brokers.max(1))
        .map(|_| TcpBroker::bind("127.0.0.1:0").expect("bind broker"))
        .collect();
    let directory: Vec<std::net::SocketAddr> = brokers.iter().map(|b| b.local_addr()).collect();
    let channel_names: Vec<String> = (0..cfg.channels.max(1))
        .map(|c| format!("grid-{c:03}"))
        .collect();
    let payload = vec![b'x'; cfg.payload_bytes];

    let router_cfg = |seed: u64| RouterConfig {
        client: quiet_client(),
        seed: Some(seed),
        ..RouterConfig::default()
    };

    // Subscribers: each router subscribes to every channel; a drain
    // thread per router counts deliveries.
    let delivered = Arc::new(AtomicU64::new(0));
    let duplicates = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut drain_threads = Vec::new();
    for s in 0..cfg.subscribers.max(1) {
        let sub =
            RoutedClient::connect(directory.clone(), router_cfg(cfg.seed ^ ((s as u64) << 8)));
        for name in &channel_names {
            sub.subscribe(name);
        }
        let delivered = Arc::clone(&delivered);
        let duplicates = Arc::clone(&duplicates);
        let stop = Arc::clone(&stop);
        drain_threads.push(std::thread::spawn(move || {
            loop {
                let mut idle = true;
                while sub.try_message().is_some() {
                    delivered.fetch_add(1, Ordering::Relaxed);
                    idle = false;
                }
                while sub.try_event().is_some() {}
                if idle {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
            duplicates.fetch_add(sub.stats().duplicates_suppressed, Ordering::Relaxed);
            sub.shutdown();
        }));
    }
    // Every channel must be registered on its ring home before traffic
    // starts; a subscriber router holds exactly one subscription per
    // channel, somewhere in the cluster.
    let want = cfg.subscribers.max(1) * cfg.channels.max(1);
    let reg_deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let data_subs: usize = channel_names
            .iter()
            .map(|name| {
                brokers
                    .iter()
                    .map(|b| b.channel_subscribers(name))
                    .sum::<usize>()
            })
            .sum();
        if data_subs >= want {
            break;
        }
        assert!(
            Instant::now() < reg_deadline,
            "subscriptions never registered ({data_subs}/{want})"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // Publishers: paced batches so the client-side publish queues shed
    // only under genuine broker overload.
    let started = Instant::now();
    let deadline = started + cfg.duration;
    let mut pub_threads = Vec::new();
    for p in 0..cfg.publishers.max(1) {
        let publisher =
            RoutedClient::connect(directory.clone(), router_cfg(cfg.seed ^ 0xA000 ^ p as u64));
        let names = channel_names.clone();
        let payload = payload.clone();
        pub_threads.push(std::thread::spawn(move || {
            let mut sent = 0u64;
            let mut i = p; // offset so publishers interleave channels
            while Instant::now() < deadline {
                for _ in 0..32 {
                    publisher.publish(&names[i % names.len()], &payload);
                    i += 1;
                    sent += 1;
                }
                std::thread::sleep(Duration::from_micros(500));
            }
            // Let queued publications flush before the router drops its
            // connections.
            std::thread::sleep(Duration::from_millis(200));
            publisher.shutdown();
            sent
        }));
    }
    let published: u64 = pub_threads.into_iter().map(|t| t.join().unwrap()).sum();
    let publish_secs = started.elapsed().as_secs_f64();
    let expected = published * cfg.subscribers.max(1) as u64;

    // Drain until deliveries stop growing (or everything arrived).
    let drain_deadline = Instant::now() + Duration::from_secs(10);
    let mut last = delivered.load(Ordering::Relaxed);
    while last < expected && Instant::now() < drain_deadline {
        std::thread::sleep(Duration::from_millis(50));
        let now = delivered.load(Ordering::Relaxed);
        if now == last {
            break;
        }
        last = now;
    }
    stop.store(true, Ordering::Relaxed);
    for t in drain_threads {
        t.join().unwrap();
    }
    let total_secs = started.elapsed().as_secs_f64();
    let delivered = delivered.load(Ordering::Relaxed);
    for broker in brokers {
        broker.shutdown();
    }

    RouterBenchRow {
        brokers: cfg.brokers.max(1),
        channels: cfg.channels.max(1),
        subscribers: cfg.subscribers.max(1),
        publishers: cfg.publishers.max(1),
        publish_secs,
        published,
        delivered,
        expected,
        publish_per_s: published as f64 / publish_secs.max(f64::EPSILON),
        deliver_per_s: delivered as f64 / total_secs.max(f64::EPSILON),
        delivery_ratio: if expected == 0 {
            1.0
        } else {
            delivered as f64 / expected as f64
        },
        duplicates_suppressed: duplicates.load(Ordering::Relaxed),
    }
}

/// Runs a `{brokers} × {subscribers}` grid at fixed channel count.
pub fn router_grid(
    brokers: &[usize],
    subscribers: &[usize],
    duration: Duration,
    payload_bytes: usize,
    seed: u64,
) -> Vec<RouterBenchRow> {
    let mut rows = Vec::new();
    for &b in brokers {
        for &s in subscribers {
            rows.push(bench_router(&RouterBenchConfig {
                brokers: b,
                subscribers: s,
                duration,
                payload_bytes,
                seed,
                ..RouterBenchConfig::default()
            }));
        }
    }
    rows
}

/// Serialises a bench series as the `BENCH_router.json` artifact
/// (hand-rolled — the workspace has no JSON dependency).
pub fn write_router_json(mut w: impl IoWrite, rows: &[RouterBenchRow]) -> std::io::Result<()> {
    let cores = crate::host_cores();
    let io_loops = dynamoth_pubsub::BrokerConfig::default().resolved_io_loops();
    writeln!(w, "{{")?;
    writeln!(w, "  \"bench\": \"router_fanout\",")?;
    writeln!(w, "  \"host_cores\": {cores},")?;
    writeln!(w, "  \"io_loops\": {io_loops},")?;
    writeln!(w, "  \"rows\": [")?;
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        writeln!(
            w,
            "    {{\"brokers\": {}, \"channels\": {}, \"subscribers\": {}, \
             \"publishers\": {}, \"publish_secs\": {:.3}, \"published\": {}, \
             \"delivered\": {}, \"expected\": {}, \"publish_per_s\": {:.0}, \
             \"deliver_per_s\": {:.0}, \"delivery_ratio\": {:.4}, \
             \"duplicates_suppressed\": {}}}{comma}",
            r.brokers,
            r.channels,
            r.subscribers,
            r.publishers,
            r.publish_secs,
            r.published,
            r.delivered,
            r.expected,
            r.publish_per_s,
            r.deliver_per_s,
            r.delivery_ratio,
            r.duplicates_suppressed,
        )?;
    }
    writeln!(w, "  ]")?;
    writeln!(w, "}}")
}
