//! Autonomous-rebalancing benchmark of the live control plane
//! (DESIGN.md §9): the same skewed offered load measured with the
//! [`LiveLoadBalancer`] switched on vs off.
//!
//! Every channel in the grid is ring-homed on **one** broker, so with
//! rebalancing off the whole offered load funnels through a single
//! machine of the 3-broker cluster no matter how high it climbs. With
//! rebalancing on, the brokers self-report load, Algorithm 2 migrates
//! channels off the hot broker mid-run, and the cluster absorbs the
//! load — delivery ratio and tail latency at the upper rungs of the
//! grid are the paper's argument for dynamic rebalancing, reproduced
//! on the real TCP tier.
//!
//! [`bench_rebalance`] runs one cell and returns a
//! [`RebalanceBenchRow`]; [`write_rebalance_json`] serialises a series
//! as the `BENCH_rebalance.json` tracking artifact.

use std::io::Write as IoWrite;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dynamoth_pubsub::{
    channel_id_of, BalancerConfig, ClientConfig, DispatcherSidecar, LiveLoadBalancer, LoadReporter,
    Ring, RoutedClient, RouterConfig, ServerId, SidecarConfig, TcpBroker, Timing, DEFAULT_VNODES,
};

const BROKERS: usize = 3;

/// One cell of the rebalancing grid.
#[derive(Debug, Clone)]
pub struct RebalanceBenchConfig {
    /// Total offered publication rate across all publishers, per second.
    pub offered_per_s: u64,
    /// Whether the live balancer (reporters + `LiveLoadBalancer`) runs.
    pub rebalancing: bool,
    /// Channels, all ring-homed on the same (hot) broker.
    pub channels: usize,
    /// Publication payload size in bytes (timestamp header included).
    pub payload_bytes: usize,
    /// Wall-clock publishing window.
    pub duration: Duration,
    /// Broker capacity the balancer assumes, in egress bytes per 100 ms
    /// report interval.
    pub capacity_floor: f64,
    /// `false`: all channels ring-homed on one hot broker, traffic
    /// round-robin, all active from the start. `true`: the
    /// skewed-channel-name grid — channels still all ring-homed on one
    /// hot broker, traffic Zipf(1.1)-distributed by rank, but channels
    /// *arrive one at a time* through the run. Each arrival is an
    /// unmapped channel re-heating the hot broker: the reactive path
    /// must re-trip per arrival, while the proactive placement pass
    /// exports each newcomer once, when it first crosses the cap.
    pub zipf_names: bool,
    /// Whether the balancer's proactive bounded-load placement pass
    /// runs (only meaningful with `rebalancing`).
    pub placement_pass: bool,
    /// Seed for all client PRNGs.
    pub seed: u64,
}

impl Default for RebalanceBenchConfig {
    fn default() -> Self {
        RebalanceBenchConfig {
            offered_per_s: 4_000,
            rebalancing: true,
            channels: 6,
            payload_bytes: 512,
            duration: Duration::from_millis(2_000),
            capacity_floor: 100_000.0,
            zipf_names: false,
            placement_pass: true,
            seed: 0xD1A0,
        }
    }
}

/// Measured results of one grid cell.
#[derive(Debug, Clone)]
pub struct RebalanceBenchRow {
    /// Offered publication rate, per second.
    pub offered_per_s: u64,
    /// Whether the live balancer ran.
    pub rebalancing: bool,
    /// Whether traffic followed the Zipf skewed-channel-name curve.
    pub zipf_names: bool,
    /// Whether the proactive placement pass ran.
    pub placement_pass: bool,
    /// Publishing window actually used, seconds.
    pub publish_secs: f64,
    /// Publications issued.
    pub published: u64,
    /// Distinct publications delivered at the subscriber router
    /// (duplicates from migration-window overlap are counted once).
    pub delivered: u64,
    /// `delivered / published` — 1.0 means nothing was lost.
    pub delivery_ratio: f64,
    /// Mean publish→delivery latency, milliseconds.
    pub mean_ms: f64,
    /// 99th-percentile publish→delivery latency, milliseconds.
    pub p99_ms: f64,
    /// Plans the balancer installed (0 with rebalancing off).
    pub plans_installed: u64,
    /// High-load rebalances the balancer performed.
    pub high_load_rebalances: u64,
    /// Channel-level (Algorithm 1) rebalances the balancer performed.
    pub channel_level_rebalances: u64,
    /// Channels the proactive bounded-load placement pass rehomed.
    pub placement_installs: u64,
    /// Channels moved by the reactive stages (Algorithms 1/2,
    /// low-load drain) — the per-channel migration cost the
    /// placement pass is meant to absorb proactively.
    pub reactive_migrations: u64,
}

/// Every component shares one timing: the default loopback round-trip
/// bound, and brokers reporting every 100 ms to a balancer evaluating on
/// the same clock.
fn quiet_client(seed: u64) -> ClientConfig {
    let rtt = Timing::default().rtt();
    ClientConfig {
        timing: Timing::new(rtt, Duration::from_millis(100), 3).expect("valid timing"),
        tick: Duration::from_millis(1),
        seed: Some(seed),
        ..ClientConfig::default()
    }
}

/// Runs one grid cell against a fresh 3-broker cluster on loopback.
pub fn bench_rebalance(cfg: &RebalanceBenchConfig) -> RebalanceBenchRow {
    let brokers: Vec<TcpBroker> = (0..BROKERS)
        .map(|_| TcpBroker::bind("127.0.0.1:0").expect("bind broker"))
        .collect();
    let directory: Vec<std::net::SocketAddr> = brokers.iter().map(|b| b.local_addr()).collect();
    let sidecars: Vec<DispatcherSidecar> = (0..BROKERS)
        .map(|i| {
            DispatcherSidecar::start(
                ServerId::from_index(i),
                directory.clone(),
                SidecarConfig {
                    client: quiet_client(cfg.seed ^ (0x30 + i as u64)),
                },
            )
        })
        .collect();
    let (reporters, balancer) = if cfg.rebalancing {
        let reporters: Vec<LoadReporter> = brokers
            .iter()
            .enumerate()
            .map(|(i, b)| {
                LoadReporter::start(
                    b.load_handle(),
                    i,
                    directory[i],
                    quiet_client(cfg.seed ^ (0x40 + i as u64)),
                )
            })
            .collect();
        let balancer = LiveLoadBalancer::start(
            directory.clone(),
            BalancerConfig {
                capacity_floor: cfg.capacity_floor,
                window: 2,
                warmup_ticks: 2,
                placement_pass: cfg.placement_pass,
                client: quiet_client(cfg.seed ^ 0x50),
                ..BalancerConfig::default()
            },
        );
        (reporters, Some(balancer))
    } else {
        (Vec::new(), None)
    };

    // Skew: every channel ring-homed on the same broker. The zipf grid
    // keeps the name skew but staggers channel activations and draws
    // traffic from a Zipf(1.1) popularity curve over the active ranks.
    let ring = Ring::new(
        &(0..BROKERS).map(ServerId::from_index).collect::<Vec<_>>(),
        DEFAULT_VNODES,
    );
    let stem = if cfg.zipf_names { "zipf" } else { "skew" };
    let hot = ring
        .server_for(channel_id_of(&format!("{stem}-000")))
        .index();
    let channel_names: Vec<String> = (0..)
        .map(|i| format!("{stem}-{i:03}"))
        .filter(|name| ring.server_for(channel_id_of(name)).index() == hot)
        .take(cfg.channels.max(1))
        .collect();
    // Cumulative Zipf(1.1) weights over the channel indices; rank 0 is
    // the hottest channel.
    let zipf_cdf: Vec<f64> = {
        let weights: Vec<f64> = (0..channel_names.len())
            .map(|i| 1.0 / ((i + 1) as f64).powf(1.1))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect()
    };

    let router_cfg = |seed: u64| RouterConfig {
        client: quiet_client(seed),
        seed: Some(seed),
        ..RouterConfig::default()
    };

    // One subscriber router over all channels; its drain thread parses
    // the `timestamp;publisher:seq` header out of every payload into
    // the latency log, deduplicating on the publication key so a
    // migration-window overlap cannot inflate the delivery ratio.
    let epoch = Instant::now();
    let delivered = Arc::new(AtomicU64::new(0));
    let latencies: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let stop = Arc::new(AtomicBool::new(false));
    let sub = RoutedClient::connect(directory.clone(), router_cfg(cfg.seed ^ 1));
    for name in &channel_names {
        sub.subscribe(name);
    }
    let drain = {
        let delivered = Arc::clone(&delivered);
        let latencies = Arc::clone(&latencies);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut seen = std::collections::HashSet::new();
            loop {
                let mut idle = true;
                while let Some(msg) = sub.try_message() {
                    idle = false;
                    let mut fields = msg.payload.split(|&b| b == b';');
                    let sent_us = fields
                        .next()
                        .and_then(|f| std::str::from_utf8(f).ok())
                        .and_then(|f| f.parse::<u64>().ok());
                    let key = fields
                        .next()
                        .and_then(|f| std::str::from_utf8(f).ok())
                        .map(str::to_owned);
                    if let Some(key) = key {
                        if !seen.insert(key) {
                            continue;
                        }
                    }
                    delivered.fetch_add(1, Ordering::Relaxed);
                    if let Some(sent_us) = sent_us {
                        let now_us = epoch.elapsed().as_micros() as u64;
                        latencies
                            .lock()
                            .unwrap()
                            .push(now_us.saturating_sub(sent_us));
                    }
                }
                while sub.try_event().is_some() {}
                if idle {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
            sub.shutdown();
        })
    };
    let want = channel_names.len();
    let reg_deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let subs: usize = channel_names
            .iter()
            .map(|name| {
                brokers
                    .iter()
                    .map(|b| b.channel_subscribers(name))
                    .sum::<usize>()
            })
            .sum();
        if subs >= want {
            break;
        }
        assert!(
            Instant::now() < reg_deadline,
            "subscriptions never registered ({subs}/{want})"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // Two publishers split the offered rate, pacing in 5 ms batches and
    // stamping each payload with its publish time.
    const PUBLISHERS: u64 = 2;
    let started = Instant::now();
    let deadline = started + cfg.duration;
    let mut pub_threads = Vec::new();
    for p in 0..PUBLISHERS {
        let publisher = RoutedClient::connect(directory.clone(), router_cfg(cfg.seed ^ 0xB000 ^ p));
        let names = channel_names.clone();
        let cdf = zipf_cdf.clone();
        let zipf = cfg.zipf_names;
        // Staggered arrivals: rank k activates k/(n+1) of the way into
        // the window, so the hot broker keeps re-heating as new
        // (unmapped) channels come online through the whole run.
        let window = cfg.duration;
        let per_batch = (cfg.offered_per_s / PUBLISHERS / 200).max(1) as usize;
        let payload_bytes = cfg.payload_bytes;
        let mut rng_state = cfg.seed ^ 0x9E3779B97F4A7C15u64.wrapping_mul(p + 1);
        pub_threads.push(std::thread::spawn(move || {
            let mut sent = 0u64;
            let mut i = p as usize;
            let mut body = Vec::with_capacity(payload_bytes + 24);
            // splitmix64 → uniform in [0, 1) for the Zipf draw.
            let mut next_unit = move || {
                rng_state = rng_state.wrapping_add(0x9E3779B97F4A7C15);
                let mut z = rng_state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
                (z ^ (z >> 31)) as f64 / u64::MAX as f64
            };
            while Instant::now() < deadline {
                for _ in 0..per_batch {
                    body.clear();
                    body.extend_from_slice(epoch.elapsed().as_micros().to_string().as_bytes());
                    body.push(b';');
                    body.extend_from_slice(format!("{p}:{sent}").as_bytes());
                    body.push(b';');
                    body.resize(body.len().max(payload_bytes), b'x');
                    let idx = if zipf {
                        // Staggered arrivals over the first half of the
                        // window, then the full Zipf tail: the hot broker
                        // keeps re-heating as unmapped channels come
                        // online, and the steady state still exercises
                        // the whole popularity curve.
                        let left = deadline.saturating_duration_since(Instant::now());
                        let frac = ((window.as_secs_f64() - left.as_secs_f64())
                            / (window.as_secs_f64() * 0.5))
                            .min(1.0);
                        let active =
                            ((frac * names.len() as f64).ceil() as usize).clamp(1, names.len());
                        // Full-curve Zipf draw; draws for not-yet-active
                        // ranks are dropped, so traffic ramps up instead
                        // of being renormalised — a channel's rate is
                        // stable once it exists, which is what a
                        // placement decision can bank on.
                        let u = next_unit();
                        let idx = cdf.iter().position(|&c| u < c).unwrap_or(names.len() - 1);
                        if idx >= active {
                            continue; // rank not yet online
                        }
                        idx
                    } else {
                        i % names.len()
                    };
                    publisher.publish(&names[idx], &body);
                    i += 1;
                    sent += 1;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            std::thread::sleep(Duration::from_millis(200));
            publisher.shutdown();
            sent
        }));
    }
    let published: u64 = pub_threads.into_iter().map(|t| t.join().unwrap()).sum();
    let publish_secs = started.elapsed().as_secs_f64();

    // Drain until deliveries stop growing (or everything arrived).
    let drain_deadline = Instant::now() + Duration::from_secs(10);
    let mut last = delivered.load(Ordering::Relaxed);
    while last < published && Instant::now() < drain_deadline {
        std::thread::sleep(Duration::from_millis(50));
        let now = delivered.load(Ordering::Relaxed);
        if now == last {
            break;
        }
        last = now;
    }
    stop.store(true, Ordering::Relaxed);
    drain.join().unwrap();
    let delivered = delivered.load(Ordering::Relaxed);

    let (
        plans_installed,
        high_load_rebalances,
        channel_level_rebalances,
        placement_installs,
        reactive_migrations,
    ) = balancer
        .as_ref()
        .map(|b| {
            let s = b.stats();
            (
                s.plans_installed,
                s.high_load_rebalances,
                s.channel_level_rebalances,
                s.placement_installs,
                s.reactive_migrations,
            )
        })
        .unwrap_or((0, 0, 0, 0, 0));
    if let Some(balancer) = balancer {
        balancer.shutdown();
    }
    for reporter in reporters {
        reporter.shutdown();
    }
    for sidecar in sidecars {
        sidecar.shutdown();
    }
    for broker in brokers {
        broker.shutdown();
    }

    let mut lat = std::mem::take(&mut *latencies.lock().unwrap());
    lat.sort_unstable();
    let quantile = |q: f64| -> f64 {
        if lat.is_empty() {
            return f64::NAN;
        }
        let idx = ((lat.len() - 1) as f64 * q).round() as usize;
        lat[idx] as f64 / 1_000.0
    };
    let mean_ms = if lat.is_empty() {
        f64::NAN
    } else {
        lat.iter().sum::<u64>() as f64 / lat.len() as f64 / 1_000.0
    };

    RebalanceBenchRow {
        offered_per_s: cfg.offered_per_s,
        rebalancing: cfg.rebalancing,
        zipf_names: cfg.zipf_names,
        placement_pass: cfg.placement_pass,
        publish_secs,
        published,
        delivered,
        delivery_ratio: if published == 0 {
            1.0
        } else {
            delivered as f64 / published as f64
        },
        mean_ms,
        p99_ms: quantile(0.99),
        plans_installed,
        high_load_rebalances,
        channel_level_rebalances,
        placement_installs,
        reactive_migrations,
    }
}

/// Runs the offered-load grid, each rung with rebalancing off then on.
pub fn rebalance_grid(
    offered: &[u64],
    duration: Duration,
    payload_bytes: usize,
    seed: u64,
) -> Vec<RebalanceBenchRow> {
    let mut rows = Vec::new();
    for &offered_per_s in offered {
        for rebalancing in [false, true] {
            rows.push(bench_rebalance(&RebalanceBenchConfig {
                offered_per_s,
                rebalancing,
                duration,
                payload_bytes,
                seed,
                ..RebalanceBenchConfig::default()
            }));
        }
    }
    rows
}

/// Runs the skewed-channel-name grid: Zipf(1.1) traffic over
/// ring-scattered names, each rung with the proactive bounded-load
/// placement pass off then on (balancer always running). The contrast
/// shows proactive placement defusing hot ring homes before the
/// reactive Algorithm 1/2 paths have to fire.
///
/// Pick rungs in the moderate-overload regime (a hot broker over the
/// safe line while the cluster as a whole still has headroom): below
/// it nothing fires either way, beyond cluster capacity only
/// replication helps and packing cannot.
pub fn rebalance_skewed_grid(
    offered: &[u64],
    duration: Duration,
    payload_bytes: usize,
    seed: u64,
) -> Vec<RebalanceBenchRow> {
    let mut rows = Vec::new();
    for &offered_per_s in offered {
        for placement_pass in [false, true] {
            rows.push(bench_rebalance(&RebalanceBenchConfig {
                offered_per_s,
                rebalancing: true,
                zipf_names: true,
                placement_pass,
                // Enough arrivals that reactive scatter cost scales with
                // the channel count while the placement pass absorbs
                // each newcomer at constant (one-install) cost.
                channels: 20,
                // Three times the base window: proactive placement
                // front-loads its installs during the arrival ramp (the
                // first half), so the longer the steady state the
                // clearer the contrast with the reactive-only column.
                duration: duration * 3,
                payload_bytes,
                seed,
                ..RebalanceBenchConfig::default()
            }));
        }
    }
    rows
}

/// Serialises a bench series as the `BENCH_rebalance.json` artifact
/// (hand-rolled — the workspace has no JSON dependency).
pub fn write_rebalance_json(
    mut w: impl IoWrite,
    rows: &[RebalanceBenchRow],
) -> std::io::Result<()> {
    let cores = crate::host_cores();
    let io_loops = dynamoth_pubsub::BrokerConfig::default().resolved_io_loops();
    writeln!(w, "{{")?;
    writeln!(w, "  \"bench\": \"rebalance_live\",")?;
    writeln!(w, "  \"host_cores\": {cores},")?;
    writeln!(w, "  \"io_loops\": {io_loops},")?;
    writeln!(w, "  \"rows\": [")?;
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        writeln!(
            w,
            "    {{\"offered_per_s\": {}, \"rebalancing\": {}, \"zipf_names\": {}, \
             \"placement_pass\": {}, \"publish_secs\": {:.3}, \
             \"published\": {}, \"delivered\": {}, \"delivery_ratio\": {:.4}, \
             \"mean_ms\": {:.2}, \"p99_ms\": {:.2}, \"plans_installed\": {}, \
             \"high_load_rebalances\": {}, \"channel_level_rebalances\": {}, \
             \"placement_installs\": {}, \"reactive_migrations\": {}}}{comma}",
            r.offered_per_s,
            r.rebalancing,
            r.zipf_names,
            r.placement_pass,
            r.publish_secs,
            r.published,
            r.delivered,
            r.delivery_ratio,
            r.mean_ms,
            r.p99_ms,
            r.plans_installed,
            r.high_load_rebalances,
            r.channel_level_rebalances,
            r.placement_installs,
            r.reactive_migrations,
        )?;
    }
    writeln!(w, "  ]")?;
    writeln!(w, "}}")
}
