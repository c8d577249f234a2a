//! Whole-broker failover benchmark (DESIGN.md §12): the kill-to-dead
//! detection latency and post-failover delivery accounting as a
//! function of the detector's `{suspect_after, report_interval}` knobs.
//!
//! Each cell runs three brokers behind per-broker [`ChaosProxy`]s —
//! clients, sidecars, reporters and the balancer's confirmation probes
//! all reach a broker only through its proxy, so hard-killing one proxy
//! is indistinguishable from the broker's host dying. Under sustained
//! traffic the cell kills the ring home of the measured channels, times
//! suspect → probe → dead, waits for the emergency replan and the
//! router-side failover gap, re-publishes the unconfirmed tail (the
//! gap is the application's cue; duplicates are absorbed by
//! distinct-body accounting) and verifies zero loss on the survivors.
//!
//! [`bench_failover`] runs one cell; [`write_failover_json`] serialises
//! a series as the `BENCH_failover.json` tracking artifact.

use std::collections::HashSet;
use std::io::Write as IoWrite;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use dynamoth_pubsub::{
    channel_id_of, BalancerConfig, ChaosProxy, ClientConfig, ClientEvent, DispatcherSidecar,
    GapReason, LiveLoadBalancer, LoadReporter, Ring, RoutedClient, RouterConfig, ServerId,
    SidecarConfig, TcpBroker, DEFAULT_VNODES,
};

/// One cell of the failover grid.
#[derive(Debug, Clone)]
pub struct FailoverBenchConfig {
    /// Missed report intervals before a broker is suspect (`K`).
    pub suspect_after: u32,
    /// LLA report interval.
    pub report_interval: Duration,
    /// Confirmation-probe timeout.
    pub probe_timeout: Duration,
    /// Channels homed on the victim (all killed at once).
    pub channels: usize,
    /// Publication payload size in bytes.
    pub payload_bytes: usize,
    /// Seed for client and proxy PRNGs.
    pub seed: u64,
}

impl Default for FailoverBenchConfig {
    fn default() -> Self {
        FailoverBenchConfig {
            suspect_after: 3,
            report_interval: Duration::from_millis(100),
            probe_timeout: Duration::from_millis(250),
            channels: 6,
            payload_bytes: 512,
            seed: 0xFA11,
        }
    }
}

/// Measured results of one grid cell.
#[derive(Debug, Clone)]
pub struct FailoverBenchRow {
    /// `K`: missed intervals before suspicion.
    pub suspect_after: u32,
    /// Report interval, milliseconds.
    pub report_interval_ms: f64,
    /// Kill → balancer declares the broker dead, milliseconds.
    pub kill_to_dead_ms: f64,
    /// The analytic detection bound `K·interval + probe_timeout`,
    /// milliseconds (no scheduling slack).
    pub detect_bound_ms: f64,
    /// Kill → router-side `Gap {{ reason: Failover }}` at the
    /// subscriber, milliseconds.
    pub kill_to_gap_ms: f64,
    /// Kill → every published body delivered via survivors,
    /// milliseconds (includes the tail re-publish).
    pub kill_to_recovered_ms: f64,
    /// Distinct bodies published across the run.
    pub published: usize,
    /// Distinct bodies delivered (`== published` ⇒ zero loss).
    pub delivered: usize,
    /// Channels the emergency replan moved off the corpse.
    pub channels_moved: usize,
    /// Post-replan max survivor load ratio.
    pub max_survivor_lr: f64,
    /// The `(1+ε)×mean` bounded-load cap the replan packed under;
    /// `-1.0` when the replan was uncapped (zero measured load).
    pub cap_ratio: f64,
}

fn bench_client(seed: u64) -> ClientConfig {
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

fn wait(what: &str, timeout: Duration, mut pred: impl FnMut() -> bool) {
    let deadline = Instant::now() + timeout;
    while !pred() {
        assert!(Instant::now() < deadline, "bench stuck waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Runs one `{suspect_after, report_interval}` cell: kill the victim's
/// proxy under load, time detection / gap / full recovery, verify zero
/// loss.
pub fn bench_failover(cfg: &FailoverBenchConfig) -> FailoverBenchRow {
    let seed = cfg.seed;
    let brokers: Vec<TcpBroker> = (0..3)
        .map(|_| TcpBroker::bind("127.0.0.1:0").expect("bind broker"))
        .collect();
    let direct: Vec<SocketAddr> = brokers.iter().map(|b| b.local_addr()).collect();
    let proxies: Vec<ChaosProxy> = direct
        .iter()
        .enumerate()
        .map(|(i, &addr)| ChaosProxy::spawn(addr, seed ^ (0x40 + i as u64)).expect("proxy"))
        .collect();
    let proxied: Vec<SocketAddr> = proxies.iter().map(|p| p.local_addr()).collect();

    let sidecars: Vec<DispatcherSidecar> = (0..3)
        .map(|i| {
            DispatcherSidecar::start(
                ServerId::from_index(i),
                proxied.clone(),
                SidecarConfig {
                    ttl: Duration::from_secs(30),
                    tick: Duration::from_millis(5),
                    client: bench_client(seed ^ (0x50 + i as u64)),
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
                cfg.report_interval,
                bench_client(seed ^ (0x60 + i as u64)),
            )
        })
        .collect();

    let ring = Ring::new(
        &(0..3).map(ServerId::from_index).collect::<Vec<_>>(),
        DEFAULT_VNODES,
    );
    let victim = ring.server_for(channel_id_of("fb-00")).index();
    let channels: Vec<String> = (0..)
        .map(|i| format!("fb-{i:02}"))
        .filter(|name| ring.server_for(channel_id_of(name)).index() == victim)
        .take(cfg.channels)
        .collect();

    let router_cfg = |s: u64| RouterConfig {
        client: bench_client(s),
        switch_grace: Duration::from_secs(1),
        failover_after: Duration::from_millis(700),
        probe_timeout: cfg.probe_timeout,
        reprobe_interval: Duration::from_millis(500),
        seed: Some(s),
        ..RouterConfig::default()
    };
    let sub = RoutedClient::connect(proxied.clone(), router_cfg(seed ^ 1));
    let publisher = RoutedClient::connect(proxied.clone(), router_cfg(seed ^ 2));
    for name in &channels {
        sub.subscribe(name);
    }
    wait("subscriptions", Duration::from_secs(10), || {
        brokers[victim].channel_subscribers(&channels[0]) > 0
    });

    let balancer = LiveLoadBalancer::start(
        proxied.clone(),
        BalancerConfig {
            // High floor: the ordinary balancer stays quiet, so the
            // emergency replan is the only mover (see tests/failover.rs).
            capacity_floor: 500_000.0,
            tick: Duration::from_millis(100),
            window: 2,
            warmup_ticks: 2,
            install_refresh: Duration::from_secs(2),
            client: bench_client(seed ^ 3),
            report_interval: cfg.report_interval,
            suspect_after: cfg.suspect_after,
            probe_timeout: cfg.probe_timeout,
            ..BalancerConfig::default()
        },
    );

    let mut delivered: HashSet<String> = HashSet::new();
    let mut published: Vec<(String, String)> = Vec::new();
    let mut kill_to_gap_ms = f64::NAN;
    let mut next = 0usize;
    let mut publish_round = |publisher: &RoutedClient, published: &mut Vec<(String, String)>| {
        for name in &channels {
            let mut body = format!("{name}:{next}:");
            body.push_str(&"x".repeat(cfg.payload_bytes.saturating_sub(body.len())));
            publisher.publish(name, body.as_bytes());
            published.push((name.clone(), body));
            next += 1;
        }
    };

    // Steady state: traffic flowing end to end, every broker reporting.
    for _ in 0..30 {
        publish_round(&publisher, &mut published);
        std::thread::sleep(Duration::from_millis(10));
        while let Some(msg) = sub.try_message() {
            delivered.insert(String::from_utf8(msg.payload).expect("utf8"));
        }
        while sub.try_event().is_some() {}
    }
    wait("pre-kill deliveries", Duration::from_secs(30), || {
        while let Some(msg) = sub.try_message() {
            delivered.insert(String::from_utf8(msg.payload).expect("utf8"));
        }
        published.iter().all(|(_, b)| delivered.contains(b))
    });

    // ── The kill ─────────────────────────────────────────────────────
    proxies[victim].kill_upstream_hard();
    let killed_at = Instant::now();
    let pump = |delivered: &mut HashSet<String>, kill_to_gap_ms: &mut f64| {
        while let Some(msg) = sub.try_message() {
            delivered.insert(String::from_utf8(msg.payload).expect("utf8"));
        }
        while let Some(event) = sub.try_event() {
            if matches!(
                event.event,
                ClientEvent::Gap {
                    reason: GapReason::Failover,
                    ..
                }
            ) && kill_to_gap_ms.is_nan()
            {
                *kill_to_gap_ms = killed_at.elapsed().as_secs_f64() * 1_000.0;
            }
        }
    };

    while balancer.stats().deaths_declared == 0 {
        assert!(
            killed_at.elapsed() < Duration::from_secs(30),
            "death never declared"
        );
        publish_round(&publisher, &mut published);
        std::thread::sleep(Duration::from_millis(10));
        pump(&mut delivered, &mut kill_to_gap_ms);
    }
    let kill_to_dead_ms = killed_at.elapsed().as_secs_f64() * 1_000.0;

    wait("emergency replan", Duration::from_secs(10), || {
        balancer.stats().emergency_replans >= 1
    });
    let replan = balancer.stats().last_replan.expect("replan summary");

    // Keep publishing until the router surfaces the failover gap, then
    // re-publish the whole tail (frames the corpse acked but never
    // fanned out are unknowable across incarnations).
    let deadline = Instant::now() + Duration::from_secs(20);
    while kill_to_gap_ms.is_nan() {
        assert!(Instant::now() < deadline, "no failover gap surfaced");
        publish_round(&publisher, &mut published);
        std::thread::sleep(Duration::from_millis(10));
        pump(&mut delivered, &mut kill_to_gap_ms);
    }
    let tail: Vec<(String, String)> = published.clone();
    for (name, body) in &tail {
        publisher.publish(name, body.as_bytes());
    }
    for _ in 0..20 {
        publish_round(&publisher, &mut published);
        std::thread::sleep(Duration::from_millis(10));
        pump(&mut delivered, &mut kill_to_gap_ms);
    }
    wait("zero loss", Duration::from_secs(60), || {
        pump(&mut delivered, &mut kill_to_gap_ms);
        published.iter().all(|(_, b)| delivered.contains(b))
    });
    let kill_to_recovered_ms = killed_at.elapsed().as_secs_f64() * 1_000.0;

    let row = FailoverBenchRow {
        suspect_after: cfg.suspect_after,
        report_interval_ms: cfg.report_interval.as_secs_f64() * 1_000.0,
        kill_to_dead_ms,
        detect_bound_ms: (cfg.report_interval * cfg.suspect_after + cfg.probe_timeout)
            .as_secs_f64()
            * 1_000.0,
        kill_to_gap_ms,
        kill_to_recovered_ms,
        published: published.len(),
        delivered: published
            .iter()
            .filter(|(_, b)| delivered.contains(b))
            .count(),
        channels_moved: replan.channels_moved,
        max_survivor_lr: replan.max_survivor_lr,
        // A zero-total (cold-start) replan is uncapped; inf is not
        // valid JSON, so serialize it as the -1.0 sentinel.
        cap_ratio: if replan.cap_ratio.is_finite() {
            replan.cap_ratio
        } else {
            -1.0
        },
    };

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
    row
}

/// Runs the `suspect_after × report_interval` grid.
pub fn failover_grid(
    suspect_afters: &[u32],
    report_intervals_ms: &[u64],
    seed: u64,
) -> Vec<FailoverBenchRow> {
    let mut rows = Vec::new();
    for &suspect_after in suspect_afters {
        for &interval_ms in report_intervals_ms {
            rows.push(bench_failover(&FailoverBenchConfig {
                suspect_after,
                report_interval: Duration::from_millis(interval_ms),
                seed,
                ..FailoverBenchConfig::default()
            }));
        }
    }
    rows
}

/// Serialises a bench series as the `BENCH_failover.json` artifact
/// (hand-rolled — the workspace has no JSON dependency).
pub fn write_failover_json(mut w: impl IoWrite, rows: &[FailoverBenchRow]) -> std::io::Result<()> {
    let cores = crate::host_cores();
    writeln!(w, "{{")?;
    writeln!(w, "  \"bench\": \"failover\",")?;
    writeln!(w, "  \"host_cores\": {cores},")?;
    writeln!(w, "  \"rows\": [")?;
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        writeln!(
            w,
            "    {{\"suspect_after\": {}, \"report_interval_ms\": {:.0}, \
             \"kill_to_dead_ms\": {:.2}, \"detect_bound_ms\": {:.0}, \
             \"kill_to_gap_ms\": {:.2}, \"kill_to_recovered_ms\": {:.2}, \
             \"published\": {}, \"delivered\": {}, \"channels_moved\": {}, \
             \"max_survivor_lr\": {:.4}, \"cap_ratio\": {:.4}}}{comma}",
            r.suspect_after,
            r.report_interval_ms,
            r.kill_to_dead_ms,
            r.detect_bound_ms,
            r.kill_to_gap_ms,
            r.kill_to_recovered_ms,
            r.published,
            r.delivered,
            r.channels_moved,
            r.max_survivor_lr,
            r.cap_ratio,
        )?;
    }
    writeln!(w, "  ]")?;
    writeln!(w, "}}")
}
