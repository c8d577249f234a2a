//! Resumable-subscription benchmark (DESIGN.md §10): how much outage a
//! subscriber can absorb with zero loss, as a function of the broker's
//! retention budget, and what the catch-up costs.
//!
//! Each cell runs a single broker with a [`ChaosProxy`] between it and
//! one subscriber. The subscriber's path is black-holed, a publisher on
//! a clean path pushes `outage_frames` publications into the channel's
//! retention ring, then the path heals and the cell measures what the
//! resume machinery recovers: frames replayed, frames declared missing
//! by the gap marker, and the wall-clock catch-up cost (heal → first
//! replayed frame, heal → fully caught up). `missed == 0` is the
//! zero-loss regime — an outage that fits retention costs only replay
//! latency; past the budget the loss is explicit, never silent.
//!
//! [`bench_resume`] runs one cell; [`write_resume_json`] serialises a
//! series as the `BENCH_resume.json` tracking artifact.

use std::io::Write as IoWrite;
use std::time::{Duration, Instant};

use dynamoth_pubsub::{
    BrokerConfig, ChaosProxy, ClientConfig, ClientEvent, TcpBroker, TcpPubSubClient,
};

/// One cell of the resume grid.
#[derive(Debug, Clone)]
pub struct ResumeBenchConfig {
    /// Publications issued while the subscriber's path is dark.
    pub outage_frames: usize,
    /// Broker retention budget, in frames per channel.
    pub retention_frames: usize,
    /// Publication payload size in bytes.
    pub payload_bytes: usize,
    /// Seed for client and proxy PRNGs.
    pub seed: u64,
}

impl Default for ResumeBenchConfig {
    fn default() -> Self {
        ResumeBenchConfig {
            outage_frames: 512,
            retention_frames: 1024,
            payload_bytes: 64,
            seed: 0x5EED,
        }
    }
}

/// Measured results of one grid cell.
#[derive(Debug, Clone)]
pub struct ResumeBenchRow {
    /// Publications issued during the outage.
    pub outage_frames: usize,
    /// Broker retention budget, frames per channel.
    pub retention_frames: usize,
    /// Frames the broker replayed on resume.
    pub replayed: u64,
    /// Frames the gap marker declared evicted (0 in the zero-loss
    /// regime).
    pub missed: u64,
    /// Replayed frames actually delivered to the subscriber.
    pub delivered: u64,
    /// `missed / outage_frames`.
    pub loss_ratio: f64,
    /// Path-heal → first replayed frame, milliseconds (reconnect plus
    /// replay head latency).
    pub first_replay_ms: f64,
    /// Path-heal → last replayed frame, milliseconds (full catch-up).
    pub catch_up_ms: f64,
}

fn bench_client(seed: u64) -> ClientConfig {
    ClientConfig {
        reconnect_base: Duration::from_millis(5),
        reconnect_cap: Duration::from_millis(50),
        connect_timeout: Duration::from_millis(500),
        // A tight liveness deadline: connections half-opened into the
        // black hole die fast, so the measured catch-up time reflects
        // reconnect + replay rather than dead-connection detection.
        heartbeat_interval: Duration::from_millis(50),
        liveness_timeout: Duration::from_millis(300),
        tick: Duration::from_millis(1),
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

/// Runs one outage/retention cell against a fresh loopback broker.
pub fn bench_resume(cfg: &ResumeBenchConfig) -> ResumeBenchRow {
    const CHANNEL: &str = "bench-resume";
    let broker = TcpBroker::bind_with(
        "127.0.0.1:0",
        BrokerConfig {
            retention_frames: cfg.retention_frames,
            // Budget by frames only: give bytes generous headroom.
            retention_bytes: cfg.retention_frames * (cfg.payload_bytes + 64),
            ..BrokerConfig::default()
        },
    )
    .expect("bind broker");
    let proxy = ChaosProxy::spawn(broker.local_addr(), cfg.seed).expect("proxy");

    let sub = TcpPubSubClient::connect_with(proxy.local_addr(), bench_client(cfg.seed ^ 1))
        .expect("subscriber");
    sub.subscribe(CHANNEL);
    let publisher = TcpPubSubClient::connect_with(broker.local_addr(), bench_client(cfg.seed ^ 2))
        .expect("publisher");
    wait("subscription", Duration::from_secs(10), || {
        broker.channel_subscribers(CHANNEL) >= 1
    });

    // Establish the subscriber's high-water sequence, then cut the path.
    publisher.publish(CHANNEL, b"warmup");
    wait("warmup delivery", Duration::from_secs(10), || {
        sub.try_message().is_some()
    });
    proxy.set_black_hole(true);
    proxy.reset_all();
    wait("subscriber disconnect", Duration::from_secs(10), || {
        broker.channel_subscribers(CHANNEL) == 0
    });

    let body = vec![b'x'; cfg.payload_bytes];
    for _ in 0..cfg.outage_frames {
        publisher.publish(CHANNEL, &body);
    }
    wait("outage traffic sequenced", Duration::from_secs(30), || {
        broker.channel_retention(CHANNEL).1 > cfg.outage_frames as u64
    });

    // Heal and time the recovery.
    proxy.set_black_hole(false);
    let healed_at = Instant::now();
    let mut replayed = None;
    let mut missed = 0u64;
    let mut delivered = 0u64;
    let mut first_replay_ms = f64::NAN;
    let mut catch_up_ms = f64::NAN;
    let deadline = healed_at + Duration::from_secs(60);
    // Resume order on the wire is gap marker (if any), replayed frames,
    // resume marker — but the client surfaces events and messages on
    // separate queues, so poll both until the replay is fully accounted.
    loop {
        assert!(
            Instant::now() < deadline,
            "resume never completed (replayed {replayed:?}, delivered {delivered})"
        );
        while let Some(event) = sub.try_event() {
            match event {
                ClientEvent::Gap { missed: m, .. } => missed = m,
                ClientEvent::Resumed { replayed: r, .. } => replayed = Some(r),
                _ => {}
            }
        }
        while sub.try_message().is_some() {
            delivered += 1;
            let elapsed = healed_at.elapsed().as_secs_f64() * 1_000.0;
            if first_replay_ms.is_nan() {
                first_replay_ms = elapsed;
            }
            catch_up_ms = elapsed;
        }
        if let Some(r) = replayed {
            if delivered >= r {
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let replayed = replayed.unwrap_or(0);

    sub.shutdown();
    publisher.shutdown();
    proxy.shutdown();
    broker.shutdown();

    ResumeBenchRow {
        outage_frames: cfg.outage_frames,
        retention_frames: cfg.retention_frames,
        replayed,
        missed,
        delivered,
        loss_ratio: if cfg.outage_frames == 0 {
            0.0
        } else {
            missed as f64 / cfg.outage_frames as f64
        },
        first_replay_ms,
        catch_up_ms,
    }
}

/// Runs the outage × retention grid.
pub fn resume_grid(
    outages: &[usize],
    retentions: &[usize],
    payload_bytes: usize,
    seed: u64,
) -> Vec<ResumeBenchRow> {
    let mut rows = Vec::new();
    for &retention_frames in retentions {
        for &outage_frames in outages {
            rows.push(bench_resume(&ResumeBenchConfig {
                outage_frames,
                retention_frames,
                payload_bytes,
                seed,
            }));
        }
    }
    rows
}

/// Serialises a bench series as the `BENCH_resume.json` artifact
/// (hand-rolled — the workspace has no JSON dependency).
pub fn write_resume_json(mut w: impl IoWrite, rows: &[ResumeBenchRow]) -> std::io::Result<()> {
    let cores = crate::host_cores();
    let io_loops = dynamoth_pubsub::BrokerConfig::default().resolved_io_loops();
    writeln!(w, "{{")?;
    writeln!(w, "  \"bench\": \"resume\",")?;
    writeln!(w, "  \"host_cores\": {cores},")?;
    writeln!(w, "  \"io_loops\": {io_loops},")?;
    writeln!(w, "  \"rows\": [")?;
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        writeln!(
            w,
            "    {{\"outage_frames\": {}, \"retention_frames\": {}, \"replayed\": {}, \
             \"missed\": {}, \"delivered\": {}, \"loss_ratio\": {:.4}, \
             \"first_replay_ms\": {:.2}, \"catch_up_ms\": {:.2}}}{comma}",
            r.outage_frames,
            r.retention_frames,
            r.replayed,
            r.missed,
            r.delivered,
            r.loss_ratio,
            r.first_replay_ms,
            r.catch_up_ms,
        )?;
    }
    writeln!(w, "  ]")?;
    writeln!(w, "}}")
}
