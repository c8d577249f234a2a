//! Million-client scale harness for the live TCP tier.
//!
//! A real deployment of the paper's workloads has 10^5–10^6 clients;
//! opening that many sockets from one bench host is neither possible
//! nor interesting. This harness instead multiplexes *virtual clients*
//! over a small pool of real [`RoutedClient`] connections:
//!
//! * every virtual client `vid` is pinned to pooled connection
//!   `vid % pool`; the pooled connection holds the *union* of its
//!   virtual clients' subscriptions (refcounted — the channel is
//!   subscribed on the wire while at least one virtual client wants
//!   it);
//! * on receive, the channel name demuxes a pooled frame back to the
//!   virtual clients wanting it: one pooled delivery credits every
//!   virtual subscriber mapped to that connection, which is exactly
//!   the fan-out a broker-side per-client connection would have
//!   produced;
//! * every publication carries a `VC1;<vpub>;<seq>;<t_us>;` header —
//!   a per-*virtual*-publisher wire-id namespace — so the receive side
//!   can assert exactly-once per (connection, virtual publisher,
//!   sequence) and measure end-to-end latency, independent of the
//!   transport-level `DMID1` ids.
//!
//! Workloads come from [`dynamoth_workloads::live`]: the same
//! generators that drive the simulator, re-expressed as step
//! functions. [`run_live`] drives any [`LiveWorkload`] through the
//! pool; the scenario wrappers ([`celebrity_scale`], [`rgame_scale`],
//! [`chat_scale`], [`flash_scale`]) pick populations and accounting
//! cohorts, and [`conflate_scale`] exercises
//! [`OverflowPolicy::ConflateByChannel`] against a stalled feed
//! consumer. [`emit_figs`] writes the `BENCH_fig4.json` …
//! `BENCH_fig7.json` artifacts with the simulated and live series side
//! by side.
//!
//! Accounting caveat: for workloads whose subscriptions move with the
//! simulation (rgame tile crossings), a publication can race a
//! subscription change in flight, so the reported delivery ratio is
//! *approximate* (typically within a few percent of 1.0). Static
//! workloads — celebrity, chat, and the flash core cohort — have exact
//! expectations and must hit 1.0.

use std::collections::{HashMap, HashSet};
use std::io::Write as IoWrite;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use dynamoth_pubsub::{
    BrokerConfig, ChannelMapping, ChaosProxy, ClientConfig, Direction, OverflowPolicy, PlanId,
    RoutedClient, RouterConfig, ServerId, TcpBroker, TcpPubSubClient,
};
use dynamoth_workloads::live::{LivePublish, FLASH_CHANNEL};
use dynamoth_workloads::{ChatConfig, LiveChat, LiveFlash, LiveRGame, LiveWorkload, RGameConfig};

/// Bytes of the `VC1;<vpub:08x>;<seq:08x>;<t_us:016x>;` payload header.
pub const VC_HEADER_LEN: usize = 4 + 9 + 9 + 17;

/// Encodes the virtual-client accounting header plus filler up to
/// `payload` bytes.
pub fn encode_vc(vpub: u32, seq: u32, t_us: u64, payload: usize) -> Vec<u8> {
    let mut body = format!("VC1;{vpub:08x};{seq:08x};{t_us:016x};").into_bytes();
    debug_assert_eq!(body.len(), VC_HEADER_LEN);
    body.resize(payload.max(VC_HEADER_LEN), b'x');
    body
}

/// Parses a `VC1` header back into `(vpub, seq, t_us)`.
pub fn parse_vc(body: &[u8]) -> Option<(u32, u32, u64)> {
    let s = std::str::from_utf8(body.get(..VC_HEADER_LEN)?).ok()?;
    let mut parts = s.split(';');
    if parts.next()? != "VC1" {
        return None;
    }
    let vpub = u32::from_str_radix(parts.next()?, 16).ok()?;
    let seq = u32::from_str_radix(parts.next()?, 16).ok()?;
    let t_us = u64::from_str_radix(parts.next()?, 16).ok()?;
    Some((vpub, seq, t_us))
}

struct PoolEntry {
    client: RoutedClient,
    /// channel → virtual clients on this connection wanting it.
    want: HashMap<String, HashSet<usize>>,
    /// `(vpub << 32) | seq` keys already credited on this connection —
    /// the exactly-once ledger of the virtual-publisher namespace.
    seen: HashSet<u64>,
}

/// The bounded pool of real connections a virtual-client population is
/// multiplexed over.
pub struct VirtualPool {
    entries: Vec<PoolEntry>,
    epoch: Instant,
    /// Duplicate `(vpub, seq)` deliveries observed on one connection.
    pub duplicates: u64,
    /// Raw frames drained from the pooled connections.
    pub pooled_frames: u64,
    /// End-to-end latency samples, µs (publish stamp → drain).
    pub latencies_us: Vec<u64>,
}

impl VirtualPool {
    /// Connects `pool` routed clients to the broker directory.
    pub fn connect(directory: &[SocketAddr], pool: usize, seed: u64) -> VirtualPool {
        let entries = (0..pool.max(1))
            .map(|i| PoolEntry {
                client: RoutedClient::connect(
                    directory.to_vec(),
                    router_cfg(seed ^ ((i as u64 + 1) << 8)),
                ),
                want: HashMap::new(),
                seen: HashSet::new(),
            })
            .collect();
        VirtualPool {
            entries,
            epoch: Instant::now(),
            duplicates: 0,
            pooled_frames: 0,
            latencies_us: Vec::new(),
        }
    }

    /// Pooled connections.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Always false — the pool holds at least one connection.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Microseconds since the pool's epoch (the publish timestamp
    /// domain of the `VC1` header).
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Installs a local plan mapping on every pooled connection.
    pub fn install_mapping(&self, channel: &str, mapping: &ChannelMapping, plan: PlanId) {
        for e in &self.entries {
            e.client
                .install_local_mapping(channel, mapping.clone(), plan);
        }
    }

    /// Subscribes virtual client `vid` to `channel`; hits the wire only
    /// on the connection's 0→1 refcount transition.
    pub fn subscribe(&mut self, vid: usize, channel: &str) {
        let idx = vid % self.entries.len().max(1);
        let entry = &mut self.entries[idx];
        let set = entry.want.entry(channel.to_owned()).or_default();
        if set.insert(vid) && set.len() == 1 {
            entry.client.subscribe(channel);
        }
    }

    /// Unsubscribes virtual client `vid`; hits the wire on 1→0.
    pub fn unsubscribe(&mut self, vid: usize, channel: &str) {
        let idx = vid % self.entries.len().max(1);
        let entry = &mut self.entries[idx];
        if let Some(set) = entry.want.get_mut(channel) {
            set.remove(&vid);
            if set.is_empty() {
                entry.want.remove(channel);
                entry.client.unsubscribe(channel);
            }
        }
    }

    /// Virtual clients wanting `channel` across the whole pool.
    pub fn want_count(&self, channel: &str) -> usize {
        self.entries
            .iter()
            .filter_map(|e| e.want.get(channel).map(|s| s.len()))
            .sum()
    }

    /// `(channel, pooled connections subscribed)` pairs — the wire-level
    /// subscription footprint the brokers should report once settled.
    pub fn subscription_footprint(&self) -> Vec<(String, usize)> {
        let mut m: HashMap<&str, usize> = HashMap::new();
        for e in &self.entries {
            for (ch, set) in &e.want {
                if !set.is_empty() {
                    *m.entry(ch).or_insert(0) += 1;
                }
            }
        }
        m.into_iter().map(|(ch, n)| (ch.to_owned(), n)).collect()
    }

    /// Drains every pooled connection, demuxing each frame to the
    /// virtual clients wanting its channel: `credit` is called once per
    /// frame with that set. Frames with a duplicate `(vpub, seq)` on
    /// the same connection are counted, not credited.
    pub fn drain(&mut self, credit: &mut dyn FnMut(&str, &HashSet<usize>)) {
        let empty = HashSet::new();
        let Self {
            entries,
            epoch,
            duplicates,
            pooled_frames,
            latencies_us,
        } = self;
        for entry in entries.iter_mut() {
            while let Some(msg) = entry.client.try_message() {
                *pooled_frames += 1;
                if let Some((vpub, seq, t_us)) = parse_vc(&msg.payload) {
                    let key = ((vpub as u64) << 32) | seq as u64;
                    if !entry.seen.insert(key) {
                        *duplicates += 1;
                        continue;
                    }
                    let now = epoch.elapsed().as_micros() as u64;
                    latencies_us.push(now.saturating_sub(t_us));
                }
                let vids = entry.want.get(msg.channel.as_str()).unwrap_or(&empty);
                credit(&msg.channel, vids);
            }
            while entry.client.try_event().is_some() {}
        }
    }

    /// Tears down every pooled connection.
    pub fn shutdown(mut self) {
        for e in self.entries.drain(..) {
            e.client.shutdown();
        }
    }
}

fn router_cfg(seed: u64) -> RouterConfig {
    RouterConfig {
        client: ClientConfig {
            tick: Duration::from_millis(1),
            ..ClientConfig::default()
        },
        seed: Some(seed),
        ..RouterConfig::default()
    }
}

/// Knobs shared by every scale scenario.
#[derive(Debug, Clone)]
pub struct ScaleConfig {
    /// Brokers in the directory.
    pub brokers: usize,
    /// Pooled subscriber connections (real connections =
    /// `(pool + 1 publisher) × brokers`).
    pub pool: usize,
    /// Virtual-client population.
    pub vclients: usize,
    /// Publications for the celebrity scenario (one per step).
    pub publishes: usize,
    /// Steps for the stepped workloads (rgame / chat / flash).
    pub steps: usize,
    /// Publication payload bytes (headers included).
    pub payload: usize,
    /// Root seed for brokers, routers and workload PRNGs.
    pub seed: u64,
}

impl Default for ScaleConfig {
    fn default() -> Self {
        ScaleConfig {
            brokers: 2,
            pool: 64,
            vclients: 100_000,
            publishes: 200,
            steps: 20,
            payload: 256,
            seed: 0x0D15_EA5E,
        }
    }
}

/// Measured results of one scale scenario.
#[derive(Debug, Clone)]
pub struct ScaleRow {
    /// Scenario name (`celebrity`, `rgame`, `chat`, `flash`).
    pub scenario: String,
    /// Virtual-client population.
    pub vclients: usize,
    /// Pooled subscriber connections.
    pub pool: usize,
    /// Real TCP connections opened (pool + publisher, × brokers).
    pub real_connections: usize,
    /// Brokers in the directory.
    pub brokers: usize,
    /// Publications issued.
    pub published: u64,
    /// Virtual deliveries owed to the accounted cohort.
    pub expected: u64,
    /// Virtual deliveries credited to the accounted cohort.
    pub delivered: u64,
    /// `delivered / expected` (1.0 when nothing was owed).
    pub delivery_ratio: f64,
    /// Duplicate `(vpub, seq)` frames on one connection (must be 0).
    pub duplicates: u64,
    /// Raw frames drained from the pooled connections.
    pub pooled_frames: u64,
    /// Mean publish→drain latency, ms.
    pub mean_latency_ms: f64,
    /// 99th-percentile publish→drain latency, ms.
    pub p99_latency_ms: f64,
    /// Wall-clock run time, seconds.
    pub secs: f64,
}

/// A finished live run: the row plus the per-broker wire-level
/// subscription counts (the fig-6 load-share proxy).
pub struct LiveRun {
    /// The measured scenario row.
    pub row: ScaleRow,
    /// Pooled subscriptions registered per broker at the end of the
    /// run.
    pub broker_subscriptions: Vec<usize>,
}

/// Execution options for [`run_live`].
pub struct LiveRunOptions {
    /// Wait for the initial subscription footprint to register on the
    /// brokers before publishing (required for exact accounting).
    pub settle: bool,
    /// Accounted cohort bound: only virtual clients with `vid < core`
    /// count towards `expected` / `delivered`. `usize::MAX` = everyone.
    pub core: usize,
    /// Channels to replicate `AllPublishers` across every broker (the
    /// paper's fan-out spreading for one-hot-channel scenarios).
    pub replicate: Vec<String>,
    /// Pause between workload steps.
    pub step_pause: Duration,
    /// Publications between intra-step micro-pauses (pacing, so client
    /// publish queues shed only under genuine overload).
    pub pace_every: usize,
}

impl Default for LiveRunOptions {
    fn default() -> Self {
        LiveRunOptions {
            settle: true,
            core: usize::MAX,
            replicate: Vec::new(),
            step_pause: Duration::from_millis(2),
            pace_every: 64,
        }
    }
}

fn quantile_us(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)] as f64 / 1_000.0
}

/// Waits until every `(channel, connections)` pair of the pool's
/// footprint is registered broker-side.
fn settle_subscriptions(brokers: &[TcpBroker], footprint: &[(String, usize)]) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let settled = footprint.iter().all(|(ch, n)| {
            brokers
                .iter()
                .map(|b| b.channel_subscribers(ch))
                .sum::<usize>()
                >= *n
        });
        if settled {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "subscriptions never settled ({} channels)",
            footprint.len()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Drains the pool until no new pooled frame arrives for `quiet` (or
/// `deadline` elapses).
fn drain_until_quiet(
    pool: &mut VirtualPool,
    credit: &mut dyn FnMut(&str, &HashSet<usize>),
    quiet: Duration,
    deadline: Duration,
) {
    let hard = Instant::now() + deadline;
    let mut last_progress = Instant::now();
    let mut seen = pool.pooled_frames;
    loop {
        pool.drain(credit);
        if pool.pooled_frames != seen {
            seen = pool.pooled_frames;
            last_progress = Instant::now();
        }
        if last_progress.elapsed() > quiet || Instant::now() > hard {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Drives a [`LiveWorkload`] through a virtual-client pool against a
/// fresh live broker cluster and returns the measured run.
pub fn run_live(w: &mut dyn LiveWorkload, cfg: &ScaleConfig, opts: &LiveRunOptions) -> LiveRun {
    let brokers: Vec<TcpBroker> = (0..cfg.brokers.max(1))
        .map(|_| TcpBroker::bind("127.0.0.1:0").expect("bind broker"))
        .collect();
    let directory: Vec<SocketAddr> = brokers.iter().map(|b| b.local_addr()).collect();
    let members: Vec<ServerId> = (0..brokers.len()).map(ServerId::from_index).collect();

    let mut pool = VirtualPool::connect(&directory, cfg.pool, cfg.seed);
    let publisher = RoutedClient::connect(directory.clone(), router_cfg(cfg.seed ^ 0xA0A0));
    if members.len() > 1 {
        for ch in &opts.replicate {
            let mapping = ChannelMapping::AllPublishers(members.clone());
            pool.install_mapping(ch, &mapping, PlanId(1));
            publisher.install_local_mapping(ch, mapping, PlanId(1));
        }
    }

    let core = opts.core;
    // Wire-level cohort expectations: how many *accounted* virtual
    // clients want each channel right now.
    let mut core_want: HashMap<String, u64> = HashMap::new();
    let mut desired: HashMap<usize, Vec<String>> = HashMap::new();
    let mut active = 0usize;
    let mut published = 0u64;
    let mut expected = 0u64;
    let mut delivered = 0u64;
    let mut seqs: HashMap<u32, u32> = HashMap::new();

    fn join(
        pool: &mut VirtualPool,
        core_want: &mut HashMap<String, u64>,
        core: usize,
        vid: usize,
        subs: &[String],
    ) {
        for ch in subs {
            pool.subscribe(vid, ch);
            if vid < core {
                *core_want.entry(ch.clone()).or_insert(0) += 1;
            }
        }
    }
    fn leave(
        pool: &mut VirtualPool,
        core_want: &mut HashMap<String, u64>,
        core: usize,
        vid: usize,
        subs: &[String],
    ) {
        for ch in subs {
            pool.unsubscribe(vid, ch);
            if vid < core {
                if let Some(n) = core_want.get_mut(ch.as_str()) {
                    *n = n.saturating_sub(1);
                }
            }
        }
    }

    let started = Instant::now();
    for step in 0..cfg.steps.max(1) {
        // Population churn: the active set is a prefix, so the deltas
        // are contiguous vid ranges.
        let now_active = w.active(step).min(w.clients());
        for vid in active..now_active {
            let subs = w.subscriptions(vid);
            join(&mut pool, &mut core_want, core, vid, &subs);
            desired.insert(vid, subs);
        }
        for vid in now_active..active {
            if let Some(subs) = desired.remove(&vid) {
                leave(&mut pool, &mut core_want, core, vid, &subs);
            }
        }
        active = now_active;
        if step == 0 && opts.settle {
            settle_subscriptions(&brokers, &pool.subscription_footprint());
        }

        let pubs: Vec<LivePublish> = w.step(step);
        // Movement reconcile: re-derive subscriptions for clients whose
        // interests track the step (tile crossings).
        if w.subscriptions_change_on_step() {
            for vid in 0..active {
                let subs = w.subscriptions(vid);
                if desired.get(&vid).map(Vec::as_slice) == Some(subs.as_slice()) {
                    continue;
                }
                let old = desired.insert(vid, subs.clone()).unwrap_or_default();
                let gone: Vec<String> = old.iter().filter(|c| !subs.contains(c)).cloned().collect();
                let new: Vec<String> = subs.iter().filter(|c| !old.contains(c)).cloned().collect();
                leave(&mut pool, &mut core_want, core, vid, &gone);
                join(&mut pool, &mut core_want, core, vid, &new);
            }
        }

        let mut credit = |_ch: &str, vids: &HashSet<usize>| {
            delivered += vids.iter().filter(|&&v| v < core).count() as u64;
        };
        for (i, p) in pubs.iter().enumerate() {
            expected += core_want.get(p.channel.as_str()).copied().unwrap_or(0);
            let seq = seqs.entry(p.vpub as u32).or_insert(0);
            let body = encode_vc(p.vpub as u32, *seq, pool.now_us(), p.payload);
            *seq += 1;
            publisher.publish(&p.channel, &body);
            published += 1;
            if (i + 1) % opts.pace_every.max(1) == 0 {
                std::thread::sleep(Duration::from_micros(300));
                pool.drain(&mut credit);
            }
        }
        pool.drain(&mut credit);
        std::thread::sleep(opts.step_pause);
    }
    let mut credit = |_ch: &str, vids: &HashSet<usize>| {
        delivered += vids.iter().filter(|&&v| v < core).count() as u64;
    };
    drain_until_quiet(
        &mut pool,
        &mut credit,
        Duration::from_secs(1),
        Duration::from_secs(120),
    );
    let secs = started.elapsed().as_secs_f64();

    let footprint = pool.subscription_footprint();
    let broker_subscriptions: Vec<usize> = brokers
        .iter()
        .map(|b| {
            footprint
                .iter()
                .map(|(ch, _)| b.channel_subscribers(ch))
                .sum()
        })
        .collect();

    let mut lat = std::mem::take(&mut pool.latencies_us);
    lat.sort_unstable();
    let mean_latency_ms = if lat.is_empty() {
        0.0
    } else {
        lat.iter().sum::<u64>() as f64 / lat.len() as f64 / 1_000.0
    };
    let row = ScaleRow {
        scenario: w.name().to_owned(),
        vclients: w.clients(),
        pool: pool.len(),
        real_connections: (pool.len() + 1) * brokers.len(),
        brokers: brokers.len(),
        published,
        expected,
        delivered,
        delivery_ratio: if expected == 0 {
            1.0
        } else {
            delivered as f64 / expected as f64
        },
        duplicates: pool.duplicates,
        pooled_frames: pool.pooled_frames,
        mean_latency_ms,
        p99_latency_ms: quantile_us(&lat, 0.99),
        secs,
    };

    pool.shutdown();
    publisher.shutdown();
    for b in brokers {
        b.shutdown();
    }
    LiveRun {
        row,
        broker_subscriptions,
    }
}

/// The celebrity fan-out workload: `fans` virtual subscribers follow
/// one hot channel; one virtual publisher posts every step.
pub struct Celebrity {
    /// Virtual subscribers on the hot channel.
    pub fans: usize,
    /// Payload bytes per post.
    pub payload: usize,
}

/// The celebrity hot channel.
pub const CELEBRITY_CHANNEL: &str = "celebrity.feed";

impl LiveWorkload for Celebrity {
    fn name(&self) -> &'static str {
        "celebrity"
    }
    fn clients(&self) -> usize {
        self.fans
    }
    fn active(&self, _step: usize) -> usize {
        self.fans
    }
    fn subscriptions(&self, _vid: usize) -> Vec<String> {
        vec![CELEBRITY_CHANNEL.to_owned()]
    }
    fn step(&mut self, _step: usize) -> Vec<LivePublish> {
        vec![LivePublish {
            vpub: 0,
            channel: CELEBRITY_CHANNEL.to_owned(),
            payload: self.payload,
        }]
    }
}

/// Celebrity fan-out: 10^5+ virtual subscribers on one channel, exact
/// exactly-once accounting — the acceptance scenario, gated at
/// delivery ratio 1.0.
pub fn celebrity_scale(cfg: &ScaleConfig) -> LiveRun {
    let mut w = Celebrity {
        fans: cfg.vclients,
        payload: cfg.payload,
    };
    let mut cfg = cfg.clone();
    cfg.steps = cfg.publishes;
    run_live(
        &mut w,
        &cfg,
        &LiveRunOptions {
            replicate: vec![CELEBRITY_CHANNEL.to_owned()],
            step_pause: Duration::from_millis(1),
            ..LiveRunOptions::default()
        },
    )
}

/// RGame on the live tier: virtual players roam the tile grid, each
/// publishing its update on (and subscribed to) its current tile.
/// Accounting is approximate — movement races in-flight publishes.
pub fn rgame_scale(cfg: &ScaleConfig) -> LiveRun {
    let mut w = LiveRGame::new(RGameConfig::default(), cfg.vclients, 3.0, cfg.seed);
    run_live(
        &mut w,
        cfg,
        &LiveRunOptions {
            step_pause: Duration::from_millis(5),
            ..LiveRunOptions::default()
        },
    )
}

/// Chat on the live tier: Zipf-popular rooms, static memberships, exact
/// accounting; the per-broker subscription shares are the fig-6 load
/// proxy.
pub fn chat_scale(cfg: &ScaleConfig) -> LiveRun {
    let mut w = LiveChat::new(ChatConfig::default(), cfg.vclients, 5.0, cfg.seed);
    run_live(
        &mut w,
        cfg,
        &LiveRunOptions {
            step_pause: Duration::from_millis(5),
            ..LiveRunOptions::default()
        },
    )
}

/// Flash crowd with churn: the wave cohort joins and leaves mid-run;
/// the delivery gate applies to the always-subscribed core cohort.
pub fn flash_scale(cfg: &ScaleConfig) -> LiveRun {
    let base = (cfg.vclients / 2).max(1);
    let steps = cfg.steps.max(6);
    let mut w = LiveFlash {
        base,
        wave: cfg.vclients - base,
        flash_at: steps / 6,
        ramp_steps: (steps / 6).max(1),
        flash_end: steps * 2 / 3,
        broadcasters: 4,
        payload: cfg.payload,
    };
    run_live(
        &mut w,
        cfg,
        &LiveRunOptions {
            core: base,
            replicate: vec![FLASH_CHANNEL.to_owned()],
            step_pause: Duration::from_millis(20),
            ..LiveRunOptions::default()
        },
    )
}

/// Measured results of the market-data conflation scenario.
#[derive(Debug, Clone)]
pub struct ConflateRow {
    /// Feed frames published into the stall.
    pub published: u64,
    /// Feed frames that reached the stalled consumer.
    pub delivered: u64,
    /// Frames conflated away (broker `per_connection_drops`).
    pub conflated: u64,
    /// `delivered + conflated == published` — shed-accounting closure.
    pub accounted: bool,
    /// Sequences arrived strictly increasing (conflation advances, not
    /// gaps, the stream).
    pub seq_monotone: bool,
    /// Frames still in the retention ring (conflation must not touch
    /// it).
    pub retained: usize,
    /// Frames replayed to a post-stall `DMSEQ1` resumer.
    pub resume_replayed: usize,
    /// Wall-clock run time, seconds.
    pub secs: f64,
}

/// Market-data conflation on the live tier: a broker running
/// [`OverflowPolicy::ConflateByChannel`] sheds stale quotes for a
/// stalled consumer while retention keeps the full stream for
/// resumers.
pub fn conflate_scale(seed: u64, flood: u64, payload: usize) -> ConflateRow {
    const FEED: &str = "prices.feed";
    let started = Instant::now();
    let broker = TcpBroker::bind_with(
        "127.0.0.1:0",
        BrokerConfig {
            outbox_limit_bytes: 32 * 1024,
            overflow_policy: OverflowPolicy::ConflateByChannel,
            retention_frames: 8192,
            retention_bytes: 64 * 1024 * 1024,
            ..BrokerConfig::default()
        },
    )
    .expect("bind broker");
    let proxy = ChaosProxy::spawn(broker.local_addr(), seed).expect("proxy");
    let client_cfg = || ClientConfig {
        tick: Duration::from_millis(2),
        ..ClientConfig::default()
    };
    let sub = TcpPubSubClient::connect_addr(proxy.local_addr(), client_cfg());
    sub.subscribe_from(FEED, 0);
    let deadline = Instant::now() + Duration::from_secs(20);
    while broker.channel_subscribers(FEED) < 1 {
        assert!(Instant::now() < deadline, "feed subscription never settled");
        std::thread::sleep(Duration::from_millis(5));
    }
    let publisher = TcpPubSubClient::connect_addr(broker.local_addr(), client_cfg());

    // Seed the stream with a few small frames the consumer sees live,
    // then stall its path and flood the feed.
    let warmup = 4u64;
    let mut seqs: Vec<u64> = Vec::new();
    for _ in 0..warmup {
        publisher.publish(FEED, b"tick");
    }
    let warm_deadline = Instant::now() + Duration::from_secs(20);
    while (seqs.len() as u64) < warmup {
        while let Some(m) = sub.try_message() {
            seqs.push(m.seq.expect("sequenced subscription"));
        }
        assert!(Instant::now() < warm_deadline, "warm-up never delivered");
        std::thread::sleep(Duration::from_millis(5));
    }
    let stall = Duration::from_secs(2);
    let stall_over = Instant::now() + stall;
    proxy.stall(Direction::ServerToClient, stall);
    let quote = vec![b'q'; payload];
    for _ in 0..flood {
        publisher.publish(FEED, &quote);
    }
    while Instant::now() < stall_over {
        while let Some(m) = sub.try_message() {
            seqs.push(m.seq.expect("sequenced subscription"));
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let mut last_progress = Instant::now();
    let mut seen = seqs.len();
    loop {
        while let Some(m) = sub.try_message() {
            seqs.push(m.seq.expect("sequenced subscription"));
        }
        if seqs.len() != seen {
            seen = seqs.len();
            last_progress = Instant::now();
        }
        if last_progress.elapsed() > Duration::from_secs(1) {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }

    let published = warmup + flood;
    let delivered = seqs.len() as u64;
    let conflated: u64 = broker.per_connection_drops().iter().map(|(_, d)| *d).sum();
    let seq_monotone = seqs.windows(2).all(|w| w[0] < w[1]);
    let (retained, _next) = broker.channel_retention(FEED);

    // A fresh consumer resumes a recent suffix: it must replay from
    // retention even though the stalled outbox conflated those frames.
    let resumer = TcpPubSubClient::connect_addr(broker.local_addr(), client_cfg());
    let resume_from = published.saturating_sub(2);
    resumer.subscribe_from(FEED, resume_from);
    let mut resume_replayed = 0usize;
    let resume_deadline = Instant::now() + Duration::from_secs(20);
    while resume_replayed < 2 && Instant::now() < resume_deadline {
        while resumer.try_message().is_some() {
            resume_replayed += 1;
        }
        std::thread::sleep(Duration::from_millis(5));
    }

    let row = ConflateRow {
        published,
        delivered,
        conflated,
        accounted: delivered + conflated == published,
        seq_monotone,
        retained,
        resume_replayed,
        secs: started.elapsed().as_secs_f64(),
    };
    sub.shutdown();
    publisher.shutdown();
    resumer.shutdown();
    proxy.shutdown();
    broker.shutdown();
    row
}

fn scale_row_json(r: &ScaleRow) -> String {
    format!(
        "{{\"scenario\": \"{}\", \"vclients\": {}, \"pool\": {}, \
         \"real_connections\": {}, \"brokers\": {}, \"published\": {}, \
         \"expected\": {}, \"delivered\": {}, \"delivery_ratio\": {:.4}, \
         \"duplicates\": {}, \"pooled_frames\": {}, \"mean_latency_ms\": {:.2}, \
         \"p99_latency_ms\": {:.2}, \"secs\": {:.2}}}",
        r.scenario,
        r.vclients,
        r.pool,
        r.real_connections,
        r.brokers,
        r.published,
        r.expected,
        r.delivered,
        r.delivery_ratio,
        r.duplicates,
        r.pooled_frames,
        r.mean_latency_ms,
        r.p99_latency_ms,
        r.secs,
    )
}

fn conflate_row_json(r: &ConflateRow) -> String {
    format!(
        "{{\"published\": {}, \"delivered\": {}, \"conflated\": {}, \
         \"accounted\": {}, \"seq_monotone\": {}, \"retained\": {}, \
         \"resume_replayed\": {}, \"secs\": {:.2}}}",
        r.published,
        r.delivered,
        r.conflated,
        r.accounted,
        r.seq_monotone,
        r.retained,
        r.resume_replayed,
        r.secs,
    )
}

/// Writes one scenario's rows as a standalone JSON document (the
/// `bench-scale --scenario` output).
pub fn write_scale_json(mut w: impl IoWrite, rows: &[ScaleRow]) -> std::io::Result<()> {
    writeln!(w, "{{")?;
    writeln!(w, "  \"bench\": \"scale\",")?;
    writeln!(w, "  \"host_cores\": {},", crate::host_cores())?;
    writeln!(w, "  \"rows\": [")?;
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        writeln!(w, "    {}{comma}", scale_row_json(r))?;
    }
    writeln!(w, "  ]")?;
    writeln!(w, "}}")
}

/// Writes the conflation scenario as a standalone JSON document.
pub fn write_conflate_json(mut w: impl IoWrite, row: &ConflateRow) -> std::io::Result<()> {
    writeln!(w, "{{")?;
    writeln!(w, "  \"bench\": \"scale_conflate\",")?;
    writeln!(w, "  \"host_cores\": {},", crate::host_cores())?;
    writeln!(w, "  \"row\": {}", conflate_row_json(row))?;
    writeln!(w, "}}")
}

fn micro_row_json(side: &str, replicated: bool, r: &crate::MicroRow) -> String {
    format!(
        "{{\"side\": \"{side}\", \"replicated\": {replicated}, \"clients\": {}, \
         \"response_ms\": {}, \"delivery_ratio\": {:.4}, \"lost_subscriptions\": {}}}",
        r.clients,
        r.response_ms
            .map(|v| format!("{v:.1}"))
            .unwrap_or_else(|| "null".to_owned()),
        r.delivery_ratio,
        r.lost_subscriptions,
    )
}

/// A compact summary of a simulated game-scale run, the "sim column" of
/// the fig-5/6/7 artifacts.
pub struct SimGameSummary {
    /// Strategy label.
    pub strategy: String,
    /// Target player population of the schedule.
    pub target_players: usize,
    /// Largest player count sustained below 150 ms.
    pub sustained_150ms: usize,
    /// Peak active pub/sub servers.
    pub peak_servers: usize,
    /// Reconfigurations performed.
    pub rebalances: usize,
    /// Subscriptions lost to overload.
    pub lost_subscriptions: u64,
    /// Mean of the per-second average load ratios.
    pub avg_lr_mean: f64,
    /// Worst per-second maximum load ratio.
    pub max_lr_peak: f64,
}

/// Summarises a [`GameSeries`](crate::GameSeries) into the sim column.
pub fn sim_game_summary(
    strategy: &str,
    target_players: usize,
    series: &crate::GameSeries,
) -> SimGameSummary {
    let loads = &series.load;
    SimGameSummary {
        strategy: strategy.to_owned(),
        target_players,
        sustained_150ms: crate::sustained_players(series, 150.0),
        peak_servers: series.servers.iter().map(|&(_, n)| n).max().unwrap_or(0),
        rebalances: series.rebalances.len(),
        lost_subscriptions: series.lost_subscriptions,
        avg_lr_mean: if loads.is_empty() {
            0.0
        } else {
            loads.iter().map(|&(_, a, _)| a).sum::<f64>() / loads.len() as f64
        },
        max_lr_peak: loads.iter().map(|&(_, _, m)| m).fold(0.0, f64::max),
    }
}

fn sim_game_json(s: &SimGameSummary) -> String {
    format!(
        "{{\"strategy\": \"{}\", \"target_players\": {}, \"sustained_150ms\": {}, \
         \"peak_servers\": {}, \"rebalances\": {}, \"lost_subscriptions\": {}, \
         \"avg_lr_mean\": {:.3}, \"max_lr_peak\": {:.3}}}",
        s.strategy,
        s.target_players,
        s.sustained_150ms,
        s.peak_servers,
        s.rebalances,
        s.lost_subscriptions,
        s.avg_lr_mean,
        s.max_lr_peak,
    )
}

fn json_list(items: &[String]) -> String {
    let mut out = String::from("[\n");
    for (i, it) in items.iter().enumerate() {
        let comma = if i + 1 < items.len() { "," } else { "" };
        out.push_str(&format!("    {it}{comma}\n"));
    }
    out.push_str("  ]");
    out
}

fn fig_header(mut w: impl IoWrite, fig: &str) -> std::io::Result<()> {
    writeln!(w, "{{")?;
    writeln!(w, "  \"bench\": \"{fig}\",")?;
    writeln!(w, "  \"host_cores\": {},", crate::host_cores())?;
    writeln!(w, "  \"time_scale\": {:.3},", crate::time_scale())
}

/// Writes `BENCH_fig4.json`: the replication micro-benchmark (sim) next
/// to the live celebrity fan-out and market-data conflation runs.
pub fn write_fig4_json(
    mut w: impl IoWrite,
    sim: &[(&str, bool, crate::MicroRow)],
    celebrity: &[ScaleRow],
    conflate: &ConflateRow,
) -> std::io::Result<()> {
    fig_header(&mut w, "fig4")?;
    let sim_rows: Vec<String> = sim
        .iter()
        .map(|(side, rep, r)| micro_row_json(side, *rep, r))
        .collect();
    writeln!(w, "  \"sim\": {},", json_list(&sim_rows))?;
    let live: Vec<String> = celebrity.iter().map(scale_row_json).collect();
    writeln!(w, "  \"live_celebrity\": {},", json_list(&live))?;
    writeln!(w, "  \"live_conflation\": {}", conflate_row_json(conflate))?;
    writeln!(w, "}}")
}

/// Writes `BENCH_fig5.json`: the client-scalability comparison (sim)
/// next to live rgame runs at growing virtual-player counts.
pub fn write_fig5_json(
    mut w: impl IoWrite,
    sim: &[SimGameSummary],
    rgame: &[ScaleRow],
) -> std::io::Result<()> {
    fig_header(&mut w, "fig5")?;
    let sim_rows: Vec<String> = sim.iter().map(sim_game_json).collect();
    writeln!(w, "  \"sim\": {},", json_list(&sim_rows))?;
    let live: Vec<String> = rgame.iter().map(scale_row_json).collect();
    writeln!(w, "  \"live_rgame\": {}", json_list(&live))?;
    writeln!(w, "}}")
}

/// Writes `BENCH_fig6.json`: simulated per-server load ratios next to
/// the live chat run's per-broker subscription shares.
pub fn write_fig6_json(
    mut w: impl IoWrite,
    sim: &SimGameSummary,
    chat: &LiveRun,
) -> std::io::Result<()> {
    fig_header(&mut w, "fig6")?;
    writeln!(w, "  \"sim\": {},", sim_game_json(sim))?;
    let shares = &chat.broker_subscriptions;
    let mean = shares.iter().sum::<usize>() as f64 / shares.len().max(1) as f64;
    let max_over_avg = shares
        .iter()
        .map(|&s| s as f64 / mean.max(f64::EPSILON))
        .fold(0.0, f64::max);
    writeln!(w, "  \"live_chat\": {{")?;
    writeln!(w, "    \"row\": {},", scale_row_json(&chat.row))?;
    writeln!(
        w,
        "    \"broker_subscriptions\": [{}],",
        shares
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    )?;
    writeln!(w, "    \"max_over_avg\": {max_over_avg:.3}")?;
    writeln!(w, "  }}")?;
    writeln!(w, "}}")
}

/// Writes `BENCH_fig7.json`: simulated elasticity next to the live
/// flash-crowd churn run.
pub fn write_fig7_json(
    mut w: impl IoWrite,
    sim: &SimGameSummary,
    flash: &LiveRun,
    base: usize,
) -> std::io::Result<()> {
    fig_header(&mut w, "fig7")?;
    writeln!(w, "  \"sim\": {},", sim_game_json(sim))?;
    writeln!(w, "  \"live_flash\": {{")?;
    writeln!(w, "    \"row\": {},", scale_row_json(&flash.row))?;
    writeln!(w, "    \"core_cohort\": {base},")?;
    writeln!(w, "    \"peak_active\": {}", flash.row.vclients)?;
    writeln!(w, "  }}")?;
    writeln!(w, "}}")
}

/// Regenerates `BENCH_fig4.json` … `BENCH_fig7.json` in `dir`, each
/// carrying the simulated series and the live scale-harness series side
/// by side. `sim_players` sizes the fig-5/6 sim schedules; `quick`
/// shrinks the live populations for smoke runs.
pub fn emit_figs(dir: &std::path::Path, seed: u64, sim_players: usize, quick: bool) {
    use dynamoth_core::BalancerStrategy;

    let file = |name: &str| {
        std::fs::File::create(dir.join(name)).unwrap_or_else(|e| panic!("create {name}: {e}"))
    };
    let base = ScaleConfig {
        seed,
        ..ScaleConfig::default()
    };

    // fig 4: replication micro (sim) vs celebrity fan-out + conflation.
    let sim4 = vec![
        ("subscribers", false, crate::fig4a(300, false, seed)),
        ("subscribers", true, crate::fig4a(300, true, seed)),
        ("publishers", false, crate::fig4b(300, false, seed)),
        ("publishers", true, crate::fig4b(300, true, seed)),
    ];
    let fans = if quick {
        vec![10_000]
    } else {
        vec![10_000, 100_000]
    };
    let celebrity: Vec<ScaleRow> = fans
        .into_iter()
        .map(|v| {
            let run = celebrity_scale(&ScaleConfig {
                vclients: v,
                ..base.clone()
            });
            eprintln!(
                "celebrity {v}: ratio {:.4} over {} real connections",
                run.row.delivery_ratio, run.row.real_connections
            );
            run.row
        })
        .collect();
    let conflate = conflate_scale(seed, if quick { 500 } else { 2_000 }, 4 * 1024);
    write_fig4_json(file("BENCH_fig4.json"), &sim4, &celebrity, &conflate).expect("fig4");

    // fig 5 (and fig 6's sim column): the scalability ramp.
    let dyn_series = crate::fig5(BalancerStrategy::Dynamoth, sim_players, seed);
    let ch_series = crate::fig5(BalancerStrategy::ConsistentHash, sim_players, seed);
    let sim5 = vec![
        sim_game_summary("dynamoth", sim_players, &dyn_series),
        sim_game_summary("consistent-hash", sim_players, &ch_series),
    ];
    let players = if quick {
        vec![500]
    } else {
        vec![500, 2_000, 8_000]
    };
    let rgame: Vec<ScaleRow> = players
        .into_iter()
        .map(|v| {
            let run = rgame_scale(&ScaleConfig {
                vclients: v,
                pool: 16,
                steps: 5,
                payload: 64,
                ..base.clone()
            });
            eprintln!("rgame {v}: ratio {:.4}", run.row.delivery_ratio);
            run.row
        })
        .collect();
    write_fig5_json(file("BENCH_fig5.json"), &sim5, &rgame).expect("fig5");

    // fig 6: load distribution — sim load ratios vs live chat skew.
    let chat = chat_scale(&ScaleConfig {
        vclients: if quick { 1_000 } else { 5_000 },
        steps: 6,
        ..base.clone()
    });
    eprintln!("chat: ratio {:.4}", chat.row.delivery_ratio);
    write_fig6_json(
        file("BENCH_fig6.json"),
        &sim_game_summary("dynamoth", sim_players, &dyn_series),
        &chat,
    )
    .expect("fig6");

    // fig 7: elasticity — sim step schedule vs live flash crowd.
    let sim7 = sim_game_summary("dynamoth", 650, &crate::fig7(seed));
    let flash_v = if quick { 10_000 } else { 60_000 };
    let flash = flash_scale(&ScaleConfig {
        vclients: flash_v,
        steps: 30,
        ..base
    });
    eprintln!("flash: core ratio {:.4}", flash.row.delivery_ratio);
    write_fig7_json(file("BENCH_fig7.json"), &sim7, &flash, flash_v / 2).expect("fig7");
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn vc_header_roundtrip() {
        let body = encode_vc(0xDEAD, 42, 123_456_789, 256);
        assert_eq!(body.len(), 256);
        assert_eq!(parse_vc(&body), Some((0xDEAD, 42, 123_456_789)));
        assert_eq!(parse_vc(b"not a header at all, far too short"), None);
        let short = encode_vc(1, 2, 3, 0);
        assert_eq!(short.len(), VC_HEADER_LEN);
        assert_eq!(parse_vc(&short), Some((1, 2, 3)));
    }

    #[test]
    fn tiny_celebrity_run_is_exact() {
        let (tx, rx) = mpsc::channel();
        let worker = std::thread::spawn(move || {
            let run = celebrity_scale(&ScaleConfig {
                brokers: 2,
                pool: 4,
                vclients: 50,
                publishes: 20,
                payload: 64,
                ..ScaleConfig::default()
            });
            assert_eq!(run.row.published, 20);
            assert_eq!(run.row.expected, 20 * 50);
            assert_eq!(run.row.delivered, run.row.expected, "{:?}", run.row);
            assert!((run.row.delivery_ratio - 1.0).abs() < 1e-9);
            assert_eq!(run.row.duplicates, 0);
            assert_eq!(run.row.real_connections, (4 + 1) * 2);
            let _ = tx.send(());
        });
        match rx.recv_timeout(Duration::from_secs(120)) {
            Ok(()) | Err(mpsc::RecvTimeoutError::Disconnected) => {
                if let Err(panic) = worker.join() {
                    std::panic::resume_unwind(panic);
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => panic!("celebrity smoke exceeded 120s"),
        }
    }
}
