//! The live load balancer: Dynamoth's control loop (§III) closed over
//! real TCP brokers.
//!
//! Two services make the loop:
//!
//! - A [`LoadReporter`] runs next to each broker. It periodically
//!   harvests the broker's [`BrokerLoadAnalyzer`](crate::load) deltas
//!   and publishes them — as ordinary pub/sub traffic on the broker's
//!   own `__dmc.lla.*` channel — so the balancer needs no side channel
//!   and the broker stays protocol-unmodified, exactly like the paper's
//!   LLA-over-Redis design.
//! - One [`LiveLoadBalancer`] subscribes to every broker's report
//!   channel, feeds the reports into the same [`MetricsStore`] /
//!   [`LoadView`] / Algorithm 1 / Algorithm 2 / low-load-drain pipeline
//!   the simulator uses, and turns resulting plan deltas into
//!   [`InstallFrame`]s published to the involved brokers' dispatcher
//!   sidecars. The sidecars then run the ordinary lazy-reconfiguration
//!   window (`<switch>`, `MOVED`, bidirectional forwarding), so a hot
//!   channel migrates with no client involvement and exactly-once
//!   delivery intact.
//!
//! Both threads (`dm-reporter`, `dm-balancer`) wait one report interval
//! at a time on a channel, so `shutdown()` stops them at once. The
//! balancer is deliberately stateless towards the brokers: if it dies,
//! traffic keeps flowing under the last installed plan — the data plane
//! never depends on the control plane being alive.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::net::{SocketAddr, TcpStream};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Instant;

use parking_lot::Mutex;

use crate::balance::bounded::BoundedPlacer;
use crate::balance::estimator::LoadView;
use crate::balance::metrics::{ChannelAggregate, LlaReport, MetricsStore};
use crate::balance::{channel_level, high_load, low_load, CapacityEstimator, Tuning};
use crate::broker::BrokerLoadHandle;
use crate::channel::Channel as ChannelId;
use crate::client::{ClientConfig, TcpPubSubClient};
use crate::control::{
    channel_id_of, decode_report, encode_report, install_channel, is_control_channel, lla_channel,
    InstallFrame, Quarantine,
};
use crate::hashing::{Ring, DEFAULT_VNODES};
use crate::ids::{PlanId, ServerId};
use crate::plan::{ChannelMapping, Plan};

/// ε of the bounded-load rule shared by the emergency replan and the
/// placement pass: a server is skipped (spilling the channel to the
/// next ring node) once its projected load exceeds `(1+ε)×` the
/// projected mean.
const FAILOVER_EPSILON: f64 = 0.25;

/// Evaluation ticks the *reactive* stages (Algorithms 1/2, low-load
/// drain) hold off after any plan install. A migration's handoff
/// window double-counts egress (old and new broker both forward), so
/// the reports right after an install overstate load; acting on them
/// triggers follow-on migrations that were never needed. The placement
/// pass still runs every tick — newly observed channels are placed from
/// their own (clean) per-channel bytes.
const SETTLE_TICKS: u64 = 2;

/// Tuning knobs of a [`LiveLoadBalancer`].
#[derive(Debug, Clone)]
pub struct BalancerConfig {
    /// Thresholds for Algorithms 1/2 and the low-load drain.
    pub tuning: Tuning,
    /// Provisioned broker capacity in bytes per report interval — the
    /// floor of the observed-capacity estimate (`T_i`).
    pub capacity_floor: f64,
    /// Sliding metrics window, in reports per broker.
    pub window: usize,
    /// Evaluation ticks to wait before the first rebalancing decision,
    /// so the window holds real measurements instead of startup zeros.
    pub warmup_ticks: u64,
    /// Tuning for the balancer's own broker connections. Its
    /// [`Timing`](crate::Timing) also sets the balancer's clock: it evaluates
    /// once per [`Timing::report_interval`](crate::Timing::report_interval),
    /// the [`LoadReporter`] cadence (the metrics window counts reports, not
    /// wall time); it re-publishes each plan delta for
    /// [`Timing::install_refresh`](crate::Timing::install_refresh); and it runs
    /// the failure detector. A broker whose last `DMLLA1` report is older than
    /// [`Timing::failover_after`](crate::Timing::failover_after) becomes
    /// **suspect** and is probed with a bare TCP connect of
    /// [`Timing::probe_timeout`](crate::Timing::probe_timeout). A suspect whose
    /// probe *succeeds* stays suspect — its reporter is wedged but the broker
    /// serves, and failing over a serving broker would split routing. Only a
    /// failed probe declares death.
    pub client: ClientConfig,
    /// Enables the proactive bounded-load placement pass: each
    /// evaluation, channels observed in `DMLLA1` reports that have no
    /// plan entry and whose ring home violates the `(1+ε)×`-mean cap
    /// get bounded-load homes installed *before* they trip the reactive
    /// high-load path. Disable to measure the reactive baseline.
    pub placement_pass: bool,
}

impl Default for BalancerConfig {
    fn default() -> Self {
        BalancerConfig {
            tuning: Tuning::default(),
            capacity_floor: 1_000_000.0,
            window: 3,
            warmup_ticks: 3,
            client: ClientConfig::default(),
            placement_pass: true,
        }
    }
}

/// Counters and gauges describing a [`LiveLoadBalancer`]'s activity.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LiveBalancerStats {
    /// Broker load reports ingested.
    pub reports_received: u64,
    /// Plans installed (each bumps `plan_version`).
    pub plans_installed: u64,
    /// Evaluations where Algorithm 2 migrated channels off an
    /// overloaded broker.
    pub high_load_rebalances: u64,
    /// Evaluations where the low-load drain released a broker.
    pub low_load_drains: u64,
    /// Evaluations where Algorithm 1 changed a channel's replication.
    pub channel_level_rebalances: u64,
    /// Channels pinned by the proactive bounded-load placement pass
    /// (cap-violating ring homes re-homed before the reactive path).
    pub placement_installs: u64,
    /// Channels whose mapping was changed by the reactive stages
    /// (Algorithm 1 replication, Algorithm 2 migration, low-load
    /// drain) — the per-channel cost the placement pass exists to
    /// avoid, where one evaluation event can move many channels.
    pub reactive_migrations: u64,
    /// Brokers currently active (not drained).
    pub active_brokers: usize,
    /// Version of the most recently installed plan (0 = bootstrap).
    pub plan_version: u64,
    /// Windowed load ratio per broker directory index, for brokers that
    /// have reported.
    pub load_ratios: Vec<(usize, f64)>,
    /// Brokers currently suspect (missed reports, but the confirmation
    /// probe still connects — alive, reporter wedged).
    pub suspects: Vec<usize>,
    /// Brokers currently quarantined (declared dead; skipped by plans
    /// until they re-report).
    pub quarantined: Vec<usize>,
    /// Whole-broker deaths declared so far.
    pub deaths_declared: u64,
    /// Emergency replans executed (one per death with survivors).
    pub emergency_replans: u64,
    /// Quarantined brokers re-admitted after they re-reported.
    pub brokers_recovered: u64,
    /// Summary of the most recent emergency replan.
    pub last_replan: Option<ReplanSummary>,
}

/// What the most recent emergency replan did, for observability and for
/// asserting the bounded-load invariant in tests: immediately after a
/// replan, no survivor's projected load ratio exceeds `cap_ratio`.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplanSummary {
    /// Directory index of the broker whose death triggered the replan.
    pub dead: usize,
    /// Channels reassigned off the corpse.
    pub channels_moved: usize,
    /// The bounded-load cap as a load ratio: `(1+ε)×` the projected
    /// post-failover mean LR. Infinite when the replan ran before any
    /// load was measured (a cold start is uncapped: the walk then
    /// degenerates to plain consistent hashing, which every observer
    /// agrees on).
    pub cap_ratio: f64,
    /// Highest projected survivor LR after the reassignment.
    pub max_survivor_lr: f64,
    /// Mean projected survivor LR after the reassignment.
    pub mean_survivor_lr: f64,
}

/// Publishes one broker's load reports on its `__dmc.lla.*` channel once per
/// [`Timing::report_interval`](crate::Timing::report_interval) (see module
/// docs).
pub struct LoadReporter {
    /// Dropping it stops the thread.
    stop: Option<mpsc::Sender<()>>,
    thread: Option<JoinHandle<()>>,
}

impl LoadReporter {
    /// Starts reporting for the broker with directory index `broker`,
    /// reachable at `addr`, harvesting through `handle` once per
    /// `client.timing`'s report interval.
    pub fn start(
        handle: BrokerLoadHandle,
        broker: usize,
        addr: SocketAddr,
        client: ClientConfig,
    ) -> LoadReporter {
        let (stop, stopped) = mpsc::channel();
        let interval = client.timing.report_interval();
        let thread = std::thread::Builder::new()
            .name("dm-reporter".into())
            .spawn(move || {
                let conn = TcpPubSubClient::connect_addr(addr, client);
                let channel = lla_channel(broker);
                while stopped.recv_timeout(interval) == Err(mpsc::RecvTimeoutError::Timeout) {
                    // Nobody reads the connection's events: drop them
                    // rather than queue a flapping broker's for ever.
                    while conn.try_event().is_some() {}
                    // A reporter must observe its broker's shutdown and
                    // stop cleanly: publishing into a closed listener
                    // would spin the connection's reconnect loop forever.
                    if handle.is_shutdown() {
                        return;
                    }
                    conn.publish(&channel, &encode_report(&handle.report()));
                }
            })
            .expect("spawn dm-reporter thread");
        LoadReporter {
            stop: Some(stop),
            thread: Some(thread),
        }
    }

    /// Whether the reporter thread has exited — true after
    /// [`shutdown`](Self::shutdown), and also on its own once the
    /// reporter observed its broker shut down.
    pub fn is_finished(&self) -> bool {
        self.thread.as_ref().is_none_or(|t| t.is_finished())
    }

    /// Stops the reporter thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.stop = None;
        if let Some(handle) = self.thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for LoadReporter {
    fn drop(&mut self) {
        if self.thread.is_some() {
            self.stop();
        }
    }
}

impl std::fmt::Debug for LoadReporter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LoadReporter").finish_non_exhaustive()
    }
}

/// The live balancing service (see module docs).
///
/// # Examples
///
/// Whole-broker failover: one [`Timing`](crate::Timing) shared by the
/// balancer, the reporters and the routers sets the detector. A broker
/// that misses `suspect_after` reports is suspect; a failed confirmation
/// probe declares it dead, within
/// [`Timing::detect_bound`](crate::Timing::detect_bound).
///
/// ```no_run
/// use std::time::Duration;
/// use dynamoth_pubsub::{BalancerConfig, ClientConfig, LiveLoadBalancer, Timing};
///
/// let directory = vec!["10.0.0.1:6379".parse().unwrap(),
///                      "10.0.0.2:6379".parse().unwrap()];
/// // Round trips under 100 ms, one report per second, suspect after
/// // 3 missed reports: probes time out after 500 ms.
/// let timing = Timing::new(Duration::from_millis(100), Duration::from_secs(1), 3)
///     .expect("valid timing");
/// let balancer = LiveLoadBalancer::start(directory, BalancerConfig {
///     client: ClientConfig { timing, ..ClientConfig::default() },
///     ..BalancerConfig::default()
/// });
/// // ... a broker host dies; it is declared dead within timing.detect_bound() ...
/// let stats = balancer.stats();
/// println!("dead: {:?}, quarantined: {:?}, replan: {:?}",
///          stats.deaths_declared, stats.quarantined, stats.last_replan);
/// ```
pub struct LiveLoadBalancer {
    /// Dropping it stops the thread.
    stop: Option<mpsc::Sender<()>>,
    stats: Arc<Mutex<LiveBalancerStats>>,
    thread: Option<JoinHandle<()>>,
}

impl LiveLoadBalancer {
    /// Starts balancing the brokers in `directory` (index `i` ↔
    /// [`ServerId::from_index`]`(i)`, same convention as routers and
    /// sidecars).
    ///
    /// # Panics
    ///
    /// Panics if `directory` is empty.
    pub fn start(directory: Vec<SocketAddr>, cfg: BalancerConfig) -> LiveLoadBalancer {
        assert!(!directory.is_empty(), "directory needs at least one broker");
        let (stop, stopped) = mpsc::channel();
        let stats = Arc::new(Mutex::new(LiveBalancerStats {
            active_brokers: directory.len(),
            ..LiveBalancerStats::default()
        }));
        let stats_out = Arc::clone(&stats);
        let thread = std::thread::Builder::new()
            .name("dm-balancer".into())
            .spawn(move || Engine::new(directory, cfg, stats_out).run(stopped))
            .expect("spawn dm-balancer thread");
        LiveLoadBalancer {
            stop: Some(stop),
            stats,
            thread: Some(thread),
        }
    }

    /// Counters and gauges so far.
    pub fn stats(&self) -> LiveBalancerStats {
        self.stats.lock().clone()
    }

    /// Stops the balancer. Brokers keep serving under the last
    /// installed plan.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.stop = None;
        if let Some(handle) = self.thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for LiveLoadBalancer {
    fn drop(&mut self) {
        if self.thread.is_some() {
            self.stop();
        }
    }
}

impl std::fmt::Debug for LiveLoadBalancer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveLoadBalancer").finish_non_exhaustive()
    }
}

/// A plan delta awaiting its refresh window: re-published every tick until
/// `installed_at +`
/// [`Timing::install_refresh`](crate::Timing::install_refresh), so sidecar
/// forwarding TTLs stay fresh for the whole reconfiguration window.
struct PendingInstall {
    installed_at: Instant,
    frame: InstallFrame,
    targets: Vec<usize>,
}

/// The balancer's worker thread state.
struct Engine {
    directory: Vec<SocketAddr>,
    cfg: BalancerConfig,
    stats: Arc<Mutex<LiveBalancerStats>>,
    /// One connection per broker: subscribed to its report channel,
    /// used to publish installs to its sidecar.
    clients: Vec<TcpPubSubClient>,
    /// Each broker's report channel, named once.
    lla: Vec<String>,
    ring: Ring,
    plan: Plan,
    next_plan_id: u64,
    /// Brokers currently in the balancing pool; a low-load drain parks
    /// a broker here without touching the directory.
    active: Vec<ServerId>,
    store: MetricsStore,
    /// One shared estimator observing the per-tick *maximum* egress
    /// across brokers: per-broker estimators would mix idle brokers'
    /// zeros into the sustained-minimum window and never learn.
    capacity: CapacityEstimator,
    /// Channel names by id — reports carry names, plans carry ids.
    names: HashMap<ChannelId, String>,
    /// Brokers that have reported at least once (evaluation gate).
    reported: HashSet<usize>,
    ticks: u64,
    pending_installs: Vec<PendingInstall>,
    /// When each broker's most recent report arrived (engine start
    /// counts as a report, so a never-reporting broker becomes suspect
    /// after the normal K intervals instead of instantly).
    last_report: Vec<Instant>,
    /// Death count per broker; bumped on every death declaration and
    /// carried on the wire so receivers dedup death handling.
    incarnations: Vec<u64>,
    /// Brokers declared dead, by directory index → incarnation. A
    /// quarantined broker is skipped by plans and pool re-admission
    /// until a fresh report proves it back.
    quarantined: BTreeMap<usize, u64>,
    /// Brokers past the missed-report threshold whose probe still
    /// succeeds.
    suspects: HashSet<usize>,
    /// Channels pinned by the placement pass (always `Single` entries),
    /// keyed to the evaluation tick that placed them. Each channel is
    /// placed at most once: after that it has a plan entry and its
    /// broker's load drift belongs to the reactive algorithms.
    /// (Keeping these entries mobile and re-judging them against every
    /// tick's fluctuating measurements was tried — it churns plans
    /// continuously as each install's handoff transient re-triggers
    /// the next move.)
    placed: HashMap<ChannelId, u64>,
    /// Tick of the most recent plan install; the reactive stages hold
    /// off for [`SETTLE_TICKS`] after it so handoff double-egress
    /// transients cannot trigger follow-on migrations.
    last_install_tick: Option<u64>,
}

impl Engine {
    fn new(
        directory: Vec<SocketAddr>,
        cfg: BalancerConfig,
        stats: Arc<Mutex<LiveBalancerStats>>,
    ) -> Engine {
        let servers: Vec<ServerId> = (0..directory.len()).map(ServerId::from_index).collect();
        let ring = Ring::new(&servers, DEFAULT_VNODES);
        let lla: Vec<String> = (0..directory.len()).map(lla_channel).collect();
        let clients: Vec<TcpPubSubClient> = directory
            .iter()
            .zip(&lla)
            .map(|(&addr, channel)| {
                let client = TcpPubSubClient::connect_addr(addr, cfg.client.clone());
                client.subscribe(channel);
                client
            })
            .collect();
        Engine {
            store: MetricsStore::new(cfg.window),
            capacity: CapacityEstimator::new(cfg.capacity_floor),
            last_report: vec![Instant::now(); directory.len()],
            incarnations: vec![0; directory.len()],
            quarantined: BTreeMap::new(),
            suspects: HashSet::new(),
            placed: HashMap::new(),
            last_install_tick: None,
            directory,
            stats,
            clients,
            lla,
            ring,
            plan: Plan::bootstrap(),
            next_plan_id: 1,
            active: servers,
            names: HashMap::new(),
            reported: HashSet::new(),
            ticks: 0,
            pending_installs: Vec::new(),
            cfg,
        }
    }

    /// Evaluates once per report interval until `stop`'s sender is
    /// dropped.
    fn run(mut self, stop: mpsc::Receiver<()>) {
        let interval = self.cfg.client.timing.report_interval();
        while stop.recv_timeout(interval) == Err(mpsc::RecvTimeoutError::Timeout) {
            self.ingest();
            self.ticks += 1;
            self.detect_failures();
            // The evaluation gate counts only live brokers: a dead one
            // can never report again, and waiting for it would deadlock
            // balancing exactly when it is needed most.
            let live = self.directory.len() - self.quarantined.len();
            if live > 0 && self.reported.len() >= live && self.ticks >= self.cfg.warmup_ticks {
                self.evaluate();
            }
            self.refresh_installs();
            self.publish_stats();
        }
    }

    /// The quarantined brokers as [`ServerId`]s — the exclusion set for
    /// ring fallbacks ([`Plan::resolve_excluding`]) and migration gates.
    fn quarantined_servers(&self) -> Vec<ServerId> {
        self.quarantined
            .keys()
            .map(|&idx| ServerId::from_index(idx))
            .collect()
    }

    /// The current quarantine list in wire form (sorted by index, so
    /// every frame encodes it identically).
    fn quarantine_list(&self) -> Vec<Quarantine> {
        self.quarantined
            .iter()
            .map(|(&broker, &incarnation)| Quarantine {
                broker,
                incarnation,
            })
            .collect()
    }

    /// Drains every broker connection, converting `DMLLA1` payloads to
    /// [`LlaReport`]s for the metrics window and feeding the capacity
    /// estimator the tick's maximum observed egress.
    fn ingest(&mut self) {
        let mut max_egress: Option<f64> = None;
        for (idx, client) in self.clients.iter().enumerate() {
            while client.try_event().is_some() {}
            while let Some(msg) = client.try_message() {
                if msg.channel != self.lla[idx] {
                    continue;
                }
                let Some(report) = decode_report(&msg.payload) else {
                    continue;
                };
                max_egress = Some(max_egress.unwrap_or(0.0).max(report.egress_bytes as f64));
                let mut channels = Vec::with_capacity(report.channels.len());
                for (name, tick) in report.channels {
                    // The control plane's own traffic (reports, installs,
                    // MOVED frames) must not influence balancing.
                    if is_control_channel(&name) {
                        continue;
                    }
                    let id = channel_id_of(&name);
                    self.names.entry(id).or_insert(name);
                    channels.push((id, tick));
                }
                self.store.record(LlaReport {
                    server: ServerId::from_index(idx),
                    tick: report.tick,
                    measured_egress_bytes: report.egress_bytes,
                    capacity_bytes: self.capacity.capacity(),
                    cpu_busy_micros: 0,
                    channels,
                });
                self.reported.insert(idx);
                self.last_report[idx] = Instant::now();
                self.suspects.remove(&idx);
                self.stats.lock().reports_received += 1;
                if self.quarantined.remove(&idx).is_some() {
                    // A fresh report lifts the quarantine: the broker is
                    // back (new incarnation, fresh sequence spaces) and
                    // rejoins the pool as free capacity.
                    let s = ServerId::from_index(idx);
                    if !self.active.contains(&s) {
                        self.active.push(s);
                        self.active.sort();
                    }
                    self.stats.lock().brokers_recovered += 1;
                }
            }
        }
        if let Some(max) = max_egress {
            self.capacity.observe(max);
        }
    }

    /// The suspect → probe → dead state machine. A broker is suspect once its
    /// last report is older than
    /// [`Timing::failover_after`](crate::Timing::failover_after); a suspect is
    /// probed every tick with a bare TCP connect. Probe success keeps it
    /// suspect (broker alive, reporter wedged — failing over a serving broker
    /// would split routing); probe failure declares death and triggers the
    /// emergency replan.
    fn detect_failures(&mut self) {
        let threshold = self.cfg.client.timing.failover_after();
        let probe_timeout = self.cfg.client.timing.probe_timeout();
        let mut deaths = Vec::new();
        for idx in 0..self.directory.len() {
            if self.quarantined.contains_key(&idx) {
                continue;
            }
            if self.last_report[idx].elapsed() < threshold {
                self.suspects.remove(&idx);
                continue;
            }
            self.suspects.insert(idx);
            if TcpStream::connect_timeout(&self.directory[idx], probe_timeout).is_err() {
                deaths.push(idx);
            }
        }
        for idx in deaths {
            self.declare_dead(idx);
        }
    }

    /// Declares broker `idx` dead: bump its incarnation, quarantine it,
    /// replan its channels onto survivors, then prune every piece of
    /// state that would otherwise keep the corpse in the math.
    fn declare_dead(&mut self, idx: usize) {
        self.suspects.remove(&idx);
        self.reported.remove(&idx);
        self.incarnations[idx] += 1;
        self.quarantined.insert(idx, self.incarnations[idx]);
        self.stats.lock().deaths_declared += 1;
        // Replan *before* forgetting the corpse's metrics: they are the
        // only estimate of how much load each of its channels carries.
        self.emergency_replan(idx);
        let dead = ServerId::from_index(idx);
        self.store.forget(dead);
        self.reported.remove(&idx);
        self.active.retain(|&s| s != dead);
        // The corpse's final egress samples must not complete a
        // "sustained" window and skew the capacity estimate the
        // survivors' load ratios are measured against.
        self.capacity.forget_window();
    }

    /// Reassigns every channel homed on the dead broker to survivors
    /// chosen by a load-capped ring walk: walk the ring from the
    /// channel's hash point and take the first survivor whose projected
    /// load stays within `(1+ε)×` the post-failover mean (*Consistent
    /// Hashing with Bounded Loads*); when a survivor is over the cap
    /// the channel spills to the next ring node. The resulting installs
    /// go to **every** survivor (not just old/new members): carrying
    /// the quarantine list, they teach all surviving sidecars where the
    /// corpse's channels now live, so stray publications are corrected
    /// wherever they land.
    fn emergency_replan(&mut self, dead_idx: usize) {
        let dead = ServerId::from_index(dead_idx);
        let survivors: Vec<ServerId> = (0..self.directory.len())
            .filter(|i| !self.quarantined.contains_key(i))
            .map(ServerId::from_index)
            .collect();
        if survivors.is_empty() {
            return; // nobody left to replan onto
        }
        // Every survivor absorbs failover load, so all join the pool.
        for &s in &survivors {
            if !self.active.contains(&s) {
                self.active.push(s);
            }
        }
        self.active.sort();

        let capacity = self.capacity.capacity().max(1.0);
        // Channels a router would currently send to the corpse: the
        // effective home honors *earlier* quarantines (routers already
        // route around those), so exclude every corpse but this one.
        // Heaviest first: first-fit decreasing packs tightest under the
        // cap; ties by id for determinism.
        let prior: Vec<ServerId> = self
            .quarantined_servers()
            .into_iter()
            .filter(|&s| s != dead)
            .collect();
        let mut homeless: Vec<(ChannelId, f64)> = self
            .names
            .keys()
            .filter(|&&id| {
                self.plan
                    .resolve_excluding(id, &self.ring, &prior)
                    .servers()
                    .contains(&dead)
            })
            .map(|&id| (id, self.store.channel_bytes_on(dead, id)))
            .collect();
        homeless.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));

        // The shared bounded-load placer: survivors seeded from the
        // live LLA view, the corpse's load counted as pending so the
        // cap reflects the post-failover system. No cap floor here —
        // with nothing measured anywhere the placer runs uncapped and
        // the walk degenerates to plain consistent hashing.
        let loads: Vec<(ServerId, f64)> = survivors
            .iter()
            .map(|&s| (s, self.store.egress_bytes_per_tick(s).unwrap_or(0.0)))
            .collect();
        let pending: f64 = homeless.iter().map(|&(_, b)| b).sum();
        let mut placer = BoundedPlacer::new(&loads, FAILOVER_EPSILON, pending, 0.0);

        let mut candidate = self.plan.clone();
        for &(id, bytes) in &homeless {
            let old = self.plan.resolve_excluding(id, &self.ring, &prior);
            let keep: Vec<ServerId> = old
                .servers()
                .iter()
                .copied()
                .filter(|&s| s != dead && placer.is_eligible(s))
                .collect();
            let mut members = keep.clone();
            if let Some(target) = placer.place(&self.ring, id, bytes, &keep) {
                members.push(target);
            }
            let mapping = match (&old, members.len()) {
                (_, 0) => continue, // unreachable: survivors is non-empty
                (ChannelMapping::AllSubscribers(_), n) if n >= 2 => {
                    ChannelMapping::AllSubscribers(members)
                }
                (ChannelMapping::AllPublishers(_), n) if n >= 2 => {
                    ChannelMapping::AllPublishers(members)
                }
                _ => ChannelMapping::Single(members[0]),
            };
            candidate.set(id, mapping);
        }

        let changes = self.plan.diff_excluding(&candidate, &self.ring, &prior);
        let n = survivors.len() as f64;
        let mean_lr = placer.loads().map(|(_, b)| b).sum::<f64>() / n / capacity;
        let max_lr = placer.loads().fold(0.0f64, |m, (_, b)| m.max(b / capacity));
        {
            let mut stats = self.stats.lock();
            stats.emergency_replans += 1;
            stats.last_replan = Some(ReplanSummary {
                dead: dead_idx,
                channels_moved: changes.len(),
                cap_ratio: placer.cap_bytes() / capacity,
                max_survivor_lr: max_lr,
                mean_survivor_lr: mean_lr,
            });
        }
        if changes.is_empty() {
            return;
        }
        let plan_id = PlanId(self.next_plan_id);
        self.next_plan_id += 1;
        candidate.set_id(plan_id);
        let quarantine = self.quarantine_list();
        let targets: Vec<usize> = survivors.iter().map(|s| s.index()).collect();
        let now = Instant::now();
        for change in changes {
            let Some(name) = self.names.get(&change.channel) else {
                continue;
            };
            let frame = InstallFrame {
                plan: plan_id,
                channel: name.clone(),
                old: change.old,
                new: change.new,
                quarantine: quarantine.clone(),
            };
            self.send_install(&frame, &targets);
            self.pending_installs.push(PendingInstall {
                installed_at: now,
                frame,
                targets: targets.clone(),
            });
        }
        self.plan = candidate;
        self.last_install_tick = Some(self.ticks);
        self.stats.lock().plans_installed += 1;
    }

    /// One balancing evaluation, mirroring the simulator's
    /// `evaluate_dynamoth`: the proactive bounded-load placement pass,
    /// then Algorithm 1 (channel-level replication), then Algorithm 2
    /// (high-load migration), then — only when the system is otherwise
    /// stable — the low-load drain.
    fn evaluate(&mut self) {
        let capacity = self.capacity.capacity();
        let exclude = self.quarantined_servers();
        let mut view = LoadView::from_store(&self.store, &self.active, capacity);
        let mut aggregates: Vec<(ChannelId, ChannelAggregate)> = self
            .store
            .channel_aggregates(|c| self.plan.resolve_excluding(c, &self.ring, &exclude))
            .into_iter()
            .collect();
        aggregates.sort_by_key(|&(c, _)| c); // deterministic decisions

        let mut candidate = self.plan.clone();
        let placement_moves = if self.cfg.placement_pass {
            self.placement_pass(&mut candidate, &mut view, capacity, &exclude)
        } else {
            0
        };
        let pre_reactive = candidate.clone();
        // Post-install settle: the reports right after a migration
        // double-count the handoff egress, so acting on them manufactures
        // follow-on migrations. Placement (above) is exempt — it judges
        // newly observed channels by their own per-channel bytes.
        let settling = self
            .last_install_tick
            .is_some_and(|t| self.ticks.saturating_sub(t) < SETTLE_TICKS);
        let mut cl_changed = false;
        let mut high_changed = false;
        let mut servers_wanted = 0usize;
        let mut drained = None;
        if !settling {
            cl_changed = channel_level::apply(
                &mut candidate,
                &self.ring,
                &aggregates,
                &mut view,
                &self.active,
                self.cfg.tuning,
                &exclude,
            );
            let high =
                high_load::rebalance(&candidate, &mut view, &self.ring, self.cfg.tuning, &exclude);
            candidate = high.plan;
            high_changed = high.changed;
            servers_wanted = high.servers_wanted;
            if !high_changed && !cl_changed && servers_wanted == 0 && self.active.len() > 1 {
                if let Some(out) = low_load::rebalance(
                    &candidate,
                    &mut view,
                    &self.ring,
                    self.cfg.tuning,
                    &exclude,
                ) {
                    candidate = out.plan;
                    drained = Some(out.release);
                }
            }
        }

        let reactive_moves = pre_reactive
            .diff_excluding(&candidate, &self.ring, &exclude)
            .len() as u64;
        {
            let mut stats = self.stats.lock();
            stats.placement_installs += placement_moves;
            stats.reactive_migrations += reactive_moves;
            if cl_changed {
                stats.channel_level_rebalances += 1;
            }
            if high_changed {
                stats.high_load_rebalances += 1;
            }
            if drained.is_some() {
                stats.low_load_drains += 1;
            }
        }

        if servers_wanted > 0 {
            // The pool cannot absorb the load: re-admit parked brokers
            // (the TCP tier cannot rent new machines, but drained ones
            // are free capacity). Quarantined brokers stay out — a
            // corpse is not capacity.
            for idx in 0..self.directory.len() {
                if self.quarantined.contains_key(&idx) {
                    continue;
                }
                let s = ServerId::from_index(idx);
                if !self.active.contains(&s) {
                    self.active.push(s);
                }
            }
            self.active.sort();
        } else if let Some(victim) = drained {
            self.active.retain(|&s| s != victim);
            self.store.forget(victim);
            self.reported.remove(&victim.index());
        }
        self.readmit_loaded_parked_brokers();

        // Exclusion-aware diff: for a previously unmapped channel whose
        // plain home is quarantined, `old` must name the survivor that
        // actually serves it, or the install never reaches the sidecar
        // that has to announce the switch.
        let changes = self.plan.diff_excluding(&candidate, &self.ring, &exclude);
        if changes.is_empty() {
            return;
        }
        let plan_id = PlanId(self.next_plan_id);
        self.next_plan_id += 1;
        candidate.set_id(plan_id);
        let quarantine = self.quarantine_list();
        let now = Instant::now();
        for change in changes {
            let Some(name) = self.names.get(&change.channel) else {
                continue; // never observed on the wire; nothing to tell
            };
            let frame = InstallFrame {
                plan: plan_id,
                channel: name.clone(),
                old: change.old,
                new: change.new,
                quarantine: quarantine.clone(),
            };
            let mut targets: Vec<usize> = frame
                .old
                .servers()
                .iter()
                .chain(frame.new.servers())
                .map(|s| s.index())
                .collect();
            targets.sort_unstable();
            targets.dedup();
            // A corpse in `old` (a placed entry being moved off a
            // quarantined broker) gets no install: it cannot ack, and
            // the sidecar quarantine list already covers forwarding.
            targets.retain(|idx| !self.quarantined.contains_key(idx));
            self.send_install(&frame, &targets);
            self.pending_installs.push(PendingInstall {
                installed_at: now,
                frame,
                targets,
            });
        }
        self.plan = candidate;
        self.last_install_tick = Some(self.ticks);
        self.stats.lock().plans_installed += 1;
    }

    /// Proactive bounded-load placement (consistent hashing with
    /// bounded loads, Mirrokni et al.): channels the plan does not
    /// mention whose plain-ring home would blow the `(1+ε)·mean` cap
    /// get an explicit bounded-load home *before* the reactive
    /// high-load path has to fire. Balls-and-bins hysteresis: an
    /// unmapped channel whose ring home is under the cap is left
    /// untouched (no plan entry, no install), so only cap-violating
    /// channels ever move, and each channel is placed at most once
    /// (`self.placed`) — afterwards its broker's load drift belongs to
    /// the reactive algorithms, which keeps broker rent/release churn
    /// from cascading into mass migrations.
    ///
    /// Returns the number of channels rehomed into `candidate`; `view`
    /// is updated alongside so the downstream reactive algorithms see
    /// the post-placement loads instead of double-moving the same
    /// channels.
    fn placement_pass(
        &mut self,
        candidate: &mut Plan,
        view: &mut LoadView,
        capacity: f64,
        exclude: &[ServerId],
    ) -> u64 {
        if self.active.len() < 2 {
            return 0;
        }
        let loads: Vec<(ServerId, f64)> = self
            .active
            .iter()
            .map(|&s| (s, self.store.egress_bytes_per_tick(s).unwrap_or(0.0)))
            .collect();
        // Floor the cap at the reactive safe line: below it the plain
        // ring is fine and the pass stays quiet rather than churning
        // plans over trivial imbalance.
        let cap_floor = self.cfg.tuning.lr_safe * capacity;
        let mut placer = BoundedPlacer::new(&loads, FAILOVER_EPSILON, 0.0, cap_floor);

        // Work list: unmapped channels at their effective ring home.
        // Every mapped channel — including our own past placements —
        // belongs to the reactive algorithms. Heaviest first: first-fit
        // decreasing packs tightest under the cap; ties by id for
        // determinism.
        let mut work: Vec<(ChannelId, ServerId, f64)> = Vec::new();
        for &id in self.names.keys() {
            let home = match candidate.mapping(id) {
                None => self
                    .ring
                    .server_for_excluding(id, exclude)
                    .unwrap_or_else(|| self.ring.server_for(id)),
                Some(_) => continue,
            };
            // Homes on parked-but-healthy brokers are the readmit
            // path's business; hijacking them here would fight the
            // low-load drain.
            if !placer.is_eligible(home) && !exclude.contains(&home) {
                continue;
            }
            work.push((id, home, self.store.channel_bytes_on(home, id)));
        }
        work.sort_by(|a, b| b.2.total_cmp(&a.2).then(a.0.cmp(&b.0)));

        let mut moved = 0u64;
        for (id, home, bytes) in work {
            // A channel too fat to fit under the cap on *any* broker
            // cannot be packed, only shifted. Shift it while that
            // strictly lowers its broker's projected load (first-fit
            // decreasing still converges), but once the least-loaded
            // alternative would end up no better than where it sits,
            // leave it alone — further moves just ping-pong the hot
            // spot, and replication (Algorithm 1) is the real fix.
            if placer.is_eligible(home) {
                let cap = placer.cap_bytes();
                let home_p = placer.projected(home).unwrap_or(0.0);
                let (fits, improves) = placer
                    .loads()
                    .filter(|&(s, _)| s != home)
                    .fold((false, false), |(f, i), (_, p)| {
                        (f || p + bytes <= cap, i || p + bytes < home_p)
                    });
                if !fits && !improves {
                    continue;
                }
            }
            let Some(target) = placer.rehome(&self.ring, id, bytes, Some(home)) else {
                continue;
            };
            if target == home {
                continue;
            }
            candidate.set(id, ChannelMapping::Single(target));
            self.placed.insert(id, self.ticks);
            if placer.is_eligible(home) {
                view.migrate(id, home, target);
            }
            moved += 1;
        }
        moved
    }

    /// A drained broker is invisible to the plan, but the ring still
    /// homes *new* channels on it — if such a channel heats up, the
    /// broker must rejoin the pool or its load is never balanced.
    fn readmit_loaded_parked_brokers(&mut self) {
        let threshold = self.cfg.tuning.lr_low * self.capacity.capacity();
        let mut changed = false;
        for idx in 0..self.directory.len() {
            if self.quarantined.contains_key(&idx) {
                continue;
            }
            let s = ServerId::from_index(idx);
            if self.active.contains(&s) {
                continue;
            }
            if self.store.egress_bytes_per_tick(s).unwrap_or(0.0) >= threshold {
                self.active.push(s);
                changed = true;
            }
        }
        if changed {
            self.active.sort();
        }
    }

    fn send_install(&self, frame: &InstallFrame, targets: &[usize]) {
        let payload = frame.encode();
        for &idx in targets {
            if let Some(client) = self.clients.get(idx) {
                client.publish(&install_channel(idx), &payload);
            }
        }
    }

    /// Re-publishes young installs so the sidecars' forwarding TTLs stay
    /// refreshed across the reconfiguration window (the install path is
    /// idempotent per (channel, plan)).
    fn refresh_installs(&mut self) {
        let refresh = self.cfg.client.timing.install_refresh();
        let now = Instant::now();
        self.pending_installs
            .retain(|p| now.duration_since(p.installed_at) < refresh);
        for p in &self.pending_installs {
            self.send_install(&p.frame, &p.targets);
        }
    }

    fn publish_stats(&self) {
        let mut load_ratios: Vec<(usize, f64)> = (0..self.directory.len())
            .filter_map(|idx| {
                self.store
                    .load_ratio(ServerId::from_index(idx))
                    .map(|lr| (idx, lr))
            })
            .collect();
        load_ratios.sort_by_key(|&(idx, _)| idx);
        let mut suspects: Vec<usize> = self.suspects.iter().copied().collect();
        suspects.sort_unstable();
        let mut stats = self.stats.lock();
        stats.active_brokers = self.active.len();
        stats.plan_version = self.plan.id().0;
        stats.load_ratios = load_ratios;
        stats.suspects = suspects;
        stats.quarantined = self.quarantined.keys().copied().collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "at least one broker")]
    fn empty_directory_panics() {
        let _ = LiveLoadBalancer::start(Vec::new(), BalancerConfig::default());
    }

    #[test]
    fn default_config_is_sane() {
        let cfg = BalancerConfig::default();
        assert!(cfg.window >= 1);
        assert!(cfg.warmup_ticks >= 1);
        assert!(cfg.capacity_floor > 0.0);
    }
}
