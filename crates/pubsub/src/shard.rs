//! Sharded fan-out index with per-channel sequence-numbered retention.
//!
//! The broker's subscription state is split into `N` shards selected by
//! a hash of the **full channel name**, so SUBSCRIBE / UNSUBSCRIBE /
//! PUBLISH on disjoint channels hit disjoint locks and never contend.
//! Within a shard, each channel maps to an [`ChannelEntry`] holding an
//! immutable `Arc<Vec<SubscriberRef>>` snapshot (writers clone-and-swap
//! it), the channel's monotonic publish sequence, and a bounded
//! evict-oldest ring of recently published payloads. PUBLISH takes the
//! shard's *shared* read lock only long enough to clone the entry
//! `Arc`, then assigns a sequence and clones the subscriber snapshot
//! under the entry's own mutex and fans out with no lock held at all —
//! publishers on *different* channels never serialize, and publishers
//! on the *same* channel serialize exactly as long as sequence
//! assignment requires.
//!
//! Because a subscribe-with-replay registers the subscriber and
//! collects the retained suffix under the same per-channel mutex that
//! publishers assign sequences under, resume is exactly-once by
//! construction: for any concurrent publish, either its frame is in the
//! ring when the subscriber registers (and is replayed, with the
//! publisher's snapshot predating the subscriber), or the subscriber is
//! in the publisher's snapshot (and the frame arrives live, not in the
//! replayed suffix).
//!
//! The entry is also where the broker measures the channel: it carries
//! the channel's cumulative load counters ([`crate::load`]) and its
//! last-harvest snapshot, so PUBLISH counts on the entry it already
//! holds and [`ShardedIndex::load_report`] walks this one table. An
//! entry leaves its shard only when nothing would be lost: no
//! subscriber, no retained history, no un-harvested count, and no
//! in-flight command holding it ([`ShardedIndex::unsubscribe`] and the
//! harvest apply the same rule).
//!
//! Entries are keyed by the full channel name, not a hash of it: a
//! 64-bit name-hash collision must never merge two channels' subscriber
//! sets (the seed broker's interned-`Channel(hash)` index silently
//! cross-delivered on collision). The hash here picks the *shard* only;
//! colliding names land in the same shard but remain distinct keys.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use crate::balance::metrics::ChannelTick;
use crate::load::{BrokerLoadReport, LoadCounters, Totals};
use crate::outbox::OutboxSender;

/// One subscriber's entry in a channel snapshot.
#[derive(Clone)]
pub(crate) struct SubscriberRef {
    pub conn: u64,
    pub outbox: OutboxSender,
    /// Whether this subscriber asked for sequenced delivery (the
    /// `DMSEQ1` subscribe form): it receives sequence-prefixed payloads
    /// instead of plain ones.
    pub sequenced: bool,
}

/// Immutable subscriber snapshot of one channel, shared with in-flight
/// publishes.
pub(crate) type ChannelSnapshot = Arc<Vec<SubscriberRef>>;

/// Mutable per-channel state, guarded by the entry mutex.
struct ChannelInner {
    subs: ChannelSnapshot,
    /// Sequence the *next* publish will be assigned; sequences start at
    /// 0 and are per-channel, per-broker-incarnation.
    next_seq: u64,
    /// Recently published payloads `(seq, raw payload)`, oldest first,
    /// bounded by the index's retention caps.
    ring: VecDeque<(u64, Arc<[u8]>)>,
    ring_bytes: usize,
    /// The load counters as the previous harvest read them.
    harvested: Totals,
}

/// One channel's slot in a shard map: its interned name, its load
/// counters, and a mutex around the snapshot, sequence counter and
/// retention ring. Cloning the `Arc<ChannelEntry>` under the shard read
/// lock lets the publish path leave the shard immediately.
struct ChannelEntry {
    /// The shard key, shared as every fan-out's conflation key.
    name: Arc<str>,
    load: LoadCounters,
    inner: Mutex<ChannelInner>,
}

impl ChannelEntry {
    fn new(name: Arc<str>) -> Arc<ChannelEntry> {
        Arc::new(ChannelEntry {
            name,
            load: LoadCounters::default(),
            inner: Mutex::new(ChannelInner {
                subs: Arc::new(Vec::new()),
                next_seq: 0,
                ring: VecDeque::new(),
                ring_bytes: 0,
                harvested: Totals::default(),
            }),
        })
    }

    /// Whether dropping this entry from its shard loses nothing: no
    /// subscriber, no retained history, no un-harvested count, and no
    /// reference but the shard's own (an in-flight publish or subscribe
    /// holds a clone). Checked under the shard's write lock, so no new
    /// clone can appear meanwhile.
    fn prunable(self: &Arc<Self>, inner: &ChannelInner) -> bool {
        if !inner.subs.is_empty() || inner.next_seq != 0 || Arc::strong_count(self) != 1 {
            return false;
        }
        // Pairs with the release of the last other clone's drop: the
        // counts it made are visible to the read below.
        fence(Ordering::Acquire);
        self.load.read() == inner.harvested
    }
}

type Shard = RwLock<HashMap<Arc<str>, Arc<ChannelEntry>>>;

/// What one publish must fan out: the subscriber snapshot taken under
/// the channel mutex, and the sequence assigned to the frame (when
/// retention is enabled). It holds the channel's entry until
/// [`Self::count`], so the harvest cannot prune it mid-publish.
pub(crate) struct PublishFanout {
    pub subs: ChannelSnapshot,
    pub seq: Option<u64>,
    entry: Arc<ChannelEntry>,
}

impl PublishFanout {
    /// The channel's interned name: the conflation key of every push.
    pub fn channel(&self) -> &Arc<str> {
        &self.entry.name
    }

    /// Counts the finished fan-out on its channel: `bytes_in` received,
    /// `bytes_out` of frames handed to `delivered` outboxes.
    pub fn count(self, bytes_in: u64, bytes_out: u64, delivered: u64) {
        self.entry.load.note(bytes_in, bytes_out, delivered);
    }
}

/// The retained suffix and gap verdict of a subscribe-with-resume.
pub(crate) struct SubscribeOutcome {
    /// Frames to replay to the new subscriber, oldest first.
    pub replay: Vec<(u64, Arc<[u8]>)>,
    /// `Some((requested, resume_from))` when the requested sequence is
    /// no longer retained (or lies beyond this incarnation's counter):
    /// everything in `[requested, resume_from)` is lost, detectably.
    pub gap: Option<(u64, u64)>,
    /// The sequence the next live publish will carry.
    pub next_seq: u64,
    /// Whether the subscription was actually registered sequenced
    /// (`false` when retention is disabled and the request degraded to
    /// a plain subscription).
    pub sequenced: bool,
}

/// The broker's sharded subscription index.
pub(crate) struct ShardedIndex {
    shards: Vec<Shard>,
    /// Per-channel retention caps; retention (and therefore sequencing)
    /// is enabled only when both are non-zero.
    retention_frames: usize,
    retention_bytes: usize,
    /// Number of the next load report.
    reports: AtomicU64,
}

/// FNV-1a over the channel name; used only to pick a shard.
pub(crate) fn fnv64(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

impl ShardedIndex {
    /// Creates an index with `shards` shards (rounded up to a power of
    /// two, minimum 1) retaining up to `retention_frames` frames /
    /// `retention_bytes` payload bytes per channel. Either cap at zero
    /// disables retention and sequencing entirely.
    pub fn new(shards: usize, retention_frames: usize, retention_bytes: usize) -> ShardedIndex {
        let n = shards.max(1).next_power_of_two();
        ShardedIndex {
            shards: (0..n).map(|_| RwLock::new(HashMap::new())).collect(),
            retention_frames,
            retention_bytes,
            reports: AtomicU64::new(0),
        }
    }

    fn retention_enabled(&self) -> bool {
        self.retention_frames > 0 && self.retention_bytes > 0
    }

    fn shard(&self, name: &str) -> &Shard {
        &self.shards[(fnv64(name) as usize) & (self.shards.len() - 1)]
    }

    /// Looks up `name`'s entry, creating it when absent. Lock order is
    /// always shard → entry, here and everywhere below.
    fn entry_or_create(&self, name: &str) -> Arc<ChannelEntry> {
        let shard = self.shard(name);
        if let Some(entry) = shard.read().get(name) {
            return Arc::clone(entry);
        }
        let mut shard = shard.write();
        if let Some(entry) = shard.get(name) {
            return Arc::clone(entry);
        }
        let name: Arc<str> = name.into();
        let entry = ChannelEntry::new(Arc::clone(&name));
        shard.insert(name, Arc::clone(&entry));
        entry
    }

    /// The subscriber snapshot of `name`, if any subscriber is
    /// registered. The returned snapshot is immutable and safe to
    /// iterate with no lock held.
    pub fn snapshot(&self, name: &str) -> Option<ChannelSnapshot> {
        let entry = self.shard(name).read().get(name).cloned()?;
        let subs = Arc::clone(&entry.inner.lock().subs);
        if subs.is_empty() {
            None
        } else {
            Some(subs)
        }
    }

    /// Records one publish of `payload` on `name`: assigns the frame's
    /// sequence, appends it to the retention ring (evicting oldest past
    /// the caps) and returns the subscriber snapshot to fan out to —
    /// all under the channel mutex, so the snapshot/ring hand-off to
    /// concurrent resumes is exactly-once. With retention disabled there
    /// is no sequence and no ring. The entry exists even when nobody
    /// subscribes: it counts the channel's load, and retention holds
    /// frames for subscribers that are *not here yet*.
    pub fn publish(&self, name: &str, payload: &[u8]) -> PublishFanout {
        let entry = self.entry_or_create(name);
        let mut inner = entry.inner.lock();
        let seq = self.retention_enabled().then(|| {
            let seq = inner.next_seq;
            inner.next_seq += 1;
            let frame: Arc<[u8]> = payload.into();
            inner.ring_bytes += frame.len();
            inner.ring.push_back((seq, frame));
            while inner.ring.len() > self.retention_frames
                || inner.ring_bytes > self.retention_bytes
            {
                if let Some((_, old)) = inner.ring.pop_front() {
                    inner.ring_bytes -= old.len();
                } else {
                    break;
                }
            }
            seq
        });
        let subs = Arc::clone(&inner.subs);
        drop(inner);
        PublishFanout { subs, seq, entry }
    }

    /// Adds `sub` to `name`'s snapshot (replacing any previous
    /// registration of the same connection, so a re-subscribe can
    /// upgrade to sequenced delivery) and, when `from` asks to resume,
    /// collects the retained suffix to replay. Registration and replay
    /// collection happen under the channel mutex shared with
    /// [`Self::publish`]; see the module docs for why that makes resume
    /// exactly-once.
    pub fn subscribe(
        &self,
        name: &str,
        mut sub: SubscriberRef,
        from: Option<u64>,
    ) -> SubscribeOutcome {
        let (sequenced, from) = if self.retention_enabled() {
            (sub.sequenced, from)
        } else {
            // No retention ⇒ no sequences to prefix or resume from:
            // degrade to a plain subscription.
            (false, None)
        };
        sub.sequenced = sequenced;
        let entry = self.entry_or_create(name);
        let mut inner = entry.inner.lock();
        let mut next: Vec<SubscriberRef> = inner
            .subs
            .iter()
            .filter(|s| s.conn != sub.conn)
            .cloned()
            .collect();
        next.push(sub);
        inner.subs = Arc::new(next);
        let next_seq = inner.next_seq;
        let (replay, gap) = match from {
            None => (Vec::new(), None),
            Some(f) if f >= next_seq => {
                // Nothing to replay. Requesting *beyond* the counter
                // means the client's high-water predates this broker
                // incarnation (restart reset the sequence space):
                // surface that discontinuity as a gap, never silence.
                let gap = if f > next_seq {
                    Some((f, next_seq))
                } else {
                    None
                };
                (Vec::new(), gap)
            }
            Some(f) => {
                let oldest = inner.ring.front().map(|(s, _)| *s);
                match oldest {
                    Some(o) if f >= o => {
                        let replay = inner
                            .ring
                            .iter()
                            .filter(|(s, _)| *s >= f)
                            .map(|(s, p)| (*s, Arc::clone(p)))
                            .collect();
                        (replay, None)
                    }
                    _ => {
                        // The requested point was evicted: replay what
                        // is still retained and report the hole before
                        // it.
                        let resume_from = oldest.unwrap_or(next_seq);
                        let replay = inner
                            .ring
                            .iter()
                            .map(|(s, p)| (*s, Arc::clone(p)))
                            .collect();
                        (replay, Some((f, resume_from)))
                    }
                }
            }
        };
        SubscribeOutcome {
            replay,
            gap,
            next_seq,
            sequenced,
        }
    }

    /// Removes connection `conn` from `name`'s snapshot. The channel
    /// entry is dropped only when that loses nothing (see the module
    /// docs): an entry with history keeps its (bounded) ring so
    /// disconnected clients can still resume, and one with counts the
    /// harvest has not read keeps them for the next report.
    pub fn unsubscribe(&self, name: &str, conn: u64) {
        let mut shard = self.shard(name).write();
        if let Some(entry) = shard.get(name) {
            let mut inner = entry.inner.lock();
            let next: Vec<SubscriberRef> = inner
                .subs
                .iter()
                .filter(|s| s.conn != conn)
                .cloned()
                .collect();
            inner.subs = Arc::new(next);
            let dead = entry.prunable(&inner);
            drop(inner);
            if dead {
                shard.remove(name);
            }
        }
    }

    /// Number of subscribers currently on `name`.
    pub fn channel_subscribers(&self, name: &str) -> usize {
        self.snapshot(name).map_or(0, |s| s.len())
    }

    /// `(retained frames, next sequence)` of `name` — observability for
    /// tests and tooling.
    pub fn retained(&self, name: &str) -> (usize, u64) {
        match self.shard(name).read().get(name) {
            Some(entry) => {
                let inner = entry.inner.lock();
                (inner.ring.len(), inner.next_seq)
            }
            None => (0, 0),
        }
    }

    /// Closes one load interval: diffs every entry's counters against
    /// its previous harvest, reads its subscriber gauge in the same
    /// pass, and prunes the entries that lose nothing by going. Each
    /// shard is read under its shared lock; only a shard with a
    /// prunable entry is then taken exclusively.
    pub fn load_report(&self) -> BrokerLoadReport {
        let tick = self.reports.fetch_add(1, Ordering::Relaxed);
        let mut channels = Vec::new();
        for shard in &self.shards {
            let mut prune = false;
            for (name, entry) in shard.read().iter() {
                let mut inner = entry.inner.lock();
                let now = entry.load.read();
                let delta = now.delta_since(&inner.harvested, inner.subs.len() as u32);
                inner.harvested = now;
                // Keep any entry with a nonzero field: under relaxed
                // loads a harvest can catch a publish mid-increment and
                // see e.g. only its bytes_in — that skewed delta already
                // advanced the snapshot, so dropping it here would lose
                // the bytes from the telescoped sums forever.
                if delta == ChannelTick::default() {
                    prune = true;
                } else {
                    channels.push((name.to_string(), delta));
                }
            }
            if prune {
                shard.write().retain(|_, entry| {
                    let inner = entry.inner.lock();
                    !entry.prunable(&inner)
                });
            }
        }
        BrokerLoadReport::new(tick, channels)
    }

    /// Total number of (channel, subscriber) pairs across all shards.
    pub fn subscription_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.read()
                    .values()
                    .map(|e| e.inner.lock().subs.len())
                    .sum::<usize>()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sender() -> OutboxSender {
        OutboxSender::new(1024)
    }

    fn sub(conn: u64, sequenced: bool) -> SubscriberRef {
        SubscriberRef {
            conn,
            outbox: sender(),
            sequenced,
        }
    }

    fn plain_index(shards: usize) -> ShardedIndex {
        ShardedIndex::new(shards, 0, 0)
    }

    /// The seed broker keyed its fan-out index by `Channel(fnv64(name))`,
    /// so two names with colliding hashes shared one subscriber set and
    /// cross-delivered. With a single shard every name's shard hash
    /// "collides", the strongest possible collision regime — entries must
    /// still stay distinct because the map key is the full name.
    #[test]
    fn colliding_shard_hashes_keep_channels_distinct() {
        let index = plain_index(1);
        index.subscribe("alpha", sub(1, false), None);
        index.subscribe("bravo", sub(2, false), None);
        let alpha = index.snapshot("alpha").expect("alpha indexed");
        let bravo = index.snapshot("bravo").expect("bravo indexed");
        assert_eq!(alpha.iter().map(|s| s.conn).collect::<Vec<_>>(), vec![1]);
        assert_eq!(bravo.iter().map(|s| s.conn).collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn snapshots_are_immutable_rcu_views() {
        let index = plain_index(4);
        index.subscribe("ch", sub(1, false), None);
        let before = index.snapshot("ch").unwrap();
        index.subscribe("ch", sub(2, false), None);
        // The old snapshot is unchanged; the new one sees both.
        assert_eq!(before.len(), 1);
        assert_eq!(index.snapshot("ch").unwrap().len(), 2);
    }

    #[test]
    fn resubscribe_replaces_same_connection() {
        let index = ShardedIndex::new(1, 8, 1 << 20);
        index.subscribe("ch", sub(1, false), None);
        index.subscribe("ch", sub(1, true), None);
        let snap = index.snapshot("ch").unwrap();
        assert_eq!(snap.len(), 1);
        assert!(snap[0].sequenced);
    }

    #[test]
    fn unsubscribe_clears_empty_channels() {
        let index = plain_index(2);
        index.subscribe("ch", sub(7, false), None);
        assert_eq!(index.subscription_count(), 1);
        index.unsubscribe("ch", 7);
        assert!(index.snapshot("ch").is_none());
        assert_eq!(index.subscription_count(), 0);
    }

    #[test]
    fn publish_assigns_monotonic_sequences_and_retains() {
        let index = ShardedIndex::new(2, 4, 1 << 20);
        for i in 0..3u8 {
            let fanout = index.publish("ch", &[i]);
            assert_eq!(fanout.seq, Some(i as u64));
        }
        assert_eq!(index.retained("ch"), (3, 3));
        // No subscriber yet, but the entry retains — and the load gauge
        // reads zero.
        assert_eq!(index.channel_subscribers("ch"), 0);
        let report = index.load_report();
        assert!(report.channels.iter().all(|(_, t)| t.subscribers == 0));
    }

    #[test]
    fn retention_evicts_oldest_by_frames_and_bytes() {
        let index = ShardedIndex::new(1, 2, 1 << 20);
        for i in 0..5u8 {
            index.publish("ch", &[i]);
        }
        let out = index.subscribe("ch", sub(1, true), Some(0));
        // Frames 0..=2 evicted by the 2-frame cap.
        assert_eq!(out.gap, Some((0, 3)));
        assert_eq!(
            out.replay.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            vec![3, 4]
        );

        let bytes = ShardedIndex::new(1, 64, 8);
        bytes.publish("ch", &[0; 6]);
        bytes.publish("ch", &[1; 6]);
        // 12 bytes > 8-byte cap ⇒ the first frame is evicted.
        assert_eq!(bytes.retained("ch"), (1, 2));
    }

    #[test]
    fn resume_replays_suffix_without_gap() {
        let index = ShardedIndex::new(1, 16, 1 << 20);
        for i in 0..4u8 {
            index.publish("ch", &[i]);
        }
        let out = index.subscribe("ch", sub(1, true), Some(2));
        assert_eq!(out.gap, None);
        assert_eq!(
            out.replay.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            vec![2, 3]
        );
        assert_eq!(out.next_seq, 4);
        // Resuming exactly at the live edge replays nothing, no gap.
        let live = index.subscribe("ch", sub(2, true), Some(4));
        assert!(live.replay.is_empty());
        assert_eq!(live.gap, None);
    }

    #[test]
    fn resume_beyond_counter_reports_restart_gap() {
        // A broker restart resets the sequence space; a client holding
        // a high-water from the previous incarnation must get a gap,
        // not silence.
        let index = ShardedIndex::new(1, 16, 1 << 20);
        index.publish("ch", b"x");
        let out = index.subscribe("ch", sub(1, true), Some(40));
        assert!(out.replay.is_empty());
        assert_eq!(out.gap, Some((40, 1)));
    }

    #[test]
    fn retention_disabled_degrades_to_plain_subscription() {
        let index = plain_index(1);
        index.publish("ch", b"lost");
        let out = index.subscribe("ch", sub(1, true), Some(0));
        assert!(!out.sequenced);
        assert!(out.replay.is_empty());
        assert_eq!(out.gap, None);
        let fanout = index.publish("ch", b"live");
        assert_eq!(fanout.seq, None);
        assert_eq!(fanout.subs.len(), 1);
        assert!(!fanout.subs[0].sequenced);
    }

    #[test]
    fn entry_with_history_survives_unsubscribe() {
        let index = ShardedIndex::new(1, 16, 1 << 20);
        index.subscribe("ch", sub(1, true), None);
        index.publish("ch", b"a");
        index.unsubscribe("ch", 1);
        assert_eq!(index.channel_subscribers("ch"), 0);
        // The ring is still there: a resume from 0 replays it.
        let out = index.subscribe("ch", sub(1, true), Some(0));
        assert_eq!(out.replay.len(), 1);
        assert_eq!(out.gap, None);
    }

    /// Publishes on `name` and counts it as the broker does: `bytes_in`
    /// received, `bytes_out` of frames handed to `delivered` outboxes.
    fn publish_counted(
        index: &ShardedIndex,
        name: &str,
        bytes_in: u64,
        bytes_out: u64,
        delivered: u64,
    ) {
        index
            .publish(name, b"x")
            .count(bytes_in, bytes_out, delivered);
    }

    #[test]
    fn deltas_telescope_across_harvests() {
        let index = plain_index(4);
        for conn in 1..=3 {
            index.subscribe("alpha", sub(conn, false), None);
        }
        publish_counted(&index, "alpha", 10, 300, 3);
        publish_counted(&index, "alpha", 10, 300, 3);
        let r1 = index.load_report();
        assert_eq!(r1.tick, 0);
        assert_eq!(r1.egress_bytes, 600);
        assert_eq!(r1.ingress_bytes, 20);
        assert_eq!(r1.sent_messages, 6);
        let (name, t) = &r1.channels[0];
        assert_eq!(name, "alpha");
        assert_eq!(t.publications, 2);
        assert_eq!(t.deliveries, 6);
        assert_eq!(t.bytes_out, 600);
        assert_eq!(t.subscribers, 3);

        index.unsubscribe("alpha", 2);
        index.unsubscribe("alpha", 3);
        publish_counted(&index, "alpha", 10, 100, 1);
        let r2 = index.load_report();
        assert_eq!(r2.tick, 1);
        assert_eq!(r2.egress_bytes, 100);
        assert_eq!(r2.channels[0].1.publications, 1);
    }

    #[test]
    fn idle_subscriber_channels_reported_exactly_once() {
        let index = plain_index(4);
        index.subscribe("quiet", sub(1, false), None);
        index.subscribe("quiet", sub(2, false), None);
        let r = index.load_report();
        let quiet: Vec<_> = r.channels.iter().filter(|(n, _)| n == "quiet").collect();
        assert_eq!(quiet.len(), 1);
        assert_eq!(quiet[0].1.subscribers, 2);
        assert_eq!(quiet[0].1.publications, 0);
    }

    /// Writer threads hammering overlapping channels while a harvester
    /// snapshots mid-flight: the telescoped reports must sum to exactly
    /// what was published (no tearing, no double counting, no lost
    /// increments). Retention is off and nobody subscribes, so every
    /// harvest that finds a channel quiet tries to prune it while the
    /// writers race to publish on it.
    #[test]
    fn counters_are_exact_under_concurrent_churn() {
        const WRITERS: usize = 8;
        const PER_WRITER: u64 = 20_000;
        const CHANNELS: usize = 13; // not a power of two: shards collide

        let index = Arc::new(plain_index(4));
        let mut workers = Vec::new();
        for w in 0..WRITERS {
            let index = Arc::clone(&index);
            workers.push(std::thread::spawn(move || {
                for i in 0..PER_WRITER {
                    let name = format!("ch-{}", (w as u64 + i) % CHANNELS as u64);
                    publish_counted(&index, &name, 7, 64, 2);
                }
            }));
        }
        // Harvest concurrently with the writers, accumulating the
        // deltas; whatever the interleaving, the telescoped sum plus a
        // final quiescent harvest must equal the ground truth.
        let mut sums: HashMap<String, ChannelTick> = HashMap::new();
        let mut total_egress = 0u64;
        let mut total_ingress = 0u64;
        let mut total_sent = 0u64;
        let mut absorb = |report: BrokerLoadReport| {
            total_egress += report.egress_bytes;
            total_ingress += report.ingress_bytes;
            total_sent += report.sent_messages;
            for (name, tick) in report.channels {
                sums.entry(name).or_default().merge(&tick);
            }
        };
        while workers.iter().any(|w| !w.is_finished()) {
            absorb(index.load_report());
        }
        for w in workers {
            w.join().unwrap();
        }
        absorb(index.load_report());

        let published = WRITERS as u64 * PER_WRITER;
        assert_eq!(total_ingress, published * 7);
        assert_eq!(total_egress, published * 64);
        assert_eq!(total_sent, published * 2);
        let counted: u64 = sums.values().map(|t| t.publications).sum();
        assert_eq!(counted, published, "a publication was lost or doubled");
        for (name, t) in &sums {
            assert_eq!(t.deliveries, t.publications * 2, "torn deltas on {name}");
            assert_eq!(t.bytes_in, t.publications * 7, "torn deltas on {name}");
            assert_eq!(t.bytes_out, t.publications * 64, "torn deltas on {name}");
        }
        assert_eq!(sums.len(), CHANNELS);
    }

    #[test]
    fn dead_channels_are_pruned_and_resurrect_cleanly() {
        let index = plain_index(1);
        publish_counted(&index, "ephemeral", 5, 0, 0);
        let r1 = index.load_report();
        assert_eq!(r1.channels.len(), 1);
        // Second harvest with no traffic and no subscribers prunes it.
        let r2 = index.load_report();
        assert!(r2.channels.is_empty());
        assert!(index.shards[0].read().is_empty());
        // A later publication starts counting from zero again.
        publish_counted(&index, "ephemeral", 5, 0, 0);
        let r3 = index.load_report();
        assert_eq!(r3.channels[0].1.publications, 1);
    }

    #[test]
    fn report_totals_are_the_sums_of_the_channel_deltas() {
        let index = ShardedIndex::new(4, 8, 1 << 20);
        index.subscribe("a", sub(1, false), None);
        index.subscribe("b", sub(2, true), None);
        index.subscribe("idle", sub(3, false), None);
        for (name, bytes_in, bytes_out, delivered) in [
            ("a", 3, 40, 1),
            ("b", 9, 50, 1),
            ("a", 4, 40, 1),
            ("nobody", 6, 0, 0),
        ] {
            publish_counted(&index, name, bytes_in, bytes_out, delivered);
        }
        for report in [index.load_report(), index.load_report()] {
            let sum = |f: fn(&ChannelTick) -> u64| report.channels.iter().map(|(_, t)| f(t)).sum();
            assert_eq!(report.egress_bytes, sum(|t| t.bytes_out));
            assert_eq!(report.ingress_bytes, sum(|t| t.bytes_in));
            assert_eq!(report.sent_messages, sum(|t| t.deliveries));
        }
    }

    /// On a retention-off broker no history keeps a subscriber-less
    /// entry alive: the last unsubscribe must still leave it until the
    /// harvest has read its counts, and an in-flight publish's too.
    #[test]
    fn last_unsubscribe_between_harvests_loses_no_count() {
        let index = plain_index(1);
        index.subscribe("ch", sub(1, false), None);
        publish_counted(&index, "ch", 10, 50, 1);
        index.load_report();
        publish_counted(&index, "ch", 10, 50, 1);
        // A publish still in flight when the subscriber leaves.
        let in_flight = index.publish("ch", b"x");
        index.unsubscribe("ch", 1);
        in_flight.count(10, 50, 1);
        let report = index.load_report();
        let (name, t) = &report.channels[0];
        assert_eq!(name, "ch");
        assert_eq!((t.publications, t.deliveries, t.subscribers), (2, 2, 0));
        // Now everything is harvested, and the next harvest prunes it.
        assert!(index.load_report().channels.is_empty());
        assert!(index.shards[0].read().is_empty());
    }
}
