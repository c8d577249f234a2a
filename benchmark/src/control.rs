//! What the main thread does while the generator thread loads the
//! program: it keeps time. A counter snapshot at every phase boundary, one
//! load harvest per broker per second (the broker-side half of the control
//! plane, as a reporter would run it), and the scripted migrations of
//! `routed_migration`. Snapshots are taken every whole second, which every
//! phase boundary is.

use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use dynamoth_pubsub::{
    ChannelChange, ChannelMapping, ClientEvent, DropCause, PlanId, RoutedClient, ServerId,
};

use crate::procfs;
use crate::shape::{Phase, Shared, SEC};
use crate::trace::{Recorder, Snapshot, Span};
use crate::workload::{Kind, Sut, Workload};

/// How long a migration is watched for the routers to learn of it.
const SWITCH_PATIENCE: Duration = Duration::from_millis(400);

pub struct Control<'a> {
    w: &'a Workload,
    shared: &'a Shared,
    sut: &'a mut Sut,
    /// Publisher first, then the subscribers.
    routers: Vec<Arc<RoutedClient>>,
    rec: Recorder,
    channels_reported: f64,
    snapshots: Vec<Snapshot>,
    refused: u64,
    gaps: u64,
}

pub struct ControlOut {
    /// One per second, from the start of the first phase to the end of the
    /// last.
    pub snapshots: Vec<Snapshot>,
    /// Publications a router gave up on (queue full, retries exhausted).
    pub refused: u64,
    /// Gap events from the routers: none is expected without an outage.
    pub gaps: u64,
    pub spans: Vec<Span>,
}

enum Event {
    Snapshot,
    Harvest,
    Migrate,
}

impl<'a> Control<'a> {
    pub fn new(w: &'a Workload, shared: &'a Shared, sut: &'a mut Sut) -> Control<'a> {
        let routers = sut
            .publisher
            .iter()
            .chain(&sut.subscribers)
            .cloned()
            .collect();
        Control {
            w,
            shared,
            sut,
            routers,
            rec: Recorder::new("main", 3),
            channels_reported: 0.0,
            snapshots: Vec::new(),
            refused: 0,
            gaps: 0,
        }
    }

    /// Runs the timetable of the whole run: returns after the snapshot at
    /// the end of the last phase.
    pub fn keep_time(&mut self, phases: &[Phase]) {
        let (first_s, end_s) = (
            phases[0].start_ns / SEC,
            phases.last().map_or(0, |p| p.end_ns / SEC),
        );
        let mut timetable: Vec<(u64, Event)> = (first_s..=end_s)
            .map(|s| (s * SEC, Event::Snapshot))
            .collect();
        for s in first_s..end_s {
            timetable.push((s * SEC + SEC / 2, Event::Harvest));
            // Migrations begin with the first measured phase.
            if self.w.kind == Kind::RoutedMigration && s * SEC >= phases[0].end_ns {
                timetable.push((s * SEC + SEC / 20, Event::Migrate));
            }
        }
        timetable.sort_by_key(|(t, _)| *t);
        for (t_ns, event) in timetable {
            let now = self.shared.now_ns();
            if t_ns > now {
                thread::sleep(Duration::from_nanos(t_ns - now));
            }
            match event {
                Event::Snapshot => {
                    let snapshot = self.snapshot();
                    self.snapshots.push(snapshot);
                }
                Event::Harvest => self.harvest(),
                Event::Migrate => self.migrate(),
            }
        }
    }

    fn snapshot(&self) -> Snapshot {
        let mut c: Vec<(String, f64)> = Vec::new();
        let mut add = |name: &str, v: f64| match c.iter_mut().find(|(k, _)| k == name) {
            Some((_, total)) => *total += v,
            None => c.push((name.to_owned(), v)),
        };
        let t_ns = self.shared.now_ns();
        for (comm, ns) in procfs::thread_cpu_ns() {
            add(&format!("cpu.{comm}"), ns as f64);
        }
        for b in &self.sut.brokers {
            let health = b.health();
            add("broker.flush_frames", health.flush.frames as f64);
            add("broker.flush_writes", health.flush.writes as f64);
            add("broker.dropped_frames", health.dropped_frames as f64);
            add("broker.overflow_kills", health.overflow_kills as f64);
            add("broker.protocol_errors", health.protocol_errors as f64);
            for l in b.per_loop_flush_stats() {
                add("broker.loop_bytes", l.bytes as f64);
                add("broker.loop_wakeups", l.wakeups as f64);
            }
        }
        for r in &self.routers {
            let s = r.stats();
            add(
                "router.duplicates_suppressed",
                s.duplicates_suppressed as f64,
            );
            add("router.stale_control_frames", s.stale_control_frames as f64);
            add("router.switches_applied", s.switches_applied as f64);
            add("router.moved_applied", s.moved_applied as f64);
        }
        for d in &self.sut.sidecars {
            let s = d.stats();
            add("dispatcher.forwarded", s.forwarded as f64);
            add("dispatcher.switches_emitted", s.switches_emitted as f64);
            add(
                "dispatcher.duplicates_suppressed",
                s.duplicates_suppressed as f64,
            );
            add("dispatcher.expired", s.expired as f64);
        }
        let published = self.shared.published.load(Relaxed) as f64;
        add("gen.published", published);
        add("gen.owed", published * self.w.fanout as f64);
        add(
            "gen.deliveries",
            self.shared.deliveries.load(Relaxed) as f64,
        );
        add(
            "gen.over_limit",
            self.shared.over_limit.load(Relaxed) as f64,
        );
        add("gen.polls", self.shared.polls.load(Relaxed) as f64);
        add("gen.poll_hits", self.shared.poll_hits.load(Relaxed) as f64);
        add(
            "gen.migrations",
            self.shared.migrations.load(Relaxed) as f64,
        );
        add("load.channels_reported", self.channels_reported);
        Snapshot { t_ns, counters: c }
    }

    fn harvest(&mut self) {
        self.channels_reported = 0.0;
        for b in &self.sut.brokers {
            let t0 = self.shared.now_ns();
            let report = b.load_report();
            let t1 = self.shared.now_ns();
            self.rec.span("load.harvest", 0, 0, t0, t1);
            self.channels_reported += report.channels.len() as f64;
        }
        self.drain_events();
    }

    /// Empties the routers' event queues, where refused publications and
    /// gaps surface.
    fn drain_events(&mut self) {
        for r in &self.routers {
            while let Some(e) = r.try_event() {
                match e.event {
                    ClientEvent::Dropped {
                        cause: DropCause::QueueFull { .. } | DropCause::RetriesExhausted { .. },
                    } => self.refused += 1,
                    ClientEvent::Gap { .. } => self.gaps += 1,
                    _ => {}
                }
            }
        }
    }

    /// Moves the next channel in turn from its home to the next broker, as
    /// the balancer would: the change installed on every sidecar under a
    /// rising plan id. Then watches until the publisher's and every
    /// subscriber's local plan shows the new home.
    fn migrate(&mut self) {
        let m = self.shared.migrations.fetch_add(1, Relaxed) + 1;
        let c = ((m - 1) % self.w.channels.len() as u64) as usize;
        let n = self.sut.brokers.len();
        let (old, new) = (self.sut.homes[c], (self.sut.homes[c] + 1) % n);
        self.sut.homes[c] = new;
        let channel = &self.w.channels[c];
        let target = ChannelMapping::Single(ServerId::from_index(new));
        let installed = self.shared.now_ns();
        for sidecar in &self.sut.sidecars {
            let change = ChannelChange {
                channel: channel.clone(),
                old: ChannelMapping::Single(ServerId::from_index(old)),
                new: target.clone(),
            };
            let t0 = self.shared.now_ns();
            sidecar.install(change, PlanId(m));
            let t1 = self.shared.now_ns();
            self.rec.span("dispatcher.install", 0, 0, t0, t1);
        }
        let knows = |r: &RoutedClient| r.local_mapping(channel).is_some_and(|(m, _)| m == target);
        let (publisher, subscribers) = self.routers.split_first().expect("routed workload");
        let (mut pub_seen, mut sub_seen) = (false, false);
        let deadline = Instant::now() + SWITCH_PATIENCE;
        while !(pub_seen && sub_seen) && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(1));
            let now = self.shared.now_ns();
            if !pub_seen && knows(publisher) {
                pub_seen = true;
                self.rec.span("dispatcher.switch_pub", 0, 0, installed, now);
            }
            if !sub_seen && subscribers.iter().all(|s| knows(s)) {
                sub_seen = true;
                self.rec.span("dispatcher.switch_sub", 0, 0, installed, now);
            }
        }
    }

    pub fn finish(mut self) -> ControlOut {
        self.drain_events();
        ControlOut {
            snapshots: self.snapshots,
            refused: self.refused,
            gaps: self.gaps,
            spans: self.rec.spans,
        }
    }
}
