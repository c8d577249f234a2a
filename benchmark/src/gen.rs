//! The publishing half of the generator thread. Open-loop phases follow a
//! Poisson schedule and stamp each publication with the instant it was
//! *due*, so that a stall is charged to every publication it delays;
//! closed-loop phases publish as fast as a window of unfinished
//! publications allows.

use std::io::Write;
use std::iter::Peekable;
use std::net::TcpStream;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

use dynamoth_pubsub::RoutedClient;

use crate::raw::{self, SAMPLED_BIT};
use crate::sched::{Arrival, Poisson, SplitMix64};
use crate::shape::{publication_id, Load, Phase, Shared, PROBE_BASE};
use crate::trace::{self, Recorder, Span};
use crate::workload::{probe_channel, Workload};

/// Gap between raw probe publications of a traced `routed_*` run.
const PROBE_GAP_NS: u64 = 7_000_000;

/// Where publications go: the raw publisher socket of a `broker_*`
/// workload, or the publisher `RoutedClient` of a `routed_*` one (plus, in
/// a traced run, one raw probe socket per broker).
pub enum Sink {
    Raw(TcpStream),
    Routed {
        client: Arc<RoutedClient>,
        probes: Vec<TcpStream>,
    },
}

/// A sampled raw publication whose acknowledgement is to be timed:
/// `(publisher socket, index on that socket, write end, publication)`.
pub type AckWatch = (usize, u64, u64, u64);

pub struct GenOut {
    /// Publications per channel.
    pub per_channel: Vec<u64>,
    /// How late each open-loop publication left, ns, per phase.
    pub lateness: Vec<Vec<u32>>,
    pub spans: Vec<Span>,
    pub ack_watch: Vec<AckWatch>,
}

pub struct Gen<'a> {
    w: &'a Workload,
    shared: &'a Shared,
    phases: &'a [Phase],
    seed: u64,
    sink: Sink,
    rec: Recorder,
    /// Index of the current phase; `phases.len()` once all are over.
    phase: usize,
    arrivals: Option<Peekable<Poisson>>,
    closed_rng: SplitMix64,
    chan_seq: Vec<u64>,
    issued: u64,
    batch: Vec<Arrival>,
    payload: Vec<u8>,
    wire: Vec<u8>,
    lateness: Vec<Vec<u32>>,
    ack_watch: Vec<AckWatch>,
    probes_sent: Vec<u64>,
    next_probe_ns: u64,
}

impl<'a> Gen<'a> {
    pub fn new(
        w: &'a Workload,
        shared: &'a Shared,
        phases: &'a [Phase],
        seed: u64,
        sink: Sink,
    ) -> Gen<'a> {
        let probes = match &sink {
            Sink::Routed { probes, .. } => probes.len(),
            Sink::Raw(_) => 0,
        };
        Gen {
            w,
            shared,
            phases,
            seed,
            sink,
            rec: Recorder::new("bm-gen", 1),
            phase: 0,
            arrivals: None,
            closed_rng: SplitMix64::new(seed ^ 0xC105_ED10),
            chan_seq: vec![0; w.channels.len()],
            issued: 0,
            batch: Vec::new(),
            payload: vec![b'.'; w.payload_len],
            wire: Vec::with_capacity(64 * 1024),
            lateness: vec![Vec::new(); phases.len()],
            ack_watch: Vec::new(),
            probes_sent: vec![0; probes],
            next_probe_ns: phases[0].end_ns,
        }
    }

    pub fn finished(&self) -> bool {
        self.phase == self.phases.len()
    }

    /// Publishes whatever is due at this instant. `done` is how many
    /// publications the receiving half has seen finish (see
    /// [`Drain::finished_publications`](crate::drain::Drain)). Returns
    /// whether anything was published.
    pub fn step(&mut self, done: u64) -> bool {
        let now = self.shared.now_ns();
        let (phases, idx) = (self.phases, self.phase);
        let Some(phase) = phases.get(idx) else {
            return false;
        };
        if now < phase.start_ns {
            return false;
        }
        if !self.probes_sent.is_empty() && now >= self.next_probe_ns {
            self.send_probe();
        }
        self.batch.clear();
        match phase.load {
            Load::Open(rate) => {
                let (w, seed, issued) = (self.w, self.seed, self.issued);
                let arrivals = self.arrivals.get_or_insert_with(|| {
                    Poisson::new(
                        seed,
                        rate,
                        phase.start_ns,
                        phase.end_ns,
                        w.channels.len(),
                        w.choice,
                        issued,
                    )
                    .peekable()
                });
                while let Some(a) = arrivals.next_if(|a| a.due_ns <= now) {
                    self.batch.push(a);
                }
                // The schedule ends with the phase; what it still held is
                // published before the next phase begins.
                if arrivals.peek().is_none() && now >= phase.end_ns {
                    self.arrivals = None;
                    self.phase += 1;
                }
            }
            Load::Closed(limit) => {
                if now >= phase.end_ns {
                    self.phase += 1;
                } else {
                    let in_flight = self.issued.saturating_sub(done);
                    for k in 0..limit.saturating_sub(in_flight) {
                        let channel = self.w.choice.pick(
                            self.issued + k,
                            self.w.channels.len(),
                            &mut self.closed_rng,
                        );
                        self.batch.push(Arrival {
                            due_ns: now,
                            channel,
                        });
                    }
                }
            }
        }
        if self.batch.is_empty() {
            return false;
        }
        self.send(idx, now);
        true
    }

    /// Hands the batch of due publications to the program.
    fn send(&mut self, phase_idx: usize, batch_start: u64) {
        let phase = &self.phases[phase_idx];
        // (publication, due, encode start, encode end, index on the
        // socket) of sampled ones.
        let mut sampled: Vec<(u64, u64, u64, u64, u64)> = Vec::new();
        let open = matches!(phase.load, Load::Open(_));
        let late = &mut self.lateness[phase_idx];
        self.wire.clear();
        for a in &self.batch {
            let seq = self.chan_seq[a.channel];
            self.chan_seq[a.channel] += 1;
            self.issued += 1;
            let sample = phase.traced && self.issued.is_multiple_of(phase.sample_every);
            let word = if sample { seq | SAMPLED_BIT } else { seq };
            raw::write_stamp(&mut self.payload, a.due_ns, word);
            if open {
                late.push(batch_start.saturating_sub(a.due_ns).min(u32::MAX as u64) as u32);
            }
            let publication = publication_id(a.channel, seq);
            let channel = self.w.channels[a.channel].as_str();
            let t0 = if sample { self.shared.now_ns() } else { 0 };
            match &self.sink {
                Sink::Raw(_) => {
                    raw::encode_publish(channel, &self.payload, &mut self.wire);
                    if sample {
                        let t1 = self.shared.now_ns();
                        sampled.push((publication, a.due_ns, t0, t1, self.issued - 1));
                    }
                }
                Sink::Routed { client, .. } => {
                    client.publish(channel, &self.payload);
                    if sample {
                        let t1 = self.shared.now_ns();
                        self.rec.root("pub.e2e", publication, a.due_ns);
                        let root = trace::root_id(publication);
                        self.rec.span("gen.wait", root, publication, a.due_ns, t0);
                        self.rec.span("router.publish", root, publication, t0, t1);
                    }
                }
            }
        }
        if let Sink::Raw(stream) = &mut self.sink {
            let w0 = self.shared.now_ns();
            stream
                .write_all(&self.wire)
                .expect("publisher socket write");
            let w1 = self.shared.now_ns();
            for (publication, due, e0, e1, index) in sampled {
                self.rec.root("pub.e2e", publication, due);
                let root = trace::root_id(publication);
                self.rec
                    .span("gen.wait", root, publication, due, batch_start.max(due));
                let b = self
                    .rec
                    .span("gen.batch", root, publication, batch_start, w1);
                self.rec.span("resp.encode", b, publication, e0, e1);
                self.rec.span("broker.write", b, publication, w0, w1);
                self.ack_watch.push((0, index, w1, publication));
            }
        }
        self.shared
            .published
            .fetch_add(self.batch.len() as u64, Relaxed);
    }

    /// One raw publication straight to a broker, next to the routed
    /// traffic: the only publications of a `routed_*` run whose broker
    /// transit can be timed from outside.
    fn send_probe(&mut self) {
        let Sink::Routed { probes, .. } = &mut self.sink else {
            return;
        };
        let k: u64 = self.probes_sent.iter().sum();
        let broker = (k % probes.len() as u64) as usize;
        let publication = PROBE_BASE + k + 1;
        let start = self.shared.now_ns();
        let mut payload = [0u8; raw::STAMP_LEN];
        raw::write_stamp(&mut payload, start, k | SAMPLED_BIT);
        self.wire.clear();
        raw::encode_publish(&probe_channel(broker), &payload, &mut self.wire);
        let w0 = self.shared.now_ns();
        probes[broker]
            .write_all(&self.wire)
            .expect("probe socket write");
        let w1 = self.shared.now_ns();
        self.rec.root("probe.e2e", publication, start);
        let root = trace::root_id(publication);
        let b = self.rec.span("gen.batch", root, publication, start, w1);
        self.rec.span("resp.encode", b, publication, start, w0);
        self.rec.span("broker.write", b, publication, w0, w1);
        self.ack_watch
            .push((broker, self.probes_sent[broker], w1, publication));
        self.probes_sent[broker] += 1;
        self.next_probe_ns = start + PROBE_GAP_NS;
    }

    pub fn finish(self) -> GenOut {
        GenOut {
            per_channel: self.chan_seq,
            lateness: self.lateness,
            spans: self.rec.spans,
            ack_watch: self.ack_watch,
        }
    }
}
