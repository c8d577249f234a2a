//! The shape of a run, the same on every commit: its phases, and the
//! counters the generator thread and the main thread share.

use std::sync::atomic::{AtomicBool, AtomicU64};
use std::time::Instant;

use crate::workload::Workload;

pub const SEC: u64 = 1_000_000_000;
/// Publications sampled for tracing per second, roughly.
const SAMPLED_PER_S: f64 = 400.0;
/// Publication ids of probes start here, above any workload publication.
pub const PROBE_BASE: u64 = 0xFFFF << 40;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// Poisson arrivals at this many publications per second.
    Open(f64),
    /// As fast as this many unfinished publications allow.
    Closed(u64),
}

#[derive(Debug, Clone)]
pub struct Phase {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub load: Load,
    /// Record spans for sampled publications during this phase.
    pub traced: bool,
    pub sample_every: u64,
}

impl Phase {
    /// The whole seconds of the run this phase covers: the windows its
    /// percentiles and rates are taken over. One second is the period of
    /// everything the benchmark does on a timetable (a harvest, a
    /// migration), so every window holds one of each.
    pub fn windows(&self) -> std::ops::Range<usize> {
        (self.start_ns / SEC) as usize..(self.end_ns / SEC) as usize
    }
}

/// The phases of a round measuring `seconds`. Warm-up comes first: it runs
/// from the round's epoch (the kept set-up takes its first milliseconds) to
/// whole second `warm_end_s`. Untraced: warm-up, `r1`, `r2`, then `cl` where
/// the workload has one. Traced: warm-up, `r1`, `r2`, then `r2` again with
/// span recording off, which is what the tracing overhead is taken against.
pub fn phases(w: &Workload, seconds: u64, traced: bool, warm_end_s: u64) -> Vec<Phase> {
    let s = seconds.max(3);
    let plan: Vec<(&'static str, u64, Load, bool)> = if traced {
        let r1 = (s * 3 / 10).max(1);
        let r2 = ((s - r1) / 2).max(1);
        vec![
            ("r1", r1, Load::Open(w.r1), true),
            ("r2", r2, Load::Open(w.r2), true),
            ("r2_untraced", (s - r1 - r2).max(1), Load::Open(w.r2), false),
        ]
    } else if let Some(limit) = w.cl_in_flight {
        let r = (s * 3 / 8).max(1);
        vec![
            ("r1", r, Load::Open(w.r1), false),
            ("r2", r, Load::Open(w.r2), false),
            ("cl", (s - 2 * r).max(1), Load::Closed(limit), false),
        ]
    } else {
        vec![
            ("r1", s / 2, Load::Open(w.r1), false),
            ("r2", s - s / 2, Load::Open(w.r2), false),
        ]
    };
    let mut out = vec![Phase {
        name: "warmup",
        start_ns: 0,
        end_ns: warm_end_s * SEC,
        load: Load::Open(w.r1),
        traced: false,
        sample_every: 1,
    }];
    for (name, secs, load, traced) in plan {
        let start_ns = out.last().map_or(0, |p| p.end_ns);
        let sample_every = match load {
            Load::Open(rate) => ((rate / SAMPLED_PER_S).round() as u64).max(1),
            Load::Closed(_) => 1,
        };
        out.push(Phase {
            name,
            start_ns,
            end_ns: start_ns + secs * SEC,
            load,
            traced,
            sample_every,
        });
    }
    out
}

/// Counters the generator thread writes and the main thread reads at
/// phase boundaries. All are statistics: `Relaxed` throughout.
pub struct Shared {
    pub epoch: Instant,
    pub published: AtomicU64,
    pub deliveries: AtomicU64,
    pub over_limit: AtomicU64,
    pub polls: AtomicU64,
    pub poll_hits: AtomicU64,
    pub migrations: AtomicU64,
    /// Set by the main thread once everything owed has arrived (or the
    /// quiesce period ran out): the generator thread stops receiving.
    pub stop: AtomicBool,
}

impl Shared {
    pub fn new(epoch: Instant) -> Shared {
        Shared {
            epoch,
            published: AtomicU64::new(0),
            deliveries: AtomicU64::new(0),
            over_limit: AtomicU64::new(0),
            polls: AtomicU64::new(0),
            poll_hits: AtomicU64::new(0),
            migrations: AtomicU64::new(0),
            stop: AtomicBool::new(false),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// Publication id of `(channel, per-channel sequence)`: also the id of its
/// root span. Never 0.
pub fn publication_id(channel: usize, seq: u64) -> u64 {
    ((channel as u64) << 40 | seq) + 1
}
