//! One run of one workload: its rounds (set-up, the phases, the correctness
//! check, each against a system of its own) and the metrics taken over all
//! of them.
//!
//! Load comes from one thread, `bm-gen`, which owns a core and never
//! sleeps: it publishes what its schedule says is due ([`crate::gen`]) and
//! receives whatever has arrived ([`crate::drain`]), in turn. A generator
//! that slept would add the kernel's timer slack and a wake-up to every
//! publication, and on this host those vary more from run to run than a
//! loopback publication takes. The program runs on the other cores, so the
//! two never take time from each other. The main thread keeps time
//! ([`crate::control`]).

use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering::Relaxed;
use std::thread;
use std::time::{Duration, Instant};

use crate::control::{Control, ControlOut};
use crate::cores;
use crate::drain::{Drain, DrainOut};
use crate::gen::{AckWatch, Gen, GenOut, Sink};
use crate::micro;
use crate::procfs;
use crate::sched::SplitMix64;
use crate::shape::{phases, Load, Phase, Shared, SEC};
use crate::stats::{median, percentile_sorted, quantile, window_percentiles};
use crate::trace::{self, Metric, PhaseMeta, Recorder, Snapshot, Span, Trace};
use crate::workload::{setup, Kind, SetupSpans, Workload};

/// Times set-up is run (and torn down) before the first round; `setup_s`
/// is the median over these and every round's kept set-up.
const SETUP_REPEATS: usize = 5;
/// An untraced run is this many rounds, each against a system set up
/// afresh, when `--seconds` gives every round [`MIN_ROUND_S`]. This shared
/// host has slow stretches of seconds to minutes; with one long round a
/// stretch took all the windows of whichever phase it fell on, and that
/// metric moved by a quarter and more between runs of one commit. With the
/// phases of several rounds interleaved, every metric has windows from all
/// through the run (and from more than one system).
const ROUNDS: u64 = 3;
/// One second for each of up to three phases.
const MIN_ROUND_S: u64 = 3;
/// Warm-up ends on the first whole second that leaves it this long after
/// the kept set-up: one second, unless set-up took over half of one.
const MIN_WARMUP: Duration = Duration::from_millis(500);
/// The generator may run this late at the median before the run is marked
/// invalid. The median, because the tail also holds the time the program
/// itself kept the publisher waiting in a call, which is the program's to
/// answer for and is charged to it; only a generator that cannot keep its
/// schedule at all is late half the time.
const LATE_LIMIT_US: f64 = 250.0;
const QUIESCE: Duration = Duration::from_secs(5);

/// The end-to-end metrics taken per one-second window: name, unit, and the
/// quantile of the windows of all rounds that is reported (see
/// [`quantile`]) — the quietest second for a latency, the upper quartile
/// for the rate, the median second for a cost. Not a quiet second for a
/// cost: on `routed_migration` it climbs through a round as forwarding
/// windows pile up, and the cheap seconds would always be each round's
/// first.
const WINDOW_METRICS: [(&str, &str, f64); 7] = [
    ("lat_p50_us_r1", "us", 0.0),
    ("lat_p99_us_r1", "us", 0.0),
    ("lat_p50_us_r2", "us", 0.0),
    ("lat_p99_us_r2", "us", 0.0),
    ("deliveries_per_s", "1/s", 0.75),
    ("cpu_us_per_delivery_r1", "us", 0.5),
    ("cpu_us_per_delivery_r2", "us", 0.5),
];

pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
}

pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Why the run is not correct, and findings that do not fail it.
    pub notes: Vec<String>,
    pub trace: Option<Trace>,
}

/// What one round adds to the run.
struct Round {
    setup_s: f64,
    check: Check,
    notes: Vec<String>,
    /// Untraced: the values of every window of this round and the samples
    /// behind them, in [`WINDOW_METRICS`] order.
    windows: Vec<(Vec<f64>, u64)>,
    /// Traced: the round's trace.
    trace: Option<Trace>,
}

pub fn run(cfg: &RunConfig) -> io::Result<Outcome> {
    // The program's threads inherit the cores the main thread holds while
    // it starts them.
    cores::pin_to_program();
    cores::with_program_cores_awake(|| run_pinned(cfg))
}

fn run_pinned(cfg: &RunConfig) -> io::Result<Outcome> {
    let w = &cfg.workload;

    // Set-up, several times over: its median is a metric of its own, so
    // that work moved out of the measured phases shows up here.
    let mut setup_times = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let started = Instant::now();
        let (sut, _) = setup(w, cfg.traced)?;
        setup_times.push(started.elapsed().as_secs_f64());
        sut.shutdown();
    }

    // A traced run is one round: its trace is one system's.
    let rounds = if cfg.traced {
        1
    } else {
        (cfg.seconds / MIN_ROUND_S).clamp(1, ROUNDS)
    };
    let mut check = Check {
        correct: true,
        owed: 0,
        failed: 0,
    };
    let mut notes = Vec::new();
    let mut pools: Vec<(Vec<f64>, u64)> = vec![(Vec::new(), 0); WINDOW_METRICS.len()];
    let mut trace_out = None;
    for round in 0..rounds {
        let seconds = cfg.seconds / rounds + u64::from(round < cfg.seconds % rounds);
        let r = run_round(cfg, round, seconds)?;
        setup_times.push(r.setup_s);
        check.correct &= r.check.correct;
        check.owed += r.check.owed;
        check.failed += r.check.failed;
        notes.extend(r.notes.into_iter().map(|n| format!("round {round}: {n}")));
        for (pool, (values, samples)) in pools.iter_mut().zip(r.windows) {
            pool.0.extend(values);
            pool.1 += samples;
        }
        trace_out = r.trace;
    }

    let mut metrics = Vec::new();
    if let Some(trace) = &trace_out {
        metrics = trace::summarize(trace, "r2").expect("a traced run has an r2 phase");
    } else {
        let setup_s = median(&setup_times).unwrap_or(0.0);
        metrics.push(Metric {
            name: "setup_s",
            value: setup_s,
            unit: "s",
            samples: setup_times.len() as u64,
        });
        for ((name, unit, q), (values, samples)) in WINDOW_METRICS.into_iter().zip(&pools) {
            metrics.push(Metric {
                name,
                value: quantile(values, q).unwrap_or(0.0),
                unit,
                samples: *samples,
            });
            notes.push(format!("{name} by second: {values:.2?}"));
        }
        metrics.push(Metric {
            name: "delivered_share",
            value: 1.0 - check.failed as f64 / check.owed.max(1) as f64,
            unit: "share",
            samples: check.owed,
        });
        metrics.push(Metric {
            name: "peak_rss_mb",
            value: procfs::peak_rss_mb().unwrap_or(0.0),
            unit: "MiB",
            samples: 1,
        });
    }
    Ok(Outcome {
        correct: check.correct,
        attempted: check.owed.max(1),
        failed: check.failed,
        metrics,
        notes,
        trace: trace_out,
    })
}

/// One round: set-up, warm-up, the phases, quiesce, the correctness check,
/// shutdown.
fn run_round(cfg: &RunConfig, round: u64, seconds: u64) -> io::Result<Round> {
    let w = &cfg.workload;
    let epoch = Instant::now();
    let (mut sut, setup_spans) = setup(w, cfg.traced)?;
    let setup_s = epoch.elapsed().as_secs_f64();

    let gauges = if cfg.traced {
        micro::gauges(w, &sut.brokers[0].load_report())
    } else {
        Vec::new()
    };

    let warm_end_s = (epoch.elapsed() + MIN_WARMUP).as_secs() + 1;
    let phases = phases(w, seconds, cfg.traced, warm_end_s);
    let end_s = phases.last().map_or(0, |p| p.end_ns / SEC);
    let mut timed_windows = vec![false; (end_s + QUIESCE.as_secs() + 2) as usize];
    for p in phases.iter().filter(|p| matches!(p.load, Load::Open(_))) {
        timed_windows[p.windows()].fill(true);
    }
    let shared = Shared::new(epoch);
    // Every round publishes on a schedule of its own, all drawn from
    // `--seed`.
    let seed =
        SplitMix64::new(cfg.seed ^ (round + 1).wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64();

    // The benchmark's own sockets all go to the generator thread.
    let mut write_halves = Vec::new();
    let mut ack_halves = Vec::new();
    for p in std::mem::take(&mut sut.raw_publishers) {
        write_halves.push(p.stream);
        ack_halves.push(p.acks);
    }
    let sink = match &sut.publisher {
        Some(client) => Sink::Routed {
            client: client.clone(),
            probes: write_halves,
        },
        None => Sink::Raw(write_halves.pop().expect("broker workload has a publisher")),
    };
    let gen = Gen::new(w, &shared, &phases, seed, sink);
    let drain = Drain::new(
        w,
        &shared,
        cfg.traced,
        std::mem::take(&mut sut.raw_subscribers),
        ack_halves,
        sut.subscribers.clone(),
        timed_windows,
    )?;

    let (gen_out, mut drain_out, control) = thread::scope(|scope| -> io::Result<_> {
        let generator = thread::Builder::new()
            .name("bm-gen".into())
            .spawn_scoped(scope, || generate(gen, drain, &shared))?;
        let mut control = Control::new(w, &shared, &mut sut);
        control.keep_time(&phases);

        // Quiesce: everything published is owed; wait for it, bounded,
        // and a little longer, so that a duplicate still on its way shows.
        let owed = shared.published.load(Relaxed) * w.fanout as u64;
        let deadline = Instant::now() + QUIESCE;
        while shared.deliveries.load(Relaxed) < owed && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(2));
        }
        thread::sleep(Duration::from_millis(100));
        shared.stop.store(true, Relaxed);
        let (gen_out, drain_out) = generator.join().expect("bm-gen panicked")?;
        Ok((gen_out, drain_out, control.finish()))
    })?;

    let mut notes = Vec::new();
    let check = check(w, &phases, &gen_out, &drain_out, &control, &mut notes);
    cpu_notes(&phases, &control.snapshots, &mut notes);
    let phase = |name: &str| phases.iter().find(|p| p.name == name);
    let mut lat_windows = std::mem::take(&mut drain_out.lat_windows);
    // A phase's latency `q`-percentile in every window, in microseconds.
    let mut latency_us = |name: &str, q: f64| -> (Vec<f64>, u64) {
        let Some(p) = phase(name) else {
            return (Vec::new(), 0);
        };
        let (ns, samples) = window_percentiles(&mut lat_windows[p.windows()], q);
        (ns.iter().map(|ns| ns / 1e3).collect(), samples as u64)
    };

    let mut windows = Vec::new();
    let mut trace_out = None;
    if !cfg.traced {
        windows.push(latency_us("r1", 0.50));
        windows.push(latency_us("r1", 0.99));
        windows.push(latency_us("r2", 0.50));
        windows.push(latency_us("r2", 0.99));
        // Deliveries per second the tier sustains: those of the closed
        // loop, or, for the workload without one, of `r2`.
        let rate_phase = if w.cl_in_flight.is_some() { "cl" } else { "r2" };
        let per_second: Vec<f64> = phase(rate_phase)
            .map(|p| {
                drain_out.recv_windows[p.windows()]
                    .iter()
                    .map(|&n| n as f64)
                    .collect()
            })
            .unwrap_or_default();
        let received = per_second.iter().sum::<f64>() as u64;
        windows.push((per_second, received));
        windows.push(cpu_us_per_delivery(&phases, &control.snapshots, "r1"));
        windows.push(cpu_us_per_delivery(&phases, &control.snapshots, "r2"));
    } else {
        let quietest = |(values, _): (Vec<f64>, u64)| quantile(&values, 0.0).unwrap_or(0.0);
        let mut gauges = gauges;
        gauges.push((
            "lat_p50_us.traced".to_owned(),
            quietest(latency_us("r2", 0.50)),
        ));
        gauges.push((
            "lat_p50_us.untraced".to_owned(),
            quietest(latency_us("r2_untraced", 0.50)),
        ));
        trace_out = Some(Trace {
            workload: w.name.to_owned(),
            seed: cfg.seed,
            phases: phases
                .iter()
                .map(|p| PhaseMeta {
                    name: p.name.to_owned(),
                    start_ns: p.start_ns,
                    end_ns: p.end_ns,
                })
                .collect(),
            spans: assemble(
                &setup_spans,
                control.spans,
                gen_out.spans,
                drain_out.spans,
                &gen_out.ack_watch,
                &drain_out.ack_logs,
            ),
            snapshots: control.snapshots,
            gauges,
        });
    }

    sut.shutdown();
    Ok(Round {
        setup_s,
        check,
        notes,
        windows,
        trace: trace_out,
    })
}

/// The generator thread: publish what is due, receive what has arrived,
/// again, until the main thread says everything owed is in.
fn generate(mut gen: Gen, mut drain: Drain, shared: &Shared) -> io::Result<(GenOut, DrainOut)> {
    let own_core = cores::pin_to_generator();
    while !shared.stop.load(Relaxed) {
        let published = gen.step(drain.finished_publications());
        let received = drain.step()?;
        if !published && !received {
            if own_core {
                // Should the host ever run both virtual cores on one
                // physical core, a pausing spin leaves it to the program.
                std::hint::spin_loop();
            } else {
                // Sharing its core with the program, an idle generator
                // must at least stand aside.
                thread::yield_now();
            }
        }
    }
    debug_assert!(gen.finished());
    Ok((gen.finish(), drain.finish()))
}

struct Check {
    correct: bool,
    owed: u64,
    failed: u64,
}

/// Was every publication delivered exactly once, in order, with no
/// backlog building, by a generator that kept to its schedule?
fn check(
    w: &Workload,
    phases: &[Phase],
    gen: &GenOut,
    drain: &DrainOut,
    control: &ControlOut,
    notes: &mut Vec<String>,
) -> Check {
    let (snapshots, gaps) = (&control.snapshots, control.gaps);
    let mut correct = true;
    let mut fail = |notes: &mut Vec<String>, why: String| {
        correct = false;
        notes.push(why);
    };
    let published: u64 = gen.per_channel.iter().sum();
    let owed = published * w.fanout as u64;
    let unique: u64 = drain.checkers.iter().map(|c| c.unique).sum();
    let duplicates: u64 = drain.checkers.iter().map(|c| c.duplicates).sum();
    let inversions: u64 = drain.checkers.iter().map(|c| c.inversions).sum();
    for (i, &bytes) in drain.split_bytes.iter().enumerate() {
        if bytes != 0 {
            fail(
                notes,
                format!("socket {i}: {bytes} bytes beyond a whole number of frames"),
            );
        }
    }
    let missing = owed.saturating_sub(unique);
    let refused = drain.refused + control.refused;
    let failed = missing + duplicates + refused;
    if failed > 0 {
        fail(
            notes,
            format!(
                "{missing} deliveries missing, {duplicates} seen twice, {refused} publishes refused, of {owed} owed"
            ),
        );
    }
    if drain.protocol_errors > 0 {
        fail(
            notes,
            format!(
                "{} frames the benchmark could not read",
                drain.protocol_errors
            ),
        );
    }
    if gaps > 0 {
        fail(notes, format!("{gaps} gap events from the routers"));
    }
    if inversions > 0 {
        let why = format!("{inversions} deliveries out of per-channel order");
        // Forwarding during a migration may overtake: the old home's copy
        // of an earlier publication can arrive after a later one sent
        // straight to the new home. A finding there, a failure elsewhere.
        if w.kind == Kind::RoutedMigration {
            notes.push(why);
        } else {
            fail(notes, why);
        }
    }
    for (i, p) in phases.iter().enumerate() {
        let Load::Open(rate) = p.load else { continue };
        if p.name == "warmup" {
            continue;
        }
        // No backlog may build at a fixed rate: what is undelivered at
        // the end of the phase must fit in one second of it.
        if let Some(end) = snapshot_at(phases, snapshots, p.end_ns) {
            let backlog = end.get("gen.owed") - end.get("gen.deliveries");
            if backlog > rate * w.fanout as f64 {
                fail(
                    notes,
                    format!("backlog of {backlog} deliveries at the end of {}", p.name),
                );
            }
        }
        // Lateness is inside every latency (publications are timed from
        // when they were due), so it cannot flatter the program; past the
        // limit the generator, not the program, is what the run measured.
        let mut late = gen.lateness[i].clone();
        late.sort_unstable();
        let at = |q| percentile_sorted(&late, q).map_or(0.0, |ns| ns as f64 / 1e3);
        notes.push(format!(
            "generator lateness in {}: p50 {:.1} us, p99 {:.1} us over {} publications",
            p.name,
            at(0.50),
            at(0.99),
            late.len()
        ));
        if at(0.50) > LATE_LIMIT_US {
            fail(
                notes,
                format!("generator too late in {}: run invalid", p.name),
            );
        }
    }
    Check {
        correct,
        owed,
        failed,
    }
}

/// The snapshot taken at `t_ns`, a whole second of the run.
fn snapshot_at<'a>(phases: &[Phase], snapshots: &'a [Snapshot], t_ns: u64) -> Option<&'a Snapshot> {
    snapshots.get((t_ns / SEC).checked_sub(phases.first()?.start_ns / SEC)? as usize)
}

/// Processor time of everything but the benchmark's own threads, per
/// delivery — what serving this traffic costs to rent — in each second of
/// the phase, and the phase's deliveries.
fn cpu_us_per_delivery(phases: &[Phase], snapshots: &[Snapshot], phase: &str) -> (Vec<f64>, u64) {
    let Some(p) = phases.iter().find(|p| p.name == phase) else {
        return (Vec::new(), 0);
    };
    let program_cpu = |s: &Snapshot| s.sum_prefix("cpu.") - s.sum_prefix("cpu.bm-");
    let mut per_second = Vec::new();
    let mut total = 0.0;
    for second in p.windows() {
        let (Some(a), Some(b)) = (
            snapshot_at(phases, snapshots, second as u64 * SEC),
            snapshot_at(phases, snapshots, (second as u64 + 1) * SEC),
        ) else {
            continue;
        };
        let deliveries = b.get("gen.deliveries") - a.get("gen.deliveries");
        if deliveries > 0.0 {
            per_second.push((program_cpu(b) - program_cpu(a)) / 1e3 / deliveries);
            total += deliveries;
        }
    }
    (per_second, total as u64)
}

/// Where the processor time of each phase went, by thread name, in cores.
fn cpu_notes(phases: &[Phase], snapshots: &[Snapshot], notes: &mut Vec<String>) {
    for p in phases {
        let (Some(a), Some(b)) = (
            snapshot_at(phases, snapshots, p.start_ns),
            snapshot_at(phases, snapshots, p.end_ns),
        ) else {
            continue;
        };
        let secs = (p.end_ns - p.start_ns) as f64;
        let mut shares: Vec<(&str, f64)> = b
            .counters
            .iter()
            .filter_map(|(k, v)| Some((k.strip_prefix("cpu.")?, (v - a.get(k)) / secs)))
            .filter(|(_, share)| *share >= 0.005)
            .collect();
        shares.sort_by(|x, y| y.1.total_cmp(&x.1));
        let text: Vec<String> = shares.iter().map(|(k, v)| format!("{k} {v:.2}")).collect();
        notes.push(format!("cores busy in {}: {}", p.name, text.join(", ")));
    }
}

/// Puts the threads' spans together and adds the ones only their records
/// combined can give — the acknowledgement of a sampled raw publication,
/// and the split of a routed publication at the tap — then closes the
/// roots.
fn assemble(
    setup_spans: &SetupSpans,
    main_spans: Vec<Span>,
    gen_spans: Vec<Span>,
    drain_spans: Vec<Span>,
    ack_watch: &[AckWatch],
    ack_logs: &[Vec<(u64, u64)>],
) -> Vec<Span> {
    let mut setup = Recorder::new("main", 4);
    for (name, start, end) in setup_spans {
        setup.span(name, 0, 0, start.as_nanos() as u64, end.as_nanos() as u64);
    }
    let mut spans = setup.spans;
    spans.extend(main_spans);
    spans.extend(gen_spans);
    spans.extend(drain_spans);

    let mut extra = Recorder::new("bm-gen", 5);
    for &(publisher, index, written, publication) in ack_watch {
        let log = &ack_logs[publisher];
        let at = log.partition_point(|&(acked, _)| acked <= index);
        if let Some(&(_, seen)) = log.get(at) {
            extra.span("broker.ack", 0, publication, written, seen.max(written));
        }
    }
    // First tap sighting and last API receive of each routed publication.
    let mut tapped: std::collections::HashMap<u64, (u64, u64)> = std::collections::HashMap::new();
    for s in &spans {
        match s.name.as_str() {
            "tap.recv" => {
                let e = tapped.entry(s.publication).or_insert((u64::MAX, 0));
                e.0 = e.0.min(s.start_ns);
            }
            "router.try_message" => {
                let e = tapped.entry(s.publication).or_insert((u64::MAX, 0));
                e.1 = e.1.max(s.end_ns);
            }
            _ => {}
        }
    }
    for s in spans.iter().filter(|s| s.name == "pub.e2e") {
        if let Some(&(tap, api)) = tapped.get(&s.publication) {
            if tap != u64::MAX && api >= tap {
                let tap = tap.max(s.start_ns);
                extra.span("client.pub_side", s.id, s.publication, s.start_ns, tap);
                extra.span("client.sub_side", s.id, s.publication, tap, api);
            }
        }
    }
    spans.extend(extra.spans);
    trace::close_roots(&mut spans);
    spans
}

/// Writes a traced run's trace where `trace-summary` will look for it.
pub fn write_trace(trace: &Trace, dir: &Path) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("trace-{}.json", trace.workload));
    let mut file = io::BufWriter::new(std::fs::File::create(&path)?);
    file.write_all(trace.to_json().as_bytes())?;
    file.flush()?;
    Ok(path)
}
