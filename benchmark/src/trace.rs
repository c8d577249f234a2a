//! The trace a traced run keeps in memory and writes at exit, and the
//! per-layer metrics computed from it. `trace-summary` reads the file back
//! and calls the same [`summarize`], so the numbers a run prints can be
//! recomputed from what it left on disk.
//!
//! Every span is recorded by the benchmark around a call into the program
//! (or between two instants the benchmark itself observed); nothing here
//! comes from inside `crates/pubsub`.

use std::collections::{HashMap, HashSet};

use crate::json::{self, Json};
use crate::stats::percentile_sorted;

/// One timed interval. `parent` 0 means a root; `publication` 0 means the
/// span belongs to no publication (1-based publication index otherwise).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: String,
    pub thread: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub publication: u64,
}

/// Cumulative counters read at one phase boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    pub t_ns: u64,
    pub counters: Vec<(String, f64)>,
}

impl Snapshot {
    pub fn get(&self, name: &str) -> f64 {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0.0, |(_, v)| *v)
    }

    /// Sum of every counter whose name starts with `prefix`.
    pub fn sum_prefix(&self, prefix: &str) -> f64 {
        self.counters
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| *v)
            .sum()
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct PhaseMeta {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Everything a traced run records. There is one snapshot per second,
/// from the start of the first phase to the end of the last; phases begin
/// and end on whole seconds.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trace {
    pub workload: String,
    pub seed: u64,
    pub phases: Vec<PhaseMeta>,
    pub spans: Vec<Span>,
    pub snapshots: Vec<Snapshot>,
    /// Values that are not intervals of the run: timings of single public
    /// functions on the workload's own frames, and the latency medians the
    /// tracing overhead is taken from.
    pub gauges: Vec<(String, f64)>,
}

/// A thread's own span list; merged into the [`Trace`] after the thread
/// is joined. Ids are unique across recorders through `id_base`.
pub struct Recorder {
    thread: &'static str,
    next_id: u64,
    pub spans: Vec<Span>,
}

/// Root span id of a publication: its 1-based index. Recorder ids start
/// far above any publication index.
pub fn root_id(publication: u64) -> u64 {
    publication
}

impl Recorder {
    pub fn new(thread: &'static str, lane: u64) -> Recorder {
        Recorder {
            thread,
            next_id: lane << 48,
            spans: Vec::new(),
        }
    }

    /// Records a span and returns its id, for children to name.
    pub fn span(
        &mut self,
        name: &str,
        parent: u64,
        publication: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        self.next_id += 1;
        self.spans.push(Span {
            id: self.next_id,
            parent,
            name: name.to_owned(),
            thread: self.thread.to_owned(),
            start_ns,
            end_ns,
            publication,
        });
        self.next_id
    }

    /// Records a publication's root with a fixed id; its end is set when
    /// the trace is assembled, from its latest child.
    pub fn root(&mut self, name: &str, publication: u64, start_ns: u64) {
        self.spans.push(Span {
            id: root_id(publication),
            parent: 0,
            name: name.to_owned(),
            thread: self.thread.to_owned(),
            start_ns,
            end_ns: start_ns,
            publication,
        });
    }
}

/// Spans that mark a subscriber (socket, API handle or tap) receiving a
/// publication.
const RECEIVE_SPANS: [&str; 3] = ["broker.read", "router.try_message", "tap.recv"];

/// Stretches every root to cover its latest child, and drops the spans of
/// publications no receiver saw inside the run (sampled, but delivered
/// after the drain thread stopped): a root without its far end would read
/// as a zero transit.
pub fn close_roots(spans: &mut Vec<Span>) {
    let received: HashSet<u64> = spans
        .iter()
        .filter(|s| RECEIVE_SPANS.contains(&s.name.as_str()))
        .map(|s| s.publication)
        .collect();
    spans.retain(|s| s.publication == 0 || received.contains(&s.publication));
    let mut latest: HashMap<u64, u64> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        let end = latest.entry(s.parent).or_insert(0);
        *end = (*end).max(s.end_ns);
    }
    for s in spans.iter_mut().filter(|s| s.parent == 0) {
        if let Some(&end) = latest.get(&s.id) {
            s.end_ns = s.end_ns.max(end);
        }
    }
}

/// Self time of every span: its duration minus the part of it that its
/// children cover (their union, clipped to the span). Indexed like `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let total = s.end_ns.saturating_sub(s.start_ns);
            let Some(kids) = children.get_mut(&s.id) else {
                return total;
            };
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            total - covered
        })
        .collect()
}

/// One metric of a run, end-to-end or per-layer, as printed and as put in
/// the result line: value, unit, and the number of samples (timings,
/// spans or counted events) behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: u64,
}

/// The 46 per-layer metrics, in `BENCHMARK.json` order, with their units.
pub const LAYER_METRICS: [(&str, &str); 46] = [
    ("gen.late_p99_us", "us"),
    ("gen.cpu_share", "share"),
    ("gen.over_limit_share", "share"),
    ("gen.trace_overhead_share", "share"),
    ("resp.encode_ns", "ns"),
    ("resp.decode_ns", "ns"),
    ("broker.transit_us_p50", "us"),
    ("broker.transit_us_p99", "us"),
    ("broker.write_call_us_p50", "us"),
    ("broker.ack_us_p50", "us"),
    ("broker.subscribe_us_p50", "us"),
    ("broker.frames_per_writev", "count"),
    ("broker.wakeups_per_kpub", "count"),
    ("broker.bytes_per_delivery", "B"),
    ("broker.io_cpu_us_per_delivery", "us"),
    ("broker.dropped_frames", "count"),
    ("broker.overflow_kills", "count"),
    ("broker.protocol_errors", "count"),
    ("load.harvest_us_p50", "us"),
    ("load.channels_reported", "count"),
    ("client.pub_side_us_p50", "us"),
    ("client.pub_side_us_p99", "us"),
    ("client.sub_side_us_p50", "us"),
    ("client.sub_side_us_p99", "us"),
    ("client.frame_payload_ns", "ns"),
    ("client.parse_payload_ns", "ns"),
    ("router.publish_call_us_p50", "us"),
    ("router.publish_call_us_p99", "us"),
    ("router.try_message_hit_ns", "ns"),
    ("router.poll_hit_share", "share"),
    ("router.subscribe_ready_ms", "ms"),
    ("router.duplicates_suppressed", "count"),
    ("router.stale_control_frames", "count"),
    ("router.switches_applied", "count"),
    ("router.moved_applied", "count"),
    ("dispatcher.install_call_us_p50", "us"),
    ("dispatcher.switch_pub_ms_p50", "ms"),
    ("dispatcher.switch_sub_ms_p50", "ms"),
    ("dispatcher.forwarded_per_migration", "count"),
    ("dispatcher.switch_useful_share", "share"),
    ("dispatcher.duplicates_suppressed", "count"),
    ("dispatcher.expired", "count"),
    ("control.frame_roundtrip_ns", "ns"),
    ("control.report_roundtrip_us", "us"),
    ("hashing.server_for_ns", "ns"),
    ("plan.resolve_ns", "ns"),
];

/// The snapshots taken nearest the start and the end of a phase.
pub fn phase_snapshots(
    snapshots: &[Snapshot],
    start_ns: u64,
    end_ns: u64,
) -> Option<(&Snapshot, &Snapshot)> {
    let nearest = |t: u64| snapshots.iter().min_by_key(|s| s.t_ns.abs_diff(t));
    Some((nearest(start_ns)?, nearest(end_ns)?))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Computes every per-layer metric over one phase of the trace. A layer
/// that does no work on the workload reports 0 with 0 samples, never a
/// missing value. Returns `None` when the trace has no such phase.
pub fn summarize(trace: &Trace, phase: &str) -> Option<Vec<Metric>> {
    let idx = trace.phases.iter().position(|p| p.name == phase)?;
    let window = &trace.phases[idx];
    let (before, after) = phase_snapshots(&trace.snapshots, window.start_ns, window.end_ns)?;
    let delta = |name: &str| after.get(name) - before.get(name);
    let delta_prefix = |prefix: &str| after.sum_prefix(prefix) - before.sum_prefix(prefix);
    let gauge = |name: &str| {
        trace
            .gauges
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0.0, |(_, v)| *v)
    };

    let selfs = self_times(&trace.spans);
    let in_phase = |s: &Span| (window.start_ns..window.end_ns).contains(&s.start_ns);
    // Sorted durations (ns) of the spans called `name`: inside the phase,
    // or anywhere in the run for set-up spans.
    let durations = |name: &str, anywhere: bool, own: bool| -> Vec<u64> {
        let mut d: Vec<u64> = trace
            .spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.name == name && (anywhere || in_phase(s)))
            .map(|(s, &self_ns)| if own { self_ns } else { s.end_ns - s.start_ns })
            .collect();
        d.sort_unstable();
        d
    };
    let pct = |d: &[u64], q: f64, per: f64| -> (f64, u64) {
        (
            percentile_sorted(d, q).map_or(0.0, |ns| ns as f64 / per),
            d.len() as u64,
        )
    };

    // Broker transit is a raw publication's span minus what the generator
    // itself spent: on `routed_*` only the probe publications are raw.
    let has_probes = trace.spans.iter().any(|s| s.name == "probe.e2e");
    let transit = durations(
        if has_probes { "probe.e2e" } else { "pub.e2e" },
        false,
        true,
    );

    let deliveries = delta("gen.deliveries");
    let published = delta("gen.published");
    let cpu_all = delta_prefix("cpu.");
    let cpu_gen = delta("cpu.bm-gen") + delta("cpu.bm-drain");
    let cpu_all = cpu_all - delta_prefix("cpu.bm-awake-");
    let migrations = delta("gen.migrations");

    let mut out = Vec::with_capacity(LAYER_METRICS.len());
    for (name, unit) in LAYER_METRICS {
        let (value, samples) = match name {
            "gen.late_p99_us" => pct(&durations("gen.wait", false, false), 0.99, 1e3),
            "gen.cpu_share" => (ratio(cpu_gen, cpu_all), (cpu_all / 1e3) as u64),
            "gen.over_limit_share" => (
                ratio(delta("gen.over_limit"), delta("gen.owed")),
                delta("gen.owed") as u64,
            ),
            "gen.trace_overhead_share" => {
                let (on, off) = (gauge("lat_p50_us.traced"), gauge("lat_p50_us.untraced"));
                (if off > 0.0 { on / off - 1.0 } else { 0.0 }, 0)
            }
            "resp.encode_ns"
            | "resp.decode_ns"
            | "client.frame_payload_ns"
            | "client.parse_payload_ns"
            | "control.frame_roundtrip_ns"
            | "control.report_roundtrip_us"
            | "hashing.server_for_ns"
            | "plan.resolve_ns" => (gauge(name), gauge("micro.calls") as u64),
            "broker.transit_us_p50" => pct(&transit, 0.50, 1e3),
            "broker.transit_us_p99" => pct(&transit, 0.99, 1e3),
            "broker.write_call_us_p50" => pct(&durations("broker.write", false, false), 0.50, 1e3),
            "broker.ack_us_p50" => pct(&durations("broker.ack", false, false), 0.50, 1e3),
            "broker.subscribe_us_p50" => {
                pct(&durations("broker.subscribe", true, false), 0.50, 1e3)
            }
            "broker.frames_per_writev" => (
                ratio(delta("broker.flush_frames"), delta("broker.flush_writes")),
                delta("broker.flush_writes") as u64,
            ),
            "broker.wakeups_per_kpub" => (
                ratio(delta("broker.loop_wakeups") * 1e3, published),
                published as u64,
            ),
            "broker.bytes_per_delivery" => (
                ratio(delta("broker.loop_bytes"), deliveries),
                deliveries as u64,
            ),
            "broker.io_cpu_us_per_delivery" => (
                ratio(delta_prefix("cpu.broker-io-") / 1e3, deliveries),
                deliveries as u64,
            ),
            "broker.dropped_frames" => (delta(name), 0),
            "broker.overflow_kills" => (delta(name), 0),
            "broker.protocol_errors" => (delta(name), 0),
            "load.harvest_us_p50" => pct(&durations("load.harvest", false, false), 0.50, 1e3),
            "load.channels_reported" => (after.get(name), 0),
            "client.pub_side_us_p50" => pct(&durations("client.pub_side", false, false), 0.50, 1e3),
            "client.pub_side_us_p99" => pct(&durations("client.pub_side", false, false), 0.99, 1e3),
            "client.sub_side_us_p50" => pct(&durations("client.sub_side", false, false), 0.50, 1e3),
            "client.sub_side_us_p99" => pct(&durations("client.sub_side", false, false), 0.99, 1e3),
            "router.publish_call_us_p50" => {
                pct(&durations("router.publish", false, false), 0.50, 1e3)
            }
            "router.publish_call_us_p99" => {
                pct(&durations("router.publish", false, false), 0.99, 1e3)
            }
            "router.try_message_hit_ns" => {
                pct(&durations("router.try_message", false, false), 0.50, 1.0)
            }
            "router.poll_hit_share" => (
                ratio(delta("gen.poll_hits"), delta("gen.polls")),
                delta("gen.polls") as u64,
            ),
            "router.subscribe_ready_ms" => {
                pct(&durations("router.subscribe_ready", true, false), 0.50, 1e6)
            }
            "router.duplicates_suppressed"
            | "router.stale_control_frames"
            | "router.switches_applied"
            | "router.moved_applied"
            | "dispatcher.duplicates_suppressed"
            | "dispatcher.expired" => (delta(name), 0),
            "dispatcher.install_call_us_p50" => {
                pct(&durations("dispatcher.install", false, false), 0.50, 1e3)
            }
            "dispatcher.switch_pub_ms_p50" => {
                pct(&durations("dispatcher.switch_pub", false, false), 0.50, 1e6)
            }
            "dispatcher.switch_sub_ms_p50" => {
                pct(&durations("dispatcher.switch_sub", false, false), 0.50, 1e6)
            }
            "dispatcher.forwarded_per_migration" => (
                ratio(delta("dispatcher.forwarded"), migrations),
                migrations as u64,
            ),
            "dispatcher.switch_useful_share" => (
                ratio(
                    delta("router.switches_applied"),
                    delta("dispatcher.switches_emitted"),
                ),
                delta("dispatcher.switches_emitted") as u64,
            ),
            other => unreachable!("unlisted per-layer metric {other}"),
        };
        out.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }
    Some(out)
}

impl Trace {
    pub fn to_json(&self) -> String {
        let pairs = |kv: &[(String, f64)]| {
            Json::Obj(kv.iter().map(|(k, v)| (k.clone(), Json::Num(*v))).collect())
        };
        let mut out = String::from("{");
        let head = Json::Obj(vec![
            ("workload".into(), Json::Str(self.workload.clone())),
            ("seed".into(), Json::Num(self.seed as f64)),
        ]);
        let mut head_text = String::new();
        head.write(&mut head_text);
        out.push_str(&head_text[1..head_text.len() - 1]);
        out.push_str(",\n\"phases\":[");
        for (i, p) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            Json::Obj(vec![
                ("name".into(), Json::Str(p.name.clone())),
                ("start_ns".into(), Json::Num(p.start_ns as f64)),
                ("end_ns".into(), Json::Num(p.end_ns as f64)),
            ])
            .write(&mut out);
        }
        out.push_str("],\n\"gauges\":");
        pairs(&self.gauges).write(&mut out);
        out.push_str(",\n\"snapshots\":[");
        for (i, s) in self.snapshots.iter().enumerate() {
            out.push_str(if i > 0 { ",\n" } else { "\n" });
            Json::Obj(vec![
                ("t_ns".into(), Json::Num(s.t_ns as f64)),
                ("counters".into(), pairs(&s.counters)),
            ])
            .write(&mut out);
        }
        out.push_str("],\n\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            out.push_str(if i > 0 { ",\n" } else { "\n" });
            Json::Obj(vec![
                ("id".into(), Json::Num(s.id as f64)),
                ("parent".into(), Json::Num(s.parent as f64)),
                ("name".into(), Json::Str(s.name.clone())),
                ("thread".into(), Json::Str(s.thread.clone())),
                ("start_ns".into(), Json::Num(s.start_ns as f64)),
                ("end_ns".into(), Json::Num(s.end_ns as f64)),
                ("publication".into(), Json::Num(s.publication as f64)),
            ])
            .write(&mut out);
        }
        out.push_str("]}\n");
        out
    }

    pub fn from_json(text: &str) -> Result<Trace, String> {
        let doc = json::parse(text)?;
        let missing = |what: &str| format!("trace file: missing or malformed `{what}`");
        let pairs = |v: &Json, what: &str| -> Result<Vec<(String, f64)>, String> {
            v.as_obj()
                .ok_or_else(|| missing(what))?
                .iter()
                .map(|(k, v)| Ok((k.clone(), v.as_f64().ok_or_else(|| missing(k))?)))
                .collect()
        };
        let text_of = |v: &Json, key: &str| -> Result<String, String> {
            Ok(v.get(key)
                .and_then(Json::as_str)
                .ok_or_else(|| missing(key))?
                .to_owned())
        };
        let num_of = |v: &Json, key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| missing(key))
        };
        let list = |key: &str| -> Result<&[Json], String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| missing(key))
        };
        Ok(Trace {
            workload: text_of(&doc, "workload")?,
            seed: num_of(&doc, "seed")?,
            phases: list("phases")?
                .iter()
                .map(|p| {
                    Ok(PhaseMeta {
                        name: text_of(p, "name")?,
                        start_ns: num_of(p, "start_ns")?,
                        end_ns: num_of(p, "end_ns")?,
                    })
                })
                .collect::<Result<_, String>>()?,
            spans: list("spans")?
                .iter()
                .map(|s| {
                    Ok(Span {
                        id: num_of(s, "id")?,
                        parent: num_of(s, "parent")?,
                        name: text_of(s, "name")?,
                        thread: text_of(s, "thread")?,
                        start_ns: num_of(s, "start_ns")?,
                        end_ns: num_of(s, "end_ns")?,
                        publication: num_of(s, "publication")?,
                    })
                })
                .collect::<Result<_, String>>()?,
            snapshots: list("snapshots")?
                .iter()
                .map(|s| {
                    Ok(Snapshot {
                        t_ns: num_of(s, "t_ns")?,
                        counters: pairs(
                            s.get("counters").ok_or_else(|| missing("counters"))?,
                            "counters",
                        )?,
                    })
                })
                .collect::<Result<_, String>>()?,
            gauges: pairs(
                doc.get("gauges").ok_or_else(|| missing("gauges"))?,
                "gauges",
            )?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        id: u64,
        parent: u64,
        name: &str,
        start_ns: u64,
        end_ns: u64,
        publication: u64,
    ) -> Span {
        Span {
            id,
            parent,
            name: name.to_owned(),
            thread: "t".to_owned(),
            start_ns,
            end_ns,
            publication,
        }
    }

    /// A publication due at 100 and received at 1 000: the generator waits
    /// 100–150, its batch runs 150–300 (encode 160–200 and write 220–300
    /// inside it), and the receiver's read runs 900–1 000 (decode 950–990).
    fn nested() -> Vec<Span> {
        vec![
            span(1, 0, "pub.e2e", 100, 1_000, 1),
            span(10, 1, "gen.wait", 100, 150, 1),
            span(11, 1, "gen.batch", 150, 300, 1),
            span(12, 11, "resp.encode", 160, 200, 1),
            span(13, 11, "broker.write", 220, 300, 1),
            span(20, 1, "broker.read", 900, 1_000, 1),
            span(21, 20, "resp.decode", 950, 990, 1),
        ]
    }

    #[test]
    fn self_time_is_duration_minus_the_union_of_children() {
        let spans = nested();
        let selfs = self_times(&spans);
        // Root: 900 long, children cover 100–300 and 900–1 000.
        assert_eq!(selfs[0], 900 - 200 - 100);
        // Batch: 150 long, encode 40 and write 80 inside it.
        assert_eq!(selfs[2], 150 - 40 - 80);
        // Read: 100 long, decode 40.
        assert_eq!(selfs[5], 60);
        // Leaves keep their whole duration.
        assert_eq!(selfs[3], 40);
        assert_eq!(selfs[6], 40);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once_and_clipped() {
        let spans = vec![
            span(1, 0, "pub.e2e", 0, 100, 1),
            span(2, 1, "a", 10, 60, 1),
            span(3, 1, "b", 40, 80, 1),  // overlaps `a` over 40–60
            span(4, 1, "c", 90, 150, 1), // hangs over the parent's end
            span(5, 1, "d", 20, 30, 1),  // wholly inside `a`
        ];
        // Covered: 10–80 and 90–100.
        assert_eq!(self_times(&spans)[0], 100 - 70 - 10);
    }

    #[test]
    fn roots_stretch_to_their_latest_child_and_unreceived_publications_go() {
        let mut spans = nested();
        spans[0].end_ns = spans[0].start_ns; // as recorded: the end is not known yet
        spans.push(span(2, 0, "pub.e2e", 500, 500, 2)); // sampled, never received
        spans.push(span(30, 2, "gen.wait", 500, 510, 2));
        spans.push(span(40, 0, "load.harvest", 700, 720, 0));
        close_roots(&mut spans);
        assert_eq!(spans[0].end_ns, 1_000);
        assert!(spans.iter().all(|s| s.publication != 2));
        assert!(spans.iter().any(|s| s.name == "load.harvest"));
    }

    #[test]
    fn summary_reads_spans_counters_and_gauges_and_survives_the_file() {
        let phase = |name: &str, start_ns, end_ns| PhaseMeta {
            name: name.to_owned(),
            start_ns,
            end_ns,
        };
        let snapshot = |t_ns, frames: f64, writes: f64, deliveries: f64| Snapshot {
            t_ns,
            counters: vec![
                ("broker.flush_frames".to_owned(), frames),
                ("broker.flush_writes".to_owned(), writes),
                ("gen.deliveries".to_owned(), deliveries),
                ("cpu.broker-io-0".to_owned(), deliveries * 2_000.0),
                ("cpu.bm-gen".to_owned(), deliveries * 1_000.0),
                ("cpu.bm-drain".to_owned(), deliveries * 1_000.0),
            ],
        };
        let trace = Trace {
            workload: "broker_fanout".to_owned(),
            seed: 7,
            phases: vec![phase("r1", 0, 2_000), phase("r2", 2_000, 4_000)],
            spans: nested(),
            snapshots: vec![
                snapshot(0, 0.0, 0.0, 0.0),
                snapshot(2_000, 300.0, 100.0, 50.0),
                snapshot(4_000, 1_300.0, 350.0, 150.0),
            ],
            gauges: vec![("resp.encode_ns".to_owned(), 111.5)],
        };
        let value =
            |metrics: &[Metric], name: &str| metrics.iter().find(|m| m.name == name).unwrap().value;
        let r1 = summarize(&trace, "r1").unwrap();
        assert_eq!(r1.len(), LAYER_METRICS.len());
        assert_eq!(value(&r1, "broker.transit_us_p50"), 0.6);
        assert_eq!(value(&r1, "broker.write_call_us_p50"), 0.08);
        assert_eq!(value(&r1, "gen.late_p99_us"), 0.05);
        assert_eq!(value(&r1, "broker.frames_per_writev"), 3.0);
        assert_eq!(value(&r1, "resp.encode_ns"), 111.5);
        // A layer that did nothing reports 0, not nothing.
        assert_eq!(value(&r1, "dispatcher.expired"), 0.0);
        let r2 = summarize(&trace, "r2").unwrap();
        assert_eq!(value(&r2, "broker.frames_per_writev"), 4.0);
        assert_eq!(value(&r2, "broker.io_cpu_us_per_delivery"), 2.0);
        assert_eq!(value(&r2, "gen.cpu_share"), 0.5);
        // No publication was due in r2: no samples, value 0.
        assert_eq!(value(&r2, "broker.transit_us_p50"), 0.0);
        assert!(summarize(&trace, "cl").is_none());

        let reread = Trace::from_json(&trace.to_json()).unwrap();
        assert_eq!(reread, trace);
    }
}
