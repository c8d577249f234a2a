//! Layers that no span of a run can isolate from outside, timed by calling
//! their public functions directly on the workload's own frames: the RESP
//! codec, wire-id framing, control frames, the ring and the plan. Each
//! value is the median over batches of the mean time of one call.

use std::hint::black_box;
use std::time::Instant;

use dynamoth_pubsub::client::{frame_payload, parse_payload};
use dynamoth_pubsub::control::{decode_report, encode_report};
use dynamoth_pubsub::resp::{self, Value};
use dynamoth_pubsub::{
    channel_id_of, BrokerLoadReport, ChannelMapping, ControlFrame, MessageId, Plan, PlanId, Ring,
    ServerId, DEFAULT_VNODES,
};

use crate::stats::median;
use crate::workload::Workload;

const BATCHES: usize = 25;
const CALLS_PER_BATCH: usize = 2_000;

/// Mean nanoseconds per call of `f`, median over batches.
fn time_ns(mut f: impl FnMut(usize)) -> f64 {
    let per_batch: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let started = Instant::now();
            for i in 0..CALLS_PER_BATCH {
                f(i);
            }
            started.elapsed().as_nanos() as f64 / CALLS_PER_BATCH as f64
        })
        .collect();
    median(&per_batch).unwrap_or(0.0)
}

/// The gauges of one workload. `report` is a load report harvested from
/// one of its brokers. Layers the workload never enters stay at 0.
pub fn gauges(w: &Workload, report: &BrokerLoadReport) -> Vec<(String, f64)> {
    let mut out = vec![("micro.calls".to_owned(), (BATCHES * CALLS_PER_BATCH) as f64)];
    let mut put = |name: &str, value: f64| out.push((name.to_owned(), value));

    // The frames this workload puts on the wire: the PUBLISH command and
    // the push it becomes. Through a RoutedClient the payload also carries
    // the wire-id header.
    let body = vec![b'x'; w.payload_len];
    let id = MessageId { origin: 7, seq: 9 };
    let payload = if w.routed() {
        frame_payload(id, &body)
    } else {
        body.clone()
    };
    let channel = w.channels[0].as_str();
    let command = Value::array(vec![
        Value::bulk("PUBLISH"),
        Value::bulk(channel),
        Value::bulk(payload.clone()),
    ]);
    let mut wire = Vec::with_capacity(256);
    put(
        "resp.encode_ns",
        time_ns(|_| {
            wire.clear();
            resp::encode(black_box(&command), &mut wire);
            black_box(&wire);
        }),
    );
    let mut push = Vec::new();
    resp::encode(&resp::message_push(channel, &payload), &mut push);
    put(
        "resp.decode_ns",
        time_ns(|_| {
            black_box(resp::decode(black_box(&push)).expect("own frame decodes"));
        }),
    );

    if !w.routed() {
        for name in [
            "client.frame_payload_ns",
            "client.parse_payload_ns",
            "control.frame_roundtrip_ns",
            "control.report_roundtrip_us",
            "hashing.server_for_ns",
            "plan.resolve_ns",
        ] {
            put(name, 0.0);
        }
        return out;
    }

    put(
        "client.frame_payload_ns",
        time_ns(|i| {
            let id = MessageId {
                origin: 7,
                seq: i as u64,
            };
            black_box(frame_payload(black_box(id), black_box(&body)));
        }),
    );
    put(
        "client.parse_payload_ns",
        time_ns(|_| {
            black_box(parse_payload(black_box(&payload)));
        }),
    );
    let switch = ControlFrame::Switch {
        channel: channel.to_owned(),
        mapping: ChannelMapping::Single(ServerId::from_index(1)),
        plan: PlanId(42),
        quarantine: Vec::new(),
    };
    put(
        "control.frame_roundtrip_ns",
        time_ns(|_| {
            let bytes = black_box(&switch).encode();
            black_box(ControlFrame::decode(&bytes).expect("own frame decodes"));
        }),
    );
    put(
        "control.report_roundtrip_us",
        time_ns(|_| {
            let bytes = encode_report(black_box(report));
            black_box(decode_report(&bytes).expect("own report decodes"));
        }) / 1e3,
    );
    let servers: Vec<ServerId> = (0..3).map(ServerId::from_index).collect();
    let ring = Ring::new(&servers, DEFAULT_VNODES);
    let ids: Vec<_> = w.channels.iter().map(|c| channel_id_of(c)).collect();
    put(
        "hashing.server_for_ns",
        time_ns(|i| {
            black_box(ring.server_for(black_box(ids[i % ids.len()])));
        }),
    );
    // Half the channels mapped explicitly (as after migrations), half
    // resolved through the ring.
    let mut plan = Plan::bootstrap();
    for (k, &id) in ids.iter().enumerate().filter(|(k, _)| k % 2 == 0) {
        plan.set(id, ChannelMapping::Single(servers[k % servers.len()]));
    }
    put(
        "plan.resolve_ns",
        time_ns(|i| {
            black_box(plan.resolve(black_box(ids[i % ids.len()]), &ring));
        }),
    );
    out
}
