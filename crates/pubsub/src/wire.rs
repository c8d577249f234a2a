//! The bytes of every frame the live tier writes, and the one strict
//! reader of each.
//!
//! Dynamoth keeps its brokers unmodified (§IV of the paper), so the
//! routed tier carries its own protocol inside what a broker sees as
//! payloads and channel names. These are all of its formats. Numbers are
//! lower-case hex, `016x` fields are fixed width, mapping and quarantine
//! broker indices are decimal, and a trailing name or body is raw bytes
//! that may contain any delimiter:
//!
//! | magic | layer | bytes | from → to |
//! |---|---|---|---|
//! | `DMID1` | publisher | `DMID1;<origin:016x><seq:016x>;<body>` | publisher → subscribers, sidecars |
//! | `DMSEQ1` | broker | `DMSEQ1;<from:016x or ->;<name>`, a `SUBSCRIBE` argument | client → broker |
//! | `DMSEQ1` | broker | `DMSEQ1;<seq:016x>;<payload>`, a delivery prefix | broker → sequenced subscriber |
//! | `DMGAP1` | broker | `DMGAP1;<requested:016x>;<resume_from:016x>` | broker → resuming subscriber |
//! | `DMRES1` | broker | `DMRES1;<replayed:016x>;<next:016x>` | broker → resuming subscriber |
//! | `DMCTL1` | control | `DMCTL1;<switch or moved>;<plan:016x>;<mapping>;<quarantine>;<name>` | sidecar → routers |
//! | `DMINST1` | control | `DMINST1;<plan:016x>;<old mapping>;<new mapping>;<quarantine>;<name>` | balancer → sidecars |
//! | `DMLLA1` | control | `DMLLA1;<tick>;<egress>;<ingress>;<sent>;<n>\n`, then per channel `<namelen>;<pubs>;<dels>;<bytes in>;<bytes out>;<subs>\n<name>` | reporter → balancer |
//!
//! A mapping is `single:<i>`, or `allsub:`/`allpub:` with two or more
//! indices joined by `,`. A quarantine list is `-` or
//! `<broker>.<incarnation>` entries joined by `,`. The control plane's
//! channels are `__dmc.<origin:016x>` (the `MOVED` inbox of one router
//! connection), `__dmc.lla.<broker:04x>` (load reports) and
//! `__dmc.inst.<broker:04x>` (installs).
//!
//! Every reader accepts exactly what its writer writes: lower-case
//! digits, no sign, no leading zero outside fixed-width fields, and no
//! number its field's type would truncate — a mapping index past
//! `u32::MAX` would alias a smaller [`ServerId`]. Anything else is not a
//! frame: a payload that merely resembles one is delivered untouched.
//! Readers compare the magic first, so an application payload costs one
//! prefix compare.
//!
//! Payload-space frames can be spoofed by whoever may publish; the
//! deployments this models own both ends of the wire, the trade for
//! broker transparency.

use std::io::Write;

use crate::balance::metrics::ChannelTick;
use crate::client::MessageId;
use crate::ids::{PlanId, ServerId};
use crate::load::BrokerLoadReport;
use crate::plan::ChannelMapping;

const ID: &[u8] = b"DMID1;";
const SEQ: &[u8] = b"DMSEQ1;";
const GAP: &[u8] = b"DMGAP1;";
const RES: &[u8] = b"DMRES1;";
const CTL: &[u8] = b"DMCTL1;";
const INST: &[u8] = b"DMINST1;";
const LLA: &[u8] = b"DMLLA1;";
const CONTROL_CHANNELS: &str = "__dmc.";

/// Bytes the wire-id header adds in front of a framed payload.
pub const ID_HEADER_LEN: usize = ID.len() + 16 + 16 + 1;

const DIGITS: &[u8; 16] = b"0123456789abcdef";

/// `v` as 16 lower-case hex digits.
fn hex16_digits(v: u64) -> [u8; 16] {
    let mut hex = [0u8; 16];
    for (i, digit) in hex.iter_mut().enumerate() {
        *digit = DIGITS[(v >> (60 - 4 * i)) as usize & 0xf];
    }
    hex
}

/// Appends `v` as 16 lower-case hex digits.
fn put_hex16(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&hex16_digits(v));
}

/// Appends `v` in `radix` (10 or 16) with no leading zero.
fn put_num(out: &mut Vec<u8>, v: u64, radix: u32) {
    // Writing to a `Vec` cannot fail.
    let _ = if radix == 16 {
        write!(out, "{v:x}")
    } else {
        write!(out, "{v}")
    };
}

/// Appends `items`, each written by `put`, separated by `sep`.
fn put_joined<T>(out: &mut Vec<u8>, items: &[T], sep: u8, put: impl Fn(&mut Vec<u8>, &T)) {
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(sep);
        }
        put(out, item);
    }
}

/// The value of the lower-case `radix` digit `b`.
fn digit(b: u8, radix: u32) -> Option<u64> {
    let d = (b as char).to_digit(radix)?;
    (!b.is_ascii_uppercase()).then_some(d.into())
}

/// Exactly 16 lower-case hex digits.
fn hex16(field: &[u8]) -> Option<u64> {
    if field.len() != 16 {
        return None;
    }
    field
        .iter()
        .try_fold(0u64, |acc, &b| Some(acc << 4 | digit(b, 16)?))
}

/// A number as [`put_num`] writes it: non-empty, no leading zero, and
/// within `u64`.
fn num(field: &[u8], radix: u32) -> Option<u64> {
    if let [] | [b'0', _, ..] = field {
        return None;
    }
    let step = |acc: u64, &b| acc.checked_mul(radix.into())?.checked_add(digit(b, radix)?);
    field.iter().try_fold(0, step)
}

/// A cursor over the fields of one frame; `.0` is what is left.
struct Fields<'a>(&'a [u8]);

impl<'a> Fields<'a> {
    /// The fields behind `magic`, if `payload` starts with it.
    fn after(magic: &[u8], payload: &'a [u8]) -> Option<Fields<'a>> {
        payload.strip_prefix(magic).map(Fields)
    }

    /// The bytes up to the next `end`, which is consumed too.
    fn until(&mut self, end: u8) -> Option<&'a [u8]> {
        let at = self.0.iter().position(|&b| b == end)?;
        let field = &self.0[..at];
        self.0 = &self.0[at + 1..];
        Some(field)
    }

    /// The next `;`-terminated field.
    fn field(&mut self) -> Option<&'a [u8]> {
        self.until(b';')
    }

    /// The next `n` bytes.
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let field = self.0.get(..n)?;
        self.0 = &self.0[n..];
        Some(field)
    }

    /// A `;`-terminated fixed-width hex field.
    fn hex16(&mut self) -> Option<u64> {
        hex16(self.field()?)
    }

    /// The last two fields of a marker: `<a:016x>;<b:016x>`.
    fn pair(mut self) -> Option<(u64, u64)> {
        Some((self.hex16()?, hex16(self.0)?))
    }

    /// A `\n`-terminated line of `N` hex numbers joined by `;`.
    fn line<const N: usize>(&mut self) -> Option<[u64; N]> {
        let mut line = Fields(self.until(b'\n')?);
        let mut out = [0; N];
        let (last, init) = out.split_last_mut()?;
        for slot in init {
            *slot = num(line.field()?, 16)?;
        }
        *last = num(line.0, 16)?;
        Some(out)
    }

    /// The trailing name.
    fn name(self) -> Option<String> {
        std::str::from_utf8(self.0).ok().map(str::to_owned)
    }
}

/// Frames `body` with `id` for the paper's duplicate-suppression
/// scheme: `DMID1;<origin:016x><seq:016x>;<body>`. The header is plain
/// payload bytes to the broker, so unmodified RESP servers forward it
/// untouched.
pub fn frame_payload(id: MessageId, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(ID_HEADER_LEN + body.len());
    out.extend_from_slice(ID);
    put_hex16(&mut out, id.origin);
    put_hex16(&mut out, id.seq);
    out.push(b';');
    out.extend_from_slice(body);
    out
}

/// Splits a delivered payload into its wire id (if the publisher framed
/// one) and the body. Payloads without a valid header pass through
/// verbatim.
pub fn parse_payload(payload: &[u8]) -> (Option<MessageId>, &[u8]) {
    let framed = Fields::after(ID, payload).and_then(|mut f| {
        let origin = hex16(f.take(16)?)?;
        let seq = f.hex16()?;
        Some((MessageId { origin, seq }, f.0))
    });
    match framed {
        Some((id, body)) => (Some(id), body),
        None => (None, payload),
    }
}

/// `DMSEQ1;<seq:016x or ->;<rest>`: both `DMSEQ1` forms.
fn seq_frame(seq: Option<u64>, rest: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(SEQ.len() + 17 + rest.len());
    out.extend_from_slice(SEQ);
    match seq {
        Some(seq) => put_hex16(&mut out, seq),
        None => out.push(b'-'),
    }
    out.push(b';');
    out.extend_from_slice(rest);
    out
}

/// A `SUBSCRIBE` argument asking for a sequenced subscription on
/// `name`, replaying the retained suffix from `from` when given.
pub(crate) fn subscribe_arg(name: &str, from: Option<u64>) -> Vec<u8> {
    seq_frame(from, name.as_bytes())
}

/// Reads a sequenced `SUBSCRIBE` argument as `(name, from)`. `None` for
/// a plain channel name, and for a malformed `from`: the argument then
/// subscribes plainly on the literal name rather than inventing a
/// resume point.
pub(crate) fn parse_subscribe_arg(arg: &str) -> Option<(&str, Option<u64>)> {
    let mut f = Fields::after(SEQ, arg.as_bytes())?;
    let from = match f.field()? {
        b"-" => None,
        hex => Some(hex16(hex)?),
    };
    Some((&arg[arg.len() - f.0.len()..], from))
}

/// Bytes the header of a sequenced payload takes.
const SEQ_HEADER_LEN: usize = SEQ.len() + 16 + 1;

/// The header in front of a payload as a sequenced subscriber receives
/// it under broker sequence `seq`: `DMSEQ1;<seq:016x>;`. The broker
/// writes it straight into the push frame, so the payload is never
/// copied to join them.
pub(crate) fn sequenced_header(seq: u64) -> [u8; SEQ_HEADER_LEN] {
    let mut out = [b';'; SEQ_HEADER_LEN];
    out[..SEQ.len()].copy_from_slice(SEQ);
    out[SEQ.len()..SEQ.len() + 16].copy_from_slice(&hex16_digits(seq));
    out
}

fn marker(magic: &[u8], a: u64, b: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(magic.len() + 33);
    out.extend_from_slice(magic);
    put_hex16(&mut out, a);
    out.push(b';');
    put_hex16(&mut out, b);
    out
}

/// The gap marker: the retained suffix no longer reaches back to
/// `requested`; delivery resumes at `resume_from`.
pub(crate) fn gap(requested: u64, resume_from: u64) -> Vec<u8> {
    marker(GAP, requested, resume_from)
}

/// The resume-complete marker: `replayed` frames were replayed; the
/// next live sequence on the channel will be `next`.
pub(crate) fn resumed(replayed: u64, next: u64) -> Vec<u8> {
    marker(RES, replayed, next)
}

/// What a message push to a sequenced subscription carries.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Delivery<'a> {
    /// A [`gap`] marker: `(requested, resume_from)`.
    Gap(u64, u64),
    /// A [`resumed`] marker: `(replayed, next)`.
    Resumed(u64, u64),
    /// A payload behind a [`sequenced_header`]: `(seq, body)`.
    Sequenced(u64, &'a [u8]),
    /// None of these: the payload as it came.
    Plain(&'a [u8]),
}

/// Reads one message push to a sequenced subscription.
pub(crate) fn delivery(payload: &[u8]) -> Delivery<'_> {
    let framed = if let Some(mut f) = Fields::after(SEQ, payload) {
        f.hex16().map(|seq| Delivery::Sequenced(seq, f.0))
    } else if let Some(f) = Fields::after(GAP, payload) {
        f.pair().map(|(a, b)| Delivery::Gap(a, b))
    } else if let Some(f) = Fields::after(RES, payload) {
        f.pair().map(|(a, b)| Delivery::Resumed(a, b))
    } else {
        None
    };
    framed.unwrap_or(Delivery::Plain(payload))
}

/// The control channel of the publisher with wire-id `origin`. Sidecars
/// publish [`ControlFrame::Moved`] here; the routed client subscribes to
/// it on every broker it connects to.
pub fn control_channel(origin: u64) -> String {
    format!("{CONTROL_CHANNELS}{origin:016x}")
}

/// `true` if `name` is a control channel (these never route through
/// plans and are invisible to application traffic accounting).
pub fn is_control_channel(name: &str) -> bool {
    name.starts_with(CONTROL_CHANNELS)
}

/// The channel on which broker `broker` (by directory index) publishes
/// its periodic [`BrokerLoadReport`]s; the live balancer subscribes to
/// it directly on that broker.
pub fn lla_channel(broker: usize) -> String {
    format!("{CONTROL_CHANNELS}lla.{broker:04x}")
}

/// The channel on which broker `broker`'s dispatcher sidecar receives
/// plan-delta installs ([`InstallFrame`]) from the live balancer.
pub fn install_channel(broker: usize) -> String {
    format!("{CONTROL_CHANNELS}inst.{broker:04x}")
}

/// A broker the balancer has declared dead, together with the death
/// count ("incarnation") it is on. Control and install frames carry the
/// current quarantine list so routers learn about whole-broker failures
/// from any surviving sidecar, without waiting for their own probes.
/// The incarnation lets receivers deduplicate death announcements: a
/// router acts on `(broker, incarnation)` at most once, and a later
/// re-report by the broker (it came back) starts a new incarnation with
/// a fresh sequence space — which is why cross-broker failover is a
/// [`GapReason::Failover`](crate::GapReason) gap, never a silent splice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Quarantine {
    /// Directory index of the dead broker.
    pub broker: usize,
    /// How many times it has been declared dead (starts at 1).
    pub incarnation: u64,
}

/// Appends `mapping` and its `;`.
fn put_mapping(out: &mut Vec<u8>, mapping: &ChannelMapping) {
    let (mode, servers): (&[u8], &[ServerId]) = match mapping {
        ChannelMapping::Single(s) => (b"single:", std::slice::from_ref(s)),
        ChannelMapping::AllSubscribers(v) => (b"allsub:", v),
        ChannelMapping::AllPublishers(v) => (b"allpub:", v),
    };
    out.extend_from_slice(mode);
    put_joined(out, servers, b',', |out, s| {
        put_num(out, s.index() as u64, 10)
    });
    out.push(b';');
}

/// A mapping member: a decimal directory index that a [`ServerId`]
/// holds without truncation.
fn server(field: &[u8]) -> Option<ServerId> {
    let index = u32::try_from(num(field, 10)?).ok()?;
    Some(ServerId::from_index(index as usize))
}

/// Rejects degenerate replicated mappings (`allsub:`/`allpub:` with
/// fewer than two members) so a corrupt or hostile control frame can
/// never smuggle an empty member list into a [`Plan`](crate::Plan) —
/// downstream routing treats such mappings as unroutable rather than
/// panicking, but they should not be constructible over the wire at all.
fn mapping(field: &[u8]) -> Option<ChannelMapping> {
    let mut f = Fields(field);
    let mode = f.until(b':')?;
    let servers: Option<Vec<ServerId>> = f.0.split(|&b| b == b',').map(server).collect();
    let servers = servers?;
    match (mode, servers.len()) {
        (b"single", 1) => Some(ChannelMapping::Single(servers[0])),
        (b"allsub", n) if n >= 2 => Some(ChannelMapping::AllSubscribers(servers)),
        (b"allpub", n) if n >= 2 => Some(ChannelMapping::AllPublishers(servers)),
        _ => None,
    }
}

/// Appends `list` and its `;`.
fn put_quarantine(out: &mut Vec<u8>, list: &[Quarantine]) {
    if list.is_empty() {
        out.push(b'-');
    }
    put_joined(out, list, b',', |out, q| {
        put_num(out, q.broker as u64, 10);
        out.push(b'.');
        put_num(out, q.incarnation, 16);
    });
    out.push(b';');
}

fn quarantine(field: &[u8]) -> Option<Vec<Quarantine>> {
    if field == b"-" {
        return Some(Vec::new());
    }
    field
        .split(|&b| b == b',')
        .map(|entry| {
            let mut f = Fields(entry);
            Some(Quarantine {
                broker: usize::try_from(num(f.until(b'.')?, 10)?).ok()?,
                incarnation: num(f.0, 16)?,
            })
        })
        .collect()
}

/// A reconfiguration notification, published in-band so the brokers
/// stay unmodified (§IV of the paper):
///
/// - **`<switch to H>`** ([`ControlFrame::Switch`]): published by the
///   *old* broker's dispatcher sidecar on the migrated channel itself,
///   telling the channel's still-connected local subscribers where the
///   channel now lives.
/// - **`MOVED`** ([`ControlFrame::Moved`]): published on the stale
///   *publisher's* control channel (derived from the wire-id
///   origin of the wrong-server publication it just sent), telling it to
///   update its local plan. This is the Redis-Cluster-style wrong-server
///   reply, done over pub/sub because the broker cannot speak for us.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControlFrame {
    /// "This channel moved; re-point your subscription."
    Switch {
        /// The migrated channel's name.
        channel: String,
        /// Where it lives now.
        mapping: ChannelMapping,
        /// Version of the plan that moved it.
        plan: PlanId,
        /// Brokers currently believed dead (may be empty).
        quarantine: Vec<Quarantine>,
    },
    /// "You published to the wrong server; update your local plan."
    Moved {
        /// The migrated channel's name.
        channel: String,
        /// Where it lives now.
        mapping: ChannelMapping,
        /// Version of the plan that moved it.
        plan: PlanId,
        /// Brokers currently believed dead (may be empty).
        quarantine: Vec<Quarantine>,
    },
}

impl ControlFrame {
    /// A `Switch` if `switch`, else a `Moved`.
    fn of(
        switch: bool,
        channel: String,
        mapping: ChannelMapping,
        plan: PlanId,
        quarantine: Vec<Quarantine>,
    ) -> Self {
        if switch {
            ControlFrame::Switch {
                channel,
                mapping,
                plan,
                quarantine,
            }
        } else {
            ControlFrame::Moved {
                channel,
                mapping,
                plan,
                quarantine,
            }
        }
    }

    /// The kind's wire name and every field.
    fn parts(&self) -> (&'static [u8], &str, &ChannelMapping, PlanId, &[Quarantine]) {
        match self {
            ControlFrame::Switch {
                channel,
                mapping,
                plan,
                quarantine,
            } => (b"switch", channel, mapping, *plan, quarantine),
            ControlFrame::Moved {
                channel,
                mapping,
                plan,
                quarantine,
            } => (b"moved", channel, mapping, *plan, quarantine),
        }
    }

    /// The channel name the frame is about.
    pub fn channel(&self) -> &str {
        self.parts().1
    }

    /// The new mapping it announces.
    pub fn mapping(&self) -> &ChannelMapping {
        self.parts().2
    }

    /// The plan version it carries.
    pub fn plan(&self) -> PlanId {
        self.parts().3
    }

    /// The quarantine list it carries (brokers believed dead).
    pub fn quarantine(&self) -> &[Quarantine] {
        self.parts().4
    }

    /// Serializes to `DMCTL1` payload bytes; the channel name comes last,
    /// unescaped.
    pub fn encode(&self) -> Vec<u8> {
        let (kind, channel, mapping, plan, quarantine) = self.parts();
        let mut out = Vec::with_capacity(CTL.len() + 48 + channel.len());
        out.extend_from_slice(CTL);
        out.extend_from_slice(kind);
        out.push(b';');
        put_hex16(&mut out, plan.0);
        out.push(b';');
        put_mapping(&mut out, mapping);
        put_quarantine(&mut out, quarantine);
        out.extend_from_slice(channel.as_bytes());
        out
    }

    /// Parses payload bytes; `None` for anything that is not a valid
    /// control frame (then it is application payload).
    pub fn decode(payload: &[u8]) -> Option<ControlFrame> {
        let mut f = Fields::after(CTL, payload)?;
        let kind = f.field()?;
        let plan = PlanId(f.hex16()?);
        let mapping = mapping(f.field()?)?;
        let quarantine = quarantine(f.field()?)?;
        let switch = match kind {
            b"switch" => true,
            b"moved" => false,
            _ => return None,
        };
        let channel = f.name()?;
        Some(ControlFrame::of(switch, channel, mapping, plan, quarantine))
    }
}

/// One plan delta pushed by the live balancer to a dispatcher sidecar's
/// install channel: "channel `channel` moves from `old` to `new` under
/// plan version `plan`". The sidecar turns it into the same
/// dual-mapping forwarding window a local
/// [`DispatcherSidecar::install`](crate::DispatcherSidecar::install)
/// call would.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstallFrame {
    /// Version of the plan that performs the move.
    pub plan: PlanId,
    /// The migrating channel's name.
    pub channel: String,
    /// Mapping before the move.
    pub old: ChannelMapping,
    /// Mapping after the move.
    pub new: ChannelMapping,
    /// Brokers believed dead when the plan was computed. Non-empty
    /// marks this as an **emergency failover install**: every surviving
    /// sidecar applies it (not just those in `old`/`new`), so stray
    /// publications land on a broker that knows where to forward them.
    pub quarantine: Vec<Quarantine>,
}

impl InstallFrame {
    /// Serializes to `DMINST1` payload bytes; the channel name comes
    /// last, unescaped.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(INST.len() + 64 + self.channel.len());
        out.extend_from_slice(INST);
        put_hex16(&mut out, self.plan.0);
        out.push(b';');
        put_mapping(&mut out, &self.old);
        put_mapping(&mut out, &self.new);
        put_quarantine(&mut out, &self.quarantine);
        out.extend_from_slice(self.channel.as_bytes());
        out
    }

    /// Parses payload bytes; `None` for anything that is not a valid
    /// install frame.
    pub fn decode(payload: &[u8]) -> Option<InstallFrame> {
        let mut f = Fields::after(INST, payload)?;
        Some(InstallFrame {
            plan: PlanId(f.hex16()?),
            old: mapping(f.field()?)?,
            new: mapping(f.field()?)?,
            quarantine: quarantine(f.field()?)?,
            channel: f.name()?,
        })
    }
}

/// Appends `values` in hex, joined by `;`, and a newline.
fn put_line(out: &mut Vec<u8>, values: &[u64]) {
    put_joined(out, values, b';', |out, &v| put_num(out, v, 16));
    out.push(b'\n');
}

/// Serializes a [`BrokerLoadReport`] as a `DMLLA1` payload. Each channel
/// name follows a line giving its length: names may contain `;` and `\n`.
pub fn encode_report(report: &BrokerLoadReport) -> Vec<u8> {
    let mut out = LLA.to_vec();
    put_line(
        &mut out,
        &[
            report.tick,
            report.egress_bytes,
            report.ingress_bytes,
            report.sent_messages,
            report.channels.len() as u64,
        ],
    );
    for (name, t) in &report.channels {
        put_line(
            &mut out,
            &[
                name.len() as u64,
                t.publications,
                t.deliveries,
                t.bytes_in,
                t.bytes_out,
                t.subscribers.into(),
            ],
        );
        out.extend_from_slice(name.as_bytes());
    }
    out
}

/// Parses a `DMLLA1` report payload; `None` for anything malformed.
pub fn decode_report(payload: &[u8]) -> Option<BrokerLoadReport> {
    let mut f = Fields::after(LLA, payload)?;
    let [tick, egress_bytes, ingress_bytes, sent_messages, n] = f.line()?;
    let mut channels = Vec::with_capacity(n.min(4096) as usize);
    for _ in 0..n {
        let [len, publications, deliveries, bytes_in, bytes_out, subscribers] = f.line()?;
        let name = Fields(f.take(usize::try_from(len).ok()?)?).name()?;
        let tick = ChannelTick {
            publications,
            deliveries,
            bytes_in,
            bytes_out,
            publishers: 0,
            subscribers: u32::try_from(subscribers).ok()?,
        };
        channels.push((name, tick));
    }
    f.0.is_empty().then_some(BrokerLoadReport {
        tick,
        egress_bytes,
        ingress_bytes,
        sent_messages,
        channels,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use ChannelMapping::{AllPublishers, AllSubscribers, Single};

    /// One frame of any kind, owning its bytes.
    #[derive(Debug, Clone, PartialEq, Eq)]
    enum Frame {
        Id(MessageId, Vec<u8>),
        SubscribeArg(String, Option<u64>),
        Sequenced(u64, Vec<u8>),
        Gap(u64, u64),
        Resumed(u64, u64),
        Control(ControlFrame),
        Install(InstallFrame),
        Report(BrokerLoadReport),
    }

    impl Frame {
        fn encode(&self) -> Vec<u8> {
            match self {
                Frame::Id(id, body) => frame_payload(*id, body),
                Frame::SubscribeArg(name, from) => subscribe_arg(name, *from),
                Frame::Sequenced(seq, body) => [&sequenced_header(*seq)[..], body].concat(),
                Frame::Gap(requested, resume_from) => gap(*requested, *resume_from),
                Frame::Resumed(replayed, next) => resumed(*replayed, *next),
                Frame::Control(frame) => frame.encode(),
                Frame::Install(frame) => frame.encode(),
                Frame::Report(report) => encode_report(report),
            }
        }
    }

    /// Every frame some reader reads `bytes` as.
    fn reads(bytes: &[u8]) -> Vec<Frame> {
        let mut out = Vec::new();
        if let (Some(id), body) = parse_payload(bytes) {
            out.push(Frame::Id(id, body.to_vec()));
        }
        if let Some((name, from)) = std::str::from_utf8(bytes).map_or(None, parse_subscribe_arg) {
            out.push(Frame::SubscribeArg(name.to_owned(), from));
        }
        out.extend(match delivery(bytes) {
            Delivery::Sequenced(seq, body) => Some(Frame::Sequenced(seq, body.to_vec())),
            Delivery::Gap(a, b) => Some(Frame::Gap(a, b)),
            Delivery::Resumed(a, b) => Some(Frame::Resumed(a, b)),
            Delivery::Plain(_) => None,
        });
        out.extend(ControlFrame::decode(bytes).map(Frame::Control));
        out.extend(InstallFrame::decode(bytes).map(Frame::Install));
        out.extend(decode_report(bytes).map(Frame::Report));
        out
    }

    /// Whatever a reader reads from `bytes`, its writer writes `bytes`.
    fn strict(bytes: &[u8]) -> Result<(), TestCaseError> {
        for frame in reads(bytes) {
            let text = String::from_utf8_lossy(bytes);
            prop_assert_eq!(frame.encode(), bytes, "{:?} read from {:?}", frame, text);
        }
        Ok(())
    }

    fn s(i: usize) -> ServerId {
        ServerId::from_index(i)
    }

    fn q(broker: usize, incarnation: u64) -> Quarantine {
        Quarantine {
            broker,
            incarnation,
        }
    }

    fn ctl(switch: bool, name: &str, m: ChannelMapping, plan: u64, q: Vec<Quarantine>) -> Frame {
        Frame::Control(ControlFrame::of(switch, name.into(), m, PlanId(plan), q))
    }

    fn inst(name: &str, [old, new]: [ChannelMapping; 2], plan: u64, q: Vec<Quarantine>) -> Frame {
        Frame::Install(InstallFrame {
            plan: PlanId(plan),
            channel: name.to_owned(),
            old,
            new,
            quarantine: q,
        })
    }

    /// A report from its four totals and, per channel, its name, four
    /// counters and subscriber count.
    fn report(totals: [u64; 4], channels: &[(String, [u64; 4], u32)]) -> Frame {
        let [tick, egress_bytes, ingress_bytes, sent_messages] = totals;
        let channels = channels.iter().map(|(name, [p, d, i, o], subscribers)| {
            let t = ChannelTick {
                publications: *p,
                deliveries: *d,
                bytes_in: *i,
                bytes_out: *o,
                publishers: 0,
                subscribers: *subscribers,
            };
            (name.clone(), t)
        });
        Frame::Report(BrokerLoadReport {
            tick,
            egress_bytes,
            ingress_bytes,
            sent_messages,
            channels: channels.collect(),
        })
    }

    /// One literal per frame kind, as the writers wrote them before they
    /// moved here: running processes depend on these bytes.
    #[test]
    fn writers_match_the_golden_bytes() {
        let id = |origin, seq| Frame::Id(MessageId { origin, seq }, b"body".to_vec());
        let room = String::from("room;7");
        let sub02 = AllSubscribers(vec![s(0), s(2)]);
        let pub12 = AllPublishers(vec![s(1), s(2)]);
        let q012 = vec![q(0, 2), q(12, 0xdead)];
        let channels = [
            ("plain".into(), [3, 9, 300, 900], 3),
            ("evil;name\nwith;delimiters".into(), [1, 0, 7, 0], 0),
        ];
        let frames = [
            id(0xdead_beef_cafe_f00d, 42),
            id(0, 0),
            id(u64::MAX, u64::MAX),
            id(0x0123_4567_89ab_cdef, u64::MAX - 1),
            id(u64::MAX, 1),
            Frame::SubscribeArg(room.clone(), None),
            Frame::SubscribeArg(room, Some(0x2a)),
            Frame::Sequenced(7, b"hello".to_vec()),
            Frame::Gap(3, 9),
            Frame::Resumed(5, 12),
            ctl(true, "tile;3", sub02, 7, vec![q(3, 0x1f)]),
            ctl(false, "c", Single(s(1)), u64::MAX, Vec::new()),
            inst("tile;with;semis", [Single(s(0)), pub12], 9, q012),
            report([42, 1 << 40, 12345, 678], &channels),
        ];
        let golden: [&[u8]; 14] = [
            b"DMID1;deadbeefcafef00d000000000000002a;body",
            b"DMID1;00000000000000000000000000000000;body",
            b"DMID1;ffffffffffffffffffffffffffffffff;body",
            b"DMID1;0123456789abcdeffffffffffffffffe;body",
            b"DMID1;ffffffffffffffff0000000000000001;body",
            b"DMSEQ1;-;room;7",
            b"DMSEQ1;000000000000002a;room;7",
            b"DMSEQ1;0000000000000007;hello",
            b"DMGAP1;0000000000000003;0000000000000009",
            b"DMRES1;0000000000000005;000000000000000c",
            b"DMCTL1;switch;0000000000000007;allsub:0,2;3.1f;tile;3",
            b"DMCTL1;moved;ffffffffffffffff;single:1;-;c",
            b"DMINST1;0000000000000009;single:0;allpub:1,2;0.2,12.dead;tile;with;semis",
            b"DMLLA1;2a;10000000000;3039;2a6;2\n5;3;9;12c;384;3\nplain19;1;0;7;0;0\nevil;name\nwith;delimiters",
        ];
        for (frame, bytes) in frames.into_iter().zip(golden) {
            assert_eq!(frame.encode(), bytes, "{frame:?}");
            // Only the two `DMSEQ1` forms share a layout; where they
            // travel tells them apart.
            let read = reads(bytes);
            let seq = |f: &Frame| matches!(f, Frame::SubscribeArg(..) | Frame::Sequenced(..));
            assert!(read.iter().all(|r| *r == frame || seq(r) && seq(&frame)));
            assert!(read.contains(&frame), "{frame:?}");
        }
        assert_eq!(control_channel(0xAB), "__dmc.00000000000000ab");
        assert_eq!(lla_channel(3), "__dmc.lla.0003");
        assert_eq!(install_channel(0x1234), "__dmc.inst.1234");
        for name in [control_channel(7), lla_channel(3), install_channel(3)] {
            assert!(is_control_channel(&name));
        }
        assert!(!is_control_channel("tile_7"));
    }

    /// Inputs no reader accepts: malformed, truncated, trailing bytes,
    /// degenerate mappings, and numbers a writer never writes.
    #[test]
    fn junk_is_not_a_frame() {
        let mut zz = ID.to_vec();
        zz.extend_from_slice(&[b'z'; 32]);
        zz.extend_from_slice(b";body");
        let mut junk: Vec<Vec<u8>> = vec![
            zz,
            vec![0; 64],
            vec![0xff, 0xfe, 0x00],
            vec![0xff, 0xfe, b'\n'],
        ];
        let texts = [
            "",
            "hello",
            "plain",
            "room.7",
            "DMID1;short",
            "DMID1;+000000000000007000000000000000a;x",
            "DMID1;00000000000000AB0000000000000001;x",
            "DMID1;00000000000000ab000000000000001;x",
            "DMID1;00000000000000ab0000000000000001",
            "DMSEQ1;xyz;room",
            "DMSEQ1;00ff;room",
            "DMSEQ1;-",
            "DMSEQ1;short",
            "DMSEQ1;+000000000000007;x",
            "DMSEQ1;000000000000000A;x",
            "DMGAP1;junk",
            "DMGAP1;0000000000000003;0000000000000009x",
            "DMGAP1;0000000000000003;000000000000009",
            "DMRES1;0000000000000005;000000000000000C",
            "DMRES1;0000000000000005",
            "DMCTL1;",
            "DMCTL1;switch;zz;single:0;-;c",
            "DMCTL1;switch;+000000000000001;single:1;-;c",
            "DMCTL1;bogus;0000000000000007;single:0;-;c",
            "DMCTL2;switch;0000000000000007;single:0;-;c",
            "DMINST1;0000000000000001;single:0;-;c",
            "DMINST1;zz;single:0;single:1;-;c",
            "DMLLA1;1;2;3;4;5",
            "DMLLA1;1;2;3;4;1\n",
            "DMLLA1;1;2;3;4;0\nextra",
            "DMLLA1;zz;2;3;4;0\n",
            "DMCTL1;1;2;3;4;0\n",
            "DMLLA1;+1;2;3;4;0\n",
            "DMLLA1;01;2;3;4;0\n",
            "DMLLA1;A;2;3;4;0\n",
            "DMLLA1;1;2;3;4;0;5\n",
            "DMLLA1;10000000000000000;2;3;4;0\n",
            "DMLLA1;1;2;3;4;1\n1;0;0;0;0;100000000\nx",
            "DMLLA1;1;2;3;4;1\n2;0;0;0;0;0\nx",
        ];
        junk.extend(texts.iter().map(|t| t.as_bytes().to_vec()));
        // Each bad mapping in every mapping field, each bad quarantine
        // list (the last one: the old format without the field) in every
        // quarantine field.
        let mappings = [
            "",
            "single:",
            "single:x",
            "single:01",
            "single:+1",
            "single:1,2",
            "single:4294967296",
            "allsub:",
            "allsub:1",
            "allpub:",
            "allpub:0",
            "allsub:1,4294967297",
            "bogus:1,2",
        ];
        for m in mappings {
            junk.push(format!("DMCTL1;switch;0000000000000007;{m};-;c").into());
            junk.push(format!("DMINST1;0000000000000001;{m};single:1;-;c").into());
            junk.push(format!("DMINST1;0000000000000001;single:0;{m};-;c").into());
        }
        let quarantines = [
            "", "3", "3.", ".1", "a.b", "x.y", ",", "1.1,", "-,-", "03.1", "3.01", "3.+1",
        ];
        for q in quarantines
            .iter()
            .map(|q| format!("{q};"))
            .chain([String::new()])
        {
            junk.push(format!("DMCTL1;moved;0000000000000007;single:0;{q}c").into());
            junk.push(format!("DMINST1;0000000000000001;single:0;single:1;{q}c").into());
        }
        junk.push(b"DMCTL1;switch;0000000000000001;single:1;-;\xff".to_vec());
        for bytes in &junk {
            let text = String::from_utf8_lossy(bytes);
            assert_eq!(reads(bytes), [], "{text:?}");
            assert_eq!(parse_payload(bytes), (None, &bytes[..]), "{text:?}");
            assert_eq!(delivery(bytes), Delivery::Plain(bytes), "{text:?}");
        }
    }

    fn number() -> impl Strategy<Value = u64> {
        prop_oneof![Just(0u64), Just(u64::MAX), 0u64..300, any::<u64>()]
    }

    fn numbers() -> impl Strategy<Value = [u64; 4]> {
        (number(), number(), number(), number()).prop_map(|(a, b, c, d)| [a, b, c, d])
    }

    /// Names full of every delimiter the formats use, and non-ASCII.
    fn name() -> &'static str {
        "[a-fA-Z09;\n,.:_é€🦀 -]{0,12}"
    }

    fn bytes() -> impl Strategy<Value = Vec<u8>> {
        prop::collection::vec(any::<u8>(), 0..24)
    }

    fn mapping() -> impl Strategy<Value = ChannelMapping> {
        let server =
            || prop_oneof![Just(u32::MAX), 0u32..8, any::<u32>()].prop_map(|i| s(i as usize));
        let servers = || prop::collection::vec(server(), 2..5);
        prop_oneof![
            server().prop_map(Single),
            servers().prop_map(AllSubscribers),
            servers().prop_map(AllPublishers),
        ]
    }

    fn quarantine() -> impl Strategy<Value = Vec<Quarantine>> {
        let broker = prop_oneof![0u64..20, any::<u64>()].prop_map(|b| b as usize);
        prop::collection::vec((broker, number()).prop_map(|(b, i)| q(b, i)), 0..3)
    }

    fn frame() -> impl Strategy<Value = Frame> {
        let from = prop_oneof![Just(None), number().prop_map(Some)];
        let channels = prop::collection::vec((name(), numbers(), any::<u32>()), 0..3);
        prop_oneof![
            (number(), number(), bytes())
                .prop_map(|(origin, seq, body)| Frame::Id(MessageId { origin, seq }, body)),
            (name(), from).prop_map(|(name, from)| Frame::SubscribeArg(name, from)),
            (number(), bytes()).prop_map(|(seq, body)| Frame::Sequenced(seq, body)),
            (number(), number()).prop_map(|(a, b)| Frame::Gap(a, b)),
            (number(), number()).prop_map(|(a, b)| Frame::Resumed(a, b)),
            (any::<bool>(), name(), mapping(), number(), quarantine())
                .prop_map(|(switch, name, m, plan, q)| ctl(switch, &name, m, plan, q)),
            (name(), mapping(), mapping(), number(), quarantine())
                .prop_map(|(name, old, new, plan, q)| inst(&name, [old, new], plan, q)),
            (numbers(), channels).prop_map(|(totals, channels)| report(totals, &channels)),
        ]
    }

    proptest! {
        /// (a) Every frame reads back as itself.
        #[test]
        fn frames_roundtrip(frame in frame()) {
            prop_assert!(reads(&frame.encode()).contains(&frame), "{:?}", frame);
        }

        /// (b) Arbitrary bytes, bare or behind a magic, panic no reader,
        /// and what a reader accepts is canonical.
        #[test]
        fn arbitrary_bytes_never_panic(
            magic in 0usize..8,
            tail in prop::collection::vec(
                prop_oneof![any::<u8>(), Just(b';'), b'0'..b':', b'a'..b'g'],
                0..80,
            ),
        ) {
            let mut bytes = [ID, SEQ, GAP, RES, CTL, INST, LLA, b""][magic].to_vec();
            bytes.extend_from_slice(&tail);
            strict(&bytes)?;
        }

        /// (c) Every single-byte substitution, deletion or truncation of a
        /// frame is rejected, or reads as a frame whose writer writes
        /// exactly the mutated bytes.
        #[test]
        fn mutations_are_rejected_or_canonical(frame in frame()) {
            let bytes = frame.encode();
            for at in 0..bytes.len() {
                strict(&bytes[..at])?;
                let mut mutated = bytes.clone();
                mutated.remove(at);
                strict(&mutated)?;
                mutated.insert(at, 0);
                for b in 0..=u8::MAX {
                    mutated[at] = b;
                    strict(&mutated)?;
                }
            }
        }
    }
}
