//! One live broker on a loopback socket: what a subscriber receives and
//! what the broker's load reports say it carried must agree.
//!
//! A raw RESP connection publishes `N` messages to a subscribed channel
//! and `M` to a channel nobody subscribes to, reading each `PUBLISH`
//! reply (the broker counts a publication before it replies), so the
//! two load reports taken around the second half see every count.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use dynamoth::pubsub::balance::metrics::ChannelTick;
use dynamoth::pubsub::resp::{self, Value};
use dynamoth::pubsub::{BrokerLoadReport, TcpBroker, TcpPubSubClient};

const N: u64 = 200;
const M: u64 = 50;
const DEADLINE: Duration = Duration::from_secs(10);

/// A raw RESP publisher that waits for each reply.
struct Publisher {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Publisher {
    /// Publishes `payload` on `channel`; returns the broker's receiver
    /// count.
    fn publish(&mut self, channel: &str, payload: &[u8]) -> i64 {
        let mut out = Vec::new();
        resp::encode_command(&[b"PUBLISH", channel.as_bytes(), payload], &mut out);
        self.stream.write_all(&out).expect("write PUBLISH");
        loop {
            if let Some((value, used)) = resp::decode(&self.buf).expect("well-formed reply") {
                self.buf.drain(..used);
                match value {
                    Value::Integer(n) => return n,
                    other => panic!("PUBLISH replied {other:?}"),
                }
            }
            let mut chunk = [0u8; 256];
            let n = self.stream.read(&mut chunk).expect("read reply");
            assert!(n > 0, "broker closed the publisher");
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }
}

/// `(publications, deliveries, subscribers)` of `channel` in `report`.
fn counts(report: &BrokerLoadReport, channel: &str) -> (u64, u64, u32) {
    report
        .channels
        .iter()
        .find(|(name, _)| name == channel)
        .map_or((0, 0, 0), |(_, t)| {
            (t.publications, t.deliveries, t.subscribers)
        })
}

#[test]
fn delivers_in_order_and_reports_what_it_carried() {
    let broker = TcpBroker::bind("127.0.0.1:0").expect("bind broker");
    let subscriber = TcpPubSubClient::connect(broker.local_addr()).expect("connect subscriber");
    subscriber.subscribe("room");
    let start = Instant::now();
    while broker.channel_subscribers("room") != 1 {
        assert!(start.elapsed() < DEADLINE, "subscription never landed");
        std::thread::sleep(Duration::from_millis(1));
    }

    let stream = TcpStream::connect(broker.local_addr()).expect("connect publisher");
    stream
        .set_read_timeout(Some(DEADLINE))
        .expect("read timeout");
    let mut publisher = Publisher {
        stream,
        buf: Vec::new(),
    };
    let mut reports = Vec::new();
    for half in [0..N / 2, N / 2..N] {
        for i in half.clone() {
            assert_eq!(publisher.publish("room", i.to_string().as_bytes()), 1);
        }
        for _ in half.start * M / N..half.end * M / N {
            assert_eq!(publisher.publish("nobody", b"unheard"), 0);
        }
        reports.push(broker.load_report());
    }

    for i in 0..N {
        let msg = subscriber
            .message_timeout(DEADLINE)
            .unwrap_or_else(|| panic!("delivery {i} of {N} never arrived"));
        assert_eq!(msg.channel, "room");
        assert_eq!(msg.payload, i.to_string().as_bytes(), "out of order");
    }
    assert!(subscriber
        .message_timeout(Duration::from_millis(50))
        .is_none());

    let (mut room, mut nobody) = ((0, 0), (0, 0));
    for report in &reports {
        let (pubs, dels, subs) = counts(report, "room");
        assert_eq!(subs, 1);
        room = (room.0 + pubs, room.1 + dels);
        let (pubs, dels, _) = counts(report, "nobody");
        nobody = (nobody.0 + pubs, nobody.1 + dels);
        let sum = |f: fn(&ChannelTick) -> u64| report.channels.iter().map(|(_, t)| f(t)).sum();
        assert_eq!(report.sent_messages, sum(|t| t.deliveries));
        assert_eq!(report.egress_bytes, sum(|t| t.bytes_out));
        assert_eq!(report.ingress_bytes, sum(|t| t.bytes_in));
    }
    assert_eq!(
        room,
        (N, N),
        "(publications, deliveries) on the subscribed channel"
    );
    assert_eq!(
        nobody,
        (M, 0),
        "(publications, deliveries) on the unsubscribed channel"
    );

    subscriber.shutdown();
    broker.shutdown();
}
