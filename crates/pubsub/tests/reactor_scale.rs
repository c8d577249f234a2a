//! Connection-scale smoke test for the reactor core: ~10k concurrent
//! connections served by a fixed number of event-loop threads, with an
//! exact-delivery fan-out check.
//!
//! This lives in its own test binary so the thread-count assertion is
//! not polluted by sibling tests running brokers in parallel.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use dynamoth_pubsub::resp::{self, Value};
use dynamoth_pubsub::{BrokerConfig, TcpBroker};

const IO_LOOPS: usize = 2;
const TARGET_CONNS: usize = 10_000;

/// Current thread count of this process, from `/proc/self/status`.
fn threads_now() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("Threads: line")
        .trim()
        .parse()
        .expect("thread count")
}

/// Soft fd limit of this process, from `/proc/self/limits`.
fn fd_soft_limit() -> usize {
    let limits = std::fs::read_to_string("/proc/self/limits").expect("read /proc/self/limits");
    let line = limits
        .lines()
        .find(|l| l.starts_with("Max open files"))
        .expect("Max open files line");
    let fields: Vec<&str> = line.split_whitespace().collect();
    // "Max open files <soft> <hard> files"
    fields[3].parse().expect("soft fd limit")
}

struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        Client {
            stream,
            buf: Vec::new(),
        }
    }

    fn send(&mut self, words: &[&str]) {
        let value = Value::array(words.iter().map(|w| Value::bulk(*w)).collect());
        let mut out = Vec::new();
        resp::encode(&value, &mut out);
        self.stream.write_all(&out).expect("write");
    }

    fn recv(&mut self, timeout: Duration) -> Value {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some((value, used)) = resp::decode(&self.buf).expect("valid resp") {
                self.buf.drain(..used);
                return value;
            }
            assert!(Instant::now() < deadline, "timed out waiting for a frame");
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => panic!("broker closed the connection"),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut => {}
                Err(e) => panic!("read error: {e}"),
            }
        }
    }
}

/// 10k connections (clamped to the process fd budget), all subscribed
/// to one channel; a single publish reaches every one of them, exactly
/// once, while the broker's thread count stays pinned at `io_loops` —
/// no thread-per-connection anywhere.
#[test]
fn ten_thousand_connections_one_fan_out() {
    // Both socket ends live in this process, so each connection costs
    // two fds; leave 256 for the broker's epoll/eventfd plumbing, the
    // listener, and whatever the test harness has open.
    let budget = fd_soft_limit().saturating_sub(256) / 2;
    let conns = TARGET_CONNS.min(budget);
    assert!(
        conns >= 1_000,
        "fd limit too low for a meaningful scale test: budget {budget}"
    );

    let threads_before = threads_now();
    let broker = TcpBroker::bind_with(
        "127.0.0.1:0",
        BrokerConfig {
            io_loops: IO_LOOPS,
            ..BrokerConfig::default()
        },
    )
    .expect("bind");
    assert_eq!(
        threads_now() - threads_before,
        IO_LOOPS,
        "broker must spawn exactly io_loops threads (accept rides on loop 0)"
    );
    let addr = broker.local_addr();

    let mut subs: Vec<Client> = Vec::with_capacity(conns);
    for i in 0..conns {
        let mut c = Client::connect(addr);
        c.send(&["SUBSCRIBE", "all"]);
        let ack = c.recv(Duration::from_secs(10));
        assert_eq!(
            ack,
            resp::subscription_push("subscribe", "all", 1),
            "bad ack for connection {i}"
        );
        subs.push(c);
    }

    // Still no per-connection threads after `conns` accepts.
    assert_eq!(
        threads_now() - threads_before,
        IO_LOOPS,
        "thread count grew with connections"
    );
    let health = broker.health();
    assert_eq!(health.open_connections, conns);
    assert!(health.peak_connections >= conns);
    assert_eq!(broker.channel_subscribers("all"), conns);

    // One publish fans out to every subscriber; the broker's reply is
    // the exact receiver count.
    let mut publisher = Client::connect(addr);
    publisher.send(&["PUBLISH", "all", "tick"]);
    let reply = publisher.recv(Duration::from_secs(10));
    assert_eq!(reply, Value::Integer(conns as i64), "fan-out undercounted");

    // Every subscriber sees the message exactly once.
    let expected = resp::message_push("all", b"tick");
    for (i, c) in subs.iter_mut().enumerate() {
        let push = c.recv(Duration::from_secs(30));
        assert_eq!(push, expected, "connection {i} got a wrong frame");
    }

    let flush = broker.flush_stats();
    // conns acks + conns pushes + 1 reply, at least — and nothing
    // pathological like a syscall storm per frame.
    assert!(flush.frames > 2 * conns as u64);
    assert!(flush.writes <= flush.frames * 2);

    broker.shutdown();
}
