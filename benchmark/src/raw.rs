//! Raw RESP sockets: what the `broker_*` workloads publish and subscribe
//! through, and what the traced `routed_*` runs tap each broker with.
//! Frames are encoded and decoded by the program's own public codec
//! (`dynamoth_pubsub::resp`), so the generator's codec time can be taken
//! out of a publication's span.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use dynamoth_pubsub::resp::{self, Value};

/// Payload stamp: `due_ns` (8 B LE) then `seq` (8 B LE). The top bit of
/// `seq` marks a publication sampled for tracing; all ones marks a set-up
/// publication that no check counts.
pub const STAMP_LEN: usize = 16;
pub const SAMPLED_BIT: u64 = 1 << 63;
pub const SETUP_SEQ: u64 = u64::MAX;

pub fn write_stamp(payload: &mut [u8], due_ns: u64, seq_word: u64) {
    payload[..8].copy_from_slice(&due_ns.to_le_bytes());
    payload[8..16].copy_from_slice(&seq_word.to_le_bytes());
}

/// `(due_ns, seq word)` of a stamped payload; `None` when it is too short
/// to be one of ours.
pub fn read_stamp(payload: &[u8]) -> Option<(u64, u64)> {
    let due = payload.get(..8)?.try_into().ok()?;
    let seq = payload.get(8..16)?.try_into().ok()?;
    Some((u64::from_le_bytes(due), u64::from_le_bytes(seq)))
}

pub fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// Appends one `PUBLISH channel payload` command to `wire`.
pub fn encode_publish(channel: &str, payload: &[u8], wire: &mut Vec<u8>) {
    resp::encode(
        &Value::array(vec![
            Value::bulk("PUBLISH"),
            Value::bulk(channel),
            Value::bulk(payload.to_vec()),
        ]),
        wire,
    );
}

/// Length of the push frame a plain subscriber receives for `payload_len`
/// bytes on `channel`.
pub fn push_frame_len(channel: &str, payload_len: usize) -> usize {
    let mut wire = Vec::new();
    resp::encode(
        &resp::message_push(channel, &vec![0; payload_len]),
        &mut wire,
    );
    wire.len()
}

/// `(kind, channel, payload)` of a push frame.
pub type Push<'a> = (&'a [u8], &'a [u8], Option<&'a [u8]>);

/// Takes a three-element push frame apart; the payload is `None` for
/// subscription confirmations (their third element is a count).
pub fn as_push(value: &Value) -> Option<Push<'_>> {
    let Value::Array(Some(items)) = value else {
        return None;
    };
    let [Value::Bulk(Some(kind)), Value::Bulk(Some(channel)), third] = items.as_slice() else {
        return None;
    };
    let payload = match third {
        Value::Bulk(Some(p)) => Some(p.as_slice()),
        _ => None,
    };
    Some((kind, channel, payload))
}

/// The receive side of a socket: bytes read so far and not yet consumed
/// as whole frames. Blocking during set-up, non-blocking once the drain
/// thread owns it; the buffer carries over.
pub struct Inbound {
    pub stream: TcpStream,
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

fn invalid(what: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

impl Inbound {
    pub fn new(stream: TcpStream) -> Inbound {
        Inbound {
            stream,
            buf: vec![0; 64 * 1024],
            start: 0,
            end: 0,
        }
    }

    /// One `read` into the free tail. `Ok(0)` means the peer closed;
    /// `WouldBlock` comes back as the error it is.
    pub fn fill(&mut self) -> io::Result<usize> {
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        } else if self.end == self.buf.len() {
            if self.start == 0 {
                self.buf.resize(self.buf.len() * 2, 0);
            }
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        let n = self.stream.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }

    /// Takes every whole `frame_len`-byte frame that has arrived, unparsed
    /// (for sockets on which every frame has the same length), leaving the
    /// head of a split one for the next read.
    pub fn take_whole(&mut self, frame_len: usize) -> &[u8] {
        let n = (self.end - self.start) / frame_len * frame_len;
        let frames = &self.buf[self.start..self.start + n];
        self.start += n;
        frames
    }

    /// Bytes read and not yet consumed.
    pub fn pending(&self) -> usize {
        self.end - self.start
    }

    /// Decodes the next whole frame, if one has arrived.
    pub fn next_frame(&mut self) -> Result<Option<Value>, resp::DecodeError> {
        match resp::decode(&self.buf[self.start..self.end])? {
            Some((value, used)) => {
                self.start += used;
                Ok(Some(value))
            }
            None => Ok(None),
        }
    }

    /// Blocks until one whole frame has arrived (set-up only: the socket
    /// must still be blocking, with a read timeout).
    pub fn frame_blocking(&mut self) -> io::Result<Value> {
        loop {
            match self.next_frame() {
                Ok(Some(value)) => return Ok(value),
                Ok(None) => {}
                Err(e) => return Err(invalid(e.to_string())),
            }
            if self.fill()? == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
        }
    }

    /// `SUBSCRIBE channel` and wait for the broker's confirmation.
    /// Returns how long the round trip took.
    pub fn subscribe_blocking(&mut self, channel: &str) -> io::Result<Duration> {
        let mut wire = Vec::new();
        resp::encode(
            &Value::array(vec![Value::bulk("SUBSCRIBE"), Value::bulk(channel)]),
            &mut wire,
        );
        let started = Instant::now();
        self.stream.write_all(&wire)?;
        let reply = self.frame_blocking()?;
        let took = started.elapsed();
        match as_push(&reply) {
            Some((b"subscribe", name, _)) if name == channel.as_bytes() => Ok(took),
            _ => Err(invalid(format!("unexpected SUBSCRIBE reply {reply:?}"))),
        }
    }

    /// Blocks for one message push and returns its payload.
    pub fn message_blocking(&mut self) -> io::Result<Vec<u8>> {
        let frame = self.frame_blocking()?;
        match as_push(&frame) {
            Some((b"message", _, Some(payload))) => Ok(payload.to_vec()),
            _ => Err(invalid(format!("expected a message push, got {frame:?}"))),
        }
    }

    /// Blocks for `n` integer replies (publish acknowledgements).
    pub fn acks_blocking(&mut self, n: usize) -> io::Result<()> {
        for _ in 0..n {
            match self.frame_blocking()? {
                Value::Integer(_) => {}
                other => return Err(invalid(format!("expected an ack, got {other:?}"))),
            }
        }
        Ok(())
    }
}
