//! A connection's receive buffer, shared by the broker's reactor loops
//! and the client worker: filled at the tail by `read`, consumed at the
//! head by cursor, so reading a frame moves no bytes and the unread tail
//! is compacted at most once per `read`.
//!
//! It is sized by the traffic: empty until the first read, then
//! [`INITIAL`] bytes, which is enough for any command a subscriber
//! sends, so an idle connection costs little. A read that fills all the
//! free space doubles it, up to [`FULL_READ_CAP`], so a busy socket is
//! drained in few `read`s. A frame larger than the buffer doubles it
//! until the frame fits.

use std::io::Read;

/// Size of a buffer's first allocation.
const INITIAL: usize = 1024;

/// Reads that fill the buffer grow it up to this size.
const FULL_READ_CAP: usize = 64 * 1024;

pub(crate) struct ReadBuf {
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl ReadBuf {
    /// An empty buffer; it allocates on the first [`Self::fill`].
    pub fn new() -> ReadBuf {
        ReadBuf {
            buf: Vec::new(),
            start: 0,
            end: 0,
        }
    }

    /// Reads once from `stream` into the free tail.
    pub fn fill(&mut self, stream: &mut impl Read) -> std::io::Result<usize> {
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        }
        if self.cramped() && self.start > 0 {
            // A partial frame at the tail: move it to the front.
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if self.cramped() {
            // The frame in progress is larger than the buffer.
            self.grow();
        }
        let free = self.buf.len() - self.end;
        let n = stream.read(&mut self.buf[self.end..])?;
        self.end += n;
        if n == free && self.buf.len() < FULL_READ_CAP {
            // The socket held at least as much as there was room for.
            self.grow();
        }
        Ok(n)
    }

    fn grow(&mut self) {
        self.buf.resize((self.buf.len() * 2).max(INITIAL), 0);
    }

    /// At most a quarter of the buffer is free behind the data.
    fn cramped(&self) -> bool {
        self.buf.len() - self.end <= self.buf.len() / 4
    }

    /// The bytes not yet consumed.
    pub fn unread(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }

    /// Marks the first `used` unread bytes consumed.
    pub fn consume(&mut self, used: usize) {
        self.start += used;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resp::{self, Value};

    /// Yields at most `.1` bytes per read.
    struct Trickle<'a>(&'a [u8], usize);

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.0.len().min(buf.len()).min(self.1);
            buf[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    #[test]
    fn frames_stay_intact_across_compaction_and_growth() {
        // Frames from 1 B to several buffers long, back to back, arriving
        // in reads that split them anywhere.
        let bodies: Vec<Vec<u8>> = [1, 700, 5_000, 3 * FULL_READ_CAP, 9, 20_000, 64]
            .iter()
            .enumerate()
            .map(|(i, &len)| vec![b'a' + i as u8; len])
            .collect();
        let mut wire = Vec::new();
        for body in &bodies {
            resp::encode(&Value::bulk(body.clone()), &mut wire);
        }
        let mut src = Trickle(&wire, 3_000);
        let mut rbuf = ReadBuf::new();
        let mut decoded = Vec::new();
        while rbuf.fill(&mut src).expect("read") > 0 {
            while let Some((value, used)) = resp::decode(rbuf.unread()).expect("valid") {
                rbuf.consume(used);
                decoded.push(value);
            }
        }
        let expected: Vec<Value> = bodies.into_iter().map(Value::bulk).collect();
        assert_eq!(decoded, expected);
        assert!(rbuf.unread().is_empty());
        assert!(
            rbuf.buf.len() > 3 * FULL_READ_CAP,
            "grew for the long frame"
        );
        assert!(rbuf.buf.len() <= 8 * FULL_READ_CAP, "and only as needed");
    }

    #[test]
    fn sized_by_the_traffic() {
        // A subscriber that sends one small command keeps a small buffer.
        let mut quiet = ReadBuf::new();
        assert_eq!(
            quiet
                .fill(&mut Trickle(b"*1\r\n$4\r\nPING\r\n", 64))
                .unwrap(),
            14
        );
        assert_eq!(quiet.buf.len(), INITIAL);
        // A socket that always has more grows to the cap and no further.
        let firehose = vec![b'x'; 1 << 20];
        let mut src = Trickle(&firehose, usize::MAX);
        let mut busy = ReadBuf::new();
        while busy.fill(&mut src).unwrap() > 0 {
            let all = busy.unread().len();
            busy.consume(all);
        }
        assert_eq!(busy.buf.len(), FULL_READ_CAP);
    }
}
