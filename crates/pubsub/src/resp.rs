//! RESP (REdis Serialization Protocol) codec for the pub/sub command
//! subset.
//!
//! The paper's brokers are unmodified Redis instances; this module
//! implements the RESP2 wire format for the commands Dynamoth uses
//! (`SUBSCRIBE`, `UNSUBSCRIBE`, `PUBLISH`, `PING`) and the pushes a
//! Redis server sends back (`subscribe`/`unsubscribe` confirmations and
//! `message` deliveries), so the [`TcpBroker`](crate::TcpBroker) speaks
//! the same protocol real Redis clients do.
//!
//! There is one grammar: a lexer that reads one element in place and a
//! walk over a whole frame that bounds its nesting. [`decode`] builds a
//! [`Value`] tree on top of them; the live hot path does not. The
//! broker reads commands with [`read_command`] and the client reads
//! server frames with [`read_server_frame`], both borrowing channel and
//! payload straight from the connection's read buffer.

use std::fmt;
use std::sync::{Arc, OnceLock};

/// A RESP2 protocol value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// `+OK\r\n`
    Simple(String),
    /// `-ERR …\r\n`
    Error(String),
    /// `:42\r\n`
    Integer(i64),
    /// `$5\r\nhello\r\n` (`None` is the null bulk string `$-1\r\n`).
    Bulk(Option<Vec<u8>>),
    /// `*2\r\n…` (`None` is the null array `*-1\r\n`).
    Array(Option<Vec<Value>>),
}

impl Value {
    /// Convenience: a non-null bulk string from text.
    pub fn bulk(text: impl Into<Vec<u8>>) -> Value {
        Value::Bulk(Some(text.into()))
    }

    /// Convenience: a non-null array.
    pub fn array(items: Vec<Value>) -> Value {
        Value::Array(Some(items))
    }
}

/// Errors produced while decoding a RESP frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The first byte was not one of `+ - : $ *`.
    BadType(u8),
    /// A length or integer field did not parse.
    BadInteger,
    /// A frame violated the protocol (e.g. missing `\r\n`).
    Malformed,
    /// Arrays nested past [`MAX_DEPTH`] — a stack-overflow bomb from a
    /// hostile peer, rejected before recursion can hurt.
    TooDeep,
    /// A declared bulk/array length past [`MAX_BULK_LEN`] /
    /// [`MAX_ARRAY_LEN`] — a memory bomb, rejected before buffering.
    TooLarge,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::BadType(b) => write!(f, "unknown RESP type byte {b:#04x}"),
            DecodeError::BadInteger => write!(f, "invalid integer field"),
            DecodeError::Malformed => write!(f, "malformed RESP frame"),
            DecodeError::TooDeep => write!(f, "RESP arrays nested too deeply"),
            DecodeError::TooLarge => write!(f, "RESP length field exceeds limits"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Appends `<kind><n>\r\n`: an integer reply, or a bulk or array header.
fn put_line(out: &mut Vec<u8>, kind: u8, n: i64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    let mut rest = n.unsigned_abs();
    loop {
        at -= 1;
        digits[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    out.push(kind);
    if n < 0 {
        out.push(b'-');
    }
    out.extend_from_slice(&digits[at..]);
    out.extend_from_slice(b"\r\n");
}

/// Appends one bulk string holding `parts` back to back.
fn put_bulk(out: &mut Vec<u8>, parts: &[&[u8]]) {
    let len: usize = parts.iter().map(|p| p.len()).sum();
    put_line(out, b'$', len as i64);
    for part in parts {
        out.extend_from_slice(part);
    }
    out.extend_from_slice(b"\r\n");
}

/// Appends the encoding of `value` to `out`.
pub fn encode(value: &Value, out: &mut Vec<u8>) {
    match value {
        Value::Simple(s) => {
            out.push(b'+');
            out.extend_from_slice(s.as_bytes());
            out.extend_from_slice(b"\r\n");
        }
        Value::Error(s) => {
            out.push(b'-');
            out.extend_from_slice(s.as_bytes());
            out.extend_from_slice(b"\r\n");
        }
        Value::Integer(i) => put_line(out, b':', *i),
        Value::Bulk(None) => out.extend_from_slice(b"$-1\r\n"),
        Value::Bulk(Some(data)) => put_bulk(out, &[data]),
        Value::Array(None) => out.extend_from_slice(b"*-1\r\n"),
        Value::Array(Some(items)) => {
            put_line(out, b'*', items.len() as i64);
            for item in items {
                encode(item, out);
            }
        }
    }
}

/// Appends the command array `parts` (`*N`, then one bulk string per
/// part) to `out` — byte-identical to [`encode`] of the equivalent
/// [`Value::array`] of bulks, without building the tree, so a client can
/// pipeline many commands into one buffer and one write.
pub fn encode_command(parts: &[&[u8]], out: &mut Vec<u8>) {
    put_line(out, b'*', parts.len() as i64);
    for part in parts {
        put_bulk(out, &[part]);
    }
}

/// Appends the `message` push of a publication on `channel` whose
/// payload is `header` followed by `payload`: byte-identical to
/// [`encode`] of [`message_push`]`(channel, header ++ payload)`, with no
/// tree and no joined payload built.
pub(crate) fn message_frame(out: &mut Vec<u8>, channel: &[u8], header: &[u8], payload: &[u8]) {
    put_line(out, b'*', 3);
    put_bulk(out, &[b"message"]);
    put_bulk(out, &[channel]);
    put_bulk(out, &[header, payload]);
}

/// Receiver counts up to this many are acknowledged with a frame
/// [`ack`] encoded once per process.
const CACHED_ACKS: usize = 64;

/// The integer reply acknowledging a publication that reached `n`
/// receivers, as a frame every outbox can share.
pub(crate) fn ack(n: usize) -> Arc<[u8]> {
    static ACKS: OnceLock<Vec<Arc<[u8]>>> = OnceLock::new();
    let encoded = |n: usize| {
        let mut out = Vec::new();
        put_line(&mut out, b':', n as i64);
        Arc::from(out)
    };
    let acks = ACKS.get_or_init(|| (0..=CACHED_ACKS).map(encoded).collect());
    acks.get(n).map_or_else(|| encoded(n), Arc::clone)
}

/// A decimal `i64` as `str::parse` reads one: an optional sign, then
/// one or more digits, within range.
fn parse_int(line: &[u8]) -> Result<i64, DecodeError> {
    let (negative, digits) = match line {
        [b'-', rest @ ..] => (true, rest),
        [b'+', rest @ ..] => (false, rest),
        _ => (false, line),
    };
    if digits.is_empty() {
        return Err(DecodeError::BadInteger);
    }
    digits.iter().try_fold(0i64, |n, &b| {
        let d = match b {
            b'0'..=b'9' => i64::from(b - b'0'),
            _ => return Err(DecodeError::BadInteger),
        };
        let n = n.checked_mul(10);
        let n = if negative {
            n.and_then(|n| n.checked_sub(d))
        } else {
            n.and_then(|n| n.checked_add(d))
        };
        n.ok_or(DecodeError::BadInteger)
    })
}

/// Deepest array nesting the reader accepts. Nothing the broker speaks
/// nests past 2; a peer streaming `*1\r\n*1\r\n…` is attacking the
/// reader, not speaking RESP.
pub const MAX_DEPTH: usize = 32;

/// Largest bulk-string length the reader accepts (64 MiB). A header
/// claiming more would make the broker buffer unbounded bytes for one
/// frame; real payloads are orders of magnitude smaller.
pub const MAX_BULK_LEN: usize = 64 * 1024 * 1024;

/// Largest array element count the reader accepts.
pub const MAX_ARRAY_LEN: usize = 1 << 20;

/// Longest header line (between the type byte and its `\r\n`) before
/// the reader gives up. Headers hold at most a 20-digit integer;
/// without this cap a CRLF-free stream makes every retry rescan the
/// whole buffer.
pub const MAX_LINE_LEN: usize = 64;

/// One RESP element as the lexer reads it: a scalar, a whole bulk
/// string, or an array header whose elements follow it.
#[derive(Debug, Clone, Copy)]
enum Token<'a> {
    Simple(&'a [u8]),
    Error(&'a [u8]),
    Integer(i64),
    Bulk(Option<&'a [u8]>),
    Array(Option<usize>),
}

/// A `$`/`*` length field: `None` for the null form (any negative
/// length), an error past `max`.
fn length(line: &[u8], max: usize) -> Result<Option<usize>, DecodeError> {
    let n = parse_int(line)?;
    if n < 0 {
        return Ok(None);
    }
    match usize::try_from(n) {
        Ok(n) if n <= max => Ok(Some(n)),
        _ => Err(DecodeError::TooLarge),
    }
}

/// Lexes the element at the front of `buf`, borrowing from it; `Ok(None)`
/// until the element is complete. [`MAX_LINE_LEN`], [`MAX_BULK_LEN`] and
/// [`MAX_ARRAY_LEN`] are enforced here and nowhere else.
fn token(buf: &[u8]) -> Result<Option<(Token<'_>, usize)>, DecodeError> {
    let Some(&kind) = buf.first() else {
        return Ok(None);
    };
    // The header line ends within `MAX_LINE_LEN` bytes or never validly
    // does: scan no further, and fail once that much has arrived.
    let window = &buf[1..buf.len().min(1 + MAX_LINE_LEN + 2)];
    let crlf = |at: usize| window.get(at + 1) == Some(&b'\n');
    let Some(line_len) = (0..window.len()).find(|&at| window[at] == b'\r' && crlf(at)) else {
        if window.len() == MAX_LINE_LEN + 2 {
            return Err(DecodeError::Malformed);
        }
        return Ok(None);
    };
    let line = &window[..line_len];
    let after = 1 + line_len + 2;
    let token = match kind {
        b'+' => Token::Simple(line),
        b'-' => Token::Error(line),
        b':' => Token::Integer(parse_int(line)?),
        b'$' => match length(line, MAX_BULK_LEN)? {
            None => Token::Bulk(None),
            Some(len) => {
                let Some(body) = buf.get(after..after + len + 2) else {
                    return Ok(None);
                };
                let (data, trailer) = body.split_at(len);
                if trailer != b"\r\n" {
                    return Err(DecodeError::Malformed);
                }
                return Ok(Some((Token::Bulk(Some(data)), after + len + 2)));
            }
        },
        b'*' => Token::Array(length(line, MAX_ARRAY_LEN)?),
        other => return Err(DecodeError::BadType(other)),
    };
    Ok(Some((token, after)))
}

/// One step of a [`walk`] at some depth.
#[derive(Debug, Clone, Copy)]
enum Step<'a> {
    /// A token, and the offset just past it.
    Token(Token<'a>, usize),
    /// The array opened at this depth has all its elements.
    Close,
}

/// Reads the value at the front of `buf` token by token, in order,
/// handing `visit` each step with its nesting depth; returns the value's
/// length, or `Ok(None)` while it is incomplete. [`MAX_DEPTH`] is
/// enforced here and nowhere else, with no recursion: the open arrays
/// live in a fixed stack.
fn walk<'a>(
    buf: &'a [u8],
    mut visit: impl FnMut(usize, Step<'a>),
) -> Result<Option<usize>, DecodeError> {
    // Elements each open array still owes, outermost first.
    let mut owed = [0usize; MAX_DEPTH + 1];
    let mut depth = 0;
    let mut at = 0;
    loop {
        if depth > MAX_DEPTH {
            return Err(DecodeError::TooDeep);
        }
        let Some((token, used)) = token(&buf[at..])? else {
            return Ok(None);
        };
        at += used;
        visit(depth, Step::Token(token, at));
        if let Token::Array(Some(n @ 1..)) = token {
            owed[depth] = n;
            depth += 1;
            continue;
        }
        // One element done: close every array it completes.
        loop {
            let Some(parent) = depth.checked_sub(1) else {
                return Ok(Some(at));
            };
            owed[parent] -= 1;
            if owed[parent] > 0 {
                break;
            }
            visit(parent, Step::Close);
            depth = parent;
        }
    }
}

/// Decodes one RESP value from the front of `buf`.
///
/// Returns `Ok(None)` when the buffer does not yet hold a complete
/// frame (read more bytes and retry), or `Ok(Some((value, consumed)))`.
/// The in-place readers [`read_command`] and [`read_server_frame`] read
/// by the same grammar and give the same verdict and length.
///
/// Hostile input is bounded: array nesting past [`MAX_DEPTH`], length
/// fields past [`MAX_BULK_LEN`] / [`MAX_ARRAY_LEN`] and header lines
/// past [`MAX_LINE_LEN`] are decode errors, never panics, unbounded
/// recursion or unbounded allocation.
///
/// # Errors
///
/// Returns a [`DecodeError`] when the buffer contents cannot be valid
/// RESP no matter what bytes follow.
pub fn decode(buf: &[u8]) -> Result<Option<(Value, usize)>, DecodeError> {
    // The innermost open array's elements so far, and those of the
    // arrays around it, outermost first.
    let mut current: Option<Vec<Value>> = None;
    let mut outer: Vec<Vec<Value>> = Vec::new();
    let mut done = None;
    let Some(used) = walk(buf, |_, step| {
        let value = match step {
            Step::Token(Token::Array(Some(n @ 1..)), _) => {
                outer.extend(current.take());
                // Capped preallocation: a header may claim far more
                // elements than the bytes behind it can hold.
                current = Some(Vec::with_capacity(n.min(64)));
                return;
            }
            Step::Token(token, _) => leaf(token),
            Step::Close => {
                let items = current.take();
                current = outer.pop();
                Value::Array(items)
            }
        };
        match &mut current {
            Some(items) => items.push(value),
            None => done = Some(value),
        }
    })?
    else {
        return Ok(None);
    };
    Ok(done.map(|value| (value, used)))
}

/// The value of a token that opens no array.
fn leaf(token: Token<'_>) -> Value {
    let text = |line: &[u8]| String::from_utf8_lossy(line).into_owned();
    match token {
        Token::Simple(line) => Value::Simple(text(line)),
        Token::Error(line) => Value::Error(text(line)),
        Token::Integer(i) => Value::Integer(i),
        Token::Bulk(data) => Value::Bulk(data.map(<[u8]>::to_vec)),
        Token::Array(items) => Value::Array(items.map(|_| Vec::new())),
    }
}

/// What a reader makes of the front of a buffer: a frame and the bytes
/// it took, `Ok(None)` while it is incomplete, or an error.
pub type Reading<T> = Result<Option<(T, usize)>, DecodeError>;

/// What the in-place readers need of a frame: its top token and, when
/// that is an array, the elements right under it.
struct Outline<'a> {
    top: Token<'a>,
    /// The first three elements, each `None` unless a non-null bulk.
    head: [Option<&'a [u8]>; 3],
    /// Whether every element is a non-null bulk string.
    all_bulk: bool,
    /// Offset just past the first element: where a command's arguments
    /// start.
    args_at: usize,
}

/// Reads the frame at the front of `buf` in place, by [`walk`].
fn outline(buf: &[u8]) -> Reading<Outline<'_>> {
    let mut top = Token::Array(None);
    let mut head = [None; 3];
    let mut all_bulk = true;
    let mut args_at = 0;
    let mut element = 0;
    let Some(used) = walk(buf, |depth, step| match (depth, step) {
        (0, Step::Token(token, _)) => top = token,
        (1, Step::Token(token, end)) => {
            let word = match token {
                Token::Bulk(Some(word)) => Some(word),
                _ => None,
            };
            all_bulk &= word.is_some();
            if let Some(slot) = head.get_mut(element) {
                *slot = word;
            }
            if element == 0 {
                args_at = end;
            }
            element += 1;
        }
        _ => {}
    })?
    else {
        return Ok(None);
    };
    let outline = Outline {
        top,
        head,
        all_bulk,
        args_at,
    };
    Ok(Some((outline, used)))
}

/// A client command (the subset Dynamoth needs from Redis), read in
/// place: every argument borrows the buffer it was read from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command<'a> {
    /// `SUBSCRIBE channel [channel …]`
    Subscribe(Words<'a>),
    /// `UNSUBSCRIBE channel [channel …]`
    Unsubscribe(Words<'a>),
    /// `PUBLISH channel payload`
    Publish(&'a [u8], &'a [u8]),
    /// `PING`
    Ping,
}

/// The arguments of a [`Command`], yielded in order as slices of the
/// buffer the command was read from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Words<'a> {
    rest: &'a [u8],
    left: usize,
}

impl<'a> Iterator for Words<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        if self.left == 0 {
            return None;
        }
        // The command was read whole, so every argument lexes as a bulk.
        let Ok(Some((Token::Bulk(Some(word)), used))) = token(self.rest) else {
            return None;
        };
        self.rest = &self.rest[used..];
        self.left -= 1;
        Some(word)
    }
}

/// Reads one client command from the front of `buf` in place.
///
/// `Ok(None)` and the consumed length are exactly [`decode`]'s. A
/// complete frame that is not a recognised command reads as `Err` with
/// the human-readable message a broker sends back as a RESP error.
///
/// # Errors
///
/// Returns the [`DecodeError`] [`decode`] would.
pub fn read_command(buf: &[u8]) -> Reading<Result<Command<'_>, String>> {
    let Some((outline, used)) = outline(buf)? else {
        return Ok(None);
    };
    let Token::Array(Some(len)) = outline.top else {
        return Ok(Some((
            Err("ERR protocol error: expected array".into()),
            used,
        )));
    };
    if !outline.all_bulk {
        return Ok(Some((
            Err("ERR protocol error: expected bulk string".into()),
            used,
        )));
    }
    let [Some(name), first, second] = outline.head else {
        return Ok(Some((Err("ERR empty command".into()), used)));
    };
    let args = Words {
        rest: &buf[outline.args_at..used],
        left: len - 1,
    };
    let is = |word: &str| name.eq_ignore_ascii_case(word.as_bytes());
    let command = match (first, second) {
        _ if is("PING") => Ok(Command::Ping),
        (Some(_), _) if is("SUBSCRIBE") => Ok(Command::Subscribe(args)),
        (Some(_), _) if is("UNSUBSCRIBE") => Ok(Command::Unsubscribe(args)),
        (Some(channel), Some(payload)) if len == 3 && is("PUBLISH") => {
            Ok(Command::Publish(channel, payload))
        }
        _ => {
            let name = String::from_utf8_lossy(name).to_ascii_uppercase();
            match name.as_str() {
                "SUBSCRIBE" | "UNSUBSCRIBE" | "PUBLISH" => {
                    Err(format!("ERR wrong number of arguments for '{name}'"))
                }
                _ => Err(format!("ERR unknown command '{name}'")),
            }
        }
    };
    Ok(Some((command, used)))
}

/// A frame a server sends a pub/sub client, as the client reads it in
/// place.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerFrame<'a> {
    /// A `message` push; both slices borrow the buffer it was read from.
    Message {
        /// The channel it was published on.
        channel: &'a [u8],
        /// The payload as published.
        payload: &'a [u8],
    },
    /// An integer reply: a `PUBLISH` acknowledgement.
    Integer(i64),
    /// Anything else (subscription confirmations, `PONG`, errors).
    Other,
}

/// Reads one server frame from the front of `buf` in place.
///
/// `Ok(None)` and the consumed length are exactly [`decode`]'s.
///
/// # Errors
///
/// Returns the [`DecodeError`] [`decode`] would.
pub fn read_server_frame(buf: &[u8]) -> Reading<ServerFrame<'_>> {
    let Some((outline, used)) = outline(buf)? else {
        return Ok(None);
    };
    let frame = match (outline.top, outline.head) {
        (Token::Integer(n), _) => ServerFrame::Integer(n),
        (Token::Array(Some(3)), [Some(b"message"), Some(channel), Some(payload)]) => {
            ServerFrame::Message { channel, payload }
        }
        _ => ServerFrame::Other,
    };
    Ok(Some((frame, used)))
}

/// Builds the `message` push a subscriber receives for a publication.
pub fn message_push(channel: &str, payload: &[u8]) -> Value {
    Value::array(vec![
        Value::bulk("message"),
        Value::bulk(channel),
        Value::bulk(payload.to_vec()),
    ])
}

/// Builds the confirmation push for `SUBSCRIBE`/`UNSUBSCRIBE` (`kind`),
/// with the client's resulting subscription count.
pub fn subscription_push(kind: &str, channel: &str, count: i64) -> Value {
    Value::array(vec![
        Value::bulk(kind),
        Value::bulk(channel),
        Value::Integer(count),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: Value) {
        let mut buf = Vec::new();
        encode(&v, &mut buf);
        let (decoded, used) = decode(&buf).unwrap().unwrap();
        assert_eq!(decoded, v);
        assert_eq!(used, buf.len());
    }

    #[test]
    fn scalar_roundtrips() {
        roundtrip(Value::Simple("OK".into()));
        roundtrip(Value::Error("ERR nope".into()));
        roundtrip(Value::Integer(-42));
        roundtrip(Value::bulk("hello"));
        roundtrip(Value::Bulk(Some(vec![0, 1, 2, 255])));
        roundtrip(Value::Bulk(None));
        roundtrip(Value::Array(None));
    }

    #[test]
    fn encode_command_matches_the_value_encoder() {
        let big = vec![0xA5u8; 64 * 1024];
        let cases: [&[&[u8]]; 5] = [
            &[],
            &[b""],
            &[b"PING"],
            &[b"PUBLISH", b"tile_1", &[0, 1, b'\r', b'\n', 255]],
            &[b"PUBLISH", b"", &big],
        ];
        // Appends: whatever the buffer already holds stays in front.
        let mut fast = b"prefix".to_vec();
        let mut tree = b"prefix".to_vec();
        for parts in cases {
            encode_command(parts, &mut fast);
            let items = parts.iter().map(|p| Value::bulk(*p)).collect();
            encode(&Value::array(items), &mut tree);
            assert_eq!(fast, tree, "{} parts", parts.len());
        }
    }

    #[test]
    fn nested_array_roundtrips() {
        roundtrip(Value::array(vec![
            Value::bulk("message"),
            Value::array(vec![Value::Integer(1), Value::Simple("x".into())]),
            Value::Bulk(None),
        ]));
    }

    #[test]
    fn partial_frames_ask_for_more() {
        let mut buf = Vec::new();
        encode(&Value::bulk("hello world"), &mut buf);
        for cut in 0..buf.len() {
            assert_eq!(decode(&buf[..cut]).unwrap(), None, "cut at {cut}");
        }
    }

    #[test]
    fn pipelined_frames_decode_one_at_a_time() {
        let mut buf = Vec::new();
        encode(&Value::Integer(1), &mut buf);
        encode(&Value::Integer(2), &mut buf);
        let (first, used) = decode(&buf).unwrap().unwrap();
        assert_eq!(first, Value::Integer(1));
        let (second, used2) = decode(&buf[used..]).unwrap().unwrap();
        assert_eq!(second, Value::Integer(2));
        assert_eq!(used + used2, buf.len());
    }

    #[test]
    fn garbage_is_rejected() {
        assert_eq!(decode(b"xabc\r\n").unwrap_err(), DecodeError::BadType(b'x'));
        assert_eq!(decode(b":abc\r\n").unwrap_err(), DecodeError::BadInteger);
        // Bulk whose trailer is not CRLF.
        assert_eq!(decode(b"$2\r\nab!!").unwrap_err(), DecodeError::Malformed);
    }

    #[test]
    fn nesting_bombs_are_rejected_not_recursed() {
        // `*1\r\n` repeated: each level opens one more array. Unbounded,
        // a recursive reader would overflow its stack (an abort, not a
        // panic a broker thread could contain).
        let mut buf = Vec::new();
        for _ in 0..10_000 {
            buf.extend_from_slice(b"*1\r\n");
        }
        assert_eq!(decode(&buf).unwrap_err(), DecodeError::TooDeep);
        // At or under the cap, deep-but-legal frames still decode.
        let mut legal = Vec::new();
        for _ in 0..MAX_DEPTH {
            legal.extend_from_slice(b"*1\r\n");
        }
        legal.extend_from_slice(b":1\r\n");
        assert!(decode(&legal).unwrap().is_some());
    }

    #[test]
    fn length_bombs_are_rejected_before_allocation() {
        // Bulk header claiming 100 GiB: must error, not buffer forever.
        assert_eq!(
            decode(b"$107374182400\r\n").unwrap_err(),
            DecodeError::TooLarge
        );
        // Array header claiming ~1e15 elements: `with_capacity` on the
        // claimed size would abort on allocation failure.
        assert_eq!(
            decode(b"*999999999999999\r\n").unwrap_err(),
            DecodeError::TooLarge
        );
        // Negative-but-not-minus-one lengths are nonsense, not panics.
        assert_eq!(decode(b"$-2\r\n").unwrap().unwrap().0, Value::Bulk(None));
    }

    #[test]
    fn crlf_free_streams_fail_fast() {
        // A stream that never sends CRLF must stop being re-scanned
        // once it cannot be a valid header line.
        let junk = vec![b'a'; MAX_LINE_LEN + 2];
        let mut buf = vec![b'+'];
        buf.extend_from_slice(&junk);
        assert_eq!(decode(&buf).unwrap_err(), DecodeError::Malformed);
        // Short prefixes still just wait for more bytes.
        assert_eq!(decode(b"+abc").unwrap(), None);
    }

    fn command_bytes(parts: &[&[u8]]) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_command(parts, &mut buf);
        buf
    }

    /// The command read from `buf`, which must be one whole frame.
    fn command(buf: &[u8]) -> Result<Command<'_>, String> {
        let (command, used) = read_command(buf).unwrap().unwrap();
        assert_eq!(used, buf.len());
        command
    }

    #[test]
    fn commands_parse() {
        let sub = command_bytes(&[b"subscribe", b"tile_1", b"tile_2"]);
        let Ok(Command::Subscribe(words)) = command(&sub) else {
            panic!("not a subscribe");
        };
        assert_eq!(words.collect::<Vec<_>>(), [b"tile_1", b"tile_2"]);
        let publish = command_bytes(&[b"PUBLISH", b"tile_1", b"payload"]);
        assert_eq!(
            command(&publish).unwrap(),
            Command::Publish(b"tile_1", b"payload")
        );
        assert_eq!(command(&command_bytes(&[b"ping"])).unwrap(), Command::Ping);
    }

    #[test]
    fn bad_commands_produce_errors() {
        let mut not_array = Vec::new();
        encode(&Value::Integer(1), &mut not_array);
        let mut not_bulk = Vec::new();
        encode(
            &Value::array(vec![
                Value::bulk("PUBLISH"),
                Value::Integer(1),
                Value::bulk("p"),
            ]),
            &mut not_bulk,
        );
        let errors = [
            (not_array, "ERR protocol error: expected array"),
            (not_bulk, "ERR protocol error: expected bulk string"),
            (command_bytes(&[]), "ERR empty command"),
            (
                command_bytes(&[b"subscribe"]),
                "ERR wrong number of arguments for 'SUBSCRIBE'",
            ),
            (
                command_bytes(&[b"PUBLISH", b"only-channel"]),
                "ERR wrong number of arguments for 'PUBLISH'",
            ),
            (command_bytes(&[b"get", b"k"]), "ERR unknown command 'GET'"),
        ];
        for (buf, message) in errors {
            assert_eq!(command(&buf).unwrap_err(), message);
        }
    }

    #[test]
    fn read_slices_point_into_the_input_buffer() {
        let within = |buf: &[u8], part: &[u8]| {
            let range = buf.as_ptr_range();
            range.start <= part.as_ptr() && part.as_ptr_range().end <= range.end
        };
        let publish = command_bytes(&[b"PUBLISH", b"tile_1", b"payload"]);
        let Ok(Command::Publish(channel, payload)) = command(&publish) else {
            panic!("not a publish");
        };
        assert!(within(&publish, channel) && within(&publish, payload));
        let sub = command_bytes(&[b"SUBSCRIBE", b"a", b"b"]);
        let Ok(Command::Subscribe(words)) = command(&sub) else {
            panic!("not a subscribe");
        };
        assert!(words.into_iter().all(|word| within(&sub, word)));
        let mut push = Vec::new();
        encode(&message_push("tile_1", b"hi"), &mut push);
        let (frame, used) = read_server_frame(&push).unwrap().unwrap();
        assert_eq!(used, push.len());
        let ServerFrame::Message { channel, payload } = frame else {
            panic!("not a message push");
        };
        assert_eq!((channel, payload), (&b"tile_1"[..], &b"hi"[..]));
        assert!(within(&push, channel) && within(&push, payload));
    }

    #[test]
    fn server_frames_read_in_place() {
        let read = |value: Value| {
            let mut buf = Vec::new();
            encode(&value, &mut buf);
            let (frame, used) = read_server_frame(&buf).unwrap().unwrap();
            assert_eq!(used, buf.len());
            format!("{frame:?}")
        };
        assert_eq!(read(Value::Integer(3)), "Integer(3)");
        assert_eq!(read(subscription_push("subscribe", "a", 1)), "Other");
        assert_eq!(read(Value::Simple("PONG".into())), "Other");
        // A `message` push whose payload is not a bulk is not a message.
        let odd = Value::array(vec![
            Value::bulk("message"),
            Value::bulk("a"),
            Value::Integer(1),
        ]);
        assert_eq!(read(odd), "Other");
    }

    #[test]
    fn pushes_have_redis_shape() {
        let mut buf = Vec::new();
        encode(&message_push("tile_1", b"hi"), &mut buf);
        assert_eq!(buf, b"*3\r\n$7\r\nmessage\r\n$6\r\ntile_1\r\n$2\r\nhi\r\n");
        let mut buf = Vec::new();
        encode(&subscription_push("subscribe", "tile_1", 1), &mut buf);
        assert_eq!(buf, b"*3\r\n$9\r\nsubscribe\r\n$6\r\ntile_1\r\n:1\r\n");
    }

    #[test]
    fn broker_pushes_match_the_value_encoder() {
        let header = crate::wire::sequenced_header(0x2a);
        let cases: [(&str, &[u8], &[u8]); 5] = [
            ("tile_1", b"", b"hi"),
            ("tile_1", &header, b"hi"),
            ("tile_1", b"", b""),
            ("tile_1", &header, b""),
            ("caf\u{e9}/\u{1f600}", &header, &[0, b'\r', b'\n', 255]),
        ];
        for (channel, header, payload) in cases {
            let mut fast = b"prefix".to_vec();
            message_frame(&mut fast, channel.as_bytes(), header, payload);
            let mut tree = b"prefix".to_vec();
            encode(
                &message_push(channel, &[header, payload].concat()),
                &mut tree,
            );
            assert_eq!(fast, tree, "{channel} {header:?} {payload:?}");
        }
    }

    #[test]
    fn acks_match_the_value_encoder() {
        for n in [0, 1, 64, 65, 1_000_000] {
            let mut tree = Vec::new();
            encode(&Value::Integer(n as i64), &mut tree);
            assert_eq!(&ack(n)[..], &tree[..], "{n}");
        }
        // Cached counts share one frame; the rest are encoded afresh.
        assert!(Arc::ptr_eq(&ack(64), &ack(64)));
        assert!(!Arc::ptr_eq(&ack(65), &ack(65)));
    }

    #[test]
    fn integer_fields_read_like_str_parse() {
        let fields = [
            "0",
            "7",
            "-7",
            "+7",
            "-0",
            "007",
            "",
            "-",
            "+",
            "+-1",
            "-+1",
            " 1",
            "1 ",
            "1a",
            "9223372036854775807",
            "9223372036854775808",
            "-9223372036854775808",
            "-9223372036854775809",
            "99999999999999999999",
        ];
        for field in fields {
            let expected = field.parse::<i64>().map_err(|_| DecodeError::BadInteger);
            assert_eq!(parse_int(field.as_bytes()), expected, "{field:?}");
        }
    }

    #[test]
    fn integers_encode_like_display() {
        for n in [0, 1, -1, 9, 10, -10, 99, 100, i64::MAX, i64::MIN] {
            let mut buf = Vec::new();
            encode(&Value::Integer(n), &mut buf);
            assert_eq!(buf, format!(":{n}\r\n").into_bytes());
        }
    }
}
