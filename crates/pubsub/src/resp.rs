//! RESP (REdis Serialization Protocol) codec for the pub/sub command
//! subset.
//!
//! The paper's brokers are unmodified Redis instances; this module
//! implements the RESP2 wire format for the commands Dynamoth uses
//! (`SUBSCRIBE`, `UNSUBSCRIBE`, `PUBLISH`, `PING`) and the pushes a
//! Redis server sends back (`subscribe`/`unsubscribe` confirmations and
//! `message` deliveries), so the [`TcpBroker`](crate::TcpBroker) speaks
//! the same protocol real Redis clients do.

use std::fmt;
use std::io::Write;

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
        Value::Integer(i) => {
            out.push(b':');
            out.extend_from_slice(i.to_string().as_bytes());
            out.extend_from_slice(b"\r\n");
        }
        Value::Bulk(None) => out.extend_from_slice(b"$-1\r\n"),
        Value::Bulk(Some(data)) => {
            out.push(b'$');
            out.extend_from_slice(data.len().to_string().as_bytes());
            out.extend_from_slice(b"\r\n");
            out.extend_from_slice(data);
            out.extend_from_slice(b"\r\n");
        }
        Value::Array(None) => out.extend_from_slice(b"*-1\r\n"),
        Value::Array(Some(items)) => {
            out.push(b'*');
            out.extend_from_slice(items.len().to_string().as_bytes());
            out.extend_from_slice(b"\r\n");
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
    // `write!` into a `Vec` cannot fail.
    let _ = write!(out, "*{}\r\n", parts.len());
    for part in parts {
        let _ = write!(out, "${}\r\n", part.len());
        out.extend_from_slice(part);
        out.extend_from_slice(b"\r\n");
    }
}

fn find_crlf(buf: &[u8], from: usize) -> Option<usize> {
    buf[from..]
        .windows(2)
        .position(|w| w == b"\r\n")
        .map(|p| from + p)
}

fn parse_int(buf: &[u8]) -> Result<i64, DecodeError> {
    std::str::from_utf8(buf)
        .ok()
        .and_then(|s| s.parse().ok())
        .ok_or(DecodeError::BadInteger)
}

/// Deepest array nesting [`decode`] accepts. Nothing the broker speaks
/// nests past 2; a peer streaming `*1\r\n*1\r\n…` is attacking the
/// decoder's stack, not speaking RESP.
pub const MAX_DEPTH: usize = 32;

/// Largest bulk-string length [`decode`] accepts (64 MiB). A header
/// claiming more would make the broker buffer unbounded bytes for one
/// frame; real payloads are orders of magnitude smaller.
pub const MAX_BULK_LEN: usize = 64 * 1024 * 1024;

/// Largest array element count [`decode`] accepts.
pub const MAX_ARRAY_LEN: usize = 1 << 20;

/// Longest header line (between the type byte and its `\r\n`) before
/// the decoder gives up. Headers hold at most a 20-digit integer;
/// without this cap a CRLF-free stream makes every retry rescan the
/// whole buffer.
pub const MAX_LINE_LEN: usize = 64;

/// Decodes one RESP value from the front of `buf`.
///
/// Returns `Ok(None)` when the buffer does not yet hold a complete
/// frame (read more bytes and retry), or `Ok(Some((value, consumed)))`.
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
    decode_at(buf, 0)
}

fn decode_at(buf: &[u8], depth: usize) -> Result<Option<(Value, usize)>, DecodeError> {
    if depth > MAX_DEPTH {
        return Err(DecodeError::TooDeep);
    }
    if buf.is_empty() {
        return Ok(None);
    }
    let Some(line_end) = find_crlf(buf, 1) else {
        // No CRLF yet: a header line longer than any valid one will
        // never become valid, so fail instead of rescanning forever.
        if buf.len() > 1 + MAX_LINE_LEN {
            return Err(DecodeError::Malformed);
        }
        return Ok(None);
    };
    let line = &buf[1..line_end];
    if line.len() > MAX_LINE_LEN {
        return Err(DecodeError::Malformed);
    }
    let after = line_end + 2;
    match buf[0] {
        b'+' => Ok(Some((
            Value::Simple(String::from_utf8_lossy(line).into_owned()),
            after,
        ))),
        b'-' => Ok(Some((
            Value::Error(String::from_utf8_lossy(line).into_owned()),
            after,
        ))),
        b':' => Ok(Some((Value::Integer(parse_int(line)?), after))),
        b'$' => {
            let len = parse_int(line)?;
            if len < 0 {
                return Ok(Some((Value::Bulk(None), after)));
            }
            let len = usize::try_from(len).map_err(|_| DecodeError::TooLarge)?;
            if len > MAX_BULK_LEN {
                return Err(DecodeError::TooLarge);
            }
            if buf.len() < after + len + 2 {
                return Ok(None);
            }
            if &buf[after + len..after + len + 2] != b"\r\n" {
                return Err(DecodeError::Malformed);
            }
            Ok(Some((
                Value::Bulk(Some(buf[after..after + len].to_vec())),
                after + len + 2,
            )))
        }
        b'*' => {
            let len = parse_int(line)?;
            if len < 0 {
                return Ok(Some((Value::Array(None), after)));
            }
            let len = usize::try_from(len).map_err(|_| DecodeError::TooLarge)?;
            if len > MAX_ARRAY_LEN {
                return Err(DecodeError::TooLarge);
            }
            // Capped preallocation: a header may claim far more
            // elements than the bytes behind it can hold.
            let mut items = Vec::with_capacity(len.min(64));
            let mut offset = after;
            for _ in 0..len {
                match decode_at(&buf[offset..], depth + 1)? {
                    Some((item, used)) => {
                        items.push(item);
                        offset += used;
                    }
                    None => return Ok(None),
                }
            }
            Ok(Some((Value::Array(Some(items)), offset)))
        }
        other => Err(DecodeError::BadType(other)),
    }
}

/// A parsed client command (the subset Dynamoth needs from Redis).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// `SUBSCRIBE channel [channel …]`
    Subscribe(Vec<String>),
    /// `UNSUBSCRIBE channel [channel …]`
    Unsubscribe(Vec<String>),
    /// `PUBLISH channel payload`
    Publish(String, Vec<u8>),
    /// `PING`
    Ping,
}

/// Interprets a decoded RESP value as a client command.
///
/// # Errors
///
/// Returns a human-readable error string (sent back as a RESP error)
/// when the value is not a recognized command.
pub fn parse_command(value: &Value) -> Result<Command, String> {
    let Value::Array(Some(items)) = value else {
        return Err("ERR protocol error: expected array".into());
    };
    let mut words = Vec::with_capacity(items.len());
    for item in items {
        match item {
            Value::Bulk(Some(data)) => words.push(data.clone()),
            _ => return Err("ERR protocol error: expected bulk string".into()),
        }
    }
    let Some((name, args)) = words.split_first() else {
        return Err("ERR empty command".into());
    };
    let name = String::from_utf8_lossy(name).to_ascii_uppercase();
    let text = |arg: &Vec<u8>| String::from_utf8_lossy(arg).into_owned();
    match name.as_str() {
        "PING" => Ok(Command::Ping),
        "SUBSCRIBE" if !args.is_empty() => Ok(Command::Subscribe(args.iter().map(text).collect())),
        "UNSUBSCRIBE" if !args.is_empty() => {
            Ok(Command::Unsubscribe(args.iter().map(text).collect()))
        }
        "PUBLISH" if args.len() == 2 => Ok(Command::Publish(text(&args[0]), args[1].clone())),
        "SUBSCRIBE" | "UNSUBSCRIBE" | "PUBLISH" => {
            Err(format!("ERR wrong number of arguments for '{name}'"))
        }
        _ => Err(format!("ERR unknown command '{name}'")),
    }
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
        // `*1\r\n` repeated: each level recurses once — unbounded, this
        // would overflow the decoder's stack (an abort, not a panic a
        // broker thread could contain).
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

    #[test]
    fn commands_parse() {
        let cmd = Value::array(vec![
            Value::bulk("subscribe"),
            Value::bulk("tile_1"),
            Value::bulk("tile_2"),
        ]);
        assert_eq!(
            parse_command(&cmd).unwrap(),
            Command::Subscribe(vec!["tile_1".into(), "tile_2".into()])
        );
        let cmd = Value::array(vec![
            Value::bulk("PUBLISH"),
            Value::bulk("tile_1"),
            Value::bulk("payload"),
        ]);
        assert_eq!(
            parse_command(&cmd).unwrap(),
            Command::Publish("tile_1".into(), b"payload".to_vec())
        );
        assert_eq!(
            parse_command(&Value::array(vec![Value::bulk("ping")])).unwrap(),
            Command::Ping
        );
    }

    #[test]
    fn bad_commands_produce_errors() {
        assert!(parse_command(&Value::Integer(1)).is_err());
        assert!(parse_command(&Value::array(vec![])).is_err());
        assert!(parse_command(&Value::array(vec![Value::bulk("SUBSCRIBE")])).is_err());
        assert!(parse_command(&Value::array(vec![
            Value::bulk("PUBLISH"),
            Value::bulk("only-channel"),
        ]))
        .is_err());
        assert!(parse_command(&Value::array(vec![Value::bulk("GET"), Value::bulk("k")])).is_err());
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
}
