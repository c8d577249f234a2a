//! Property tests for the RESP codec: arbitrary values round-trip,
//! arbitrary prefixes never decode spuriously, arbitrary garbage never
//! panics, and the in-place readers agree with the decoder.

use dynamoth_pubsub::resp::{
    decode, encode, encode_command, message_push, read_command, read_server_frame, Command,
    Reading, Value,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// What a reader made of a buffer: a frame of this length, "need more
/// bytes" (`Ok(None)`), or an error.
fn verdict<T>(read: Reading<T>) -> Reading<()> {
    read.map(|frame| frame.map(|(_, used)| ((), used)))
}

/// Both in-place readers give `decode`'s verdict on `buf`.
fn readers_agree(buf: &[u8]) -> Result<(), TestCaseError> {
    let expected = verdict(decode(buf));
    prop_assert_eq!(
        verdict(read_command(buf)),
        expected.clone(),
        "command {:?}",
        buf
    );
    prop_assert_eq!(
        verdict(read_server_frame(buf)),
        expected,
        "server {:?}",
        buf
    );
    Ok(())
}

/// A frame the live tier puts on the wire: a `PUBLISH`, `SUBSCRIBE` or
/// `PING` command, or a `message` push.
fn wire_frame(kind: u8, channel: &str, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::new();
    match kind {
        0 => encode_command(&[b"PUBLISH", channel.as_bytes(), payload], &mut buf),
        1 => encode_command(&[b"SUBSCRIBE", channel.as_bytes(), b"other"], &mut buf),
        2 => encode_command(&[b"PING"], &mut buf),
        _ => encode(&message_push(channel, payload), &mut buf),
    }
    buf
}

fn arb_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        "[a-zA-Z0-9 ]{0,24}".prop_map(Value::Simple),
        "[a-zA-Z0-9 ]{0,24}".prop_map(Value::Error),
        any::<i64>().prop_map(Value::Integer),
        prop::collection::vec(any::<u8>(), 0..64).prop_map(|v| Value::Bulk(Some(v))),
        Just(Value::Bulk(None)),
        Just(Value::Array(None)),
    ];
    leaf.prop_recursive(3, 24, 6, |inner| {
        prop::collection::vec(inner, 0..6).prop_map(|items| Value::Array(Some(items)))
    })
}

proptest! {
    /// encode → decode is the identity and consumes exactly the frame.
    #[test]
    fn roundtrip(value in arb_value()) {
        let mut buf = Vec::new();
        encode(&value, &mut buf);
        let (decoded, used) = decode(&buf).expect("valid").expect("complete");
        prop_assert_eq!(decoded, value);
        prop_assert_eq!(used, buf.len());
    }

    /// No strict prefix of a frame ever decodes to a full value, and
    /// appending unrelated bytes after a frame does not change what the
    /// first decode returns.
    #[test]
    fn framing_is_exact(value in arb_value(), suffix in prop::collection::vec(any::<u8>(), 0..16)) {
        let mut buf = Vec::new();
        encode(&value, &mut buf);
        for cut in 0..buf.len() {
            prop_assert_eq!(decode(&buf[..cut]).expect("prefix is not an error"), None);
        }
        let mut extended = buf.clone();
        extended.extend_from_slice(&suffix);
        let (decoded, used) = decode(&extended).expect("valid").expect("complete");
        prop_assert_eq!(decoded, value);
        prop_assert_eq!(used, buf.len());
    }

    /// Arbitrary bytes never panic the decoder.
    #[test]
    fn garbage_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode(&bytes);
    }

    /// Regression for the fault-injection path: a frame truncated at
    /// *any* byte boundary — what a chaos-killed connection leaves in
    /// the read buffer — never panics and never decodes to a value,
    /// even with arbitrary garbage appended after the cut (the next
    /// doomed read). The decoder either waits for more bytes or
    /// rejects; it must not invent a frame or die.
    #[test]
    fn truncated_frames_never_panic_or_decode(
        value in arb_value(),
        cut_seed in any::<u16>(),
        garbage in prop::collection::vec(any::<u8>(), 0..32),
    ) {
        let mut buf = Vec::new();
        encode(&value, &mut buf);
        prop_assume!(buf.len() > 1);
        let cut = 1 + (cut_seed as usize) % (buf.len() - 1);
        let mut torn = buf[..cut].to_vec();
        // The pure prefix decodes to "need more bytes", never a value.
        prop_assert_eq!(decode(&torn).expect("prefix never errors"), None);
        // With garbage appended it may error, but it must not panic,
        // and anything it does decode must consume past the tear (a
        // decode that "completed" inside the torn prefix would be
        // inventing bytes).
        torn.extend_from_slice(&garbage);
        if let Ok(Some((_, used))) = decode(&torn) {
            prop_assert!(used > cut);
        }
    }

    /// Hostile length headers (huge bulks, huge or deeply nested
    /// arrays) are rejected with an error — never a panic, an abort or
    /// unbounded allocation.
    #[test]
    fn hostile_headers_error_fast(
        len in (1u64 << 27)..(1u64 << 62),
        deep in 64usize..512,
    ) {
        let bulk = format!("${len}\r\n");
        prop_assert!(decode(bulk.as_bytes()).is_err());
        let arr = format!("*{len}\r\n");
        prop_assert!(decode(arr.as_bytes()).is_err());
        let nested = "*1\r\n".repeat(deep);
        prop_assert!(decode(nested.as_bytes()).is_err());
    }

    /// PUBLISH commands round-trip through the codec and the in-place
    /// reader.
    #[test]
    fn publish_commands_parse(
        channel in "[a-zA-Z0-9_]{1,16}",
        payload in prop::collection::vec(any::<u8>(), 0..128),
    ) {
        let cmd = Value::array(vec![
            Value::bulk("PUBLISH"),
            Value::bulk(channel.as_bytes().to_vec()),
            Value::Bulk(Some(payload.clone())),
        ]);
        let mut buf = Vec::new();
        encode(&cmd, &mut buf);
        let (command, used) = read_command(&buf).unwrap().unwrap();
        prop_assert_eq!(used, buf.len());
        prop_assert_eq!(
            command.unwrap(),
            Command::Publish(channel.as_bytes(), &payload)
        );
    }

    /// The in-place readers and `decode` read one grammar: on arbitrary
    /// bytes, and on every truncation and every single-byte
    /// substitution of the frames the live tier sends, they give the
    /// same verdict (frame, need more, or error) and consume the same
    /// length.
    #[test]
    fn in_place_readers_agree_with_decode(
        garbage in prop::collection::vec(any::<u8>(), 0..96),
        kind in 0u8..4,
        channel in "[a-zA-Z0-9_]{1,12}",
        payload in prop::collection::vec(any::<u8>(), 0..24),
    ) {
        readers_agree(&garbage)?;
        let frame = wire_frame(kind, &channel, &payload);
        for cut in 0..=frame.len() {
            readers_agree(&frame[..cut])?;
        }
        let mut mutated = frame.clone();
        for at in 0..frame.len() {
            for byte in 0..=u8::MAX {
                mutated[at] = byte;
                readers_agree(&mutated)?;
            }
            mutated[at] = frame[at];
        }
    }
}
