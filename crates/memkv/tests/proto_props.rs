//! Property-based tests of the memcached text protocol codec: round trips
//! for arbitrary keys/values (including binary payloads with embedded
//! CRLF), incremental parsing of split buffers, and robustness against
//! arbitrary garbage.

use bytes::Bytes;
use memfs_memkv::proto::{
    encode_request, encode_response, parse_request, Need, Parsed, Request, Response,
};
use proptest::prelude::*;

/// Keys legal at the store layer: 1-250 bytes, no space/control.
fn key_strategy() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0x21u8..0x7f, 1..64)
}

fn value_strategy() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..2048)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn storage_requests_round_trip(
        key in key_strategy(),
        value in value_strategy(),
        which in 0u8..3,
        exptime in any::<u32>(),
    ) {
        let key = Bytes::from(key);
        let value = Bytes::from(value);
        let req = match which {
            0 => Request::Set { key, value, exptime },
            1 => Request::Add { key, value, exptime },
            _ => Request::Append { key, value },
        };
        let wire = encode_request(&req);
        match parse_request(&wire).unwrap() {
            Parsed::Done(parsed, n) => {
                prop_assert_eq!(parsed, req);
                prop_assert_eq!(n, wire.len());
            }
            Parsed::NeedMore(_) => prop_assert!(false, "complete request not parsed"),
        }
    }

    #[test]
    fn getrange_round_trips_any_integers(
        key in key_strategy(),
        offset in any::<u64>(),
        len in any::<usize>(),
    ) {
        let req = Request::GetRange { key: Bytes::from(key), offset, len };
        let wire = encode_request(&req);
        prop_assert_eq!(parse_request(&wire).unwrap(), Parsed::Done(req, wire.len()));
        // A strict prefix is never a (different) complete request: all it
        // lacks is the end of its line.
        let cut = &wire[..wire.len() - 1];
        prop_assert_eq!(parse_request(cut).unwrap(), Parsed::NeedMore(Need::Line(cut.len())));
    }

    #[test]
    fn truncated_requests_never_panic_or_misparse(
        key in key_strategy(),
        value in value_strategy(),
        cut_frac in 0.0f64..1.0,
    ) {
        let req = Request::Set { key: Bytes::from(key), value: Bytes::from(value), exptime: 0 };
        let wire = encode_request(&req);
        let cut = ((wire.len() as f64) * cut_frac) as usize;
        // A strict prefix must parse to NeedMore or a clean error — never
        // to a Done of the *wrong* request.
        match parse_request(&wire[..cut]) {
            Ok(Parsed::NeedMore(_)) | Err(_) => {}
            Ok(Parsed::Done(parsed, _)) => prop_assert_eq!(parsed, req),
        }
    }

    #[test]
    fn pipelined_requests_parse_in_order(
        k1 in key_strategy(),
        k2 in key_strategy(),
        v in value_strategy(),
    ) {
        let r1 = Request::Set { key: Bytes::from(k1), value: Bytes::from(v), exptime: 0 };
        let r2 = Request::Get { keys: vec![Bytes::from(k2)] };
        let mut wire = encode_request(&r1);
        wire.extend(encode_request(&r2));
        let Parsed::Done(p1, n1) = parse_request(&wire).unwrap() else {
            return Err(TestCaseError::fail("first request incomplete"));
        };
        prop_assert_eq!(p1, r1);
        let Parsed::Done(p2, n2) = parse_request(&wire[n1..]).unwrap() else {
            return Err(TestCaseError::fail("second request incomplete"));
        };
        prop_assert_eq!(p2, r2);
        prop_assert_eq!(n1 + n2, wire.len());
    }

    #[test]
    fn arbitrary_garbage_never_panics(garbage in proptest::collection::vec(any::<u8>(), 0..512)) {
        // Any outcome is fine; panicking or looping is not.
        let _ = parse_request(&garbage);
    }

    #[test]
    fn value_responses_encode_consistently(
        key in key_strategy(),
        value in value_strategy(),
        cas in proptest::option::of(any::<u64>()),
    ) {
        let resp = Response::Value { key: Bytes::from(key), value: Bytes::from(value.clone()), cas };
        let wire = encode_response(&resp);
        // Framing invariants: starts with VALUE, embeds the payload, ends
        // with END.
        prop_assert!(wire.starts_with(b"VALUE "));
        prop_assert!(wire.ends_with(b"\r\nEND\r\n"));
        let header_end = wire.windows(2).position(|w| w == b"\r\n").unwrap() + 2;
        prop_assert_eq!(&wire[header_end..header_end + value.len()], &value[..]);
    }

    #[test]
    fn key_list_responses_frame_every_key(keys in proptest::collection::vec(key_strategy(), 0..20)) {
        let wire = encode_response(&Response::KeyList(keys.clone()));
        prop_assert!(wire.ends_with(b"END\r\n"));
        let text = wire.clone();
        let mut count = 0;
        let mut pos = 0;
        while let Some(i) = text[pos..].windows(4).position(|w| w == b"KEY ") {
            count += 1;
            pos += i + 4;
        }
        prop_assert_eq!(count, keys.len());
    }
}
