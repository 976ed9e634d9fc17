//! Property tests for the HTTP request decoder, which reads bytes straight
//! off a socket: it returns a request or a `ReadError` on any input, never
//! panics, and never reads more than `MAX_HEAD + 2048` head bytes or
//! `MAX_BODY` body bytes; well-formed requests round-trip exactly. Replay a
//! failure with `SAS_PTEST_SEED`.

use sas_ptest::{check, Rng};
use sas_serve::http::{read_request, Request, MAX_BODY, MAX_HEAD};

/// Bytes HTTP framing is made of, so random inputs reach the header and
/// body paths often enough.
const ALPHABET: &[u8] = b"GETPOS /rpc HTTP/1.1\r\n:content-length0123456789xX-\t";

/// Header-name bytes (RFC 9110 `tchar`, letters in both cases).
const TCHAR: &[u8] =
    b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789!#$%&'*+-.^_`|~";

/// One read of `input` through the decoder: the result and how many bytes
/// it pulled from the stream.
fn decode(input: &[u8]) -> (Result<Request, String>, usize) {
    let mut rest = input;
    let out = read_request(&mut rest).map_err(|e| format!("{e:?}"));
    (out, input.len() - rest.len())
}

fn head_end(input: &[u8]) -> Option<usize> {
    input.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4)
}

/// The bounded-buffering contract, checked from what the decoder consumed.
fn assert_bounded(input: &[u8]) {
    let (out, consumed) = decode(input);
    match head_end(input) {
        Some(end) if end <= MAX_HEAD + 2048 => assert!(
            consumed <= end + MAX_BODY,
            "read {} body bytes past a {end}-byte head",
            consumed - end
        ),
        _ => assert!(consumed <= MAX_HEAD + 2048, "read {consumed} head bytes"),
    }
    if let Ok(req) = out {
        assert!(req.body.len() <= MAX_BODY, "{}-byte body", req.body.len());
    }
}

fn word(rng: &mut Rng, from: &[u8], len: std::ops::Range<u64>) -> String {
    let n = rng.range(len.start, len.end);
    (0..n).map(|_| from[rng.below(from.len() as u64) as usize] as char).collect()
}

/// A generated well-formed request: its wire bytes and what must decode.
struct Wire {
    bytes: Vec<u8>,
    method: String,
    path: String,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
}

fn well_formed(rng: &mut Rng) -> Wire {
    let method = ["GET", "POST", "PUT", "DELETE"][rng.below(4) as usize].to_string();
    let path = format!("/{}", word(rng, b"abcxyz019/-_.?=&%", 0..24));
    let body: Vec<u8> = (0..rng.below(300)).map(|_| rng.below(256) as u8).collect();
    let mut headers: Vec<(String, String)> = (0..rng.below(6))
        .map(|_| {
            let name = format!("x-{}", word(rng, TCHAR, 1..12));
            let value = if rng.chance(0.2) {
                String::new()
            } else {
                // Interior spaces and colons only: values are trimmed.
                let (a, b, c) =
                    (word(rng, TCHAR, 1..6), word(rng, TCHAR, 0..6), word(rng, TCHAR, 1..6));
                format!("{a}:{b} {c}")
            };
            (name, value)
        })
        .collect();
    if !body.is_empty() || rng.chance(0.5) {
        let at = rng.below(headers.len() as u64 + 1) as usize;
        headers.insert(at, ("content-length".into(), body.len().to_string()));
    }
    let mut bytes = format!("{method} {path} HTTP/1.1\r\n").into_bytes();
    for (name, value) in &headers {
        // Send names in random case; they must decode lower-cased.
        let sent: String = name
            .chars()
            .map(|c| if rng.chance(0.5) { c.to_ascii_uppercase() } else { c })
            .collect();
        let pad = if rng.chance(0.5) { " " } else { "" };
        bytes.extend_from_slice(format!("{sent}:{pad}{value}{pad}\r\n").as_bytes());
    }
    bytes.extend_from_slice(b"\r\n");
    bytes.extend_from_slice(&body);
    let headers = headers.into_iter().map(|(n, v)| (n.to_ascii_lowercase(), v)).collect();
    Wire { bytes, method, path, headers, body }
}

/// Replaces, deletes or inserts a few bytes, or truncates.
fn mutate(bytes: &mut Vec<u8>, rng: &mut Rng) {
    for _ in 0..rng.range(1, 4) {
        if bytes.is_empty() {
            return;
        }
        let at = rng.below(bytes.len() as u64) as usize;
        let byte = ALPHABET[rng.below(ALPHABET.len() as u64) as usize];
        match rng.below(4) {
            0 => bytes[at] = byte,
            1 => {
                bytes.remove(at);
            }
            2 => bytes.insert(at, byte),
            _ => bytes.truncate(at),
        }
    }
}

/// Inputs at the limits: a head that never ends, and bodies declared
/// within 2 KiB of `MAX_BODY` (or just over it) behind heads of every
/// length modulo the 2 KiB read size, so a read that overruns the declared
/// length also overruns `MAX_BODY`.
fn oversized(rng: &mut Rng) -> Vec<u8> {
    if rng.chance(0.5) {
        let mut bytes = b"POST /rpc HTTP/1.1\r\n".to_vec();
        let fill = rng.range(MAX_HEAD as u64 - 64, MAX_HEAD as u64 + 8192) as usize;
        bytes.extend(b"x-a: b\r\n".iter().cycle().take(fill));
        return bytes;
    }
    let declared =
        if rng.chance(0.1) { MAX_BODY + 1 } else { MAX_BODY - rng.below(2048) as usize };
    // Half the bodies run past their declared length, half stop short.
    let sent = if rng.chance(0.5) {
        declared + rng.below(4096) as usize
    } else {
        rng.below(declared as u64) as usize
    };
    let pad = "p".repeat(rng.below(2048) as usize);
    let mut bytes =
        format!("POST /rpc HTTP/1.1\r\nx-pad: {pad}\r\ncontent-length: {declared}\r\n\r\n")
            .into_bytes();
    bytes.resize(bytes.len() + sent, b'{');
    bytes
}

#[test]
fn the_decoder_never_panics_and_buffers_boundedly() {
    check("http_decode_bounded", 256, |rng| {
        let input = match rng.below(10) {
            0..=3 => {
                let len = rng.below(512) as usize;
                (0..len)
                    .map(|_| {
                        if rng.chance(0.8) {
                            ALPHABET[rng.below(ALPHABET.len() as u64) as usize]
                        } else {
                            rng.below(256) as u8
                        }
                    })
                    .collect()
            }
            4..=7 => {
                let mut bytes = well_formed(rng).bytes;
                mutate(&mut bytes, rng);
                bytes
            }
            _ => oversized(rng),
        };
        assert_bounded(&input);
    });
}

#[test]
fn well_formed_requests_round_trip() {
    check("http_round_trip", 256, |rng| {
        let wire = well_formed(rng);
        let (out, consumed) = decode(&wire.bytes);
        let req = out.unwrap_or_else(|e| {
            panic!("{e} on {:?}", String::from_utf8_lossy(&wire.bytes))
        });
        assert_eq!(consumed, wire.bytes.len());
        assert_eq!(req.method, wire.method);
        assert_eq!(req.path, wire.path);
        assert_eq!(req.headers, wire.headers);
        assert_eq!(req.body, wire.body);
    });
}
