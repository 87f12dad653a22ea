//! Request framing and response splitting for the two wire protocols the
//! generator speaks: CKP1 on one connection, length-prefixed JSON on the
//! other. Responses arrive pipelined and split at arbitrary byte
//! boundaries; [`Splitter`] reassembles them.

use circlekit_serve::binary::{self, KIND_REQUEST, KIND_RESPONSE};
use circlekit_serve::{Request, MAX_FRAME_LEN};
use serde_json::Value;

/// Which protocol a connection speaks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Proto {
    Ckp1,
    Json,
}

impl Proto {
    /// Connection index: the CKP1 connection is 0, the JSON one 1.
    pub fn of_conn(conn: usize) -> Proto {
        if conn == 0 {
            Proto::Ckp1
        } else {
            Proto::Json
        }
    }
}

/// Encodes `request` as one complete request frame.
pub fn encode_request(proto: Proto, request: &Request) -> Vec<u8> {
    match proto {
        Proto::Ckp1 => {
            let (op, payload) = binary::encode_request(request);
            binary::encode_frame(KIND_REQUEST, op, &payload)
        }
        Proto::Json => json_frame(&binary::encode_request_json(request)),
    }
}

/// A JSON frame: 4-byte big-endian length, then the payload.
pub fn json_frame(payload: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + payload.len());
    circlekit_serve::write_frame(&mut out, payload)
        .expect("a request payload stays under the frame ceiling");
    out
}

/// Reassembles whole response frames from a byte stream.
#[derive(Debug)]
pub struct Splitter {
    proto: Proto,
    buf: Vec<u8>,
    start: usize,
}

/// One response frame: its payload and its total size on the wire.
#[derive(Debug, PartialEq)]
pub struct RawResponse {
    pub payload: Vec<u8>,
    pub wire_bytes: usize,
}

impl Splitter {
    pub fn new(proto: Proto) -> Splitter {
        Splitter {
            proto,
            buf: Vec::with_capacity(64 * 1024),
            start: 0,
        }
    }

    /// Appends bytes read from the socket.
    pub fn push(&mut self, bytes: &[u8]) {
        if self.start > 0 && self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start > 32 * 1024 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// The next complete frame, `Ok(None)` when more bytes are needed.
    ///
    /// # Errors
    ///
    /// A message when the stream is provably malformed.
    pub fn next_frame(&mut self) -> Result<Option<RawResponse>, String> {
        let buf = &self.buf[self.start..];
        let (payload, used) = match self.proto {
            Proto::Ckp1 => match binary::try_parse(buf).map_err(|e| e.to_string())? {
                None => return Ok(None),
                Some((frame, used)) => {
                    if frame.kind != KIND_RESPONSE {
                        return Err(format!(
                            "CKP1 frame of kind {} is not a response",
                            frame.kind
                        ));
                    }
                    (frame.payload, used)
                }
            },
            Proto::Json => {
                if buf.len() < 4 {
                    return Ok(None);
                }
                let len = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
                if len > MAX_FRAME_LEN {
                    return Err(format!(
                        "JSON frame of {len} bytes exceeds the frame ceiling"
                    ));
                }
                if buf.len() < 4 + len {
                    return Ok(None);
                }
                (buf[4..4 + len].to_vec(), 4 + len)
            }
        };
        self.start += used;
        Ok(Some(RawResponse {
            payload,
            wire_bytes: used,
        }))
    }
}

/// Decodes a response payload into its envelope tree.
///
/// # Errors
///
/// A message when the payload is not a valid envelope.
pub fn decode_response(proto: Proto, payload: &[u8]) -> Result<Value, String> {
    match proto {
        Proto::Ckp1 => binary::decode_response_payload(payload),
        Proto::Json => {
            let text = std::str::from_utf8(payload).map_err(|e| e.to_string())?;
            serde_json::from_str(text).map_err(|e| e.to_string())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;
    use circlekit_serve::ok_payload;

    fn responses() -> Vec<String> {
        (0..20)
            .map(|i| {
                ok_payload(vec![
                    ("op".to_string(), Value::Str("score_group".to_string())),
                    ("group".to_string(), Value::UInt(i)),
                    (
                        "scores".to_string(),
                        Value::Seq(vec![Value::Float(0.1 * i as f64), Value::Null]),
                    ),
                    ("cached".to_string(), Value::Bool(i % 2 == 0)),
                ])
            })
            .collect()
    }

    fn wire(proto: Proto, rendered: &[String]) -> Vec<u8> {
        let mut out = Vec::new();
        for (i, r) in rendered.iter().enumerate() {
            match proto {
                Proto::Json => out.extend(json_frame(r)),
                Proto::Ckp1 => {
                    let payload = binary::encode_response_payload(r).unwrap();
                    out.extend(binary::encode_frame(
                        KIND_RESPONSE,
                        i as u16 % 4 + 4,
                        &payload,
                    ));
                }
            }
        }
        out
    }

    /// Every chunking of a pipelined stream yields the same frames, in
    /// order, decoding to the same trees the server rendered.
    #[test]
    fn pipelined_responses_split_across_reads() {
        let rendered = responses();
        for proto in [Proto::Ckp1, Proto::Json] {
            let bytes = wire(proto, &rendered);
            let mut rng = SplitMix64::new(9);
            for trial in 0..200 {
                let mut splitter = Splitter::new(proto);
                let mut got = Vec::new();
                let mut at = 0;
                while at < bytes.len() {
                    // Mix one-byte reads, header-straddling reads and
                    // reads spanning several frames.
                    let max = if trial % 3 == 0 {
                        1
                    } else {
                        1 + rng.below(300)
                    };
                    let end = (at + 1 + rng.below(max)).min(bytes.len());
                    splitter.push(&bytes[at..end]);
                    at = end;
                    while let Some(frame) = splitter.next_frame().unwrap() {
                        got.push(frame);
                    }
                }
                assert_eq!(got.len(), rendered.len(), "{proto:?} trial {trial}");
                assert_eq!(got.iter().map(|f| f.wire_bytes).sum::<usize>(), bytes.len());
                for (frame, want) in got.iter().zip(&rendered) {
                    let value = decode_response(proto, &frame.payload).unwrap();
                    let want: Value = serde_json::from_str(want).unwrap();
                    assert_eq!(value, want);
                }
            }
        }
    }

    #[test]
    fn malformed_streams_are_errors_not_hangs() {
        let mut ckp1 = Splitter::new(Proto::Ckp1);
        ckp1.push(b"XKP1\x01\x00\x00\x00");
        assert!(ckp1.next_frame().is_err());
        let mut json = Splitter::new(Proto::Json);
        json.push(&[0xff, 0xff, 0xff, 0xff]);
        assert!(json.next_frame().is_err());
        // A request-kind frame where a response is due is refused.
        let mut wrong_kind = Splitter::new(Proto::Ckp1);
        wrong_kind.push(&binary::encode_frame(KIND_REQUEST, 1, &[]));
        assert!(wrong_kind.next_frame().is_err());
    }

    #[test]
    fn requests_encode_for_both_protocols() {
        let request = Request::Health;
        let ckp1 = encode_request(Proto::Ckp1, &request);
        let (frame, used) = binary::try_parse(&ckp1).unwrap().unwrap();
        assert_eq!(used, ckp1.len());
        assert_eq!(
            binary::decode_request(frame.op, &frame.payload).unwrap(),
            request
        );
        let json = encode_request(Proto::Json, &request);
        let text = std::str::from_utf8(&json[4..]).unwrap();
        assert_eq!(Request::parse(text).unwrap(), request);
    }
}
