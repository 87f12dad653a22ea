//! CKP1 acceptance properties over real sockets: every op round-trips
//! the binary codec bit-identically (property-tested), JSON-mode and
//! binary-mode responses carry the same tree and render byte-identical
//! score tables, pipelined requests come back in request order,
//! pipelined writes execute in request order in both wire modes, a
//! burst of simultaneous connects sees zero refused, and every
//! malformed-frame shape is a typed error or a clean close — never a
//! panic or a hang.

use circlekit_scoring::ScoringFunction;
use circlekit_serve::binary;
use circlekit_serve::protocol::wire;
use circlekit_serve::{
    write_frame, Client, ClientOptions, Mutation, Request, ServeConfig, Server, SnapshotRegistry,
    MAX_FRAME_LEN,
};
use circlekit_synth::presets;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde_json::Value;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

fn fixture() -> circlekit_synth::SynthDataset {
    presets::google_plus().scaled(0.004).generate(&mut SmallRng::seed_from_u64(2014))
}

fn start_server(config: ServeConfig) -> (Server, circlekit_synth::SynthDataset) {
    let data = fixture();
    let mut registry = SnapshotRegistry::new();
    registry.insert("gplus", data.graph.clone(), data.groups.clone()).unwrap();
    let server = Server::start(registry, config, ("127.0.0.1", 0)).unwrap();
    (server, data)
}

// ---------------------------------------------------------------------
// Property: every op round-trips the CKP1 codec bit-identically
// ---------------------------------------------------------------------

fn arb_snapshot() -> impl Strategy<Value = String> {
    prop::sample::select(vec!["gplus", "web", "a.b-c_d", "x0", "gplus.shard2"])
        .prop_map(String::from)
}

fn arb_functions() -> impl Strategy<Value = Vec<ScoringFunction>> {
    prop::collection::vec(prop::sample::select(ScoringFunction::ALL.to_vec()), 1..6)
}

fn arb_mutations() -> impl Strategy<Value = Vec<Mutation>> {
    prop::collection::vec(
        prop_oneof![
            (any::<u32>(), any::<u32>()).prop_map(|(u, v)| Mutation::AddEdge { u, v }),
            (any::<u32>(), any::<u32>()).prop_map(|(u, v)| Mutation::RemoveEdge { u, v }),
        ],
        1..8,
    )
}

fn arb_request() -> impl Strategy<Value = Request> {
    let members = || prop::collection::vec(any::<u32>(), 0..16);
    let deadline = || prop::option::of(0u64..1_000_000);
    prop_oneof![
        Just(Request::Health),
        Just(Request::Stats),
        Just(Request::Shutdown),
        Just(Request::ListSnapshots),
        Just(Request::ReplStatus),
        arb_snapshot().prop_map(|snapshot| Request::ListGroups { snapshot }),
        arb_snapshot().prop_map(|snapshot| Request::Compact { snapshot }),
        (arb_snapshot(), 0usize..4096, arb_functions(), deadline()).prop_map(
            |(snapshot, group, functions, deadline_ms)| Request::ScoreGroup {
                snapshot,
                group,
                functions,
                deadline_ms,
            }
        ),
        (arb_snapshot(), members(), arb_functions(), deadline()).prop_map(
            |(snapshot, members, functions, deadline_ms)| Request::ScoreSet {
                snapshot,
                members,
                functions,
                deadline_ms,
            }
        ),
        (arb_snapshot(), 0usize..4096, arb_functions(), 1usize..512, any::<u64>(), deadline())
            .prop_map(|(snapshot, group, functions, samples, seed, deadline_ms)| {
                Request::Baseline { snapshot, group, functions, samples, seed, deadline_ms }
            }),
        (arb_snapshot(), arb_mutations()).prop_map(|(snapshot, mutations)| {
            Request::ApplyMutations { snapshot, mutations }
        }),
        (arb_snapshot(), 0usize..4096)
            .prop_map(|(snapshot, group)| Request::WatchScores { snapshot, group }),
        (arb_snapshot(), any::<u32>(), any::<u64>(), 1usize..64, 0usize..64).prop_map(
            |(snapshot, ego, seed, min_size, top)| Request::SuggestCircles {
                snapshot,
                ego,
                seed,
                min_size,
                top,
            }
        ),
        (arb_snapshot(), any::<u32>(), any::<u64>()).prop_map(
            |(snapshot, base_crc, wal_offset)| Request::Replicate {
                snapshot,
                base_crc,
                wal_offset,
            }
        ),
        any::<u64>().prop_map(|offset| Request::ReplAck { offset }),
        (arb_snapshot(), 0usize..4096, deadline()).prop_map(|(snapshot, group, deadline_ms)| {
            Request::ShardStats { snapshot, group: Some(group), members: None, deadline_ms }
        }),
        (arb_snapshot(), members(), deadline()).prop_map(|(snapshot, members, deadline_ms)| {
            Request::ShardStats { snapshot, group: None, members: Some(members), deadline_ms }
        }),
        (0u64..10_000).prop_map(|millis| Request::DebugSleep { millis }),
    ]
}

proptest! {
    #[test]
    fn every_op_roundtrips_ckp1_bit_identically(request in arb_request()) {
        let (op, payload) = binary::encode_request(&request);
        let wire = binary::encode_frame(binary::KIND_REQUEST, op, &payload);
        let (frame, consumed) =
            binary::try_parse(&wire).expect("well-formed frame").expect("complete frame");
        prop_assert_eq!(consumed, wire.len());
        prop_assert_eq!(frame.kind, binary::KIND_REQUEST);
        prop_assert_eq!(frame.op, op);
        prop_assert_eq!(&frame.payload, &payload);
        let decoded = binary::decode_request(frame.op, &frame.payload)
            .expect("encoded requests decode");
        prop_assert_eq!(&decoded, &request);
        // Re-encoding the decoded request reproduces the exact bytes:
        // the codec is canonical, not merely invertible.
        let (op2, payload2) = binary::encode_request(&decoded);
        prop_assert_eq!(op2, op);
        prop_assert_eq!(payload2, payload);
    }
}

// ---------------------------------------------------------------------
// Byte identity across wire modes, over real sockets
// ---------------------------------------------------------------------

fn write_json_frame(stream: &mut TcpStream, payload: &str) {
    stream.write_all(&(payload.len() as u32).to_be_bytes()).unwrap();
    stream.write_all(payload.as_bytes()).unwrap();
    stream.flush().unwrap();
}

fn read_json_frame(stream: &mut TcpStream) -> Option<String> {
    let mut len = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match stream.read(&mut len[got..]).unwrap() {
            0 if got == 0 => return None,
            0 => panic!("peer closed mid-prefix"),
            n => got += n,
        }
    }
    let mut payload = vec![0u8; u32::from_be_bytes(len) as usize];
    stream.read_exact(&mut payload).unwrap();
    Some(String::from_utf8(payload).unwrap())
}

/// Reads one CKP1 frame, carrying leftover bytes in `buf` across calls
/// (one `read` can return several pipelined frames back to back).
/// Returns `None` on a clean close with no buffered bytes.
fn read_binary_frame_buffered(
    stream: &mut TcpStream,
    buf: &mut Vec<u8>,
) -> Option<binary::Frame> {
    let mut chunk = [0u8; 4096];
    loop {
        match binary::try_parse(buf) {
            Ok(Some((frame, consumed))) => {
                buf.drain(..consumed);
                return Some(frame);
            }
            Ok(None) => {}
            Err(defect) => panic!("server sent a malformed frame: {defect}"),
        }
        match stream.read(&mut chunk) {
            Ok(0) if buf.is_empty() => return None,
            Ok(0) => panic!("server closed mid-frame"),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) => panic!("read: {e}"),
        }
    }
}

/// [`read_binary_frame_buffered`] for strictly request/response traffic
/// where no second frame can trail the first.
fn read_binary_frame(stream: &mut TcpStream) -> Option<binary::Frame> {
    read_binary_frame_buffered(stream, &mut Vec::new())
}

fn connect_raw(addr: std::net::SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    stream
}

#[test]
fn json_and_binary_modes_render_byte_identical_score_tables() {
    let (server, data) = start_server(ServeConfig::default());
    let addr = server.local_addr();
    let groups = data.groups.len().min(6);
    let members: Vec<u32> = data.groups[0].as_slice().iter().copied().take(12).collect();

    let mut requests: Vec<Request> = vec![
        Request::Health,
        Request::ListSnapshots,
        Request::ListGroups { snapshot: "gplus".to_string() },
        // An error envelope (`not-found`) must agree across modes too.
        Request::ListGroups { snapshot: "missing".to_string() },
        Request::ScoreSet {
            snapshot: "gplus".to_string(),
            members,
            functions: ScoringFunction::ALL.to_vec(),
            deadline_ms: None,
        },
    ];
    for g in 0..groups {
        requests.push(Request::ScoreGroup {
            snapshot: "gplus".to_string(),
            group: g,
            functions: ScoringFunction::ALL.to_vec(),
            deadline_ms: None,
        });
        requests.push(Request::WatchScores { snapshot: "gplus".to_string(), group: g });
    }

    let mut json = connect_raw(addr);
    let mut bin = connect_raw(addr);
    for request in &requests {
        // Warm the score cache through the JSON path first, so both
        // modes replay the same cached entry and even the `cached`
        // marker agrees.
        let rendered = binary::encode_request_json(request);
        write_json_frame(&mut json, &rendered);
        let _warm = read_json_frame(&mut json).expect("warm response");
        write_json_frame(&mut json, &rendered);
        let via_json = read_json_frame(&mut json).expect("json response");

        let (op, payload) = binary::encode_request(request);
        bin.write_all(&binary::encode_frame(binary::KIND_REQUEST, op, &payload)).unwrap();
        let frame = read_binary_frame(&mut bin).expect("binary response");
        assert_eq!(frame.kind, binary::KIND_RESPONSE);
        assert_eq!(frame.op, op);
        let tree = binary::decode_response_payload(&frame.payload).unwrap();

        // The server encodes one tree twice: the bval-decoded tree is the
        // JSON-parsed one, and so renders to the same bytes.
        let parsed: Value = serde_json::from_str(&via_json).unwrap();
        assert_eq!(tree, parsed, "response tree diverged across wire modes for {request:?}");
        assert_eq!(
            tree.to_string(),
            via_json,
            "rendered response diverged across wire modes for {request:?}"
        );
    }
    server.shutdown_handle().trigger();
    server.join();
}

#[test]
fn binary_client_scores_match_json_client_bit_for_bit() {
    let (server, data) = start_server(ServeConfig::default());
    let addr = server.local_addr();
    let options = ClientOptions {
        connect_timeout: Some(Duration::from_secs(5)),
        read_timeout: Some(Duration::from_secs(10)),
        binary: true,
    };
    let mut binary_client = Client::connect_with_options(addr, options).unwrap();
    assert!(binary_client.is_binary());
    let mut json_client = Client::connect(addr).unwrap();
    for g in 0..data.groups.len().min(8) {
        let a = binary_client.score_group("gplus", g, Some("all"), None).unwrap();
        let b = json_client.score_group("gplus", g, Some("all"), None).unwrap();
        let a = Client::scores_of(&a).unwrap();
        let b = Client::scores_of(&b).unwrap();
        let a_bits: Vec<u64> = a.iter().map(|s| s.to_bits()).collect();
        let b_bits: Vec<u64> = b.iter().map(|s| s.to_bits()).collect();
        assert_eq!(a_bits, b_bits, "group {g} diverged across client modes");
    }
    server.shutdown_handle().trigger();
    server.join();
}

// ---------------------------------------------------------------------
// Pipelining: responses delivered, and writes executed, in request order
// ---------------------------------------------------------------------

#[test]
fn pipelined_binary_requests_come_back_in_request_order() {
    let (server, data) = start_server(ServeConfig::default());
    let addr = server.local_addr();
    let groups = data.groups.len().min(8);
    let mut stream = connect_raw(addr);

    // Fire every request before reading a single response.
    let mut expected_ops = Vec::new();
    let mut burst = Vec::new();
    for round in 0..4 {
        for g in 0..groups {
            let request = if (round + g) % 2 == 0 {
                Request::ScoreGroup {
                    snapshot: "gplus".to_string(),
                    group: g,
                    functions: ScoringFunction::PAPER.to_vec(),
                    deadline_ms: None,
                }
            } else {
                Request::WatchScores { snapshot: "gplus".to_string(), group: g }
            };
            let (op, payload) = binary::encode_request(&request);
            burst.extend_from_slice(&binary::encode_frame(binary::KIND_REQUEST, op, &payload));
            expected_ops.push((op, g as u64));
        }
    }
    stream.write_all(&burst).unwrap();

    let mut leftover = Vec::new();
    for (op, group) in expected_ops {
        let frame =
            read_binary_frame_buffered(&mut stream, &mut leftover).expect("pipelined response");
        assert_eq!(frame.kind, binary::KIND_RESPONSE);
        assert_eq!(frame.op, op, "responses must arrive in request order");
        let value = binary::decode_response_payload(&frame.payload).unwrap();
        let rendered = value.to_string();
        assert!(
            rendered.contains(&format!("\"group\":{group}")),
            "response for group {group} out of order: {rendered}"
        );
    }
    server.shutdown_handle().trigger();
    server.join();
}

/// Pipelines `pairs` pairs of (`apply_mutations ["add-vertex"]`,
/// `watch_scores`) on one connection in one wire mode, half-closes it
/// before reading anything, and returns the `version` of every response
/// in order.
fn pipelined_write_read_versions(binary_mode: bool, pairs: usize) -> Vec<u64> {
    let (server, _data) = start_server(ServeConfig::default());
    let mut stream = connect_raw(server.local_addr());
    let write = Request::ApplyMutations {
        snapshot: "gplus".to_string(),
        mutations: vec![Mutation::AddVertex],
    };
    let read = Request::WatchScores { snapshot: "gplus".to_string(), group: 0 };
    let mut burst = Vec::new();
    for _ in 0..pairs {
        for request in [&write, &read] {
            if binary_mode {
                let (op, payload) = binary::encode_request(request);
                burst.extend(binary::encode_frame(binary::KIND_REQUEST, op, &payload));
            } else {
                write_frame(&mut burst, &binary::encode_request_json(request)).unwrap();
            }
        }
    }
    stream.write_all(&burst).unwrap();
    // Frames buffered behind a write must still be answered after EOF.
    stream.shutdown(std::net::Shutdown::Write).unwrap();

    let mut leftover = Vec::new();
    let versions = (0..2 * pairs)
        .map(|_| {
            let tree = if binary_mode {
                let frame = read_binary_frame_buffered(&mut stream, &mut leftover)
                    .expect("pipelined response");
                binary::decode_response_payload(&frame.payload).unwrap()
            } else {
                let text = read_json_frame(&mut stream).expect("pipelined response");
                serde_json::from_str(&text).unwrap()
            };
            wire::get_u64(&tree, "version").unwrap_or_else(|e| panic!("{e:?}: {tree}"))
        })
        .collect();
    server.shutdown_handle().trigger();
    server.join();
    versions
}

#[test]
fn pipelined_writes_execute_in_request_order_in_both_wire_modes() {
    const PAIRS: usize = 32;
    for binary_mode in [false, true] {
        let versions = pipelined_write_read_versions(binary_mode, PAIRS);
        let writes: Vec<u64> = versions.iter().step_by(2).copied().collect();
        let expected: Vec<u64> = (1..=PAIRS as u64).collect();
        assert_eq!(writes, expected, "binary={binary_mode}: writes acked out of request order");
        for pair in versions.chunks(2) {
            assert!(
                pair[1] >= pair[0],
                "binary={binary_mode}: a read saw version {} after its write acked {}",
                pair[1],
                pair[0]
            );
        }
    }
}

// ---------------------------------------------------------------------
// Burst connects: the raised backlog refuses nothing
// ---------------------------------------------------------------------

#[test]
fn burst_of_simultaneous_connects_sees_zero_refused() {
    let (server, _data) = start_server(ServeConfig::default());
    let addr = server.local_addr();
    let failures: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..16)
            .map(|_| {
                scope.spawn(move || {
                    let mut failed = Vec::new();
                    for _ in 0..16 {
                        match Client::connect(addr) {
                            Ok(mut client) => {
                                if let Err(e) = client.health() {
                                    failed.push(format!("health: {e}"));
                                }
                            }
                            Err(e) => failed.push(format!("connect: {e}")),
                        }
                    }
                    failed
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
    });
    assert!(failures.is_empty(), "refused or failed connects: {failures:?}");
    server.shutdown_handle().trigger();
    server.join();
}

// ---------------------------------------------------------------------
// Malformed-frame battery: typed error or clean close, never a hang
// ---------------------------------------------------------------------

/// Sends `bytes`, then asserts the server answers with at most one
/// typed error frame before closing the connection. Returns the error
/// envelope when one was sent.
fn expect_error_then_close(addr: std::net::SocketAddr, bytes: &[u8]) -> Option<String> {
    let mut stream = connect_raw(addr);
    stream.write_all(bytes).unwrap();
    let envelope = read_binary_frame(&mut stream).map(|frame| {
        assert_eq!(frame.kind, binary::KIND_RESPONSE);
        assert_eq!(frame.op, binary::OP_UNKNOWN, "framing defects answer at op_unknown");
        binary::decode_response_payload(&frame.payload).unwrap().to_string()
    });
    // Whatever was sent, the connection must now close cleanly.
    let mut rest = [0u8; 64];
    loop {
        match stream.read(&mut rest) {
            Ok(0) => break,
            Ok(_) => continue,
            Err(e) => panic!("expected a clean close, got {e}"),
        }
    }
    envelope
}

#[test]
fn malformed_binary_frames_are_typed_errors_or_clean_closes() {
    let (server, _data) = start_server(ServeConfig::default());
    let addr = server.local_addr();
    let (op, payload) = binary::encode_request(&Request::Health);
    let good = binary::encode_frame(binary::KIND_REQUEST, op, &payload);

    // Bad magic (first byte still sniffs as binary).
    let mut bad_magic = good.clone();
    bad_magic[3] = b'9';
    let envelope = expect_error_then_close(addr, &bad_magic).expect("typed error");
    assert!(envelope.contains("\"ok\":false"), "{envelope}");

    // Bad CRC: flip one payload byte so the header checksum disagrees.
    let mut bad_crc = good.clone();
    *bad_crc.last_mut().unwrap() ^= 0xFF;
    let envelope = expect_error_then_close(addr, &bad_crc).expect("typed error");
    assert!(envelope.contains("\"ok\":false"), "{envelope}");

    // Oversized length: a header advertising a payload over the cap.
    let mut oversized = Vec::new();
    oversized.extend_from_slice(&binary::MAGIC);
    oversized.push(binary::KIND_REQUEST);
    oversized.push(0);
    oversized.extend_from_slice(&op.to_le_bytes());
    oversized.extend_from_slice(&((MAX_FRAME_LEN as u32) + 1).to_le_bytes());
    oversized.extend_from_slice(&0u32.to_le_bytes());
    let envelope = expect_error_then_close(addr, &oversized).expect("typed error");
    assert!(envelope.contains("frame-too-large"), "{envelope}");

    // Truncation at every prefix boundary: an EOF inside a well-formed
    // frame is a clean close, not a response and not a hang.
    for cut in 1..good.len() {
        let mut stream = connect_raw(addr);
        stream.write_all(&good[..cut]).unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).unwrap_or_else(|e| panic!("cut {cut}: {e}"));
        assert!(rest.is_empty(), "a truncated frame must not be answered (cut {cut})");
    }

    // Mid-frame disconnect: drop the socket without shutdown.
    for cut in [1, binary::HEADER_LEN - 1, good.len() - 1] {
        let mut stream = connect_raw(addr);
        stream.write_all(&good[..cut]).unwrap();
        drop(stream);
    }

    // A response-kind frame from a client is a protocol violation, but
    // a recoverable one: typed error, connection survives.
    let mut stream = connect_raw(addr);
    stream.write_all(&binary::encode_frame(binary::KIND_RESPONSE, op, &payload)).unwrap();
    let frame = read_binary_frame(&mut stream).expect("typed error");
    // The frame itself parsed (op and all), so the error echoes its op.
    assert_eq!(frame.op, op);
    let envelope = binary::decode_response_payload(&frame.payload).unwrap().to_string();
    assert!(envelope.contains("\"ok\":false"), "{envelope}");
    stream.write_all(&good).unwrap();
    let frame = read_binary_frame(&mut stream).expect("the connection must survive");
    assert_eq!(frame.op, op);

    // After the whole battery the server still serves.
    let mut client = Client::connect(addr).unwrap();
    client.health().unwrap();
    server.shutdown_handle().trigger();
    server.join();
}
