//! Hostile-input tests: malformed frames, oversized length prefixes,
//! mid-request disconnects, overload, and deadline expiry must produce a
//! typed error response or a clean close — never a panic or a hang.

use circlekit_graph::Graph;
use circlekit_serve::protocol::{
    read_frame, write_frame, FrameError, MAX_BASELINE_SAMPLES, MAX_FRAME_LEN,
};
use circlekit_serve::{Client, ErrorKind, ServeConfig, Server, SnapshotRegistry};
use std::io::Write as _;
use std::net::TcpStream;
use std::time::Duration;

fn small_server(config: ServeConfig) -> Server {
    let graph = Graph::from_edges(
        false,
        [(0u32, 1u32), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)],
    );
    let groups = vec![
        circlekit_graph::VertexSet::from_vec(vec![0, 1, 2]),
        circlekit_graph::VertexSet::from_vec(vec![3, 4, 5]),
    ];
    let mut registry = SnapshotRegistry::new();
    registry.insert("tiny", graph, groups).unwrap();
    Server::start(registry, config, ("127.0.0.1", 0)).unwrap()
}

fn finish(server: Server) {
    server.shutdown_handle().trigger();
    server.join();
}

#[test]
fn malformed_payloads_get_typed_bad_request_responses() {
    let server = small_server(ServeConfig::default());
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    for payload in [
        "not json",
        "[]",
        "{\"op\":\"warp-core-breach\"}",
        "{\"op\":\"score_group\"}",
        "{\"op\":\"score_group\",\"snapshot\":\"tiny\",\"group\":\"zero\"}",
    ] {
        write_frame(&mut stream, payload).unwrap();
        let response = read_frame(&mut stream).unwrap();
        assert!(response.contains("\"ok\":false"), "{payload} => {response}");
        assert!(response.contains("bad-request"), "{payload} => {response}");
    }
    // The connection survives garbage and still answers real requests.
    write_frame(&mut stream, "{\"op\":\"health\"}").unwrap();
    assert!(read_frame(&mut stream).unwrap().contains("\"ok\":true"));
    finish(server);
}

#[test]
fn unknown_snapshot_group_and_members_are_not_found_or_bad_request() {
    let server = small_server(ServeConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();
    let err = client.score_group("nope", 0, None, None).unwrap_err();
    assert!(err.is_kind(ErrorKind::NotFound), "{err}");
    let err = client.score_group("tiny", 99, None, None).unwrap_err();
    assert!(err.is_kind(ErrorKind::NotFound), "{err}");
    let err = client.score_set("tiny", &[0, 99], None, None).unwrap_err();
    assert!(err.is_kind(ErrorKind::BadRequest), "{err}");
    finish(server);
}

#[test]
fn oversized_length_prefix_is_refused_and_the_connection_closed() {
    let server = small_server(ServeConfig::default());
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .write_all(&((MAX_FRAME_LEN as u32) + 1).to_be_bytes())
        .unwrap();
    stream.flush().unwrap();
    let response = read_frame(&mut stream).unwrap();
    assert!(response.contains("frame-too-large"), "{response}");
    // The stream is desynchronised by construction, so the server closes
    // it after the error instead of guessing at a resync point.
    assert!(matches!(read_frame(&mut stream), Err(FrameError::Closed)));
    // The server itself is unharmed.
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.health().unwrap();
    finish(server);
}

#[test]
fn mid_request_disconnects_leave_the_server_serving() {
    let server = small_server(ServeConfig::default());
    let addr = server.local_addr();
    // Half a length prefix, then gone.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(&[0u8, 0]).unwrap();
    drop(stream);
    // A full prefix promising bytes that never arrive, then gone.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(&64u32.to_be_bytes()).unwrap();
    stream.write_all(b"{\"op\":").unwrap();
    drop(stream);
    // Disconnect while a response is pending.
    let mut stream = TcpStream::connect(addr).unwrap();
    write_frame(
        &mut stream,
        "{\"op\":\"score_group\",\"snapshot\":\"tiny\",\"group\":0}",
    )
    .unwrap();
    drop(stream);

    std::thread::sleep(Duration::from_millis(50));
    let mut client = Client::connect(addr).unwrap();
    client.health().unwrap();
    client.score_group("tiny", 0, None, None).unwrap();
    finish(server);
}

#[test]
fn expired_deadline_is_a_typed_refusal() {
    let server = small_server(ServeConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();
    let err = client
        .score_group("tiny", 0, None, Some(0))
        .unwrap_err();
    assert!(err.is_kind(ErrorKind::DeadlineExceeded), "{err}");
    // The connection still works afterwards.
    client.score_group("tiny", 0, None, None).unwrap();
    finish(server);
}

#[test]
fn oversized_baseline_sample_counts_are_refused_before_any_work() {
    let server = small_server(ServeConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();
    // 2^61 samples would overflow the allocation of the sampled sets and
    // take the only scoring worker down with it.
    let err = client.baseline("tiny", 0, 2_305_843_009_213_693_952, 2014).unwrap_err();
    assert!(err.is_kind(ErrorKind::BadRequest), "{err}");
    let err = client.baseline("tiny", 0, MAX_BASELINE_SAMPLES + 1, 2014).unwrap_err();
    assert!(err.is_kind(ErrorKind::BadRequest), "{err}");
    // The worker is unharmed: a cold score_set is still scored.
    let response = client.score_set("tiny", &[1, 2, 3], None, None).unwrap();
    assert_eq!(Client::scores_of(&response).unwrap().len(), 4);
    finish(server);
}

#[test]
fn deadline_expiring_in_the_queue_is_refused_at_the_batch_boundary() {
    let config = ServeConfig {
        workers: 1,
        queue_capacity: 8,
        debug_ops: true,
        ..ServeConfig::default()
    };
    let server = small_server(config);
    let addr = server.local_addr();
    // Occupy the single worker, then enqueue a request whose deadline
    // lapses while it waits.
    let sleeper = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        client.call(
            "debug_sleep",
            vec![("millis".to_string(), serde_json::Value::UInt(250))],
        )
    });
    std::thread::sleep(Duration::from_millis(60));
    let mut client = Client::connect(addr).unwrap();
    let err = client
        .score_group("tiny", 0, None, Some(50))
        .unwrap_err();
    assert!(err.is_kind(ErrorKind::DeadlineExceeded), "{err}");
    sleeper.join().unwrap().unwrap();
    finish(server);
}

#[test]
fn saturated_queue_answers_overloaded_immediately() {
    let config = ServeConfig {
        workers: 1,
        queue_capacity: 1,
        debug_ops: true,
        ..ServeConfig::default()
    };
    let server = small_server(config);
    let addr = server.local_addr();
    // One sleeper occupies the worker, a second fills the queue's single
    // slot; the third request must be refused synchronously.
    let sleepers: Vec<_> = (0..2)
        .map(|_| {
            let handle = std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                client.call(
                    "debug_sleep",
                    vec![("millis".to_string(), serde_json::Value::UInt(300))],
                )
            });
            std::thread::sleep(Duration::from_millis(60));
            handle
        })
        .collect();
    let mut client = Client::connect(addr).unwrap();
    let started = std::time::Instant::now();
    let err = client.score_group("tiny", 0, None, None).unwrap_err();
    assert!(err.is_kind(ErrorKind::Overloaded), "{err}");
    assert!(
        started.elapsed() < Duration::from_millis(200),
        "overload must be reported synchronously, not after the queue drains"
    );
    for sleeper in sleepers {
        sleeper.join().unwrap().unwrap();
    }
    let stats = server.stats();
    assert!(stats.overloaded >= 1);
    finish(server);
}

#[test]
fn debug_ops_are_rejected_unless_enabled() {
    let server = small_server(ServeConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();
    let err = client
        .call(
            "debug_sleep",
            vec![("millis".to_string(), serde_json::Value::UInt(1))],
        )
        .unwrap_err();
    assert!(err.is_kind(ErrorKind::BadRequest), "{err}");
    finish(server);
}

#[test]
fn requests_after_shutdown_are_refused_as_shutting_down() {
    let server = small_server(ServeConfig::default());
    let addr = server.local_addr();
    let mut client = Client::connect(addr).unwrap();
    client.shutdown().unwrap();
    // New connections are no longer accepted once the acceptor observes
    // the flag; a pre-existing connection that races a request in may be
    // refused with shutting-down. Either way, join() must complete: the
    // real assertion is that nothing hangs.
    let stats = server.join();
    assert!(stats.ok_responses >= 1);
}
