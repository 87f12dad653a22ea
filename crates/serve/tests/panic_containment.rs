//! A panic while answering is contained: the request it was answering
//! gets a typed `internal` error, counted in the `stats` row `panics`,
//! and the daemon goes on serving — on the event loop, where one panic
//! would otherwise stop every connection, and on a scoring worker, where
//! it would otherwise strand a whole batch. Needs `--features
//! fault-inject`.

#![cfg(feature = "fault-inject")]

use circlekit_scoring::{Scorer, ScoringFunction};
use circlekit_serve::protocol::wire;
use circlekit_serve::{
    binary, fault, read_frame, write_frame, Client, ErrorKind, Request, ServeConfig, Server,
    SnapshotRegistry,
};
use circlekit_synth::presets;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde_json::Value;
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::Duration;

/// The hooks are process-global: one armed test at a time.
static HOOKS: Mutex<()> = Mutex::new(());

fn start(config: ServeConfig) -> (Server, circlekit_synth::SynthDataset) {
    let data = presets::google_plus()
        .scaled(0.004)
        .generate(&mut SmallRng::seed_from_u64(2014));
    let mut registry = SnapshotRegistry::new();
    registry
        .insert("gplus", data.graph.clone(), data.groups.clone())
        .unwrap();
    let server = Server::start(registry, config, ("127.0.0.1", 0)).unwrap();
    (server, data)
}

fn panics(client: &mut Client) -> u64 {
    wire::get_u64(&client.stats().unwrap(), "panics").unwrap()
}

#[test]
fn a_panic_on_the_loop_is_one_internal_error_and_every_connection_survives() {
    let _hooks = HOOKS.lock().unwrap_or_else(|e| e.into_inner());
    let (server, _data) = start(ServeConfig::default());
    let addr = server.local_addr();
    let mut first = Client::connect(addr).unwrap();
    let mut second = Client::connect(addr).unwrap();
    second.set_binary(true);
    first.health().unwrap();

    fault::arm_inline_panic();
    let err = first.health().unwrap_err();
    fault::disarm();
    assert!(err.is_kind(ErrorKind::Internal), "{err}");

    first.health().unwrap();
    first.score_group("gplus", 0, None, None).unwrap();
    second.health().unwrap();
    let hit = second.score_group("gplus", 0, None, None).unwrap();
    assert_eq!(wire::get(&hit, "cached"), Some(&Value::Bool(true)));
    assert_eq!(panics(&mut second), 1);
    server.shutdown_handle().trigger();
    server.join();
}

#[test]
fn a_panicking_score_batch_answers_each_job_internal_and_the_worker_survives() {
    const JOBS: usize = 6;
    let _hooks = HOOKS.lock().unwrap_or_else(|e| e.into_inner());
    let config = ServeConfig {
        workers: 1,
        debug_ops: true,
        ..ServeConfig::default()
    };
    let (server, data) = start(config);
    let addr = server.local_addr();

    // Hold the only worker, then queue JOBS score misses behind it: they
    // pop as one batch once the sleep ends.
    let sleeper = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        client.call(
            "debug_sleep",
            vec![("millis".to_string(), Value::UInt(1000))],
        )
    });
    // The loop routes each request it counts before answering the next
    // one, so once `stats` counts the sleep beside its own probes and
    // shows an empty queue, the worker has taken the sleep; arm only
    // then, so the sleep never consumes the hook.
    let mut probe = Client::connect(addr).unwrap();
    for probes in 1.. {
        let stats = probe.stats().unwrap();
        let counted = wire::get_u64(&stats, "requests").unwrap();
        if counted > probes && wire::get_u64(&stats, "queue_depth").unwrap() == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    fault::arm_job_panic();
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut burst = Vec::new();
    for k in 0..JOBS as u32 {
        let request = Request::ScoreSet {
            snapshot: "gplus".to_string(),
            members: vec![k, k + 1, k + 2],
            functions: ScoringFunction::PAPER.to_vec(),
            deadline_ms: None,
        };
        write_frame(&mut burst, &binary::encode_request_json(&request)).unwrap();
    }
    std::io::Write::write_all(&mut stream, &burst).unwrap();
    for k in 0..JOBS {
        let answer: Value = serde_json::from_str(&read_frame(&mut stream).unwrap()).unwrap();
        let kind = wire::get(&answer, "error").and_then(|e| wire::get(e, "kind"));
        assert_eq!(
            kind,
            Some(&Value::Str("internal".to_string())),
            "job {k}: {answer}"
        );
    }
    fault::disarm();
    sleeper.join().unwrap().unwrap();

    let mut client = Client::connect(addr).unwrap();
    assert_eq!(panics(&mut client), JOBS as u64);
    let set = data.groups[1].clone();
    let served = client
        .score_set("gplus", set.as_slice(), Some("all"), None)
        .unwrap();
    let mut offline = Scorer::new(&data.graph);
    let want: Vec<u64> = ScoringFunction::ALL
        .iter()
        .map(|&f| offline.score(f, &set).to_bits())
        .collect();
    let got: Vec<u64> = Client::scores_of(&served)
        .unwrap()
        .iter()
        .map(|s| s.to_bits())
        .collect();
    assert_eq!(got, want);
    server.shutdown_handle().trigger();
    server.join();
}
