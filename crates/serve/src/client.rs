//! A small blocking client for the wire protocol, used by the `query`
//! CLI subcommand, the `loadgen` harness, and the integration tests.
//!
//! One [`Client`] owns one TCP connection and issues requests strictly
//! in sequence, waiting for each response before the next request. Server
//! errors arrive as typed [`ClientError::Server`] values carrying the
//! [`ErrorKind`] so callers can react to `overloaded` or
//! `deadline-exceeded` distinctly from transport failures.

use crate::binary;
use crate::protocol::{read_frame_patiently, wire, write_frame, ErrorKind, FrameError, Request};
use circlekit_live::Mutation;
use serde_json::Value;
use std::io::Write as _;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// How often a deadline-bound read wakes up to check the clock. The
/// socket timeout is this slice, not the whole deadline, so a response
/// that lands mid-wait is picked up promptly and a dead peer cannot pin
/// the call past the deadline.
const READ_SLICE: Duration = Duration::from_millis(50);

/// Why a call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Connecting, writing, or reading the socket failed.
    Io(std::io::Error),
    /// The response frame was malformed.
    Frame(FrameError),
    /// The configured client-side timeout expired before a response
    /// arrived (see [`Client::set_timeout`]). The connection is left in
    /// an unknown mid-frame state and should be discarded.
    Timeout {
        /// The timeout that expired.
        after: Duration,
    },
    /// No endpoint in a failover set is currently accepting writes (see
    /// [`crate::failover::FailoverClient`]). Writes fail fast rather
    /// than risking split-brain by retrying against a replica.
    NoPrimary {
        /// One line per endpoint explaining why it was rejected.
        detail: String,
    },
    /// The server answered `ok:false` with a typed error.
    Server {
        /// The machine-readable kind (unknown kinds map to `internal`).
        kind: ErrorKind,
        /// The human-readable message.
        message: String,
    },
    /// The server answered something that is not a protocol response.
    Malformed(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Frame(e) => write!(f, "bad frame: {e}"),
            ClientError::Timeout { after } => {
                write!(f, "deadline-exceeded: no response within {after:?}")
            }
            ClientError::NoPrimary { detail } => {
                write!(f, "no-primary: no endpoint accepts writes ({detail})")
            }
            ClientError::Server { kind, message } => {
                write!(f, "server error ({}): {message}", kind.name())
            }
            ClientError::Malformed(why) => write!(f, "malformed response: {why}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

impl ClientError {
    /// Whether this is a typed server refusal of the given kind.
    pub fn is_kind(&self, want: ErrorKind) -> bool {
        matches!(self, ClientError::Server { kind, .. } if *kind == want)
    }
}

/// Connection-time knobs for [`Client::connect_with_options`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ClientOptions {
    /// Abort a connection attempt after this long (`None` uses the OS
    /// default, which can be minutes against a black-holed address).
    pub connect_timeout: Option<Duration>,
    /// Per-call response deadline, as in [`Client::set_timeout`].
    pub read_timeout: Option<Duration>,
    /// Speak CKP1 binary frames ([`crate::binary`]) instead of
    /// length-prefixed JSON. Responses decode to the exact same
    /// [`Value`] tree either way, so everything downstream of a call is
    /// unaffected by the wire mode.
    pub binary: bool,
}

/// A blocking protocol client over one TCP connection.
pub struct Client {
    stream: TcpStream,
    read_timeout: Option<Duration>,
    binary: bool,
}

impl Client {
    /// Connects to a running server.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Client, ClientError> {
        Client::connect_with_options(addr, ClientOptions::default())
    }

    /// Connects with explicit connect/read timeouts.
    ///
    /// # Errors
    ///
    /// Propagates connection failures; a bounded attempt that exhausts
    /// every resolved address yields the last failure.
    pub fn connect_with_options<A: ToSocketAddrs>(
        addr: A,
        options: ClientOptions,
    ) -> Result<Client, ClientError> {
        let stream = match options.connect_timeout {
            None => TcpStream::connect(addr)?,
            Some(timeout) => {
                let mut last = None;
                let mut stream = None;
                for resolved in addr.to_socket_addrs()? {
                    match TcpStream::connect_timeout(&resolved, timeout) {
                        Ok(s) => {
                            stream = Some(s);
                            break;
                        }
                        Err(e) => last = Some(e),
                    }
                }
                match stream {
                    Some(s) => s,
                    None => {
                        return Err(ClientError::Io(last.unwrap_or_else(|| {
                            std::io::Error::other("address resolved to nothing")
                        })))
                    }
                }
            }
        };
        stream.set_nodelay(true)?;
        let mut client = Client { stream, read_timeout: None, binary: options.binary };
        client.set_timeout(options.read_timeout)?;
        Ok(client)
    }

    /// Like [`Client::connect`] but retries for up to `patience`, for
    /// scripts racing a server that is still binding its port.
    ///
    /// # Errors
    ///
    /// The last connection failure once patience runs out.
    pub fn connect_with_patience<A: ToSocketAddrs + Clone>(
        addr: A,
        patience: Duration,
    ) -> Result<Client, ClientError> {
        let start = std::time::Instant::now();
        loop {
            match Client::connect(addr.clone()) {
                Ok(client) => return Ok(client),
                Err(e) if start.elapsed() >= patience => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(25)),
            }
        }
    }

    /// Sets the per-call response deadline (`None` blocks forever). When
    /// set, a call whose response does not fully arrive in time fails
    /// with [`ClientError::Timeout`] — even against a peer that accepted
    /// the connection and then went silent.
    ///
    /// # Errors
    ///
    /// Propagates socket-option failures.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ClientError> {
        // The socket timeout is a short slice so the deadline check in
        // `call_raw` actually runs; the full deadline lives here.
        self.stream
            .set_read_timeout(timeout.map(|t| t.min(READ_SLICE)))?;
        self.read_timeout = timeout;
        Ok(())
    }

    /// Switches this connection's wire mode. Only safe between calls —
    /// the server fixes a connection's protocol at its first byte, so
    /// flip this before the first request (connections made by
    /// [`Client::connect_with_patience`] start in JSON mode).
    pub fn set_binary(&mut self, on: bool) {
        self.binary = on;
    }

    /// Whether calls are sent as CKP1 binary frames.
    pub fn is_binary(&self) -> bool {
        self.binary
    }

    /// Sends one already-rendered JSON request and returns the parsed
    /// response object. `ok:false` responses become
    /// [`ClientError::Server`]. In binary mode the request is re-encoded
    /// as a CKP1 frame (the JSON text is the lingua franca of every
    /// caller); the response decodes to the same [`Value`] tree a JSON
    /// response parses to.
    ///
    /// # Errors
    ///
    /// Transport, framing, or typed server errors.
    pub fn call_raw(&mut self, request: &str) -> Result<Value, ClientError> {
        if self.binary {
            return self.call_raw_binary(request);
        }
        write_frame(&mut self.stream, request)?;
        self.stream.flush()?;
        let deadline = self.read_timeout.map(|t| (t, Instant::now() + t));
        let read = read_frame_patiently(&mut self.stream, |_| match deadline {
            Some((_, at)) => Instant::now() < at,
            None => true,
        });
        let payload = match read {
            Ok(Some(payload)) => payload,
            Ok(None) => {
                let (after, _) = deadline.expect("only a deadline abandons the read");
                return Err(ClientError::Timeout { after });
            }
            Err(FrameError::Io(e)) => return Err(ClientError::Io(e)),
            Err(other) => return Err(ClientError::Frame(other)),
        };
        let value: Value = serde_json::from_str(&payload)
            .map_err(|e| ClientError::Malformed(format!("response is not JSON: {e}")))?;
        interpret_envelope(value)
    }

    fn call_raw_binary(&mut self, request: &str) -> Result<Value, ClientError> {
        // Validate through the same parser the server uses, then encode:
        // a request the server would refuse is refused here with the
        // identical typed error, before it touches the wire.
        let parsed = Request::parse(request)
            .map_err(|(kind, message)| ClientError::Server { kind, message })?;
        let (op, payload) = binary::encode_request(&parsed);
        binary::write_frame(&mut self.stream, binary::KIND_REQUEST, op, &payload)?;
        self.stream.flush()?;
        let deadline = self.read_timeout.map(|t| (t, Instant::now() + t));
        let read = binary::read_frame_patiently(&mut self.stream, |_| match deadline {
            Some((_, at)) => Instant::now() < at,
            None => true,
        });
        let frame = match read {
            Ok(Some(frame)) => frame,
            Ok(None) => {
                let (after, _) = deadline.expect("only a deadline abandons the read");
                return Err(ClientError::Timeout { after });
            }
            Err(binary::ReadError::Frame(FrameError::Io(e))) => return Err(ClientError::Io(e)),
            Err(binary::ReadError::Frame(other)) => return Err(ClientError::Frame(other)),
            Err(binary::ReadError::Malformed(defect)) => {
                return Err(ClientError::Malformed(defect.to_string()))
            }
        };
        if frame.kind != binary::KIND_RESPONSE {
            return Err(ClientError::Malformed(format!(
                "expected a response frame, got kind {}",
                frame.kind
            )));
        }
        let value = binary::decode_response_payload(&frame.payload)
            .map_err(ClientError::Malformed)?;
        interpret_envelope(value)
    }

    /// Sends an op with extra fields.
    ///
    /// # Errors
    ///
    /// See [`Client::call_raw`].
    pub fn call(
        &mut self,
        op: &str,
        fields: Vec<(String, Value)>,
    ) -> Result<Value, ClientError> {
        let mut map = vec![("op".to_string(), Value::Str(op.to_string()))];
        map.extend(fields);
        self.call_raw(&Value::Map(map).to_string())
    }

    /// `health` op.
    ///
    /// # Errors
    ///
    /// See [`Client::call_raw`].
    pub fn health(&mut self) -> Result<Value, ClientError> {
        self.call("health", Vec::new())
    }

    /// `stats` op.
    ///
    /// # Errors
    ///
    /// See [`Client::call_raw`].
    pub fn stats(&mut self) -> Result<Value, ClientError> {
        self.call("stats", Vec::new())
    }

    /// `list_snapshots` op.
    ///
    /// # Errors
    ///
    /// See [`Client::call_raw`].
    pub fn list_snapshots(&mut self) -> Result<Value, ClientError> {
        self.call("list_snapshots", Vec::new())
    }

    /// `list_groups` op.
    ///
    /// # Errors
    ///
    /// See [`Client::call_raw`].
    pub fn list_groups(&mut self, snapshot: &str) -> Result<Value, ClientError> {
        self.call(
            "list_groups",
            vec![("snapshot".to_string(), Value::Str(snapshot.to_string()))],
        )
    }

    /// `score_group` op; `functions` of `None` requests the paper's four.
    ///
    /// # Errors
    ///
    /// See [`Client::call_raw`].
    pub fn score_group(
        &mut self,
        snapshot: &str,
        group: usize,
        functions: Option<&str>,
        deadline_ms: Option<u64>,
    ) -> Result<Value, ClientError> {
        let mut fields = vec![
            ("snapshot".to_string(), Value::Str(snapshot.to_string())),
            ("group".to_string(), Value::UInt(group as u64)),
        ];
        if let Some(spec) = functions {
            fields.push(("functions".to_string(), Value::Str(spec.to_string())));
        }
        if let Some(ms) = deadline_ms {
            fields.push(("deadline_ms".to_string(), Value::UInt(ms)));
        }
        self.call("score_group", fields)
    }

    /// `score_set` op over explicit members.
    ///
    /// # Errors
    ///
    /// See [`Client::call_raw`].
    pub fn score_set(
        &mut self,
        snapshot: &str,
        members: &[u32],
        functions: Option<&str>,
        deadline_ms: Option<u64>,
    ) -> Result<Value, ClientError> {
        let mut fields = vec![
            ("snapshot".to_string(), Value::Str(snapshot.to_string())),
            (
                "members".to_string(),
                Value::Seq(members.iter().map(|&m| Value::UInt(m as u64)).collect()),
            ),
        ];
        if let Some(spec) = functions {
            fields.push(("functions".to_string(), Value::Str(spec.to_string())));
        }
        if let Some(ms) = deadline_ms {
            fields.push(("deadline_ms".to_string(), Value::UInt(ms)));
        }
        self.call("score_set", fields)
    }

    /// `baseline` op: the group against seeded size-matched random walks.
    ///
    /// # Errors
    ///
    /// See [`Client::call_raw`].
    pub fn baseline(
        &mut self,
        snapshot: &str,
        group: usize,
        samples: usize,
        seed: u64,
    ) -> Result<Value, ClientError> {
        self.call(
            "baseline",
            vec![
                ("snapshot".to_string(), Value::Str(snapshot.to_string())),
                ("group".to_string(), Value::UInt(group as u64)),
                ("samples".to_string(), Value::UInt(samples as u64)),
                ("seed".to_string(), Value::UInt(seed)),
            ],
        )
    }

    /// `apply_mutations` op: commit a batch of live mutations (sent in
    /// their one-line text form).
    ///
    /// # Errors
    ///
    /// See [`Client::call_raw`].
    pub fn apply_mutations(
        &mut self,
        snapshot: &str,
        mutations: &[Mutation],
    ) -> Result<Value, ClientError> {
        self.call(
            "apply_mutations",
            vec![
                ("snapshot".to_string(), Value::Str(snapshot.to_string())),
                (
                    "mutations".to_string(),
                    Value::Seq(mutations.iter().map(|m| Value::Str(m.to_line())).collect()),
                ),
            ],
        )
    }

    /// `compact` op: fold the snapshot's WAL back into its CKS1 file.
    ///
    /// # Errors
    ///
    /// See [`Client::call_raw`].
    pub fn compact(&mut self, snapshot: &str) -> Result<Value, ClientError> {
        self.call(
            "compact",
            vec![("snapshot".to_string(), Value::Str(snapshot.to_string()))],
        )
    }

    /// `watch_scores` op: one group's paper scores straight from the
    /// incrementally maintained aggregates, with the mutation version.
    ///
    /// # Errors
    ///
    /// See [`Client::call_raw`].
    pub fn watch_scores(
        &mut self,
        snapshot: &str,
        group: usize,
    ) -> Result<Value, ClientError> {
        self.call(
            "watch_scores",
            vec![
                ("snapshot".to_string(), Value::Str(snapshot.to_string())),
                ("group".to_string(), Value::UInt(group as u64)),
            ],
        )
    }

    /// `suggest_circles` op: seeded structural circle discovery for one
    /// ego, served from the live overlay when the snapshot has one.
    ///
    /// # Errors
    ///
    /// See [`Client::call_raw`].
    pub fn suggest_circles(
        &mut self,
        snapshot: &str,
        ego: u32,
        seed: u64,
        min_size: usize,
        top: usize,
    ) -> Result<Value, ClientError> {
        self.call(
            "suggest_circles",
            vec![
                ("snapshot".to_string(), Value::Str(snapshot.to_string())),
                ("ego".to_string(), Value::UInt(ego as u64)),
                ("seed".to_string(), Value::UInt(seed)),
                ("min_size".to_string(), Value::UInt(min_size as u64)),
                ("top".to_string(), Value::UInt(top as u64)),
            ],
        )
    }

    /// `repl_status` op: the server's replication role, per-snapshot
    /// committed offsets, and subscriber/replica progress.
    ///
    /// # Errors
    ///
    /// See [`Client::call_raw`].
    pub fn repl_status(&mut self) -> Result<Value, ClientError> {
        self.call("repl_status", Vec::new())
    }

    /// `shutdown` op: asks the server to drain and exit.
    ///
    /// # Errors
    ///
    /// See [`Client::call_raw`].
    pub fn shutdown(&mut self) -> Result<Value, ClientError> {
        self.call("shutdown", Vec::new())
    }

    /// Extracts the `scores` array of a scoring response.
    ///
    /// # Errors
    ///
    /// [`ClientError::Malformed`] when the field is absent or ill-typed.
    pub fn scores_of(response: &Value) -> Result<Vec<f64>, ClientError> {
        wire::get_scores(response, "scores")
            .map_err(|(_, message)| ClientError::Malformed(message))
    }
}

/// Turns a decoded response envelope into `Ok(tree)` or a typed
/// [`ClientError::Server`] — shared by the JSON and binary read paths so
/// both modes refuse and succeed identically.
fn interpret_envelope(value: Value) -> Result<Value, ClientError> {
    match wire::get(&value, "ok") {
        Some(Value::Bool(true)) => Ok(value),
        Some(Value::Bool(false)) => {
            let error = wire::get(&value, "error");
            let kind = error
                .and_then(|e| match wire::get(e, "kind") {
                    Some(Value::Str(name)) => ErrorKind::from_name(name),
                    _ => None,
                })
                .unwrap_or(ErrorKind::Internal);
            let message = error
                .and_then(|e| match wire::get(e, "message") {
                    Some(Value::Str(m)) => Some(m.clone()),
                    _ => None,
                })
                .unwrap_or_default();
            Err(ClientError::Server { kind, message })
        }
        _ => Err(ClientError::Malformed(
            "response lacks a boolean \"ok\" field".to_string(),
        )),
    }
}
