//! One `circlekit serve` process per measured run: spawned on a fresh
//! copy of the snapshot, on a port the kernel picks, and killed when the
//! handle drops — also when the generator fails.

use circlekit_serve::protocol::{read_frame, write_frame};
use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// A running daemon.
pub struct Daemon {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
    pub pid: String,
    /// Spawn until the first `health` answered.
    pub setup_s: f64,
    /// The connection `health` was asked on; it stays open so the run can
    /// reuse it as its JSON traffic connection.
    pub health_conn: TcpStream,
}

/// The daemon's flags besides snapshot and address: one scoring thread
/// and one worker, so the scorer does not compete with the generator for
/// the host's cores.
pub const SERVE_FLAGS: [&str; 4] = ["--threads", "1", "--workers", "1"];

impl Daemon {
    /// Copies `base` into the fresh directory `dir` (so no write-ahead
    /// log from an earlier daemon sits beside it), spawns the daemon on
    /// the copy and waits for its first `health` answer.
    ///
    /// # Errors
    ///
    /// A message when the copy, the spawn, the address line or the
    /// health probe fails; a spawned child is killed before returning.
    pub fn start(bin: &Path, base: &Path, dir: &Path) -> Result<Daemon, String> {
        if dir.exists() {
            std::fs::remove_dir_all(dir).map_err(|e| format!("clearing {}: {e}", dir.display()))?;
        }
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let snapshot: PathBuf = dir.join(base.file_name().ok_or("snapshot path has no name")?);
        std::fs::copy(base, &snapshot).map_err(|e| format!("copying snapshot: {e}"))?;
        let started = Instant::now();
        let mut child = Command::new(bin)
            .arg("serve")
            .arg("--snapshot")
            .arg(&snapshot)
            .args(["--listen", "127.0.0.1:0"])
            .args(SERVE_FLAGS)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let pid = child.id().to_string();
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut guard = KillOnDrop(Some(child));
        let mut stdout = BufReader::new(stdout);
        let mut line = String::new();
        stdout
            .read_line(&mut line)
            .map_err(|e| format!("reading daemon stdout: {e}"))?;
        let addr: SocketAddr = line
            .trim()
            .rsplit(' ')
            .next()
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("daemon did not announce an address (got {line:?})"))?;
        let mut conn = TcpStream::connect(addr).map_err(|e| format!("connecting {addr}: {e}"))?;
        circlekit_net::tune_stream(&conn).map_err(|e| format!("tuning socket: {e}"))?;
        conn.set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| e.to_string())?;
        let health = json_call(&mut conn, r#"{"op":"health"}"#)?;
        let setup_s = started.elapsed().as_secs_f64();
        if !health.contains("\"ok\":true") {
            return Err(format!("health probe failed: {health}"));
        }
        conn.set_read_timeout(None).map_err(|e| e.to_string())?;
        let child = guard.0.take().expect("guard holds the child");
        Ok(Daemon {
            child,
            _stdout: stdout,
            addr,
            pid,
            setup_s,
            health_conn: conn,
        })
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

struct KillOnDrop(Option<Child>);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        if let Some(child) = self.0.as_mut() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// One synchronous JSON request/response on `conn`.
///
/// # Errors
///
/// I/O failures and oversized or non-UTF-8 responses.
pub fn json_call(conn: &mut TcpStream, request: &str) -> Result<String, String> {
    write_frame(conn, request).map_err(|e| format!("sending: {e}"))?;
    read_frame(conn).map_err(|e| format!("reading response: {e}"))
}
