//! The system under test as a separate process: `spine serve-child
//! <gbolt args>` runs `graphbolt_cli::run` exactly as `gbolt` would, and
//! the benchmark drives it over loopback only.
//!
//! Reaping is belt and braces. [`Child`] kills and waits in `Drop`, so a
//! failed or panicking workload leaves nothing behind; and the child
//! watches its stdin, which the parent holds open, so even a parent that
//! dies without unwinding takes the child with it.

use std::io::Read;
use std::net::{SocketAddr, TcpListener};
use std::path::Path;
use std::process::{ChildStdin, Command, Stdio};
use std::time::{Duration, Instant};

use crate::http;

/// How long a child may take to load the graph, run the initial
/// computation and bind.
const STARTUP: Duration = Duration::from_secs(60);
/// How long a child may take to drain and exit after `/shutdown`.
const DRAIN: Duration = Duration::from_secs(30);
/// Admission never sheds in a benchmark run; a 429 is a failed op.
const NEVER_SHED: &str = "1000000000";

/// A running child and the address of its front door.
#[derive(Debug)]
pub struct Child {
    proc: std::process::Child,
    addr: SocketAddr,
    /// Held open for the child's lifetime: its EOF is the child's cue
    /// that the parent is gone.
    _stdin: ChildStdin,
}

impl Child {
    /// Starts `exe serve-child <algorithm args> --serve --listen ADDR
    /// --admit-* 1e9` and returns once `/healthz` answers.
    ///
    /// The port is reserved by binding port 0 and releasing it, as
    /// `crates/cli/tests/overload.rs` does: the door's own port-0
    /// resolution only reaches the report after shutdown.
    ///
    /// # Errors
    ///
    /// Spawn failures, an early child exit, or a door that never turns
    /// healthy.
    pub fn spawn(exe: &Path, algorithm_args: &[&str]) -> Result<Self, String> {
        let addr = TcpListener::bind("127.0.0.1:0")
            .and_then(|probe| probe.local_addr())
            .map_err(|e| format!("cannot reserve a port: {e}"))?;
        let mut proc = Command::new(exe)
            .arg("serve-child")
            .args(algorithm_args)
            .args(["--serve", "--listen", &addr.to_string()])
            .args(["--admit-interactive", NEVER_SHED])
            .args(["--admit-bulk", NEVER_SHED])
            .args(["--admit-best-effort", NEVER_SHED])
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
        let stdin = proc.stdin.take().ok_or("child has no stdin pipe")?;
        let mut child = Self {
            proc,
            addr,
            _stdin: stdin,
        };
        let deadline = Instant::now() + STARTUP;
        loop {
            if http::get(addr, "/healthz").is_ok_and(|r| r.ok()) {
                return Ok(child);
            }
            if let Ok(Some(status)) = child.proc.try_wait() {
                return Err(format!("child exited before serving: {status}"));
            }
            if Instant::now() >= deadline {
                return Err("child front door never became healthy".to_string());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// The front door's address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The child's process id.
    pub fn pid(&self) -> u32 {
        self.proc.id()
    }

    /// The child's peak resident set so far (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        peak_rss_mb(&format!("/proc/{}/status", self.pid()))
    }

    /// Asks the child to drain and exit, and waits for it.
    ///
    /// # Errors
    ///
    /// A refused `/shutdown`, a non-zero exit, or a drain that outlasts
    /// its budget (the child is then killed by `Drop`).
    pub fn shutdown(mut self) -> Result<(), String> {
        let reply =
            http::post(self.addr, "/shutdown", "").map_err(|e| format!("/shutdown: {e}"))?;
        if !reply.ok() {
            return Err(format!("/shutdown answered {}", reply.status));
        }
        let deadline = Instant::now() + DRAIN;
        loop {
            match self.proc.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("child exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Ok(None) => return Err("child did not exit after /shutdown".to_string()),
                Err(e) => return Err(format!("waiting for child: {e}")),
            }
        }
    }
}

impl Drop for Child {
    fn drop(&mut self) {
        // Errors mean the child is already gone, which is the goal.
        let _ = self.proc.kill();
        let _ = self.proc.wait();
    }
}

/// `VmHWM` from a `/proc/<pid>/status` file, in MiB.
pub fn peak_rss_mb(status_path: &str) -> Option<f64> {
    let status = std::fs::read_to_string(status_path).ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// Entry point of `spine serve-child`: parse the arguments as `gbolt`
/// would, exit when the parent's end of stdin closes, and run.
///
/// # Errors
///
/// Whatever `gbolt` itself would report for these arguments.
pub fn serve(args: Vec<String>) -> Result<(), String> {
    // Never joined: the watcher lives exactly as long as the process.
    std::thread::spawn(|| {
        let mut sink = [0u8; 64];
        let mut stdin = std::io::stdin();
        while matches!(stdin.read(&mut sink), Ok(n) if n > 0) {}
        // The parent is gone: nobody is left to shut this server down.
        std::process::exit(3);
    });
    let opts = graphbolt_cli::Options::parse(args)?;
    let report = graphbolt_cli::run(&opts)?;
    print!("{report}");
    Ok(())
}
