//! A hermetic `payless-server` child process.
//!
//! The child inherits no `PAYLESS_*` variable from the caller's shell: a
//! stray `PAYLESS_FAULT_SEED` or `PAYLESS_BATCH` would silently change the
//! program being measured. It binds port 0 and reports its address through
//! `PAYLESS_ADDR_FILE`; its data directory, if any, is fresh and is removed
//! once it has exited. Dropping a [`Child`] that was not shut down kills it.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

use crate::client;
use crate::load::Workload;

/// How long a child may take from spawn to its first healthy answer.
const BOOT_DEADLINE: Duration = Duration::from_secs(120);
/// How long a graceful shutdown (drain plus final snapshot) may take.
const SHUTDOWN_DEADLINE: Duration = Duration::from_secs(60);
/// How often to poll while waiting on the child: well under the ~15 ms a
/// small server takes to boot, so `setup_s` is not rounded up to a tick.
const POLL: Duration = Duration::from_micros(250);

/// A running server child.
pub struct Child {
    proc: Option<std::process::Child>,
    addr: String,
    /// Removed (with everything in it) once the child has exited.
    dir: PathBuf,
}

impl Child {
    /// Spawn `bin` with only `workload`'s knobs among `PAYLESS_*`
    /// variables, inside the fresh directory `dir` (address file, and the
    /// data directory of a durable workload). Returns once `/v1/health`
    /// answers 200.
    pub fn spawn(bin: &Path, dir: &Path, workload: Workload) -> Result<Child, String> {
        if dir.exists() {
            return Err(format!("{} already exists", dir.display()));
        }
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let addr_file = dir.join("addr");
        let data_dir = dir.join("data");
        let mut cmd = Command::new(bin);
        for (key, _) in std::env::vars_os() {
            if key.to_string_lossy().starts_with("PAYLESS_") {
                cmd.env_remove(&key);
            }
        }
        cmd.envs(workload.knobs(&data_dir.to_string_lossy()))
            .env("PAYLESS_LISTEN", "127.0.0.1:0")
            .env("PAYLESS_ADDR_FILE", &addr_file)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit());
        let t0 = Instant::now();
        let proc = cmd
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut child = Child {
            proc: Some(proc),
            addr: String::new(),
            dir: dir.to_path_buf(),
        };
        loop {
            child.check_alive()?;
            if t0.elapsed() > BOOT_DEADLINE {
                return Err(format!("server not healthy after {BOOT_DEADLINE:?}"));
            }
            if child.addr.is_empty() {
                // Written in one call after bind; a half-written file does
                // not parse and is read again.
                if let Ok(text) = std::fs::read_to_string(&addr_file) {
                    if text.parse::<std::net::SocketAddr>().is_ok() {
                        child.addr = text;
                    }
                }
            } else if let Ok(reply) = client::request(&child.addr, "GET", "/v1/health", &[]) {
                if reply.status == 200 {
                    return Ok(child);
                }
            }
            std::thread::sleep(POLL);
        }
    }

    /// `host:port` the child listens on.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    fn pid(&self) -> u32 {
        self.proc.as_ref().map(|p| p.id()).unwrap_or(0)
    }

    fn check_alive(&mut self) -> Result<(), String> {
        let proc = self.proc.as_mut().expect("child not yet reaped");
        match proc.try_wait() {
            Ok(None) => Ok(()),
            Ok(Some(status)) => Err(format!("server exited early: {status}")),
            Err(e) => Err(format!("wait on server: {e}")),
        }
    }

    /// A `key:  N kB` line of `/proc/<pid>/status`, in KiB.
    pub fn status_kib(&self, key: &str) -> Result<u64, String> {
        let path = format!("/proc/{}/status", self.pid());
        let text = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
        proc_field(&text, key).ok_or_else(|| format!("{path}: no {key} line"))
    }

    /// A `key: N` line of `/proc/<pid>/io` (bytes).
    pub fn io_bytes(&self, key: &str) -> Result<u64, String> {
        let path = format!("/proc/{}/io", self.pid());
        let text = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
        proc_field(&text, key).ok_or_else(|| format!("{path}: no {key} line"))
    }

    /// Ask the child to drain and exit, and wait for a clean exit within
    /// the deadline. Its directory is removed either way.
    pub fn shutdown(mut self) -> Result<(), String> {
        let reply = client::request(&self.addr, "POST", "/v1/shutdown", &[])?;
        if reply.status != 200 {
            return Err(format!("shutdown: status {}", reply.status));
        }
        let status = self.wait(SHUTDOWN_DEADLINE)?;
        if !status.success() {
            return Err(format!("server exited with {status} after shutdown"));
        }
        Ok(())
    }

    fn wait(&mut self, deadline: Duration) -> Result<ExitStatus, String> {
        let t0 = Instant::now();
        let proc = self.proc.as_mut().expect("child not yet reaped");
        loop {
            match proc.try_wait() {
                Ok(Some(status)) => {
                    self.proc = None;
                    return Ok(status);
                }
                Ok(None) if t0.elapsed() > deadline => {
                    return Err(format!("server still running {deadline:?} after shutdown"))
                }
                Ok(None) => std::thread::sleep(POLL),
                Err(e) => return Err(format!("wait on server: {e}")),
            }
        }
    }
}

impl Drop for Child {
    fn drop(&mut self) {
        if let Some(mut proc) = self.proc.take() {
            let _ = proc.kill();
            let _ = proc.wait();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The first number on the `key:` line of a `/proc` file.
fn proc_field(text: &str, key: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
}
