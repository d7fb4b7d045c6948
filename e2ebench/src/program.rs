//! Driving the release `guardrail` binary: one-shot CLI commands and the
//! `guardrail serve` daemon over a real TCP socket.

use guardrail::server::chaos::Client;
use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What one CLI command did.
#[derive(Debug)]
pub struct CliRun {
    /// Exit code (`-1` when killed by a signal).
    pub code: i32,
    /// Captured standard output.
    pub stdout: String,
    /// Captured standard error.
    pub stderr: String,
    /// Wall time from spawn to exit.
    pub wall: Duration,
}

/// Runs `bin args…` in `cwd` to completion.
pub fn run_cli(bin: &Path, args: &[&str], cwd: &Path) -> Result<CliRun, String> {
    let start = Instant::now();
    let out = Command::new(bin)
        .args(args)
        .current_dir(cwd)
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
    let wall = start.elapsed();
    Ok(CliRun {
        code: out.status.code().unwrap_or(-1),
        stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
        wall,
    })
}

/// A running `guardrail serve` process. Dropping it kills and reaps the
/// process, so no daemon outlives the benchmark.
#[derive(Debug)]
pub struct Daemon {
    child: Option<Child>,
    addr: SocketAddr,
    stderr: Option<JoinHandle<String>>,
}

impl Daemon {
    /// Starts `guardrail serve` on an ephemeral loopback port with its
    /// stores under `store_root`, and waits for its `listening on` line.
    pub fn spawn(bin: &Path, store_root: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(bin)
            .args(["serve", "--listen", "127.0.0.1:0", "--store-root"])
            .arg(store_root)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning daemon: {e}"))?;
        let mut reader = BufReader::new(child.stderr.take().expect("piped stderr"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("daemon exited before listening".into());
                }
                Ok(_) => {
                    if let Some(rest) = line.trim().strip_prefix("listening on ") {
                        break rest.parse::<SocketAddr>().map_err(|e| {
                            let _ = child.kill();
                            let _ = child.wait();
                            format!("bad listen address {rest:?}: {e}")
                        })?;
                    }
                }
            }
        };
        // Keep draining stderr so the daemon can never block on a full pipe.
        let stderr = std::thread::spawn(move || {
            let mut rest = String::new();
            let _ = reader.read_to_string(&mut rest);
            rest
        });
        Ok(Daemon { child: Some(child), addr, stderr: Some(stderr) })
    }

    /// The daemon's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Peak resident set size (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let pid = self.child.as_ref()?.id();
        let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kb / 1024.0)
    }

    /// Waits up to `timeout` for the daemon to exit after a `shutdown`
    /// request; kills it when it does not. Returns its exit status.
    pub fn wait_exit(mut self, timeout: Duration) -> Result<ExitStatus, String> {
        let mut child = self.child.take().expect("daemon not yet reaped");
        let start = Instant::now();
        let status = loop {
            match child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) if start.elapsed() < timeout => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!("daemon did not exit within {timeout:?}"));
                }
            }
        };
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
        Ok(status)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
    }
}

/// Connects one client to the daemon. The read timeout makes a hung
/// request fail the run instead of wedging it.
pub fn connect(addr: SocketAddr) -> Result<Client, String> {
    Client::connect_with_timeout(addr, Duration::from_secs(60))
        .map_err(|e| format!("connect {addr}: {e}"))
}

/// Sends one frame and waits for its response line. Returns the line and
/// the round trip time.
pub fn request(client: &mut Client, frame: &str) -> Result<(String, Duration), String> {
    let start = Instant::now();
    let line = client.call(frame).map_err(|e| format!("request: {e}"))?;
    Ok((line, start.elapsed()))
}

/// Total size in bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(_) => e.metadata().map(|m| m.len()).unwrap_or(0),
            Err(_) => 0,
        })
        .sum()
}

/// Removes the directory at `path` and everything under it, if present.
pub fn clear_dir(path: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(path) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            Err(format!("clearing {}: {e}", path.display()))
        }
        _ => Ok(()),
    }
}

/// A fresh, empty directory at `path`.
pub fn fresh_dir(path: PathBuf) -> Result<PathBuf, String> {
    clear_dir(&path)?;
    std::fs::create_dir_all(&path).map_err(|e| format!("creating {}: {e}", path.display()))?;
    Ok(path)
}
