//! The daemon under test: a `dualminer serve` child process, its
//! `/proc` accounting, and the staleness guard on its binary.

use std::io::{self, BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant, SystemTime};

use dualminer_obs::Json;
use dualminer_serve::client::Conn;

/// A running `dualminer serve --listen 127.0.0.1:0 --workers 2`.
pub struct Daemon {
    child: Child,
    /// Kept open so the daemon never writes to a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl Daemon {
    /// Spawns the daemon and waits until it prints its bound address.
    pub fn spawn(bin: &Path) -> io::Result<Daemon> {
        let mut child = Command::new(bin)
            .args(["serve", "--listen", "127.0.0.1:0", "--workers", "2"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        stdout.read_line(&mut line)?;
        let Some(addr) = line.trim().strip_prefix("serve: listening on ") else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other(format!(
                "daemon did not report its address (got {line:?})"
            )));
        };
        Ok(Daemon {
            addr: addr.to_string(),
            child,
            _stdout: stdout,
        })
    }

    /// Daemon user+sys CPU seconds so far, from `/proc/<pid>/stat`.
    pub fn cpu_seconds(&self) -> io::Result<f64> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.child.id()))?;
        // Fields after the parenthesized command name start at field 3
        // (state); utime and stime are fields 14 and 15.
        let rest = stat
            .rsplit_once(')')
            .map(|(_, rest)| rest)
            .ok_or_else(|| io::Error::other("malformed /proc stat"))?;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let tick = |i: usize| -> io::Result<u64> {
            fields
                .get(i)
                .and_then(|f| f.parse().ok())
                .ok_or_else(|| io::Error::other("malformed /proc stat"))
        };
        Ok((tick(11)? + tick(12)?) as f64 / clock_ticks_per_second() as f64)
    }

    /// Daemon peak resident set (`VmHWM`) in MB, from `/proc/<pid>/status`.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
    }

    /// The daemon's `server-stats` counters.
    pub fn server_stats(&self) -> io::Result<Json> {
        let mut conn = Conn::connect(&self.addr)?;
        let events = conn.roundtrip(r#"{"op":"server-stats","id":1}"#, 1)?;
        events
            .last()
            .filter(|e| e.kind == "server-stats")
            .map(|e| e.fields.clone())
            .ok_or_else(|| io::Error::other("no server-stats reply"))
    }

    /// Shuts the daemon down over the protocol and waits for it to exit.
    pub fn shutdown(mut self) -> io::Result<()> {
        let mut conn = Conn::connect(&self.addr)?;
        conn.roundtrip(r#"{"op":"shutdown","id":1}"#, 1)?;
        drop(conn);
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Some(status) = self.child.try_wait()? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(io::Error::other(format!("daemon exited with {status}")))
                };
            }
            if Instant::now() > deadline {
                return Err(io::Error::other("daemon did not exit after shutdown"));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// `sysconf(_SC_CLK_TCK)`, read from the auxiliary vector (`AT_CLKTCK`);
/// 100 when it cannot be read.
fn clock_ticks_per_second() -> u64 {
    const AT_CLKTCK: u64 = 17;
    let Ok(auxv) = std::fs::read("/proc/self/auxv") else {
        return 100;
    };
    auxv.chunks_exact(16)
        .map(|pair| {
            let word = |b: &[u8]| u64::from_ne_bytes(b.try_into().expect("8-byte word"));
            (word(&pair[..8]), word(&pair[8..]))
        })
        .find(|&(key, _)| key == AT_CLKTCK)
        .map_or(100, |(_, value)| value.max(1))
}

/// Refuses a daemon binary that is missing or older than any workspace
/// source, so a stale build is never measured.
pub fn check_fresh(bin: &Path, root: &Path) -> Result<(), String> {
    let built = std::fs::metadata(bin)
        .and_then(|m| m.modified())
        .map_err(|e| format!("daemon binary {} is missing: {e}", bin.display()))?;
    let mut newest: Option<(SystemTime, std::path::PathBuf)> = None;
    let mut stack = vec![
        root.join("Cargo.toml"),
        root.join("Cargo.lock"),
        root.join("crates"),
        root.join("vendor"),
    ];
    while let Some(path) = stack.pop() {
        let meta = std::fs::metadata(&path)
            .map_err(|e| format!("cannot read workspace source {}: {e}", path.display()))?;
        if meta.is_dir() {
            let entries = std::fs::read_dir(&path)
                .map_err(|e| format!("cannot list {}: {e}", path.display()))?;
            for entry in entries {
                stack.push(entry.map_err(|e| e.to_string())?.path());
            }
        } else if let Ok(modified) = meta.modified() {
            if newest.as_ref().map_or(true, |(t, _)| modified > *t) {
                newest = Some((modified, path));
            }
        }
    }
    match newest {
        Some((t, path)) if t > built => Err(format!(
            "daemon binary {} is older than {}; rebuild it",
            bin.display(),
            path.display()
        )),
        _ => Ok(()),
    }
}
