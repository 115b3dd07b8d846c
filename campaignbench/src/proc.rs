//! Processes the benchmark starts: its own child runs, the `mopfuzzerd`
//! daemon, and a minimal HTTP/1.1 client for the daemon's API.

use std::collections::HashMap;
use std::io::{BufRead as _, BufReader, Read as _, Write as _};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Peak resident set of process `pid` (`self` for this one), in MiB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// CPU time (user + system, all threads) process `pid` has used, in
/// seconds. Throughput per CPU-second is what the benchmark gates on: on
/// a shared host, wall time also measures whoever else holds the cores.
pub fn cpu_seconds(pid: &str) -> Option<f64> {
    const TICKS_PER_SECOND: f64 = 100.0; // USER_HZ on Linux
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name start at field 3.
    let fields: Vec<&str> = stat.rsplit_once(')')?.1.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_SECOND)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time this process has used, in seconds, at nanosecond resolution
/// (`cpu_seconds` counts 10 ms ticks, too coarse for a sub-second set-up).
pub fn own_cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// The key/value lines a child printed: `key value...`, one per line.
/// Repeated keys keep every value in order.
pub struct ChildOutput(HashMap<String, Vec<String>>);

impl ChildOutput {
    pub fn all(&self, key: &str) -> &[String] {
        self.0.get(key).map_or(&[], Vec::as_slice)
    }

    pub fn get(&self, key: &str) -> Result<&str, String> {
        self.all(key)
            .first()
            .map(String::as_str)
            .ok_or_else(|| format!("child printed no {key:?}"))
    }

    pub fn num(&self, key: &str) -> Result<f64, String> {
        let text = self.get(key)?;
        text.parse()
            .map_err(|_| format!("child printed a bad {key:?}: {text:?}"))
    }
}

/// Runs this executable as `campaignbench child ARGS...` and waits for it.
pub fn run_child(args: &[String]) -> Result<ChildOutput, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let out = Command::new(exe)
        .arg("child")
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn child: {e}"))?;
    if !out.status.success() {
        return Err(format!("child {args:?} failed: {}", out.status));
    }
    let mut map: HashMap<String, Vec<String>> = HashMap::new();
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        let (key, value) = line.split_once(' ').unwrap_or((line, ""));
        map.entry(key.to_string())
            .or_default()
            .push(value.to_string());
    }
    Ok(ChildOutput(map))
}

/// One HTTP exchange; returns the status code and body.
pub fn http(addr: &str, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let timeout = Some(Duration::from_secs(30));
    stream
        .set_read_timeout(timeout)
        .and_then(|()| stream.set_write_timeout(timeout))
        .map_err(|e| format!("socket timeouts: {e}"))?;
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: campaignbench\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("send {path}: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("read {path}: {e}"))?;
    let status = response
        .split(' ')
        .nth(1)
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| format!("bad response to {path}: {response:?}"))?;
    let body = response.split_once("\r\n\r\n").map_or("", |(_, body)| body);
    Ok((status, body.to_string()))
}

/// The value of string field `key` in a flat JSON object.
pub fn json_str(body: &str, key: &str) -> Option<String> {
    let start = body.find(&format!("\"{key}\":\""))? + key.len() + 4;
    let end = body[start..].find('"')? + start;
    Some(body[start..end].to_string())
}

extern "C" {
    fn kill(pid: i32, signal: i32) -> i32;
}

const SIGTERM: i32 = 15;

/// A running `mopfuzzerd`, stopped (SIGTERM, then SIGKILL) on drop.
pub struct Daemon {
    child: Child,
    /// Held so the daemon's stdout never sees a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl Daemon {
    /// Starts the daemon next to this executable on a free loopback port
    /// and waits until `/healthz` answers.
    pub fn start(data_dir: &Path) -> Result<Daemon, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
        let bin = exe.with_file_name("mopfuzzerd");
        let mut child = Command::new(&bin)
            .arg("--data-dir")
            .arg(data_dir)
            .args(["--listen", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let mut daemon = Daemon {
            child,
            _stdout: stdout,
            addr: String::new(),
        };
        read.map_err(|e| format!("read daemon banner: {e}"))?;
        daemon.addr = line
            .strip_prefix("mopfuzzerd listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .ok_or_else(|| format!("unexpected daemon banner {line:?}"))?
            .to_string();
        let deadline = Instant::now() + Duration::from_secs(20);
        while !matches!(http(&daemon.addr, "GET", "/healthz", ""), Ok((200, _))) {
            if Instant::now() > deadline {
                return Err("daemon never became healthy".to_string());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Ok(daemon)
    }

    pub fn peak_rss_mb(&self) -> Option<f64> {
        peak_rss_mb(&self.child.id().to_string())
    }

    pub fn cpu_seconds(&self) -> Option<f64> {
        cpu_seconds(&self.child.id().to_string())
    }

    /// Drains the daemon with SIGTERM and waits for it to exit.
    pub fn stop(mut self) -> Result<(), String> {
        self.terminate()
    }

    fn terminate(&mut self) -> Result<(), String> {
        if self.child.try_wait().ok().flatten().is_some() {
            return Ok(());
        }
        // SAFETY: `kill` only sends a signal to a child this struct owns
        // and has not yet reaped, so the pid names that child.
        unsafe {
            kill(self.child.id() as i32, SIGTERM);
        }
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("daemon did not drain; killed".to_string());
                }
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if self.child.try_wait().ok().flatten().is_none() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
