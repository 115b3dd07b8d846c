//! The fleet daemon binary (normally started as `mopfuzzer serve`).
//!
//! ```text
//! mopfuzzerd --data-dir DIR [--listen ADDR] [--max-active N] [--resume]
//! ```
//!
//! Runs until SIGTERM/SIGINT, then drains: every running campaign stops
//! at its next round boundary with its journal flushed, queued ones stay
//! queued, and a later `--resume` daemon picks all of them back up
//! bit-identically.

use mopfuzzerd::{Config, Server};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

static STOP: AtomicBool = AtomicBool::new(false);

/// The handler only sets a flag (async-signal-safe); the main loop does
/// the actual drain outside signal context.
#[cfg(unix)]
fn install_signal_handlers() {
    extern "C" fn on_signal(_signum: i32) {
        STOP.store(true, Ordering::SeqCst);
    }
    // `signal(2)` declared directly: the build is offline and carries no
    // libc crate.
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal as *const () as usize);
        signal(SIGTERM, on_signal as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

fn print_usage() {
    eprintln!(
        "mopfuzzerd — the MopFuzzer fleet daemon\n\
         \n\
         USAGE:\n\
           mopfuzzerd --data-dir DIR [--listen ADDR] [--max-active N] [--resume]\n\
         \n\
         OPTIONS:\n\
           --data-dir DIR    root for campaign state (specs, statuses, journals)\n\
           --listen ADDR     bind address (default 127.0.0.1:7077; port 0 = any free port)\n\
           --max-active N    campaigns running concurrently; others queue FIFO (default 4)\n\
           --resume          re-adopt incomplete campaigns from a previous daemon:\n\
                             resume their journals bit-identically, start queued ones\n\
         \n\
         API:\n\
           POST /campaigns               submit {{\"rounds\":R[,\"seed\":S,\"iterations\":I,\n\
                                         \"corpus\":DIR,\"jobs\":J,\"round_timeout_ms\":MS]}}\n\
           GET  /campaigns[/{{id}}]        status (state, round progress, bugs, journal)\n\
           POST /campaigns/{{id}}/cancel   stop one campaign at its next round boundary\n\
           GET  /metrics                 Prometheus page: aggregate + per-campaign labels\n\
           GET  /healthz                 liveness probe\n\
         \n\
         SIGNALS:\n\
           SIGINT/SIGTERM    drain — running campaigns stop at their round\n\
                             boundaries, journals flush, then the daemon exits 0"
    );
}

fn parse_config(args: &[String]) -> Result<Config, String> {
    let mut listen = "127.0.0.1:7077".to_string();
    let mut data_dir = None;
    let mut max_active = 4usize;
    let mut resume = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--resume" => resume = true,
            "--listen" => {
                listen = it
                    .next()
                    .ok_or_else(|| "--listen needs a value".to_string())?
                    .clone();
            }
            "--data-dir" => {
                data_dir = Some(
                    it.next()
                        .ok_or_else(|| "--data-dir needs a value".to_string())?
                        .clone(),
                );
            }
            "--max-active" => {
                max_active = it
                    .next()
                    .ok_or_else(|| "--max-active needs a value".to_string())?
                    .parse()
                    .map_err(|_| "bad --max-active".to_string())?;
                if max_active == 0 {
                    return Err("bad --max-active (must be >= 1)".to_string());
                }
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    let data_dir = data_dir.ok_or_else(|| "--data-dir is required".to_string())?;
    Ok(Config {
        listen,
        data_dir: data_dir.into(),
        max_active,
        resume,
    })
}

fn main() -> ExitCode {
    mopfuzzer::interrupt::reset();
    install_signal_handlers();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print_usage();
        return ExitCode::SUCCESS;
    }
    let config = match parse_config(&args) {
        Ok(config) => config,
        Err(e) => {
            eprintln!("error: {e}\n");
            print_usage();
            return ExitCode::FAILURE;
        }
    };
    let data_dir = config.data_dir.clone();
    let server = match Server::start(config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The address line goes to stdout so scripts can scrape the bound
    // port (important with --listen 127.0.0.1:0).
    println!(
        "mopfuzzerd listening on {} (data dir {})",
        server.addr(),
        data_dir.display()
    );
    while !STOP.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(100));
    }
    eprintln!("mopfuzzerd: drain requested; stopping campaigns at round boundaries");
    server.drain();
    eprintln!("mopfuzzerd: drained; resume incomplete campaigns with --resume");
    ExitCode::SUCCESS
}
