//! `campaignbench` — the layered end-to-end campaign benchmark.
//!
//! ```text
//! bash campaignbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs one workload (see `workload.rs` and `campaignbench/README.md`)
//! for about `S` seconds on inputs generated from seed `N`, checks every
//! result against an interpreter-mode reference of the same campaign,
//! and prints a human-readable report followed by one JSON line:
//! the end-to-end metrics with `--trace 0`, the per-layer split with
//! `--trace 1`.

mod child;
mod proc;
mod round;
mod trace;
mod workload;

use child::Totals;
use proc::{http, json_str, Daemon};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use workload::Workload;

/// Set-ups per run, each followed by one measured campaign (or daemon
/// drive) on its own inputs. `setup_s` is their median: set-ups spread
/// over the run keep a burst of load from other tenants of the host,
/// which slows everything running during it, out of the median. More
/// set-ups would split the run into shorter campaigns, each paying its
/// own cold start, and spread the throughputs wider.
const SETUPS: usize = 3;

/// Layer self times must cover at least this share of traced wall: the
/// rest ran outside every span.
const MIN_COVERED: f64 = 0.95;

/// The leaf layers' self times alone must cover at least this share of
/// traced wall. A parent layer's self time (Algorithm 1's bookkeeping,
/// tier selection and bug evaluation, output comparison) is whatever its
/// children leave uncovered, so it explains less; this caps it.
const MIN_LEAF: f64 = 0.90;

/// Band for `trace_overhead_ratio`, the assembled round's wall over the
/// production round's for the same rounds. Outside it the assembled copy
/// no longer does the work production does (a layer was sped up or
/// removed in the program but not in the copy, or the reverse), and the
/// split would describe a different program. The ratio of two fresh
/// single-threaded children varied from 0.76 to 1.25 across seeds on an
/// unchanged program, so the band only catches coarse divergence; the
/// cache-lookup check catches exact divergence in executions.
const OVERHEAD_BAND: (f64, f64) = (0.67, 1.5);

/// Per-layer metrics, in report order: name and unit. The traced child
/// prints the first block; the parent process adds the rest.
const PER_LAYER: [(&str, &str); 46] = [
    ("mutators.ms", "ms"),
    ("mutators.applied", "count"),
    ("mutators.built_ratio", "ratio"),
    ("jexec.build_ms", "ms"),
    ("jexec.build_calls", "count"),
    ("jexec.tier0_ms", "ms"),
    ("jexec.tier0_steps", "count"),
    ("jexec.tier0_unique_ratio", "ratio"),
    ("jopt.ms", "ms"),
    ("jopt.calls", "count"),
    ("jopt.memo_hit_ratio", "ratio"),
    ("jopt.memo_entries", "count"),
    ("jexec.install_ms", "ms"),
    ("jexec.install_methods", "count"),
    ("jexec.final_ms", "ms"),
    ("jexec.final_steps", "count"),
    ("jexec.final_unique_ratio", "ratio"),
    ("jexec.code_cache_hit_ratio", "ratio"),
    ("jexec.code_cache_entries", "count"),
    ("jprofile.obv_ms", "ms"),
    ("jvmsim.self_ms", "ms"),
    ("fuzzer.self_ms", "ms"),
    ("oracle.ms", "ms"),
    ("oracle.self_ms", "ms"),
    ("oracle.verdicts", "count"),
    ("journal.append_ms", "ms"),
    ("journal.bytes", "bytes"),
    ("jcorpus.save_ms", "ms"),
    ("jcorpus.fingerprint_ms", "ms"),
    ("jcorpus.bytes_written", "bytes"),
    ("jreduce.ms", "ms"),
    ("jreduce.candidates", "count"),
    ("jreduce.accept_ratio", "ratio"),
    ("supervisor.self_ms", "ms"),
    ("mopfuzzerd.request_ms", "ms"),
    ("mopfuzzerd.admission_wait_ms", "ms"),
    ("mopfuzzerd.scrape_ms_p50", "ms"),
    ("mopfuzzerd.scrape_ms_p95", "ms"),
    ("mopfuzzerd.scrape_lateness_ms", "ms"),
    ("mopfuzzerd.serve_cpu_share", "ratio"),
    ("bugs_found", "count"),
    ("peak_rss_mb", "MB"),
    ("traced_wall_s", "s"),
    ("trace_overhead_ratio", "ratio"),
    ("unattributed_share", "ratio"),
    ("parent_self_share", "ratio"),
];

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad {flag} {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(workload::find(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// One run's verdict, counts, metrics and report lines.
#[derive(Default)]
struct Run {
    correct: bool,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
    end_to_end: Vec<(String, &'static str, f64)>,
    per_layer: Vec<(String, f64)>,
}

impl Run {
    fn check(&mut self, ok: bool, what: &str) {
        self.notes.push(format!(
            "check  {}  {what}",
            if ok { "ok  " } else { "FAIL" }
        ));
        self.correct &= ok;
    }

    fn note(&mut self, name: &str, value: f64, unit: &str) {
        self.notes
            .push(format!("metric {name:<32} {value:>16.4} {unit}"));
    }

    fn metric(&mut self, name: &str, unit: &'static str, value: f64) {
        self.note(name, value, unit);
        self.end_to_end.push((name.to_string(), unit, value));
    }

    fn layer(&mut self, name: &str, value: f64) {
        self.per_layer.push((name.to_string(), value));
    }

    fn json(&self, trace: bool) -> String {
        let mut metrics = Vec::new();
        if trace {
            for (name, unit) in PER_LAYER {
                let value = self
                    .per_layer
                    .iter()
                    .find(|(n, _)| n == name)
                    .map_or(0.0, |(_, v)| *v);
                metrics.push((name.to_string(), unit, value));
            }
        } else {
            metrics = self.end_to_end.clone();
        }
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct,
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit, value)) in metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Nearest-rank percentile (`p` in 0..=1); 0 for no samples.
fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn arg(s: impl ToString) -> String {
    s.to_string()
}

/// The per-run scratch directory, removed when the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn build_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    Ok(exe
        .parent()
        .ok_or("executable has no directory")?
        .to_path_buf())
}

fn run(args: &Args) -> Result<Run, String> {
    let name = args.workload.name;
    let work = WorkDir(build_dir()?.join("campaignbench-work").join(format!(
        "{name}-{}-{}",
        args.seed,
        std::process::id()
    )));
    let _ = std::fs::remove_dir_all(&work.0);
    std::fs::create_dir_all(&work.0).map_err(|e| format!("create {}: {e}", work.0.display()))?;
    let mut run = Run {
        correct: true,
        ..Run::default()
    };
    if args.workload.tenants == 0 {
        campaign_workload(args, &work.0, &mut run)?;
    } else {
        daemon_workload(args, &work.0, &mut run)?;
    }
    if !run.correct {
        run.failed = run.attempted;
    }
    Ok(run)
}

/// Throughput of one measured campaign (or daemon drive).
struct Sample {
    wall_s: f64,
    cpu_s: f64,
    rounds: f64,
    executions: f64,
    steps: f64,
    rss_mb: f64,
}

/// Reports the end-to-end metrics: throughputs over all of the run's
/// campaigns together (their total work over their total time; a median
/// of per-campaign rates would be a median of fewer rounds, and round
/// costs are heavy-tailed), set-up and memory as medians. The gated
/// throughputs are per CPU-second of the measured process, and set-up is
/// in CPU-seconds too; the wall-time rates are reported beside them.
fn report_samples(run: &mut Run, setup: &[f64], samples: &[Sample]) {
    let total = |f: &dyn Fn(&Sample) -> f64| -> f64 { samples.iter().map(f).sum() };
    let (wall, cpu) = (total(&|s| s.wall_s), total(&|s| s.cpu_s));
    run.metric("setup_s", "s", median(setup));
    run.metric("rounds_per_cpu_s", "1/s", total(&|s| s.rounds) / cpu);
    run.metric("execs_per_cpu_s", "1/s", total(&|s| s.executions) / cpu);
    run.note("rounds_per_s", total(&|s| s.rounds) / wall, "1/s");
    run.note("execs_per_s", total(&|s| s.executions) / wall, "1/s");
    run.note("msteps_per_s", total(&|s| s.steps) / wall / 1e6, "1/s");
    let rss: Vec<f64> = samples.iter().map(|s| s.rss_mb).collect();
    run.note("peak_rss_mb", median(&rss), "MB");
    run.layer("peak_rss_mb", median(&rss));
}

/// `fuzz_loop` and `oracle_verdicts`: each set-up generates its own seed
/// programs, and `run_campaign` runs over them in a fresh child right
/// after, so the set-ups are spread over the run like the campaigns.
fn campaign_workload(args: &Args, work: &Path, run: &mut Run) -> Result<(), String> {
    let w = args.workload;
    let rounds = w.rounds(args.seconds, SETUPS);
    let campaign = |source: &[String], jobs: usize, interp: bool| {
        let mut child_args = vec![arg("campaign")];
        child_args.extend(source.iter().cloned());
        child_args.extend([
            arg("--jobs"),
            arg(jobs),
            arg("--interp"),
            arg(u8::from(interp)),
        ]);
        proc::run_child(&child_args)
    };
    let mut setup = Vec::new();
    let mut sources = Vec::new();
    let mut samples = Vec::new();
    let mut digests = Vec::new();
    let mut bugs: Vec<String> = Vec::new();
    for k in 0..SETUPS as u64 {
        let dir = work.join(format!("setup{k}"));
        let start = proc::own_cpu_seconds();
        let seeds = workload::generate_seeds(args.seed, k, w.seeds);
        workload::write_seeds(&dir, &seeds)?;
        setup.push(proc::own_cpu_seconds() - start);
        let source = vec![
            arg("--seeds"),
            arg(dir.display()),
            arg("--rounds"),
            arg(rounds),
            arg("--iterations"),
            arg(w.iterations),
            arg("--rng"),
            arg(workload::campaign_rng(args.seed, k)),
            arg("--armed"),
            arg(u8::from(w.armed)),
        ];
        let measured = campaign(&source, w.jobs(), false)?;
        let reference = campaign(&source, workload::nproc(), true)?;
        let digest = measured.get("digest")?.to_string();
        run.notes.push(format!("digest campaign{k} {digest}"));
        run.check(
            digest == reference.get("digest")?,
            &format!("campaign {k} digest equals the interp-mode reference"),
        );
        digests.push(digest);
        run.attempted += rounds as u64;
        run.failed += measured.num("failed")? as u64;
        for bug in measured.get("bugs")?.split(',').filter(|b| !b.is_empty()) {
            if !bugs.iter().any(|b| b == bug) {
                bugs.push(bug.to_string());
            }
        }
        samples.push(Sample {
            wall_s: measured.num("wall_s")?,
            cpu_s: measured.num("cpu_s")?,
            rounds: measured.num("completed")?,
            executions: measured.num("executions")?,
            steps: measured.num("steps")?,
            rss_mb: measured.num("rss_mb")?,
        });
        sources.push(source);
    }
    report_samples(run, &setup, &samples);
    run.note("bugs_found", bugs.len() as f64, "count");
    run.note(
        "failed_frac",
        run.failed as f64 / run.attempted as f64,
        "ratio",
    );
    if args.trace {
        run.layer("bugs_found", bugs.len() as f64);
        let core_s = samples[0].cpu_s;
        let source = sources.swap_remove(0);
        traced_split(args, run, source, |_| Vec::new(), core_s, Some(&digests[0]))?;
    }
    Ok(())
}

/// The daemon's side of one measured `bug_hunt` run.
#[derive(Default)]
struct Drive {
    wall_s: f64,
    request_ms: Vec<f64>,
    admission_ms: Vec<f64>,
    ids: Vec<String>,
    journals: Vec<PathBuf>,
    requests: u64,
    failed_requests: u64,
}

/// Status poll interval while a tenant may still be queued, so its
/// admission wait is timed to within it. Admission takes a few polls.
const ADMISSION_POLL: Duration = Duration::from_millis(25);

/// Status poll interval once every tenant runs: the benchmark only needs
/// to learn that the campaigns are done, and each poll is daemon CPU the
/// gated per-CPU-second rates count.
const DONE_POLL: Duration = Duration::from_millis(250);

/// Submits one corpus campaign per tenant and polls until all are done.
fn drive_tenants(
    addr: &str,
    tenants: &[(PathBuf, u64)],
    rounds: usize,
    iterations: usize,
) -> Result<Drive, String> {
    let mut drive = Drive::default();
    let timed = |drive: &mut Drive, method: &str, path: &str, body: &str| {
        let start = Instant::now();
        let response = http(addr, method, path, body);
        drive.request_ms.push(start.elapsed().as_secs_f64() * 1e3);
        drive.requests += 1;
        if !matches!(response, Ok((200..=299, _))) {
            drive.failed_requests += 1;
        }
        response
    };
    let start = Instant::now();
    // (id, submitted at, admitted, finished)
    let mut live: Vec<(String, Instant, bool, Option<f64>)> = Vec::new();
    for (store, rng) in tenants {
        let body = format!(
            "{{\"rounds\":{rounds},\"seed\":{rng},\"iterations\":{iterations},\"corpus\":\"{}\"}}",
            store.display()
        );
        let submitted = Instant::now();
        let (status, response) = timed(&mut drive, "POST", "/campaigns", &body)?;
        let id = json_str(&response, "id");
        let journal = json_str(&response, "journal");
        let (Some(id), Some(journal), 201) = (id, journal, status) else {
            return Err(format!("submit refused ({status}): {response}"));
        };
        drive.journals.push(PathBuf::from(journal));
        drive.ids.push(id.clone());
        live.push((id, submitted, false, None));
    }
    while live.iter().any(|t| t.3.is_none()) {
        let admitting = live.iter().any(|t| !t.2);
        std::thread::sleep(if admitting { ADMISSION_POLL } else { DONE_POLL });
        if start.elapsed() > Duration::from_secs(170) {
            return Err("tenants did not finish within 170 s".to_string());
        }
        for tenant in live.iter_mut().filter(|t| t.3.is_none()) {
            let (_, body) = timed(&mut drive, "GET", &format!("/campaigns/{}", tenant.0), "")?;
            let state = json_str(&body, "state").unwrap_or_default();
            if !tenant.2 && state != "queued" {
                tenant.2 = true;
                drive
                    .admission_ms
                    .push(tenant.1.elapsed().as_secs_f64() * 1e3);
            }
            match state.as_str() {
                "done" => tenant.3 = Some(start.elapsed().as_secs_f64()),
                "queued" | "running" => {}
                other => return Err(format!("tenant {} ended {other}: {body}", tenant.0)),
            }
        }
    }
    drive.wall_s = live.iter().filter_map(|t| t.3).fold(0.0, f64::max);
    Ok(drive)
}

/// Open-loop `/metrics` scraper: request `k` is due at `k / hz`; latency
/// is measured from the due time, so a stalled daemon delays later
/// requests too. Returns (latency ms, lateness ms, failures).
fn scrape(addr: &str, hz: f64, stop: &AtomicBool) -> (Vec<f64>, Vec<f64>, u64) {
    let interval = Duration::from_secs_f64(1.0 / hz);
    let start = Instant::now();
    let (mut latency, mut lateness, mut failed) = (Vec::new(), Vec::new(), 0);
    for k in 0u32.. {
        let due = start + interval * k;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let sent = Instant::now();
        if !matches!(http(addr, "GET", "/metrics", ""), Ok((200, _))) {
            failed += 1;
        }
        latency.push(due.elapsed().as_secs_f64() * 1e3);
        lateness.push(sent.duration_since(due).as_secs_f64() * 1e3);
    }
    (latency, lateness, failed)
}

/// Share of a drive's daemon CPU spent serving the benchmark's own
/// requests: the drive's status requests and `scrapes` scrapes, each
/// costed at the daemon's CPU per request measured right after the drive
/// on a burst of the same request (the tick-granular CPU counter needs
/// hundreds of requests to resolve one).
fn serve_cpu_share(
    daemon: &Daemon,
    drive: &Drive,
    scrapes: usize,
    drive_cpu_s: f64,
) -> Result<f64, String> {
    const CLIENTS: usize = 6;
    const PER_CLIENT: usize = 50;
    let per_request = |path: &str| -> Result<f64, String> {
        let before = daemon.cpu_seconds().ok_or("daemon CPU time unreadable")?;
        std::thread::scope(|s| {
            let clients: Vec<_> = (0..CLIENTS)
                .map(|_| {
                    s.spawn(|| {
                        (0..PER_CLIENT).try_for_each(|_| {
                            match http(&daemon.addr, "GET", path, "") {
                                Ok((200, _)) => Ok(()),
                                other => Err(format!("GET {path} during calibration: {other:?}")),
                            }
                        })
                    })
                })
                .collect();
            clients
                .into_iter()
                .try_for_each(|c| c.join().expect("calibration client does not panic"))
        })?;
        let after = daemon.cpu_seconds().ok_or("daemon CPU time unreadable")?;
        Ok((after - before) / (CLIENTS * PER_CLIENT) as f64)
    };
    let status = per_request(&format!("/campaigns/{}", drive.ids[0]))?;
    let metrics = per_request("/metrics")?;
    Ok((status * drive.requests as f64 + metrics * scrapes as f64) / drive_cpu_s)
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("create {}: {e}", to.display()))?;
    for entry in std::fs::read_dir(from).map_err(|e| format!("read {}: {e}", from.display()))? {
        let entry = entry.map_err(|e| format!("read {}: {e}", from.display()))?;
        let target = to.join(entry.file_name());
        if entry.path().is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), &target)
                .map_err(|e| format!("copy {}: {e}", entry.path().display()))?;
        }
    }
    Ok(())
}

/// A journal's round records folded like a campaign result, plus the
/// bytes of its record lines (the header names the store path).
fn journal_digest(path: &Path) -> Result<(Totals, String), String> {
    let contents = mopfuzzer::read_journal(path)?;
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let header = text.lines().next().map_or(0, |l| l.len() + 1);
    let totals = Totals::from_outcomes(
        &contents
            .records
            .iter()
            .map(round::RoundOutcome::from_record)
            .collect::<Vec<_>>(),
    );
    let digest = format!("{} record_bytes={}", totals.digest(), text.len() - header);
    Ok((totals, digest))
}

/// One daemon tenant: its freshly built store and campaign RNG seed.
struct Tenant {
    store: PathBuf,
    stream: u64,
    rng: u64,
}

/// The interpreter reference of one tenant: its campaign run in process,
/// single-threaded, over a freshly built copy of its store.
fn tenant_reference(
    args: &Args,
    dir: &Path,
    tenant: &Tenant,
    rounds: usize,
) -> Result<String, String> {
    let w = args.workload;
    let journal = dir.join("journal.jsonl");
    let seeds = workload::generate_seeds(args.seed, tenant.stream, w.seeds);
    workload::build_store(&dir.join("store"), &seeds)?;
    proc::run_child(&[
        arg("corpus"),
        arg("--store"),
        arg(dir.join("store").display()),
        arg("--rounds"),
        arg(rounds),
        arg("--iterations"),
        arg(w.iterations),
        arg("--rng"),
        arg(tenant.rng),
        arg("--jobs"),
        arg(1),
        arg("--journal"),
        arg(journal.display()),
        arg("--interp"),
        arg(1),
    ])?;
    Ok(journal_digest(&journal)?.1)
}

/// `bug_hunt`: each set-up builds one fresh store per tenant and starts a
/// fresh `mopfuzzerd`; the tenants' corpus campaigns are then submitted
/// over HTTP while an open-loop scraper polls `/metrics`.
fn daemon_workload(args: &Args, work: &Path, run: &mut Run) -> Result<(), String> {
    let w = args.workload;
    let rounds = w.rounds(args.seconds, SETUPS);
    let mut setup = Vec::new();
    let mut samples = Vec::new();
    let mut drives = Vec::new();
    let mut digests = Vec::new();
    let mut bugs: Vec<String> = Vec::new();
    let (mut latency, mut lateness) = (Vec::new(), Vec::new());
    let mut serve_share = 0.0;
    for k in 0..SETUPS {
        let dir = std::path::absolute(work.join(format!("setup{k}")))
            .map_err(|e| format!("absolute path: {e}"))?;
        let start = proc::own_cpu_seconds();
        let mut tenants = Vec::new();
        for t in 0..w.tenants {
            let stream = (k * w.tenants + t + 1) as u64;
            let store = dir.join(format!("store{t}"));
            let seeds = workload::generate_seeds(args.seed, stream, w.seeds);
            workload::build_store(&store, &seeds)?;
            tenants.push(Tenant {
                store,
                stream,
                rng: workload::campaign_rng(args.seed, stream),
            });
        }
        let daemon = Daemon::start(&dir.join("daemon"))?;
        let daemon_start_s = daemon.cpu_seconds().unwrap_or(0.0);
        setup.push(proc::own_cpu_seconds() - start + daemon_start_s);
        if args.trace && k == 0 {
            for mode in ["direct", "traced"] {
                for (t, tenant) in tenants.iter().enumerate() {
                    copy_dir(&tenant.store, &work.join(format!("replay-{mode}/store{t}")))?;
                }
            }
        }
        let submissions: Vec<(PathBuf, u64)> =
            tenants.iter().map(|t| (t.store.clone(), t.rng)).collect();
        let stop = AtomicBool::new(false);
        let cpu_start = daemon.cpu_seconds().unwrap_or(0.0);
        let (drive, scraped) = std::thread::scope(|s| {
            let scraper = s.spawn(|| scrape(&daemon.addr, w.scrape_hz, &stop));
            let drive = drive_tenants(&daemon.addr, &submissions, rounds, w.iterations);
            stop.store(true, Ordering::SeqCst);
            (
                drive,
                scraper.join().expect("scraper thread does not panic"),
            )
        });
        let rss = daemon.peak_rss_mb().unwrap_or(0.0);
        let cpu_s = daemon.cpu_seconds().unwrap_or(0.0) - cpu_start;
        let drive = drive?;
        if args.trace && k == 0 {
            serve_share = serve_cpu_share(&daemon, &drive, scraped.0.len(), cpu_s)?;
        }
        daemon.stop()?;
        latency.extend(scraped.0);
        lateness.extend(scraped.1);
        run.failed += scraped.2 + drive.failed_requests;
        run.attempted += (rounds * w.tenants) as u64 + drive.requests;
        let mut sample = Sample {
            wall_s: drive.wall_s,
            cpu_s,
            rounds: 0.0,
            executions: 0.0,
            steps: 0.0,
            rss_mb: rss,
        };
        for (t, journal) in drive.journals.iter().enumerate() {
            let (totals, digest) = journal_digest(journal)?;
            sample.rounds += totals.completed as f64;
            sample.executions += totals.executions as f64;
            sample.steps += totals.steps as f64;
            // Errored, skipped and missing rounds alike.
            run.failed += (rounds as u64).saturating_sub(totals.completed);
            for bug in totals.bugs {
                if !bugs.contains(&bug) {
                    bugs.push(bug);
                }
            }
            run.notes
                .push(format!("digest drive{k} tenant{t} {digest}"));
            digests.push(digest);
        }
        samples.push(sample);
        drives.push((drive, tenants));
    }
    run.attempted += latency.len() as u64;

    // References run side by side, one single-threaded child per core.
    let all: Vec<(usize, &Tenant)> = drives
        .iter()
        .flat_map(|(_, tenants)| tenants.iter())
        .enumerate()
        .collect();
    let mut references = Vec::new();
    for chunk in all.chunks(workload::nproc()) {
        references.extend(std::thread::scope(|s| {
            let children: Vec<_> = chunk
                .iter()
                .map(|&(i, tenant)| {
                    let dir = work.join(format!("reference{i}"));
                    s.spawn(move || tenant_reference(args, &dir, tenant, rounds))
                })
                .collect();
            children
                .into_iter()
                .map(|c| c.join().expect("reference thread does not panic"))
                .collect::<Vec<_>>()
        }));
    }
    for (i, (digest, reference)) in digests.iter().zip(references).enumerate() {
        run.check(
            *digest == reference?,
            &format!("tenant campaign {i} journal digest equals the interp-mode reference"),
        );
    }

    report_samples(run, &setup, &samples);
    run.note("bugs_found", bugs.len() as f64, "count");
    run.note(
        "failed_frac",
        run.failed as f64 / run.attempted as f64,
        "ratio",
    );
    run.note("scrape_ms_p50", percentile(&latency, 0.50), "ms");
    run.note("scrape_ms_p95", percentile(&latency, 0.95), "ms");
    run.note("scrape_lateness_ms_p95", percentile(&lateness, 0.95), "ms");
    run.note("scrape_samples", latency.len() as f64, "count");
    run.notes.push(format!("bugs {}", bugs.join(",")));
    if args.trace {
        let (drive, tenants) = &drives[0];
        run.layer("bugs_found", bugs.len() as f64);
        run.layer("mopfuzzerd.request_ms", median(&drive.request_ms));
        run.layer(
            "mopfuzzerd.admission_wait_ms",
            drive.admission_ms.iter().copied().fold(0.0, f64::max),
        );
        run.layer("mopfuzzerd.scrape_ms_p50", percentile(&latency, 0.50));
        run.layer("mopfuzzerd.scrape_ms_p95", percentile(&latency, 0.95));
        run.layer("mopfuzzerd.scrape_lateness_ms", percentile(&lateness, 0.95));
        run.layer("mopfuzzerd.serve_cpu_share", serve_share);
        run.note("serve_cpu_share", serve_share, "ratio");
        let source: Vec<String> = drive
            .journals
            .iter()
            .flat_map(|journal| [arg("--journal"), arg(journal.display())])
            .collect();
        let per_mode = |mode: &str| {
            let dir = work.join(format!("replay-{mode}"));
            let mut extra = vec![arg("--journal-out"), arg(dir.display())];
            for t in 0..tenants.len() {
                extra.extend([
                    arg("--store-copy"),
                    arg(dir.join(format!("store{t}")).display()),
                ]);
            }
            extra
        };
        let core_s = samples[0].cpu_s;
        traced_split(args, run, source, per_mode, core_s, None)?;
        let mut same = true;
        for (i, journal) in drive.journals.iter().enumerate() {
            let a = std::fs::read(journal).map_err(|e| format!("read journal: {e}"))?;
            let b = std::fs::read(work.join(format!("replay-traced/tenant{i}.jsonl")))
                .map_err(|e| format!("read replayed journal: {e}"))?;
            same &= a == b;
        }
        run.check(same, "replayed journals are byte-identical to the daemon's");
    }
    Ok(())
}

/// The traced run: the workload's rounds driven directly, once through
/// production `fuzz`/`differential_jobs` and once assembled from the
/// layers' public functions with spans, each in a fresh child.
/// `core_s` is the CPU time the untraced campaign took for these rounds.
/// `source` names the rounds; `per_mode` adds each child's own output
/// locations (the two children must not share a store copy).
fn traced_split(
    args: &Args,
    run: &mut Run,
    source: Vec<String>,
    per_mode: impl Fn(&str) -> Vec<String>,
    core_s: f64,
    campaign_digest: Option<&str>,
) -> Result<(), String> {
    let spans = build_dir()?.join("campaignbench-spans");
    std::fs::create_dir_all(&spans).map_err(|e| format!("create {}: {e}", spans.display()))?;
    let spans = spans.join(format!("{}-{}.tsv", args.workload.name, args.seed));
    let rounds = |mode: &str, extra: &[String]| {
        let mut child_args = vec![arg("rounds"), arg("--mode"), arg(mode)];
        child_args.extend(source.iter().cloned());
        child_args.extend(per_mode(mode));
        child_args.extend(extra.iter().cloned());
        proc::run_child(&child_args)
    };
    let direct = rounds("direct", &[])?;
    let traced = rounds("traced", &[arg("--spans"), arg(spans.display())])?;
    run.check(
        !traced.all("round").is_empty() && direct.all("round") == traced.all("round"),
        "assembled rounds equal production fuzz + differential_jobs, round for round",
    );
    run.notes.push(format!(
        "lookups production {} assembled {}",
        direct.get("lookups")?,
        traced.get("lookups")?
    ));
    run.check(
        direct.get("lookups")? == traced.get("lookups")?,
        "assembled rounds make the production rounds' code-cache and pipeline-memo lookups",
    );
    if let Some(digest) = campaign_digest {
        run.check(
            traced.get("digest")? == digest,
            "traced digest equals the untraced campaign digest",
        );
    } else {
        run.check(
            traced.all("round") == traced.all("expected"),
            "assembled rounds equal the daemon's journal records",
        );
    }
    let wall = traced.num("wall_s")?;
    let child_metric = |name: &str| -> Result<f64, String> {
        traced
            .all("metric")
            .iter()
            .find_map(|line| {
                let (n, v) = line.split_once(' ')?;
                (n == name).then(|| v.parse().ok()).flatten()
            })
            .ok_or_else(|| format!("traced child printed no metric {name}"))
    };
    let attributed_s = child_metric("attributed_ms")? / 1e3;
    let parent_self_s = child_metric("parent_self_ms")? / 1e3;
    for (name, _) in &PER_LAYER[..33] {
        let value = child_metric(name)?;
        run.layer(name, value);
    }
    let direct_wall = direct.num("wall_s")?;
    let leaf_share = attributed_s / wall;
    let parent_share = parent_self_s / wall;
    let overhead = wall / direct_wall;
    run.layer("supervisor.self_ms", (core_s - direct_wall) * 1e3);
    run.layer("traced_wall_s", wall);
    run.layer("trace_overhead_ratio", overhead);
    run.layer("unattributed_share", 1.0 - leaf_share);
    run.layer("parent_self_share", parent_share);
    run.note("traced_wall_s", wall, "s");
    run.note("leaf_share", leaf_share, "ratio");
    run.note("parent_self_share", parent_share, "ratio");
    run.note("trace_overhead_ratio", overhead, "ratio");
    run.check(
        leaf_share + parent_share >= MIN_COVERED,
        &format!(
            "layer self times cover {:.1}% of traced wall (>= {:.0}%)",
            (leaf_share + parent_share) * 100.0,
            MIN_COVERED * 100.0
        ),
    );
    run.check(
        leaf_share >= MIN_LEAF,
        &format!(
            "leaf layer self times cover {:.1}% of traced wall (>= {:.0}%)",
            leaf_share * 100.0,
            MIN_LEAF * 100.0
        ),
    );
    run.check(
        (OVERHEAD_BAND.0..=OVERHEAD_BAND.1).contains(&overhead),
        &format!(
            "assembled rounds take {overhead:.3}x the production rounds' wall \
             (within {}..{})",
            OVERHEAD_BAND.0, OVERHEAD_BAND.1
        ),
    );
    let oracle_share = child_metric("oracle.ms")? / 1e3 / wall;
    let persist_share =
        (child_metric("jreduce.ms")? + child_metric("jcorpus.save_ms")?) / 1e3 / wall;
    run.notes.push(format!(
        "split  oracle {:.1}% of traced wall; jreduce + store save {:.1}%",
        oracle_share * 100.0,
        persist_share * 100.0
    ));
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("child") {
        return match child::main(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("campaignbench child: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "campaignbench: {e}\nusage: campaignbench --workload NAME --seed N --seconds S --trace 0|1"
            );
            return ExitCode::FAILURE;
        }
    };
    match run(&args) {
        Ok(run) => {
            println!(
                "campaignbench {} seed {} seconds {} trace {} (nproc {})",
                args.workload.name,
                args.seed,
                args.seconds,
                u8::from(args.trace),
                workload::nproc()
            );
            for note in &run.notes {
                println!("{note}");
            }
            println!("{}", run.json(args.trace));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("campaignbench: {e}");
            ExitCode::FAILURE
        }
    }
}
