//! The MopFuzzer command-line tool — the analogue of the artifact's
//! `MopFuzzer.jar` (paper Appendix A.5).
//!
//! ```text
//! mopfuzzer --project_path benchmarks/ --target_case Test0001 \
//!           --jdk HotSpur-17,J9-17 --enable_profile_guide true \
//!           [--iterations 50] [--rng 0] [--out mutants/]
//! ```
//!
//! `--project_path` is a directory of `.java` files in the MiniJava
//! subset (or is omitted to use the built-in corpus); `--target_case`
//! picks one file/seed by name; `--jdk` names the simulated JVMs to
//! test, `family-version` style. Mutants and per-mutant logs are written
//! under `--out` (default `mutants/`), mirroring the artifact's layout.
//!
//! Passing `--rounds N` switches to supervised-campaign mode: rounds run
//! inside a fault boundary with budgets and quarantine, optionally
//! checkpointed to a JSONL journal (`--journal FILE`) that
//! `--resume FILE` continues with bit-identical results.

use jvmsim::{FaultPlan, JvmSpec, RunOptions};
use mopfuzzer::{
    differential, fuzz, resume_campaign_extended, run_campaign_observed,
    run_campaign_with_journal_observed, run_corpus_campaign, CampaignConfig, CampaignObserver,
    CampaignResult, CorpusOptions, FuzzConfig, OracleVerdict, SupervisorConfig, Variant,
};
use std::collections::HashMap;
use std::io::{IsTerminal, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    mopfuzzer::interrupt::reset();
    install_signal_handlers();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print_usage();
        return ExitCode::SUCCESS;
    }
    if args.first().map(String::as_str) == Some("corpus") {
        return match run_corpus_command(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if args.first().map(String::as_str) == Some("serve") {
        return match run_serve(&args[1..]) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let options = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n");
            print_usage();
            return ExitCode::FAILURE;
        }
    };
    // Like --jobs, the substrate choice is an execution detail: it is
    // never journaled, and results are bit-identical either way.
    jexec::set_default_exec_mode(options.exec_mode);
    let outcome = if let Some(journal) = options.resume.clone() {
        run_resume(&journal, &options)
    } else if options.rounds.is_some() {
        run_campaign_mode(&options)
    } else {
        run(&options)
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// SIGINT/SIGTERM request a *graceful* stop: the campaign finishes the
/// round in flight, flushes the store, journal, and telemetry, then exits
/// successfully — a journaled campaign resumes bit-identically with
/// `--resume`. The handler only sets a flag, so it is async-signal-safe.
#[cfg(unix)]
fn install_signal_handlers() {
    extern "C" fn on_signal(_signum: i32) {
        mopfuzzer::interrupt::request();
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

/// `mopfuzzer serve ..` hands the whole process over to the sibling
/// `mopfuzzerd` binary (built by the same workspace next to this one),
/// so the daemon's signal handling, drain loop, and exit codes are its
/// own. On unix this is a true `exec`; elsewhere a child is spawned and
/// its exit status forwarded.
fn run_serve(args: &[String]) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate mopfuzzer: {e}"))?;
    let daemon = exe
        .parent()
        .map(|dir| dir.join("mopfuzzerd"))
        .filter(|p| p.exists())
        .ok_or_else(|| {
            "mopfuzzerd binary not found next to mopfuzzer \
             (build it with `cargo build -p mopfuzzerd`)"
                .to_string()
        })?;
    let mut command = std::process::Command::new(&daemon);
    command.args(args);
    #[cfg(unix)]
    {
        use std::os::unix::process::CommandExt;
        // exec only returns on failure.
        Err(format!("exec {}: {}", daemon.display(), command.exec()))
    }
    #[cfg(not(unix))]
    {
        let status = command
            .status()
            .map_err(|e| format!("run {}: {e}", daemon.display()))?;
        Ok(if status.success() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        })
    }
}

fn print_usage() {
    eprintln!(
        "MopFuzzer (Rust reproduction)\n\
         \n\
         USAGE:\n\
           mopfuzzer [--project_path DIR] [--target_case NAME]\n\
                     [--jdk SPEC[,SPEC..]] [--enable_profile_guide true|false]\n\
                     [--iterations N] [--rng SEED] [--out DIR]\n\
           mopfuzzer --rounds N [--journal FILE] [campaign options..]\n\
           mopfuzzer --rounds N --corpus DIR [campaign options..]\n\
           mopfuzzer --resume FILE\n\
           mopfuzzer corpus init DIR [--extra N] [--rng SEED]\n\
           mopfuzzer corpus import DIR SRCDIR\n\
           mopfuzzer corpus stats DIR [--json]\n\
           mopfuzzer corpus gc DIR [--streak N]\n\
           mopfuzzer corpus fsck DIR [--repair] [--json]\n\
           mopfuzzer serve --data-dir DIR [--listen ADDR] [--max-active N] [--resume]\n\
         \n\
         OPTIONS:\n\
           --project_path DIR      directory of .java seed files (MiniJava subset);\n\
                                   omitted = built-in corpus\n\
           --target_case NAME      fuzz only the named seed/file\n\
           --jdk SPEC,..           simulated JVMs, e.g. HotSpur-17,HotSpur-mainline,J9-11\n\
                                   (default: the full differential pool)\n\
           --enable_profile_guide  true (default) = Eq.1-3 guidance; false = MopFuzzer_g\n\
           --iterations N          mutation iterations per seed (default 50)\n\
           --rng SEED              RNG seed (default 0)\n\
           --out DIR               where mutants and logs are written (default mutants/)\n\
           --exec-mode MODE        execution substrate: 'threaded' (default;\n\
                                   code lowered once per method and run) or\n\
                                   'interp' (the reference interpreter).\n\
                                   Outcomes, journals and traces are\n\
                                   bit-identical in both modes\n\
         \n\
         CAMPAIGN MODE (fault-supervised):\n\
           --rounds N              run a supervised campaign of N rounds\n\
           --journal FILE          checkpoint every round to a JSONL journal\n\
           --resume FILE           resume a journaled campaign (bit-identical);\n\
                                   with --rounds N > the journaled total, the\n\
                                   finished campaign is *extended* to N rounds\n\
           --metrics-out FILE      telemetry: append a JSONL metrics snapshot to\n\
                                   FILE after every round, keep a Prometheus\n\
                                   text export in FILE.prom, and print a\n\
                                   human-readable report at campaign end.\n\
                                   FILE of '-' streams the JSONL snapshots to\n\
                                   stdout (no .prom, no status line; the\n\
                                   report goes to stderr)\n\
           --metrics-every N       write metrics snapshots every N rounds\n\
                                   instead of every round (the final snapshot\n\
                                   is always written; default 1)\n\
           --trace-out FILE        record a causal trace of the campaign\n\
                                   (rounds, attempts, fuzz/oracle phases,\n\
                                   optimizer phases, VM executions) and write\n\
                                   it as Chrome trace-event JSON at campaign\n\
                                   end — loadable in Perfetto / chrome://\n\
                                   tracing. FILE of '-' writes to stdout\n\
           --profile [true|false]  sample the running substrate per opcode and\n\
                                   report the hottest opcodes in metrics\n\
                                   snapshots and the campaign-end report\n\
           --max-steps N           stop after N interpreter steps (simulated time)\n\
           --max-execs N           stop after N JVM executions\n\
           --round-deadline N      fail rounds exceeding N steps\n\
           --round-timeout MS      fail rounds (and retry/quarantine them)\n\
                                   exceeding MS wall-clock milliseconds; a\n\
                                   watchdog cancels the hung round so even\n\
                                   a wedged mutant cannot stall the\n\
                                   campaign. Journals stay bit-identical\n\
                                   at any --jobs\n\
           --jobs N                worker threads executing rounds of a plain\n\
                                   campaign (default: all hardware threads;\n\
                                   at most 256).\n\
                                   Journals and results are bit-identical at\n\
                                   any worker count. Corpus campaigns run\n\
                                   serially: they default to 1 and refuse\n\
                                   more\n\
           --retries N             retries per faulted round (default 2)\n\
           --quarantine-threshold N  failed rounds before a (seed, mutator)\n\
                                   pair is quarantined (default 2)\n\
           --fault-rate F          inject faults at rate F (0.0-1.0; testing)\n\
           --fault-seed SEED       fault-injection seed (default 0)\n\
         \n\
         CORPUS MODE (persistent, feedback-driven store):\n\
           --corpus DIR            run the campaign over the corpus store at\n\
                                   DIR: power-scheduled seed choice, mutant\n\
                                   promotion, persisted quarantine\n\
           --promote-threshold F   final OBV delta at which a round's mutant\n\
                                   is minimized and promoted (default 20)\n\
           --gc-streak N           after the campaign flush, drop entries at\n\
                                   the energy floor for N consecutive campaigns\n\
           corpus init DIR         create a store seeded with the built-in\n\
                                   corpus (--extra N adds generated seeds)\n\
           corpus import DIR SRC   fingerprint + dedup .java files into DIR\n\
           corpus stats DIR        print per-entry stats and scheduler energy\n\
                                   (--json: machine-readable, schema\n\
                                   jcorpus-stats v1)\n\
           corpus gc DIR           tombstone entries whose energy sat at the\n\
                                   floor for --streak N campaigns (default 3)\n\
           corpus fsck DIR         check the store for crash damage (torn\n\
                                   manifest/quarantine tails, orphaned or\n\
                                   missing sources, source-mismatch:\n\
                                   sources that do not hash to their\n\
                                   manifest record, stale .tmp files,\n\
                                   dangling tombstones); --repair fixes\n\
                                   what is repairable, --json emits the\n\
                                   jcorpus-fsck v1 report\n\
         \n\
         FLEET MODE (multi-tenant daemon):\n\
           serve ..                start the mopfuzzerd fleet daemon: POST\n\
                                   campaign specs to /campaigns, scrape\n\
                                   /metrics, cancel per tenant; SIGTERM\n\
                                   drains at round boundaries and\n\
                                   `serve --resume` re-adopts the\n\
                                   interrupted campaigns bit-identically\n\
                                   (see mopfuzzerd --help for the API)\n\
         \n\
         SIGNALS:\n\
           SIGINT/SIGTERM          finish the round in flight, flush the\n\
                                   store/journal/metrics, and exit 0; a\n\
                                   journaled campaign resumes bit-identically\n\
                                   with --resume"
    );
}

struct CliOptions {
    project_path: Option<PathBuf>,
    target_case: Option<String>,
    jdks: Vec<JvmSpec>,
    guided: bool,
    iterations: usize,
    rng: u64,
    out: PathBuf,
    rounds: Option<usize>,
    journal: Option<PathBuf>,
    resume: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
    metrics_every: usize,
    trace_out: Option<PathBuf>,
    profile: bool,
    corpus: Option<PathBuf>,
    promote_threshold: Option<f64>,
    gc_streak: Option<u64>,
    jobs: Option<usize>,
    exec_mode: jexec::ExecMode,
    supervisor: SupervisorConfig,
    fault: Option<FaultPlan>,
}

fn parse_args(args: &[String]) -> Result<CliOptions, String> {
    let mut map: HashMap<&str, &str> = HashMap::new();
    let mut profile = false;
    let mut it = args.iter().peekable();
    while let Some(key) = it.next() {
        let Some(name) = key.strip_prefix("--") else {
            return Err(format!("unexpected argument {key:?}"));
        };
        if name == "oracle-jobs" {
            return Err(mopfuzzer::ORACLE_JOBS_REMOVED.to_string());
        }
        if name == "profile" {
            // A bare flag, but `--profile true|false` is also accepted for
            // symmetry with --enable_profile_guide.
            profile = match it.peek().map(|v| v.as_str()) {
                Some("true") => {
                    it.next();
                    true
                }
                Some("false") => {
                    it.next();
                    false
                }
                _ => true,
            };
            continue;
        }
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        let key: &'static str = match name {
            "project_path" => "project_path",
            "target_case" => "target_case",
            "jdk" => "jdk",
            "enable_profile_guide" => "enable_profile_guide",
            "iterations" => "iterations",
            "rng" => "rng",
            "out" => "out",
            "rounds" => "rounds",
            "journal" => "journal",
            "resume" => "resume",
            "metrics-out" => "metrics-out",
            "metrics-every" => "metrics-every",
            "trace-out" => "trace-out",
            "corpus" => "corpus",
            "promote-threshold" => "promote-threshold",
            "gc-streak" => "gc-streak",
            "jobs" => "jobs",
            "exec-mode" => "exec-mode",
            "max-steps" => "max-steps",
            "max-execs" => "max-execs",
            "round-deadline" => "round-deadline",
            "round-timeout" => "round-timeout",
            "retries" => "retries",
            "quarantine-threshold" => "quarantine-threshold",
            "fault-rate" => "fault-rate",
            "fault-seed" => "fault-seed",
            other => return Err(format!("unknown option --{other}")),
        };
        map.insert(key, value);
    }
    let jdks = match map.get("jdk") {
        None => JvmSpec::differential_pool(),
        Some(spec) => spec
            .split(',')
            .map(JvmSpec::from_name)
            .collect::<Result<Vec<_>, _>>()?,
    };
    fn num<T: std::str::FromStr>(
        map: &HashMap<&str, &str>,
        key: &str,
    ) -> Result<Option<T>, String> {
        map.get(key)
            .map(|v| v.parse().map_err(|_| format!("bad --{key}")))
            .transpose()
    }
    let mut supervisor = SupervisorConfig {
        max_steps: num(&map, "max-steps")?,
        max_executions: num(&map, "max-execs")?,
        round_step_deadline: num(&map, "round-deadline")?,
        round_wall_timeout_ms: num(&map, "round-timeout")?,
        ..SupervisorConfig::default()
    };
    if let Some(retries) = num(&map, "retries")? {
        supervisor.max_retries = retries;
    }
    if let Some(threshold) = num(&map, "quarantine-threshold")? {
        supervisor.quarantine_threshold = threshold;
    }
    let fault = match num::<f64>(&map, "fault-rate")? {
        None => None,
        Some(rate) if (0.0..=1.0).contains(&rate) => {
            Some(FaultPlan::new(num(&map, "fault-seed")?.unwrap_or(0), rate))
        }
        Some(_) => return Err("bad --fault-rate (expected 0.0-1.0)".to_string()),
    };
    if map.contains_key("corpus") && map.contains_key("project_path") {
        return Err("--corpus and --project_path are mutually exclusive".to_string());
    }
    let metrics_every = num(&map, "metrics-every")?.unwrap_or(1usize);
    if metrics_every == 0 {
        return Err("bad --metrics-every (must be >= 1)".to_string());
    }
    Ok(CliOptions {
        project_path: map.get("project_path").map(PathBuf::from),
        target_case: map.get("target_case").map(|s| s.to_string()),
        jdks,
        guided: match map.get("enable_profile_guide").copied() {
            None | Some("true") => true,
            Some("false") => false,
            Some(other) => {
                return Err(format!(
                    "bad --enable_profile_guide {other:?} (expected 'true' or 'false')"
                ))
            }
        },
        iterations: num(&map, "iterations")?.unwrap_or(50),
        rng: num(&map, "rng")?.unwrap_or(0),
        out: map
            .get("out")
            .map_or_else(|| PathBuf::from("mutants"), PathBuf::from),
        rounds: num(&map, "rounds")?,
        journal: map.get("journal").map(PathBuf::from),
        resume: map.get("resume").map(PathBuf::from),
        metrics_out: map.get("metrics-out").map(PathBuf::from),
        metrics_every,
        trace_out: map.get("trace-out").map(PathBuf::from),
        profile,
        corpus: map.get("corpus").map(PathBuf::from),
        promote_threshold: num(&map, "promote-threshold")?,
        gc_streak: num(&map, "gc-streak")?,
        jobs: num(&map, "jobs")?,
        exec_mode: match map.get("exec-mode").copied() {
            None | Some("threaded") => jexec::ExecMode::Threaded,
            Some("interp") => jexec::ExecMode::Interp,
            Some(other) => {
                return Err(format!(
                    "bad --exec-mode {other:?} (expected 'interp' or 'threaded')"
                ))
            }
        },
        supervisor,
        fault,
    })
}

fn load_seeds(options: &CliOptions) -> Result<Vec<mopfuzzer::Seed>, String> {
    let mut seeds = match &options.project_path {
        None => mopfuzzer::corpus::builtin(),
        Some(dir) => load_java_dir(dir)?,
    };
    if let Some(case) = &options.target_case {
        seeds.retain(|s| &s.name == case);
        if seeds.is_empty() {
            return Err(format!("no seed named {case:?}"));
        }
    }
    if seeds.is_empty() {
        return Err("no seeds to fuzz".into());
    }
    Ok(seeds)
}

/// The `--metrics-out` sink: after every round it appends one JSONL
/// telemetry snapshot to the metrics file, rewrites the Prometheus text
/// export next to it (`FILE.prom`), and — when stderr is a TTY — redraws
/// a one-line live status. With `--metrics-out -` the JSONL snapshots
/// stream to stdout instead (no `.prom` page, no status line). Requires
/// True when `--metrics-out -` or `--trace-out -` claims stdout for
/// machine-readable output. Human banner/summary lines then move to
/// stderr so the stream stays parseable line-by-line.
fn stdout_is_claimed(options: &CliOptions) -> bool {
    let dash = |p: &Option<PathBuf>| p.as_deref().is_some_and(|p| p.as_os_str() == "-");
    dash(&options.metrics_out) || dash(&options.trace_out)
}

/// Prints a human-facing line to stdout, or to stderr when stdout is
/// claimed by a `-` stream (see [`stdout_is_claimed`]).
macro_rules! humanln {
    ($to_stderr:expr, $($arg:tt)*) => {
        if $to_stderr {
            eprintln!($($arg)*)
        } else {
            println!($($arg)*)
        }
    };
}

/// a `jtelemetry` session installed on the campaign thread.
struct MetricsSink {
    /// `None` streams snapshots to stdout.
    jsonl: Option<PathBuf>,
    prom: Option<PathBuf>,
    tty_status: bool,
    /// Write files every N rounds (`--metrics-every`; the TTY status line
    /// still refreshes every round, and `finish` always writes).
    every: usize,
    rounds_seen: usize,
}

impl MetricsSink {
    fn create(path: &Path, every: usize) -> Result<MetricsSink, String> {
        if path.as_os_str() == "-" {
            return Ok(MetricsSink {
                jsonl: None,
                prom: None,
                tty_status: false,
                every,
                rounds_seen: 0,
            });
        }
        let mut prom = path.as_os_str().to_owned();
        prom.push(".prom");
        // Truncate up front so a rerun never appends to stale snapshots.
        std::fs::write(path, "").map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        Ok(MetricsSink {
            jsonl: Some(path.to_path_buf()),
            prom: Some(PathBuf::from(prom)),
            tty_status: std::io::stderr().is_terminal(),
            every,
            rounds_seen: 0,
        })
    }

    fn flush(&self) {
        let Some(snap) = jtelemetry::snapshot() else {
            return;
        };
        let line = jtelemetry::export::jsonl_line(&snap);
        match &self.jsonl {
            None => println!("{line}"),
            Some(path) => {
                let append = std::fs::OpenOptions::new()
                    .append(true)
                    .open(path)
                    .and_then(|mut f| writeln!(f, "{line}"));
                if let Err(e) = append {
                    eprintln!("warning: metrics write failed: {e}");
                }
            }
        }
        if let Some(prom) = &self.prom {
            if let Err(e) = std::fs::write(prom, jtelemetry::export::prometheus(&snap)) {
                eprintln!("warning: metrics write failed: {e}");
            }
        }
        self.status(&snap);
    }

    fn status(&self, snap: &jtelemetry::MetricsSnapshot) {
        if self.tty_status {
            eprint!("\r{}", jtelemetry::export::status_line(snap));
            let _ = std::io::stderr().flush();
        }
    }

    /// Final flush (the session itself is consumed by
    /// [`finish_telemetry`], which also writes the trace and report).
    fn finish(&self) {
        self.flush();
        if self.tty_status {
            eprintln!();
        }
    }
}

impl CampaignObserver for MetricsSink {
    fn round_finished(&mut self, _round: usize, _result: &CampaignResult) {
        self.rounds_seen += 1;
        if self.rounds_seen.is_multiple_of(self.every) {
            self.flush();
        } else if let Some(snap) = jtelemetry::snapshot() {
            self.status(&snap);
        }
    }
}

/// Builds the metrics sink and installs the telemetry session when any
/// of `--metrics-out`, `--trace-out`, or `--profile` was given (tracing
/// and profiling are session capabilities, so they work without a
/// metrics file).
fn metrics_sink(options: &CliOptions) -> Result<Option<MetricsSink>, String> {
    let sink = match &options.metrics_out {
        None => None,
        Some(path) => {
            let sink = MetricsSink::create(path, options.metrics_every)?;
            match (&sink.jsonl, &sink.prom) {
                (Some(jsonl), Some(prom)) => humanln!(
                    stdout_is_claimed(options),
                    "metrics: {} (+ {})",
                    jsonl.display(),
                    prom.display()
                ),
                _ => eprintln!("metrics: streaming JSONL snapshots to stdout"),
            }
            Some(sink)
        }
    };
    if options.metrics_out.is_some() || options.trace_out.is_some() || options.profile {
        let mut session = jtelemetry::Session::new();
        if options.trace_out.is_some() {
            session = session.with_trace();
        }
        if options.profile {
            session = session.with_profile();
        }
        jtelemetry::install(session);
    }
    Ok(sink)
}

/// Campaign-end telemetry teardown: consumes the thread's session, writes
/// the `--trace-out` trace (Chrome trace-event JSON, Perfetto-loadable),
/// and prints the human report when `--metrics-out` was given. `meta`
/// lands in the trace's `otherData` for offline analysis
/// (`jtelemetry-trace` reads `jobs` and `campaign_wall_ns` from it).
fn finish_telemetry(options: &CliOptions, meta: &[(&str, String)]) -> Result<(), String> {
    let Some(session) = jtelemetry::take() else {
        return Ok(());
    };
    let streaming = stdout_is_claimed(options);
    if let Some(path) = &options.trace_out {
        let json = jtelemetry::export::trace_json(&session, meta)
            .expect("--trace-out installed a tracing session");
        if path.as_os_str() == "-" {
            println!("{json}");
        } else {
            std::fs::write(path, &json)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            humanln!(streaming, "trace: {}", path.display());
        }
    }
    if options.metrics_out.is_some() {
        let report = jtelemetry::export::human_report(&session.snapshot());
        humanln!(streaming, "{report}");
    }
    Ok(())
}

fn run_campaign_mode(options: &CliOptions) -> Result<(), String> {
    let jobs = mopfuzzer::resolve_jobs(options.jobs, options.corpus.is_some())?;
    let config = CampaignConfig {
        iterations_per_seed: options.iterations,
        variant: if options.guided {
            Variant::Full
        } else {
            Variant::NoGuidance
        },
        rounds: options.rounds.unwrap_or(0),
        pool: options.jdks.clone(),
        rng_seed: options.rng,
        supervisor: options.supervisor.clone(),
        fault: options.fault.clone(),
        jobs,
    };
    if let Some(dir) = &options.corpus {
        return run_corpus_campaign_mode(options, &config, dir);
    }
    let seeds = load_seeds(options)?;
    let streaming = stdout_is_claimed(options);
    humanln!(
        streaming,
        "campaign: {} supervised rounds × {} iterations over {} seed(s), {} JVMs, {} worker(s)",
        config.rounds,
        config.iterations_per_seed,
        seeds.len(),
        config.pool.len(),
        config.jobs
    );
    let mut sink = metrics_sink(options)?;
    let started = std::time::Instant::now();
    let observer = sink.as_mut().map(|s| s as &mut dyn CampaignObserver);
    let result = match &options.journal {
        None => run_campaign_observed_or_not(&seeds, &config, observer),
        Some(path) => {
            humanln!(streaming, "journal: {}", path.display());
            run_campaign_with_journal_observed(&seeds, &config, path, observer)?
        }
    };
    if let Some(sink) = &sink {
        sink.finish();
    }
    finish_telemetry(
        options,
        &trace_meta(config.jobs, config.rounds, config.rng_seed, started),
    )?;
    print_campaign_summary(&result, streaming);
    maybe_print_interrupted(&result, options.journal.as_deref(), streaming);
    Ok(())
}

fn run_corpus_campaign_mode(
    options: &CliOptions,
    config: &CampaignConfig,
    dir: &Path,
) -> Result<(), String> {
    let mut store = jcorpus::Store::open(dir)?;
    let opts = CorpusOptions {
        promote_threshold: options
            .promote_threshold
            .unwrap_or(CorpusOptions::default().promote_threshold),
        gc_streak: options.gc_streak,
    };
    let streaming = stdout_is_claimed(options);
    humanln!(
        streaming,
        "campaign: {} power-scheduled rounds × {} iterations over corpus {} ({} entries), \
         {} JVMs, {} worker(s)",
        config.rounds,
        config.iterations_per_seed,
        dir.display(),
        store.len(),
        config.pool.len(),
        config.jobs
    );
    if let Some(path) = &options.journal {
        humanln!(streaming, "journal: {}", path.display());
    }
    let mut sink = metrics_sink(options)?;
    let started = std::time::Instant::now();
    let observer = sink.as_mut().map(|s| s as &mut dyn CampaignObserver);
    let result = run_corpus_campaign(
        &mut store,
        config,
        &opts,
        options.journal.as_deref(),
        observer,
    )?;
    if let Some(sink) = &sink {
        sink.finish();
    }
    finish_telemetry(
        options,
        &trace_meta(config.jobs, config.rounds, config.rng_seed, started),
    )?;
    print_campaign_summary(&result, streaming);
    maybe_print_interrupted(&result, options.journal.as_deref(), streaming);
    Ok(())
}

/// Dispatch for `mopfuzzer corpus <init|import|stats|gc|fsck> ...`.
fn run_corpus_command(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("init") => {
            let dir = args
                .get(1)
                .filter(|a| !a.starts_with("--"))
                .ok_or_else(|| {
                    "usage: mopfuzzer corpus init DIR [--extra N] [--rng SEED]".to_string()
                })?;
            let mut extra = 0usize;
            let mut rng = 0u64;
            let mut it = args[2..].iter();
            while let Some(flag) = it.next() {
                let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
                match flag.as_str() {
                    "--extra" => extra = value.parse().map_err(|_| "bad --extra".to_string())?,
                    "--rng" => rng = value.parse().map_err(|_| "bad --rng".to_string())?,
                    other => return Err(format!("unknown option {other}")),
                }
            }
            let mut store = jcorpus::Store::init(Path::new(dir))?;
            let seeds = mopfuzzer::corpus::corpus(extra, rng);
            // The built-in seeds and the generated tail carry different
            // provenance; import in two batches.
            let builtin_count = mopfuzzer::corpus::builtin().len();
            let a = mopfuzzer::import_seeds(
                &mut store,
                &seeds[..builtin_count],
                jcorpus::Provenance::Builtin,
            )?;
            let b = mopfuzzer::import_seeds(
                &mut store,
                &seeds[builtin_count..],
                jcorpus::Provenance::Generated,
            )?;
            store.save()?;
            println!(
                "initialized {} with {} entries ({} behavioural duplicate(s) skipped)",
                dir,
                store.len(),
                a.deduped.len() + b.deduped.len()
            );
            Ok(())
        }
        Some("import") => {
            let (Some(dir), Some(src)) = (args.get(1), args.get(2)) else {
                return Err("usage: mopfuzzer corpus import DIR SRCDIR".to_string());
            };
            let mut store = jcorpus::Store::open(Path::new(dir))?;
            let seeds = load_java_dir(Path::new(src))?;
            if seeds.is_empty() {
                return Err(format!("no .java files in {src}"));
            }
            let outcome =
                mopfuzzer::import_seeds(&mut store, &seeds, jcorpus::Provenance::Imported)?;
            store.save()?;
            for name in &outcome.admitted {
                println!("admitted {name}");
            }
            for (candidate, existing) in &outcome.deduped {
                println!("skipped {candidate} (same behaviour as {existing})");
            }
            println!(
                "imported {} of {} seed(s) into {}",
                outcome.admitted.len(),
                seeds.len(),
                dir
            );
            Ok(())
        }
        Some("gc") => {
            let dir = args
                .get(1)
                .filter(|a| !a.starts_with("--"))
                .ok_or_else(|| "usage: mopfuzzer corpus gc DIR [--streak N]".to_string())?;
            let mut streak = 3u64;
            let mut it = args[2..].iter();
            while let Some(flag) = it.next() {
                let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
                match flag.as_str() {
                    "--streak" => streak = value.parse().map_err(|_| "bad --streak".to_string())?,
                    other => return Err(format!("unknown option {other}")),
                }
            }
            let mut store = jcorpus::Store::open(Path::new(dir))?;
            let dropped = store.gc(streak);
            store.save()?;
            for name in &dropped {
                println!("dropped {name}");
            }
            println!(
                "gc: dropped {} entr(ies) at the energy floor for >= {} campaign(s); \
                 {} remain in {}",
                dropped.len(),
                streak,
                store.len(),
                dir
            );
            Ok(())
        }
        Some("stats") => {
            let dir = args
                .get(1)
                .filter(|a| !a.starts_with("--"))
                .ok_or_else(|| "usage: mopfuzzer corpus stats DIR [--json]".to_string())?;
            let store = jcorpus::Store::open(Path::new(dir))?;
            if args.get(2).map(String::as_str) == Some("--json") {
                println!("{}", store.stats_json());
                return Ok(());
            }
            println!(
                "corpus {}: {} entries, {} quarantined pair(s)",
                dir,
                store.len(),
                store.quarantine().len()
            );
            println!(
                "{:<6} {:<24} {:<10} {:>9} {:>9} {:>7} {:>5} {:>8}",
                "id", "name", "origin", "schedules", "yield", "faults", "bugs", "energy"
            );
            for entry in store.entries() {
                println!(
                    "{:<6} {:<24} {:<10} {:>9} {:>9.2} {:>7} {:>5} {:>8.3}",
                    entry.id,
                    entry.name,
                    entry.provenance.as_str(),
                    entry.stats.schedules,
                    entry.stats.yield_sum,
                    entry.stats.faults,
                    entry.stats.bugs,
                    jcorpus::energy(&entry.stats)
                );
            }
            for (seed, mutator) in store.quarantine() {
                match mutator {
                    Some(m) => println!("quarantined: {seed} × {m}"),
                    None => println!("quarantined: {seed} (whole seed)"),
                }
            }
            Ok(())
        }
        Some("fsck") => {
            let dir = args
                .get(1)
                .filter(|a| !a.starts_with("--"))
                .ok_or_else(|| {
                    "usage: mopfuzzer corpus fsck DIR [--repair] [--json]".to_string()
                })?;
            let mut repair = false;
            let mut json = false;
            for flag in &args[2..] {
                match flag.as_str() {
                    "--repair" => repair = true,
                    "--json" => json = true,
                    other => return Err(format!("unknown option {other}")),
                }
            }
            let report = jcorpus::fsck(Path::new(dir), repair)?;
            if json {
                println!("{}", report.to_json());
            } else {
                print!("{}", report.render_text());
            }
            if report.unrepaired() > 0 {
                return Err(format!(
                    "{} unrepaired issue(s) in {dir}{}",
                    report.unrepaired(),
                    if repair { "" } else { " (rerun with --repair)" },
                ));
            }
            Ok(())
        }
        _ => Err("usage: mopfuzzer corpus <init|import|stats|gc|fsck> ...".to_string()),
    }
}

/// Reads every `.java` file in `dir` as a named seed (sorted by path).
fn load_java_dir(dir: &Path) -> Result<Vec<mopfuzzer::Seed>, String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "java"))
        .collect();
    paths.sort();
    let mut out = Vec::new();
    for path in paths {
        let src = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let program = mjava::parse(&src).map_err(|e| format!("{}: {e}", path.display()))?;
        out.push(mopfuzzer::Seed {
            name: path
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_else(|| "case".into()),
            program,
        });
    }
    Ok(out)
}

/// `otherData` entries for the trace export — the campaign's identity
/// plus the wall-clock elapsed since the session was installed.
fn trace_meta(
    jobs: usize,
    rounds: usize,
    rng_seed: u64,
    started: std::time::Instant,
) -> Vec<(&'static str, String)> {
    vec![
        ("jobs", jobs.to_string()),
        ("rounds", rounds.to_string()),
        ("rng_seed", rng_seed.to_string()),
        ("campaign_wall_ns", started.elapsed().as_nanos().to_string()),
    ]
}

fn run_campaign_observed_or_not(
    seeds: &[mopfuzzer::Seed],
    config: &CampaignConfig,
    observer: Option<&mut dyn CampaignObserver>,
) -> CampaignResult {
    match observer {
        Some(obs) => run_campaign_observed(seeds, config, obs),
        None => mopfuzzer::run_campaign(seeds, config),
    }
}

fn run_resume(journal: &Path, options: &CliOptions) -> Result<(), String> {
    let streaming = stdout_is_claimed(options);
    humanln!(streaming, "resuming campaign from {}", journal.display());
    if let Some(rounds) = options.rounds {
        humanln!(streaming, "  extending to {rounds} total round(s)");
    }
    let mut sink = metrics_sink(options)?;
    let started = std::time::Instant::now();
    let observer = sink.as_mut().map(|s| s as &mut dyn CampaignObserver);
    let result = resume_campaign_extended(journal, options.rounds, options.jobs, observer)?;
    if let Some(sink) = &sink {
        sink.finish();
    }
    // The trace describes the resumed campaign: read its identity and
    // resolve the worker count exactly as the library did.
    let meta = match &options.trace_out {
        None => Vec::new(),
        Some(_) => {
            let contents = mopfuzzer::read_journal(journal)?;
            let jobs = mopfuzzer::resolve_jobs(options.jobs, contents.corpus.is_some())?;
            trace_meta(
                jobs,
                contents.config.rounds,
                contents.config.rng_seed,
                started,
            )
        }
    };
    finish_telemetry(options, &meta)?;
    print_campaign_summary(&result, streaming);
    maybe_print_interrupted(&result, Some(journal), streaming);
    Ok(())
}

/// After a SIGINT/SIGTERM stop, tell the user how to pick the campaign
/// back up. Everything durable was already flushed by the time the
/// summary printed.
fn maybe_print_interrupted(result: &CampaignResult, journal: Option<&Path>, to_stderr: bool) {
    if !result.interrupted {
        return;
    }
    match journal {
        Some(path) => humanln!(
            to_stderr,
            "interrupted: stopped at a round boundary; resume with --resume {}",
            path.display()
        ),
        None => humanln!(
            to_stderr,
            "interrupted: stopped at a round boundary (no journal to resume from)"
        ),
    }
}

fn print_campaign_summary(result: &CampaignResult, to_stderr: bool) {
    humanln!(
        to_stderr,
        "done: {} bug(s), {} executions, {} steps, {} round(s) completed",
        result.bugs.len(),
        result.executions,
        result.steps,
        result.completed_rounds()
    );
    for bug in &result.bugs {
        humanln!(
            to_stderr,
            "  bug {} ({}) on {} via seed {}",
            bug.id,
            if bug.is_crash { "crash" } else { "miscompile" },
            bug.jvm,
            bug.seed
        );
    }
    if result.inconclusive_rounds > 0 {
        humanln!(
            to_stderr,
            "  inconclusive rounds: {}",
            result.inconclusive_rounds
        );
    }
    if result.errored_rounds + result.skipped_rounds + result.retried_attempts > 0 {
        humanln!(
            to_stderr,
            "  faults: {} errored round(s), {} skipped, {} retried attempt(s)",
            result.errored_rounds,
            result.skipped_rounds,
            result.retried_attempts
        );
    }
    if result.wasted_steps + result.wasted_execs > 0 {
        humanln!(
            to_stderr,
            "  wasted on faulted attempts: {} steps, {} execution(s)",
            result.wasted_steps,
            result.wasted_execs
        );
    }
    for name in &result.promotions {
        humanln!(to_stderr, "  promoted: {name}");
    }
    for (seed, mutator) in &result.quarantined {
        match mutator {
            Some(m) => humanln!(to_stderr, "  quarantined: {seed} × {m}"),
            None => humanln!(to_stderr, "  quarantined: {seed} (whole seed)"),
        }
    }
    if let Some(stop) = &result.stopped {
        humanln!(
            to_stderr,
            "  stopped early at round {}: {}",
            stop.round,
            stop.error
        );
    }
}

fn run(options: &CliOptions) -> Result<(), String> {
    let seeds = load_seeds(options)?;
    std::fs::create_dir_all(&options.out)
        .map_err(|e| format!("cannot create {}: {e}", options.out.display()))?;
    println!(
        "fuzzing {} seed(s), {} iterations each, guidance {}, JVMs: {}",
        seeds.len(),
        options.iterations,
        if options.guided {
            "on"
        } else {
            "off (MopFuzzer_g)"
        },
        options
            .jdks
            .iter()
            .map(|s| s.name())
            .collect::<Vec<_>>()
            .join(", ")
    );
    let mut bugs = 0usize;
    for (i, seed) in seeds.iter().enumerate() {
        let guidance = options.jdks[i % options.jdks.len()].clone();
        let config = FuzzConfig {
            max_iterations: options.iterations,
            variant: if options.guided {
                Variant::Full
            } else {
                Variant::NoGuidance
            },
            guidance: guidance.clone(),
            rng_seed: options.rng.wrapping_add(i as u64),
            weight_scheme: Default::default(),
            banned: Vec::new(),
            fault: None,
        };
        let outcome = fuzz(&seed.program, &config);
        let mutant_path = options.out.join(format!("{}_final.java", seed.name));
        write_text(&mutant_path, &mjava::print(&outcome.final_mutant))?;
        let mut log = Vec::new();
        log.push(format!(
            "seed: {} | guidance: {} | iterations: {} | final delta: {:.2}",
            seed.name,
            guidance.name(),
            outcome.records.len(),
            outcome.final_delta()
        ));
        for record in &outcome.records {
            log.push(format!(
                "iter {:3}: {:26} delta={:.2}",
                record.iteration,
                record.mutator.label(),
                record.delta_vs_parent
            ));
        }
        let verdict = if let Some(crash) = &outcome.crash {
            bugs += 1;
            write_text(
                &options.out.join(format!("{}_hs_err.log", seed.name)),
                &crash.hs_err,
            )?;
            format!("CRASH {} in {}", crash.bug_id, crash.component.label())
        } else {
            let diff = differential(&outcome.final_mutant, &options.jdks, &RunOptions::fuzzing());
            match diff.verdict {
                OracleVerdict::Pass => "pass".to_string(),
                OracleVerdict::Inconclusive(reason) => format!("inconclusive: {reason}"),
                OracleVerdict::Crash { jvm, report } => {
                    bugs += 1;
                    write_text(
                        &options.out.join(format!("{}_hs_err.log", seed.name)),
                        &report.hs_err,
                    )?;
                    format!("CRASH {} on {jvm}", report.bug_id)
                }
                OracleVerdict::Miscompile { outputs, .. } => {
                    bugs += 1;
                    let mut s = String::from("MISCOMPILE:\n");
                    for (jvm, obs) in outputs {
                        s.push_str(&format!("  {jvm}: {obs:?}\n"));
                    }
                    s
                }
            }
        };
        log.push(format!("verdict: {verdict}"));
        write_text(
            &options.out.join(format!("{}.log", seed.name)),
            &log.join("\n"),
        )?;
        println!("[{}/{}] {} → {}", i + 1, seeds.len(), seed.name, verdict);
    }
    println!(
        "done: {} bug-revealing case(s); mutants and logs in {}",
        bugs,
        options.out.display()
    );
    Ok(())
}

fn write_text(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}
