//! End-to-end observability properties: a fault-injected supervised
//! campaign must produce schema-valid telemetry exports, counters and
//! gauges that agree exactly with the campaign result, flight-recorder
//! dumps in the journal that name the failing phase/mutator — and none of
//! it may change what the campaign computes.

use jtelemetry::export::{jsonl_line, prometheus, trace_json};
use jtelemetry::schema::{validate_prometheus, validate_snapshot_line, validate_trace};
use jtelemetry::{FlightKind, ManualClock, Session};
use jvmsim::FaultPlan;
use mopfuzzer::{
    corpus, read_journal, run_campaign, run_campaign_with_journal, CampaignConfig, Disposition,
    RoundError,
};
use std::path::PathBuf;

fn faulty_config(plan_seed: u64, rate: f64, rounds: usize) -> CampaignConfig {
    let mut config = CampaignConfig {
        iterations_per_seed: 5,
        rounds,
        rng_seed: 7000 + plan_seed,
        ..CampaignConfig::new(rounds)
    };
    config.fault = Some(FaultPlan::new(plan_seed, rate));
    config.supervisor.max_retries = 1;
    config.supervisor.quarantine_threshold = 1;
    config
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mop_telemetry_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// The acceptance scenario: a 50-round campaign at a 5% fault rate with
/// telemetry installed produces a schema-valid JSONL snapshot and
/// Prometheus page, and the metrics agree exactly with the result.
#[test]
fn faulty_campaign_telemetry_is_valid_and_consistent() {
    let seeds = corpus::builtin();
    let config = faulty_config(3, 0.05, 50);
    let path = temp_path("campaign.jsonl");
    jtelemetry::install(Session::new());
    let result = run_campaign_with_journal(&seeds, &config, &path).unwrap();
    let snap = jtelemetry::take().expect("session installed").snapshot();
    std::fs::remove_file(&path).ok();

    // Both export formats pass their own strict schema validators.
    validate_snapshot_line(&jsonl_line(&snap)).expect("JSONL snapshot valid");
    validate_prometheus(&prometheus(&snap)).expect("Prometheus page valid");

    // Round accounting matches the campaign result one-to-one.
    assert!(result.errored_rounds > 0, "plan 3 should inject faults");
    assert_eq!(snap.counter("rounds_ok"), result.completed_rounds() as u64);
    assert_eq!(snap.counter("rounds_errored"), result.errored_rounds);
    assert_eq!(snap.counter("rounds_skipped"), result.skipped_rounds);
    assert_eq!(snap.counter("retried_attempts"), result.retried_attempts);
    assert_eq!(snap.gauge("rounds_done"), config.rounds as f64);
    assert_eq!(snap.gauge("bugs_found"), result.bugs.len() as f64);
    assert_eq!(
        snap.gauge("quarantine_count"),
        result.quarantined.len() as f64
    );

    // The productive/wasted split is exhaustive: every completed VM
    // execution (the always-on work meter feeds both) lands on exactly
    // one side of the ledger.
    assert_eq!(snap.gauge("productive_steps"), result.steps as f64);
    assert_eq!(snap.gauge("wasted_steps"), result.wasted_steps as f64);
    assert_eq!(snap.gauge("productive_execs"), result.executions as f64);
    assert_eq!(snap.gauge("wasted_execs"), result.wasted_execs as f64);
    assert_eq!(
        snap.counter("vm_executions"),
        result.executions + result.wasted_execs
    );

    // Optimizer phases and VM executions produced timing spans.
    for span in ["inline", "iterative_gvn", "dead_code", "vm_execution"] {
        let stat = snap
            .spans
            .iter()
            .find(|s| s.name == span)
            .unwrap_or_else(|| panic!("no span {span:?} recorded"));
        assert!(stat.count > 0);
    }
    // Mutator accept/reject stats flowed in from the fuzzer.
    assert!(!snap.mutators.is_empty());
    let oracle_verdicts = snap.counter("oracle_pass")
        + snap.counter("oracle_crash")
        + snap.counter("oracle_miscompile")
        + snap.counter("oracle_inconclusive");
    assert!(oracle_verdicts > 0);
}

/// Every journaled failure carries a flight dump that names the failing
/// site: the attempt header, and for attributed mutator panics the
/// panicking mutator as the most recent mutator event.
#[test]
fn journaled_flight_dumps_name_the_failing_site() {
    let seeds = corpus::builtin();
    // High fault rate so every error class (incl. mutator panics) shows up.
    let config = faulty_config(0, 0.6, 12);
    let path = temp_path("flight.jsonl");
    jtelemetry::install(Session::new());
    let result = run_campaign_with_journal(&seeds, &config, &path).unwrap();
    jtelemetry::take();
    assert!(
        result.errored_rounds > 0,
        "0.6 fault rate must error rounds"
    );

    let contents = read_journal(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let mut quarantined_rounds = 0;
    let mut mutator_attributions = 0;
    for record in &contents.records {
        if record.disposition == Disposition::Errored {
            quarantined_rounds += 1;
            assert!(!record.errors.is_empty());
        }
        for failure in &record.errors {
            // Every failed attempt left a dump, opening with its header.
            let first = failure.flight.first().expect("flight dump present");
            assert_eq!(first.kind, FlightKind::Round);
            assert_eq!(first.label, "attempt");
            assert!(
                first.detail.contains(&format!("round {}", record.round)),
                "{:?}",
                first.detail
            );
            match &failure.error {
                RoundError::MutatorPanic {
                    mutator: Some(kind),
                    ..
                } => {
                    // The most recent mutator event is the culprit.
                    let last = failure
                        .flight
                        .iter()
                        .rev()
                        .find(|e| e.kind == FlightKind::Mutator)
                        .expect("mutator panic dump has a mutator event");
                    assert_eq!(last.label, format!("{kind:?}"));
                    mutator_attributions += 1;
                }
                RoundError::VmPanic { .. } | RoundError::BuildFailure { .. } => {
                    // The dump shows VM activity (the span opened on entry
                    // survives in the recorder even though the run died).
                    assert!(
                        failure.flight.iter().any(|e| e.kind == FlightKind::Vm),
                        "{:?}",
                        failure.flight
                    );
                }
                RoundError::MutatorPanic { mutator: None, .. }
                | RoundError::BudgetExhausted { .. }
                | RoundError::Timeout { .. } => {}
            }
        }
    }
    assert!(quarantined_rounds > 0);
    assert!(mutator_attributions > 0, "no mutator panic was attributed");
}

/// The trace layer inherits the determinism contract of the metrics
/// layer: under a manual clock the exported Chrome-trace JSON is
/// byte-identical at any `--jobs` setting. The round
/// lane is renumbered into program order at merge time and the
/// wall-clock scheduler lane is suppressed under a manual clock, so the
/// whole export — ids, parents, timestamps, durations — is a pure
/// function of the campaign.
#[test]
fn traces_are_byte_identical_across_worker_counts() {
    let seeds = corpus::builtin();
    let meta = [("jobs", "any".to_string())];
    let mut exports = Vec::new();
    for jobs in [1, 4] {
        let mut config = faulty_config(3, 0.05, 12);
        config.jobs = jobs;
        jtelemetry::install(
            Session::with_clock(Box::new(ManualClock::new()))
                .with_trace()
                .with_profile(),
        );
        let result = run_campaign(&seeds, &config);
        let session = jtelemetry::take().expect("session installed");
        let trace = trace_json(&session, &meta).expect("tracing session exports a trace");
        validate_trace(&trace).expect("trace export valid");
        exports.push((result, trace));
    }
    let (serial_result, serial_trace) = &exports[0];
    let (parallel_result, parallel_trace) = &exports[1];
    assert_eq!(serial_result, parallel_result);
    assert_eq!(
        serial_trace, parallel_trace,
        "trace bytes must not depend on worker count"
    );
    assert!(serial_trace.contains("\"round\""));
    assert!(serial_trace.contains("\"fuzz\""));
    assert!(serial_trace.contains("\"differential\""));
}

/// Tracing and profiling are pure observers even at full parallelism:
/// the journal written by a traced+profiled campaign at `--jobs 4` is
/// byte-for-byte the journal of the serial run
/// with a plain metrics session. (Both runs install a session — flight
/// dumps in failure records are a session feature and would differ
/// against a session-less run by design.)
#[test]
fn tracing_does_not_change_journal_bytes() {
    let seeds = corpus::builtin();
    let plain_path = temp_path("trace_off.jsonl");
    let traced_path = temp_path("trace_on.jsonl");

    let config = faulty_config(5, 0.05, 12);
    jtelemetry::install(Session::new());
    let plain = run_campaign_with_journal(&seeds, &config, &plain_path).unwrap();
    jtelemetry::take();

    let mut config = faulty_config(5, 0.05, 12);
    config.jobs = 4;
    jtelemetry::install(Session::new().with_trace().with_profile());
    let traced = run_campaign_with_journal(&seeds, &config, &traced_path).unwrap();
    let session = jtelemetry::take().expect("session installed");
    assert!(trace_json(&session, &[]).is_some());

    let plain_bytes = std::fs::read(&plain_path).unwrap();
    let traced_bytes = std::fs::read(&traced_path).unwrap();
    std::fs::remove_file(&plain_path).ok();
    std::fs::remove_file(&traced_path).ok();
    assert_eq!(plain, traced);
    assert_eq!(
        plain_bytes, traced_bytes,
        "tracing must not perturb the journal"
    );
}

/// Telemetry is observation, not interference: the same faulty campaign
/// with and without a session produces identical results (flight dumps
/// are excluded from failure identity by design).
#[test]
fn telemetry_does_not_change_campaign_results() {
    let seeds = corpus::builtin();
    let config = faulty_config(5, 0.05, 30);
    let plain = run_campaign(&seeds, &config);
    jtelemetry::install(Session::new());
    let observed = run_campaign(&seeds, &config);
    jtelemetry::take();
    assert_eq!(plain, observed);
}
