//! `jtelemetry-trace` — offline analysis of a `--trace-out` capture.
//!
//! Usage:
//!
//! ```text
//! jtelemetry-trace trace.json [--metrics metrics.jsonl] [--top N]
//! ```
//!
//! Reads the Chrome trace-event JSON written by `mopfuzzer --trace-out`
//! (validating it first) and prints:
//!
//! * the per-round critical path — how much of each round went to
//!   fuzzing vs the differential oracle vs supervisor overhead, in both
//!   simulated steps and wall nanoseconds;
//! * worker idle and speculation-waste attribution from the
//!   scheduler lane (wall-clock runs only — the lane is empty under a
//!   manual clock);
//! * the top-N hot opcodes, when a `--profile` metrics JSONL stream is
//!   supplied alongside.

use jtelemetry::json::{self, Json};
use jtelemetry::schema::validate_trace;
use std::collections::BTreeMap;
use std::process::ExitCode;

const USAGE: &str = "usage: jtelemetry-trace TRACE.json [--metrics FILE.jsonl] [--top N]";

struct Event {
    name: String,
    pid: u64,
    id: u64,
    parent: u64,
    dur_steps: u64,
    wall_ns: u64,
    instant: bool,
}

fn num(event: &Json, key: &str) -> u64 {
    event.get(key).and_then(Json::as_u64).unwrap_or(0)
}

fn arg_u64(event: &Json, key: &str) -> u64 {
    let arg = event.get("args").and_then(|a| a.get(key));
    arg.and_then(Json::as_str)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

fn str_of(v: &Json, key: &str) -> String {
    v.get(key)
        .and_then(Json::as_str)
        .unwrap_or_default()
        .to_string()
}

fn fmt_wall(nanos: u64) -> String {
    if nanos >= 1_000_000_000 {
        format!("{:.2}s", nanos as f64 / 1e9)
    } else if nanos >= 1_000_000 {
        format!("{:.2}ms", nanos as f64 / 1e6)
    } else if nanos >= 1_000 {
        format!("{:.2}us", nanos as f64 / 1e3)
    } else {
        format!("{nanos}ns")
    }
}

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 * 100.0 / whole as f64
    }
}

/// Sums `dur_steps`/`wall_ns` of the *direct* children of `id` grouped
/// by span name.
fn child_sums(events: &[Event], id: u64) -> BTreeMap<String, (u64, u64, u64)> {
    let mut out: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
    for e in events {
        if e.pid == 0 && e.parent == id && !e.instant {
            let entry = out.entry(e.name.clone()).or_default();
            entry.0 += e.dur_steps;
            entry.1 += e.wall_ns;
            entry.2 += 1;
        }
    }
    out
}

fn report(trace_text: &str, metrics_text: Option<&str>, top: usize) -> Result<String, String> {
    validate_trace(trace_text)?;
    let root = json::parse(trace_text)?;
    let raw = root
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("no traceEvents")?;
    let other = root.get("otherData");
    let meta_str = |key: &str| other.and_then(|o| o.get(key)).and_then(Json::as_str);
    let events: Vec<Event> = raw
        .iter()
        .map(|e| Event {
            name: str_of(e, "name"),
            pid: num(e, "pid"),
            id: arg_u64(e, "id"),
            parent: arg_u64(e, "parent"),
            dur_steps: arg_u64(e, "dur_steps"),
            wall_ns: arg_u64(e, "wall_ns"),
            instant: e.get("ph").and_then(Json::as_str) == Some("i"),
        })
        .collect();

    let mut out = String::new();
    let clock = meta_str("clock").unwrap_or("?");
    let jobs: u64 = meta_str("jobs").and_then(|s| s.parse().ok()).unwrap_or(1);
    out.push_str(&format!(
        "== trace report ==\nevents: {} (clock: {clock}, jobs: {jobs})\n",
        events.len()
    ));

    // --- Per-round critical path -------------------------------------
    let rounds: Vec<&Event> = events
        .iter()
        .filter(|e| e.pid == 0 && e.name == "round" && !e.instant)
        .collect();
    let mut total = (0u64, 0u64); // (steps, wall)
    let mut attempts = (0u64, 0u64, 0u64);
    let mut fuzz = (0u64, 0u64);
    let mut diff = (0u64, 0u64);
    for round in &rounds {
        total.0 += round.dur_steps;
        total.1 += round.wall_ns;
        for (name, (steps, wall, count)) in child_sums(&events, round.id) {
            if name == "attempt" {
                attempts = (attempts.0 + steps, attempts.1 + wall, attempts.2 + count);
                // Recurse one level: fuzz/differential live inside attempts.
                for e in &events {
                    if e.pid == 0 && e.parent == round.id && e.name == "attempt" {
                        for (n2, (s2, w2, _)) in child_sums(&events, e.id) {
                            match n2.as_str() {
                                "fuzz" => {
                                    fuzz.0 += s2;
                                    fuzz.1 += w2;
                                }
                                "differential" => {
                                    diff.0 += s2;
                                    diff.1 += w2;
                                }
                                _ => {}
                            }
                        }
                    }
                }
            }
        }
    }
    out.push_str(&format!(
        "rounds: {} ({} attempts)\n",
        rounds.len(),
        attempts.2
    ));
    out.push_str("critical path (totals across rounds):\n");
    let overhead_steps = total.0.saturating_sub(attempts.0);
    let overhead_wall = total.1.saturating_sub(attempts.1);
    let other_steps = attempts.0.saturating_sub(fuzz.0 + diff.0);
    let other_wall = attempts.1.saturating_sub(fuzz.1 + diff.1);
    for (label, (steps, wall)) in [
        ("fuzz", fuzz),
        ("differential", diff),
        ("attempt other", (other_steps, other_wall)),
        ("round overhead", (overhead_steps, overhead_wall)),
    ] {
        out.push_str(&format!(
            "  {label:<16} {steps:>12} steps ({:>5.1}%)  {:>10} wall ({:>5.1}%)\n",
            pct(steps, total.0),
            fmt_wall(wall),
            pct(wall, total.1),
        ));
    }
    out.push_str(&format!(
        "  {:<16} {:>12} steps           {:>10} wall\n",
        "round total",
        total.0,
        fmt_wall(total.1)
    ));
    let vm_runs = events
        .iter()
        .filter(|e| e.pid == 0 && e.name == "vm_execution" && !e.instant)
        .count();
    let interp_wall: u64 = events
        .iter()
        .filter(|e| e.pid == 0 && e.name == "interp_run" && !e.instant)
        .map(|e| e.wall_ns)
        .sum();
    out.push_str(&format!(
        "vm executions: {vm_runs}  |  interpreter wall: {}\n",
        fmt_wall(interp_wall)
    ));

    // --- Scheduler lane: idle / speculation waste ---------------------
    let sched: Vec<&Event> = events.iter().filter(|e| e.pid == 1).collect();
    if sched.is_empty() {
        out.push_str(
            "scheduler lane: empty (manual clock or --jobs 1 — \
             no idle/speculation attribution)\n",
        );
    } else {
        let merge_wait: u64 = sched
            .iter()
            .filter(|e| e.name == "merge_wait")
            .map(|e| e.wall_ns)
            .sum();
        let dispatches = sched.iter().filter(|e| e.name == "dispatch").count();
        let wasted = sched
            .iter()
            .filter(|e| e.name == "speculation_wasted")
            .count();
        let campaign_wall: u64 = meta_str("campaign_wall_ns")
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        out.push_str(&format!(
            "scheduler: {dispatches} dispatches, {wasted} speculative rounds wasted \
             ({:.1}% of dispatches)\n",
            pct(wasted as u64, dispatches as u64)
        ));
        out.push_str(&format!(
            "coordinator merge wait: {} ({:.1}% of campaign wall)\n",
            fmt_wall(merge_wait),
            pct(merge_wait, campaign_wall)
        ));
        if campaign_wall > 0 && jobs > 0 {
            let busy: u64 = rounds.iter().map(|r| r.wall_ns).sum();
            let capacity = campaign_wall.saturating_mul(jobs);
            let idle = 100.0 - pct(busy, capacity);
            out.push_str(&format!(
                "worker idle: {idle:.1}% (round work {} over {} x {jobs} workers)\n",
                fmt_wall(busy),
                fmt_wall(campaign_wall),
            ));
        }
    }

    // --- Hot opcodes (needs a --profile metrics stream) ---------------
    if let Some(text) = metrics_text {
        let last = text
            .lines()
            .rfind(|l| !l.trim().is_empty())
            .ok_or_else(|| "metrics stream has no snapshot lines".to_string())?;
        let snap = json::parse(last)?;
        let mut opcodes: Vec<(String, u64, u64)> = snap
            .get("opcodes")
            .and_then(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .map(|o| (str_of(o, "name"), num(o, "hits"), num(o, "nanos")))
            .collect();
        if opcodes.is_empty() {
            out.push_str("opcodes: none recorded (run with --profile)\n");
        } else {
            opcodes.sort_by(|a, b| b.2.cmp(&a.2).then(b.1.cmp(&a.1)));
            let total_hits: u64 = opcodes.iter().map(|o| o.1).sum();
            let total_nanos: u64 = opcodes.iter().map(|o| o.2).sum();
            out.push_str(&format!("top {top} opcodes by sampled time:\n"));
            for (name, hits, nanos) in opcodes.iter().take(top) {
                out.push_str(&format!(
                    "  {name:<16} {:>10} ({:>5.1}%)  {hits:>12} hits ({:>5.1}%)\n",
                    fmt_wall(*nanos),
                    pct(*nanos, total_nanos),
                    pct(*hits, total_hits),
                ));
            }
        }
    }
    Ok(out)
}

fn main() -> ExitCode {
    let mut trace_path: Option<String> = None;
    let mut metrics_path: Option<String> = None;
    let mut top = 10usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--metrics" => match args.next() {
                Some(path) => metrics_path = Some(path),
                None => {
                    eprintln!("{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--top" => match args.next().and_then(|n| n.parse().ok()) {
                Some(n) => top = n,
                None => {
                    eprintln!("{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if trace_path.is_none() && !other.starts_with('-') => {
                trace_path = Some(other.to_string())
            }
            other => {
                eprintln!("jtelemetry-trace: unknown argument '{other}'");
                return ExitCode::from(2);
            }
        }
    }
    let Some(trace_path) = trace_path else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let trace_text = match std::fs::read_to_string(&trace_path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("jtelemetry-trace: cannot read {trace_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let metrics_text = match &metrics_path {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(text) => Some(text),
            Err(e) => {
                eprintln!("jtelemetry-trace: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    match report(&trace_text, metrics_text.as_deref(), top) {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("jtelemetry-trace: {trace_path}: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jtelemetry::Session;

    #[test]
    fn report_summarizes_a_real_trace() {
        jtelemetry::install(Session::new().with_trace().with_profile());
        {
            let _round = jtelemetry::span("round", || vec![("round", "0".to_string())]);
            let _attempt = jtelemetry::span("attempt", Vec::new);
            {
                let _fuzz = jtelemetry::span("fuzz", Vec::new);
                jtelemetry::work::add(600, 6);
            }
            let _diff = jtelemetry::span("differential", Vec::new);
            jtelemetry::work::add(400, 8);
        }
        jtelemetry::profile_opcode("Arith", 500, 900);
        jtelemetry::profile_opcode("Load", 100, 100);
        let session = jtelemetry::take().unwrap();
        let trace = jtelemetry::export::trace_json(&session, &[("jobs", "1".to_string())]).unwrap();
        let metrics = jtelemetry::export::jsonl_line(&session.snapshot());

        let text = report(&trace, Some(&metrics), 10).expect("report builds");
        assert!(text.contains("rounds: 1 (1 attempts)"), "{text}");
        assert!(text.contains("fuzz"), "{text}");
        assert!(text.contains("600"), "{text}");
        assert!(text.contains("differential"), "{text}");
        assert!(text.contains("top 10 opcodes"), "{text}");
        assert!(text.contains("Arith"), "{text}");
        assert!(text.contains("scheduler lane: empty"), "{text}");
    }

    #[test]
    fn report_rejects_invalid_trace() {
        assert!(report("{}", None, 10).is_err());
    }
}
