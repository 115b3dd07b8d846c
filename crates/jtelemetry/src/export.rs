//! Export surfaces for a [`MetricsSnapshot`]: JSONL lines for machine
//! consumption, a Prometheus-style text page, a human end-of-campaign
//! report, and a one-line live status for TTYs.
//!
//! Everything is hand-rolled text generation (no serde), with strings
//! quoted by [`crate::json`]'s escaper; [`crate::schema`] re-parses and
//! validates both machine formats so CI catches drift between writer
//! and reader.

use crate::json::push_quoted;
use crate::metrics::{MetricsSnapshot, SpanStat};
use crate::trace::TraceEvent;
use crate::Session;
use std::collections::HashMap;

/// Prefix shared by every Prometheus metric family we emit.
pub const PROM_PREFIX: &str = "mop_";

/// Formats an `f64` as a valid JSON number (non-finite values become 0).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Renders one newline-free JSONL snapshot line:
///
/// ```json
/// {"type":"telemetry","version":1,"elapsed_nanos":..,"counters":{..},
///  "gauges":{..},"spans":[..],"mutators":[..]}
/// ```
pub fn jsonl_line(snap: &MetricsSnapshot) -> String {
    let mut out = String::with_capacity(1024);
    out.push_str("{\"type\":\"telemetry\",\"version\":");
    out.push_str(&snap.schema_version.to_string());
    out.push_str(",\"elapsed_nanos\":");
    out.push_str(&snap.elapsed_nanos.to_string());
    out.push_str(",\"counters\":{");
    for (i, (key, value)) in snap.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_quoted(&mut out, key);
        out.push(':');
        out.push_str(&value.to_string());
    }
    out.push_str("},\"gauges\":{");
    for (i, (key, value)) in snap.gauges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_quoted(&mut out, key);
        out.push(':');
        out.push_str(&json_f64(*value));
    }
    out.push_str("},\"spans\":[");
    for (i, span) in snap.spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        push_quoted(&mut out, &span.name);
        out.push_str(&format!(
            ",\"count\":{},\"total_nanos\":{},\"self_nanos\":{},\"max_nanos\":{},\"buckets\":[",
            span.count, span.total_nanos, span.self_nanos, span.max_nanos
        ));
        for (j, b) in span.buckets.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&b.to_string());
        }
        out.push_str("]}");
    }
    out.push_str("],\"mutators\":[");
    for (i, m) in snap.mutators.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        push_quoted(&mut out, &m.name);
        out.push_str(&format!(
            ",\"applies\":{},\"accepted\":{},\"rejected\":{},\"yield_sum\":{}",
            m.applies,
            m.accepted,
            m.rejected,
            json_f64(m.yield_sum)
        ));
        out.push('}');
    }
    out.push_str("],\"opcodes\":[");
    for (i, o) in snap.opcodes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        push_quoted(&mut out, &o.name);
        out.push_str(&format!(",\"hits\":{},\"nanos\":{}}}", o.hits, o.nanos));
    }
    out.push_str("]}");
    out
}

fn prom_escape_label(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Renders the full Prometheus-style text page: one `# TYPE` line per
/// family, `mop_`-prefixed names, span/mutator stats as labelled series.
pub fn prometheus(snap: &MetricsSnapshot) -> String {
    let mut out = String::with_capacity(2048);
    out.push_str(&format!(
        "# TYPE {p}schema_version gauge\n{p}schema_version {}\n",
        snap.schema_version,
        p = PROM_PREFIX
    ));
    out.push_str(&format!(
        "# TYPE {p}elapsed_nanos gauge\n{p}elapsed_nanos {}\n",
        snap.elapsed_nanos,
        p = PROM_PREFIX
    ));
    for (key, value) in &snap.counters {
        out.push_str(&format!(
            "# TYPE {p}{key} counter\n{p}{key} {value}\n",
            p = PROM_PREFIX
        ));
    }
    for (key, value) in &snap.gauges {
        out.push_str(&format!(
            "# TYPE {p}{key} gauge\n{p}{key} {}\n",
            json_f64(*value),
            p = PROM_PREFIX
        ));
    }
    // Span timings export as one native Prometheus histogram family. The
    // log2 accumulator bucket `i` holds durations with `i` significant
    // bits, i.e. integers in `[2^(i-1), 2^i)`, so its inclusive upper
    // bound is `2^i - 1` — that is the `le` value, and the series are
    // cumulative as the exposition format requires. The final accumulator
    // bucket is a clamp (everything with more significant bits than the
    // histogram tracks), so it has no finite `le` and surfaces only in
    // `+Inf`.
    out.push_str(&format!(
        "# TYPE {PROM_PREFIX}span_duration_nanos histogram\n"
    ));
    for span in &snap.spans {
        let label = prom_escape_label(&span.name);
        let mut cumulative = 0u64;
        for (i, b) in span.buckets[..span.buckets.len() - 1].iter().enumerate() {
            cumulative += b;
            let le = (1u64 << i) - 1;
            out.push_str(&format!(
                "{PROM_PREFIX}span_duration_nanos_bucket{{span=\"{label}\",le=\"{le}\"}} {cumulative}\n"
            ));
        }
        out.push_str(&format!(
            "{PROM_PREFIX}span_duration_nanos_bucket{{span=\"{label}\",le=\"+Inf\"}} {}\n",
            span.count
        ));
        out.push_str(&format!(
            "{PROM_PREFIX}span_duration_nanos_sum{{span=\"{label}\"}} {}\n",
            span.total_nanos
        ));
        out.push_str(&format!(
            "{PROM_PREFIX}span_duration_nanos_count{{span=\"{label}\"}} {}\n",
            span.count
        ));
    }
    out.push_str(&format!("# TYPE {PROM_PREFIX}span_max_nanos gauge\n"));
    for span in &snap.spans {
        out.push_str(&format!(
            "{PROM_PREFIX}span_max_nanos{{span=\"{}\"}} {}\n",
            prom_escape_label(&span.name),
            span.max_nanos
        ));
    }
    out.push_str(&format!("# TYPE {PROM_PREFIX}span_self_nanos counter\n"));
    for span in &snap.spans {
        out.push_str(&format!(
            "{PROM_PREFIX}span_self_nanos{{span=\"{}\"}} {}\n",
            prom_escape_label(&span.name),
            span.self_nanos
        ));
    }
    out.push_str(&format!("# TYPE {PROM_PREFIX}opcode_hits counter\n"));
    out.push_str(&format!("# TYPE {PROM_PREFIX}opcode_nanos counter\n"));
    for o in &snap.opcodes {
        out.push_str(&format!(
            "{PROM_PREFIX}opcode_hits{{opcode=\"{}\"}} {}\n",
            prom_escape_label(&o.name),
            o.hits
        ));
        out.push_str(&format!(
            "{PROM_PREFIX}opcode_nanos{{opcode=\"{}\"}} {}\n",
            prom_escape_label(&o.name),
            o.nanos
        ));
    }
    for family in ["mutator_applies", "mutator_accepted", "mutator_rejected"] {
        out.push_str(&format!("# TYPE {PROM_PREFIX}{family} counter\n"));
        for m in &snap.mutators {
            let value = match family {
                "mutator_applies" => m.applies,
                "mutator_accepted" => m.accepted,
                _ => m.rejected,
            };
            out.push_str(&format!(
                "{PROM_PREFIX}{family}{{mutator=\"{}\"}} {value}\n",
                prom_escape_label(&m.name)
            ));
        }
    }
    out.push_str(&format!("# TYPE {PROM_PREFIX}mutator_yield_sum gauge\n"));
    for m in &snap.mutators {
        out.push_str(&format!(
            "{PROM_PREFIX}mutator_yield_sum{{mutator=\"{}\"}} {}\n",
            prom_escape_label(&m.name),
            json_f64(m.yield_sum)
        ));
    }
    out
}

/// Renders one Prometheus page for a fleet of concurrent sessions: the
/// full aggregate page (every family declared and sampled unlabelled, so
/// the strict checker's expected-family sweep passes) followed by
/// per-tenant counter/gauge samples carrying a `campaign` label. Span
/// histograms, mutator and opcode tables are exported aggregate-only —
/// per-campaign drill-down belongs in each campaign's own
/// `--metrics-out`, not on the shared scrape page.
pub fn prometheus_fleet(tenants: &[(String, MetricsSnapshot)]) -> String {
    let mut agg = MetricsSnapshot::empty();
    for (_, snap) in tenants {
        agg.merge(snap);
    }
    let mut out = prometheus(&agg);
    for (id, snap) in tenants {
        let label = prom_escape_label(id);
        out.push_str(&format!(
            "{PROM_PREFIX}elapsed_nanos{{campaign=\"{label}\"}} {}\n",
            snap.elapsed_nanos
        ));
        for (key, value) in &snap.counters {
            out.push_str(&format!(
                "{PROM_PREFIX}{key}{{campaign=\"{label}\"}} {value}\n"
            ));
        }
        for (key, value) in &snap.gauges {
            out.push_str(&format!(
                "{PROM_PREFIX}{key}{{campaign=\"{label}\"}} {}\n",
                json_f64(*value)
            ));
        }
    }
    out
}

/// Reconstructs absolute open timestamps (in steps) for round-lane
/// events: roots are laid end to end in stream (= merge) order, children
/// sit at `parent + rel_steps`. Returns per-event absolute opens,
/// indexed like `events`.
fn absolute_opens(events: &[TraceEvent]) -> Vec<u64> {
    let by_id: HashMap<u64, usize> = events.iter().enumerate().map(|(i, e)| (e.id, i)).collect();
    let mut root_offsets: HashMap<u64, u64> = HashMap::new();
    let mut cursor = 0u64;
    for event in events {
        if event.parent == 0 {
            root_offsets.insert(event.id, cursor);
            // A one-step gap keeps adjacent zero-duration roots from
            // overlapping in trace viewers.
            cursor = cursor.saturating_add(event.dur_steps).saturating_add(1);
        }
    }
    fn resolve(
        idx: usize,
        events: &[TraceEvent],
        by_id: &HashMap<u64, usize>,
        roots: &HashMap<u64, u64>,
        memo: &mut HashMap<u64, u64>,
    ) -> u64 {
        let event = &events[idx];
        if let Some(abs) = memo.get(&event.id) {
            return *abs;
        }
        let abs = match by_id.get(&event.parent) {
            _ if event.parent == 0 => roots.get(&event.id).copied().unwrap_or(0),
            Some(pidx) => {
                resolve(*pidx, events, by_id, roots, memo).saturating_add(event.rel_steps)
            }
            // A dangling parent (should not happen for fully closed
            // traces) degrades to an absolute timestamp.
            None => event.rel_steps,
        };
        memo.insert(event.id, abs);
        abs
    }
    let mut memo = HashMap::new();
    (0..events.len())
        .map(|i| resolve(i, events, &by_id, &root_offsets, &mut memo))
        .collect()
}

fn trace_event_json(event: &TraceEvent, ts: u64, dur: u64, pid: u64, out: &mut String) {
    out.push_str("{\"name\":");
    push_quoted(out, event.name);
    if event.instant {
        out.push_str(&format!(
            ",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\"pid\":{pid},\"tid\":0,\"args\":{{"
        ));
    } else {
        out.push_str(&format!(
            ",\"ph\":\"X\",\"ts\":{ts},\"dur\":{dur},\"pid\":{pid},\"tid\":0,\"args\":{{"
        ));
    }
    out.push_str(&format!(
        "\"id\":\"{}\",\"parent\":\"{}\",\"dur_steps\":\"{}\",\"wall_ns\":\"{}\"",
        event.id, event.parent, event.dur_steps, event.dur_nanos
    ));
    for (key, value) in &event.args {
        out.push(',');
        push_quoted(out, key);
        out.push(':');
        push_quoted(out, value);
    }
    out.push_str("}}");
}

/// Renders the session's trace buffer as Chrome trace-event JSON
/// (loadable in Perfetto / `chrome://tracing`), or `None` when the
/// session does not trace.
///
/// * Round-lane events land on `pid` 0 with timestamps in simulated
///   steps (1 step rendered as 1µs) — deterministic at any worker
///   count. Wall nanoseconds ride along as the `wall_ns` arg.
/// * Scheduler-lane events land on `pid` 1 with wall-clock timestamps
///   (µs since session start). The lane is empty under a manual clock.
/// * Parent links are carried in `args` (`id`/`parent`) because the
///   Chrome format has no native span-parent field.
///
/// `meta` pairs are appended to `otherData` verbatim.
pub fn trace_json(session: &Session, meta: &[(&str, String)]) -> Option<String> {
    let buf = session.trace_buf()?;
    let opens = absolute_opens(&buf.events);
    let mut out = String::with_capacity(4096);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    for (event, abs) in buf.events.iter().zip(opens.iter()) {
        if !first {
            out.push(',');
        }
        first = false;
        trace_event_json(event, *abs, event.dur_steps, 0, &mut out);
    }
    for event in &buf.sched {
        if !first {
            out.push(',');
        }
        first = false;
        // Scheduler events store their absolute open wall time in
        // `rel_steps` (nanoseconds); render both ts and dur as µs.
        trace_event_json(
            event,
            event.rel_steps / 1_000,
            event.dur_nanos / 1_000,
            1,
            &mut out,
        );
    }
    out.push_str("],\"otherData\":{");
    out.push_str(&format!(
        "\"schema_version\":\"{}\",\"clock\":\"{}\"",
        crate::SCHEMA_VERSION,
        if session.clock_is_manual() {
            "manual"
        } else {
            "wall"
        }
    ));
    for (key, value) in meta {
        out.push(',');
        push_quoted(&mut out, key);
        out.push(':');
        push_quoted(&mut out, value);
    }
    out.push_str("}}");
    Some(out)
}

fn fmt_duration(nanos: u64) -> String {
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

/// Renders the human-readable end-of-campaign report: headline counters,
/// every span by self time (its own cost, nested spans excluded), top
/// mutators by yield, waste accounting.
pub fn human_report(snap: &MetricsSnapshot) -> String {
    let mut out = String::with_capacity(2048);
    out.push_str("== telemetry report ==\n");
    out.push_str(&format!(
        "elapsed {}  |  {:.2} rounds/s\n",
        fmt_duration(snap.elapsed_nanos),
        snap.rounds_per_sec()
    ));
    out.push_str(&format!(
        "rounds: {} done / {} total ({} ok, {} errored, {} skipped, {} retried attempts)\n",
        snap.gauge("rounds_done"),
        snap.gauge("rounds_total"),
        snap.counter("rounds_ok"),
        snap.counter("rounds_errored"),
        snap.counter("rounds_skipped"),
        snap.counter("retried_attempts"),
    ));
    out.push_str(&format!(
        "work: {} productive steps, {} wasted steps ({} productive execs, {} wasted execs)\n",
        snap.gauge("productive_steps"),
        snap.gauge("wasted_steps"),
        snap.gauge("productive_execs"),
        snap.gauge("wasted_execs"),
    ));
    out.push_str(&format!(
        "vm: {} executions ({} crashes, {} build failures, {} miscompiles)  interp: {} runs / {} steps\n",
        snap.counter("vm_executions"),
        snap.counter("vm_crashes"),
        snap.counter("vm_build_failures"),
        snap.counter("vm_miscompiles"),
        snap.counter("interp_runs"),
        snap.counter("interp_steps"),
    ));
    out.push_str(&format!(
        "oracle: {} pass, {} crash, {} miscompile, {} inconclusive  |  bugs found: {}\n",
        snap.counter("oracle_pass"),
        snap.counter("oracle_crash"),
        snap.counter("oracle_miscompile"),
        snap.counter("oracle_inconclusive"),
        snap.gauge("bugs_found"),
    ));

    // By self time: a span's total includes the spans nested in it, so
    // `vm_execution` would otherwise outrank every phase it contains.
    let mut spans: Vec<&SpanStat> = snap.spans.iter().collect();
    spans.sort_by(|a, b| b.self_nanos.cmp(&a.self_nanos).then(a.name.cmp(&b.name)));
    out.push_str("spans by self time:\n");
    if spans.is_empty() {
        out.push_str("  (no spans recorded)\n");
    }
    for span in spans {
        let mean = span.total_nanos.checked_div(span.count).unwrap_or(0);
        out.push_str(&format!(
            "  {:<20} self {:>10}  total {:>10} x{:<8} mean {:>9}  max {:>9}\n",
            span.name,
            fmt_duration(span.self_nanos),
            fmt_duration(span.total_nanos),
            span.count,
            fmt_duration(mean),
            fmt_duration(span.max_nanos),
        ));
    }

    let mut mutators = snap.mutators.clone();
    mutators.sort_by(|a, b| {
        b.yield_sum
            .partial_cmp(&a.yield_sum)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.name.cmp(&b.name))
    });
    out.push_str("top mutators by yield:\n");
    if mutators.is_empty() {
        out.push_str("  (no mutator activity recorded)\n");
    }
    for m in mutators.iter().take(8) {
        out.push_str(&format!(
            "  {:<20} yield {:>8.2}  accepted {}/{} (rejected {})\n",
            m.name, m.yield_sum, m.accepted, m.applies, m.rejected
        ));
    }

    if !snap.opcodes.is_empty() {
        let mut opcodes = snap.opcodes.clone();
        opcodes.sort_by(|a, b| b.nanos.cmp(&a.nanos).then(b.hits.cmp(&a.hits)));
        let total_hits: u64 = opcodes.iter().map(|o| o.hits).sum();
        out.push_str("top opcodes by sampled time:\n");
        for o in opcodes.iter().take(10) {
            let share = if total_hits > 0 {
                o.hits as f64 * 100.0 / total_hits as f64
            } else {
                0.0
            };
            out.push_str(&format!(
                "  {:<16} {:>10} sampled  {:>12} hits ({share:.1}% of instructions)\n",
                o.name,
                fmt_duration(o.nanos),
                o.hits,
            ));
        }
    }
    out
}

/// Renders the single-line live status shown on a TTY (carriage-return
/// overwritten, no trailing newline).
pub fn status_line(snap: &MetricsSnapshot) -> String {
    format!(
        "[mop] round {}/{} | {:.1} r/s | corpus {} | bugs {} | quarantine {} | retries {}",
        snap.gauge("rounds_done") as u64,
        snap.gauge("rounds_total") as u64,
        snap.rounds_per_sec(),
        snap.gauge("corpus_size") as u64,
        snap.gauge("bugs_found") as u64,
        snap.gauge("quarantine_count") as u64,
        snap.counter("retried_attempts"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Counter, Gauge, ManualClock, Session};

    fn sample_snapshot() -> MetricsSnapshot {
        let clock = ManualClock::new();
        crate::install(Session::with_clock(Box::new(clock.clone())));
        crate::count(Counter::VmExecutions, 40);
        crate::count(Counter::OraclePass, 19);
        crate::gauge(Gauge::RoundsDone, 20.0);
        crate::gauge(Gauge::RoundsTotal, 20.0);
        crate::gauge(Gauge::CorpusSize, 7.0);
        crate::mutator_outcome("Inlining", true, 3.5);
        crate::mutator_outcome("LoopPeel\"q\"", false, 0.0);
        {
            let _g = crate::span("inline", Vec::new);
            clock.advance(2_000);
        }
        clock.advance(1_000_000_000);
        crate::take().expect("session installed").snapshot()
    }

    #[test]
    fn jsonl_line_is_single_line_and_validates() {
        let line = jsonl_line(&sample_snapshot());
        assert!(!line.contains('\n'));
        crate::schema::validate_snapshot_line(&line).expect("line validates");
    }

    #[test]
    fn prometheus_page_validates_and_contains_families() {
        let page = prometheus(&sample_snapshot());
        crate::schema::validate_prometheus(&page).expect("page validates");
        assert!(page.contains("# TYPE mop_vm_executions counter"));
        assert!(page.contains("mop_vm_executions 40"));
        assert!(page.contains("# TYPE mop_span_duration_nanos histogram"));
        // 2000ns has 11 significant bits → first non-empty cumulative
        // bucket is le = 2^11 - 1.
        assert!(page.contains("mop_span_duration_nanos_bucket{span=\"inline\",le=\"1023\"} 0"));
        assert!(page.contains("mop_span_duration_nanos_bucket{span=\"inline\",le=\"2047\"} 1"));
        assert!(page.contains("mop_span_duration_nanos_bucket{span=\"inline\",le=\"+Inf\"} 1"));
        assert!(page.contains("mop_span_duration_nanos_sum{span=\"inline\"} 2000"));
        assert!(page.contains("mop_span_duration_nanos_count{span=\"inline\"} 1"));
        assert!(!page.contains("mop_span_total_nanos"));
        assert!(page.contains("mop_span_max_nanos{span=\"inline\"} 2000"));
        assert!(page.contains("mop_mutator_applies{mutator=\"LoopPeel\\\"q\\\"\"} 1"));
    }

    #[test]
    fn fleet_page_validates_and_labels_each_campaign() {
        let a = sample_snapshot();
        let b = sample_snapshot();
        let page = prometheus_fleet(&[("c0001".to_string(), a), ("c0002".to_string(), b)]);
        crate::schema::validate_prometheus(&page).expect("fleet page validates");
        // Aggregate samples sum across tenants...
        assert!(page.contains("\nmop_vm_executions 80\n"), "{page}");
        // ...and each tenant keeps its own labelled series.
        assert!(page.contains("mop_vm_executions{campaign=\"c0001\"} 40"));
        assert!(page.contains("mop_vm_executions{campaign=\"c0002\"} 40"));
        assert!(page.contains("mop_rounds_done{campaign=\"c0002\"} 20"));
        assert!(page.contains("mop_elapsed_nanos{campaign=\"c0001\"}"));
    }

    #[test]
    fn fleet_page_with_no_tenants_still_validates() {
        let page = prometheus_fleet(&[]);
        crate::schema::validate_prometheus(&page).expect("empty fleet page validates");
        assert!(page.contains("\nmop_vm_executions 0\n"));
        assert!(!page.contains("campaign="));
    }

    #[test]
    fn human_report_names_top_phase_and_mutator() {
        let report = human_report(&sample_snapshot());
        assert!(report.contains("inline"));
        assert!(report.contains("Inlining"));
        assert!(report.contains("rounds: 20 done / 20 total"));
    }

    #[test]
    fn human_report_lists_every_span_by_self_time() {
        const PHASES: [&str; 10] = [
            "inline",
            "dereflection",
            "escape_analysis",
            "lock_opts",
            "ideal_loop",
            "iterative_gvn",
            "redundant_store",
            "autobox",
            "dead_code",
            "uncommon_trap",
        ];
        let clock = ManualClock::new();
        crate::install(Session::with_clock(Box::new(clock.clone())));
        {
            // The enclosing span's total holds every phase, but its own
            // cost (1 µs) is the smallest.
            let _vm = crate::span("vm_execution", Vec::new);
            clock.advance(1_000);
            for (i, name) in PHASES.iter().enumerate() {
                let _p = crate::span(name, Vec::new);
                clock.advance(2_000 * (i as u64 + 1));
            }
        }
        let report = human_report(&crate::take().expect("session installed").snapshot());
        let lines: Vec<&str> = report
            .lines()
            .skip_while(|l| *l != "spans by self time:")
            .skip(1)
            .take_while(|l| l.starts_with("  "))
            .collect();
        let names: Vec<&str> = lines
            .iter()
            .map(|l| l.split_whitespace().next().unwrap())
            .collect();
        let mut expected: Vec<&str> = PHASES.iter().rev().copied().collect();
        expected.push("vm_execution");
        assert_eq!(names, expected, "{report}");
        assert!(
            lines[10].contains("self     1.00us  total   111.00us"),
            "{report}"
        );
    }

    #[test]
    fn status_line_is_single_line() {
        let line = status_line(&sample_snapshot());
        assert!(!line.contains('\n'));
        assert!(line.contains("round 20/20"));
        assert!(line.contains("corpus 7"));
    }

    #[test]
    fn json_f64_handles_non_finite() {
        assert_eq!(json_f64(f64::NAN), "0");
        assert_eq!(json_f64(f64::INFINITY), "0");
        assert_eq!(json_f64(2.5), "2.5");
    }

    #[test]
    fn profiled_snapshot_exports_opcodes_in_both_formats() {
        crate::install(Session::new().with_profile());
        crate::profile_opcode("Arith", 12, 3400);
        crate::profile_opcode("Load\"x\"", 7, 100);
        let snap = crate::take().unwrap().snapshot();
        let line = jsonl_line(&snap);
        crate::schema::validate_snapshot_line(&line).expect("line validates");
        assert!(line.contains("\"opcodes\":[{\"name\":\"Arith\",\"hits\":12,\"nanos\":3400}"));
        let page = prometheus(&snap);
        crate::schema::validate_prometheus(&page).expect("page validates");
        assert!(page.contains("mop_opcode_hits{opcode=\"Arith\"} 12"));
        assert!(page.contains("mop_opcode_nanos{opcode=\"Load\\\"x\\\"\"} 100"));
        let report = human_report(&snap);
        assert!(report.contains("top opcodes by sampled time:"));
        assert!(report.contains("Arith"));
    }

    #[test]
    fn trace_json_reconstructs_absolute_timestamps() {
        let clock = ManualClock::new();
        crate::install(Session::with_clock(Box::new(clock.clone())).with_trace());
        {
            let _round = crate::span("round", || vec![("round", "0".to_string())]);
            crate::work::add(100, 1);
            {
                let _a = crate::span("attempt", Vec::new);
                crate::work::add(50, 1);
            }
        }
        {
            let _round = crate::span("round", || vec![("round", "1".to_string())]);
            crate::work::add(30, 1);
        }
        let session = crate::take().unwrap();
        let json = trace_json(&session, &[("jobs", "1".to_string())]).unwrap();
        crate::schema::validate_trace(&json).expect("trace validates");
        // Round 0 opens at ts 0 for 150 steps with the attempt at +100;
        // round 1 is laid after it (one-step gap).
        assert!(
            json.contains("\"ph\":\"X\",\"ts\":100,\"dur\":50"),
            "{json}"
        );
        assert!(json.contains("\"ts\":151,\"dur\":30"), "{json}");
        assert!(json.contains("\"clock\":\"manual\""));
        assert!(json.contains("\"jobs\":\"1\""));
    }

    #[test]
    fn trace_json_is_none_without_tracing() {
        crate::install(Session::new());
        let session = crate::take().unwrap();
        assert!(trace_json(&session, &[]).is_none());
    }

    #[test]
    fn trace_json_renders_sched_lane_on_its_own_pid() {
        crate::install(Session::new().with_trace());
        crate::trace_sched_instant("dispatch", || vec![("round", "0".to_string())]);
        let session = crate::take().unwrap();
        let json = trace_json(&session, &[]).unwrap();
        crate::schema::validate_trace(&json).expect("trace validates");
        assert!(json.contains("\"pid\":1"), "{json}");
        assert!(json.contains("\"clock\":\"wall\""));
    }
}
