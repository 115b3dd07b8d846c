//! Schema validation for the two machine-readable export formats.
//!
//! CI runs a short campaign with `--metrics-out`, then feeds the outputs
//! to `jtelemetry-check`, which calls [`validate_snapshot_line`] and
//! [`validate_prometheus`]. Validation is strict — unknown counter/gauge
//! keys, missing families, or a version bump without a schema update all
//! fail — so writer/reader drift is caught the moment it is introduced.
//!
//! This module holds the validators only; documents are read with the
//! workspace's one JSON codec, [`crate::json`].

use crate::export::PROM_PREFIX;
use crate::json::{self, Json};
use crate::metrics::{Counter, Gauge, HIST_BUCKETS, SCHEMA_VERSION};
use std::collections::BTreeMap;

fn want<'a>(obj: &'a Json, key: &str, typ: &str) -> Result<&'a Json, String> {
    let v = obj.get(key).ok_or_else(|| format!("missing key '{key}'"))?;
    if v.type_name() != typ {
        return Err(format!(
            "key '{key}': expected {typ}, got {}",
            v.type_name()
        ));
    }
    Ok(v)
}

/// A finite number: the exporters never write `inf` or `NaN`, so one in
/// a telemetry document is corruption even though the parser reads it.
fn finite(v: &Json) -> Option<f64> {
    v.as_f64().filter(|n| n.is_finite())
}

fn want_num(obj: &Json, key: &str) -> Result<f64, String> {
    finite(want(obj, key, "number")?).ok_or_else(|| format!("key '{key}': not a finite number"))
}

fn want_u64(obj: &Json, key: &str) -> Result<u64, String> {
    want(obj, key, "number")?
        .as_u64()
        .ok_or_else(|| format!("key '{key}': not a non-negative integer"))
}

fn check_key_set(obj: &Json, what: &str, expected: &[&str]) -> Result<(), String> {
    let map = match obj {
        Json::Obj(map) => map,
        _ => return Err(format!("{what}: expected object")),
    };
    for key in expected {
        if !map.contains_key(*key) {
            return Err(format!("{what}: missing key '{key}'"));
        }
    }
    for key in map.keys() {
        if !expected.contains(&key.as_str()) {
            return Err(format!("{what}: unknown key '{key}' (schema drift?)"));
        }
    }
    Ok(())
}

/// Validates one JSONL telemetry snapshot line against the current
/// schema. Strict: unknown counters/gauges or missing fields fail.
pub fn validate_snapshot_line(line: &str) -> Result<(), String> {
    let root = json::parse(line)?;
    match want(&root, "type", "string")? {
        Json::Str(s) if s == "telemetry" => {}
        other => return Err(format!("type: expected \"telemetry\", got {other:?}")),
    }
    let version = want_u64(&root, "version")?;
    if version != SCHEMA_VERSION {
        return Err(format!(
            "version: expected {SCHEMA_VERSION}, got {version} (schema drift?)"
        ));
    }
    want_num(&root, "elapsed_nanos")?;

    let counter_keys: Vec<&str> = Counter::ALL.iter().map(Counter::key).collect();
    check_key_set(
        want(&root, "counters", "object")?,
        "counters",
        &counter_keys,
    )?;
    for key in &counter_keys {
        want_num(root.get("counters").expect("checked"), key)?;
    }
    let gauge_keys: Vec<&str> = Gauge::ALL.iter().map(Gauge::key).collect();
    check_key_set(want(&root, "gauges", "object")?, "gauges", &gauge_keys)?;
    for key in &gauge_keys {
        want_num(root.get("gauges").expect("checked"), key)?;
    }

    let spans = match want(&root, "spans", "array")? {
        Json::Arr(items) => items,
        _ => unreachable!(),
    };
    for (i, span) in spans.iter().enumerate() {
        check_key_set(
            span,
            &format!("spans[{i}]"),
            &[
                "name",
                "count",
                "total_nanos",
                "self_nanos",
                "max_nanos",
                "buckets",
            ],
        )?;
        want(span, "name", "string")?;
        want_num(span, "count")?;
        want_num(span, "total_nanos")?;
        want_num(span, "self_nanos")?;
        want_num(span, "max_nanos")?;
        match want(span, "buckets", "array")? {
            Json::Arr(buckets) if buckets.len() == HIST_BUCKETS => {
                for b in buckets {
                    if finite(b).is_none() {
                        return Err(format!("spans[{i}]: non-numeric bucket"));
                    }
                }
            }
            Json::Arr(buckets) => {
                return Err(format!(
                    "spans[{i}]: expected {HIST_BUCKETS} buckets, got {}",
                    buckets.len()
                ))
            }
            _ => unreachable!(),
        }
    }

    let mutators = match want(&root, "mutators", "array")? {
        Json::Arr(items) => items,
        _ => unreachable!(),
    };
    for (i, m) in mutators.iter().enumerate() {
        check_key_set(
            m,
            &format!("mutators[{i}]"),
            &["name", "applies", "accepted", "rejected", "yield_sum"],
        )?;
        want(m, "name", "string")?;
        for key in ["applies", "accepted", "rejected", "yield_sum"] {
            want_num(m, key)?;
        }
    }

    let opcodes = match want(&root, "opcodes", "array")? {
        Json::Arr(items) => items,
        _ => unreachable!(),
    };
    for (i, o) in opcodes.iter().enumerate() {
        check_key_set(o, &format!("opcodes[{i}]"), &["name", "hits", "nanos"])?;
        want(o, "name", "string")?;
        want_num(o, "hits")?;
        want_num(o, "nanos")?;
    }

    check_key_set(
        &root,
        "snapshot",
        &[
            "type",
            "version",
            "elapsed_nanos",
            "counters",
            "gauges",
            "spans",
            "mutators",
            "opcodes",
        ],
    )
}

/// Validates a Chrome trace-event JSON document produced by
/// [`crate::export::trace_json`]: the two top-level keys, per-event key
/// sets and types, `ph` limited to complete spans (`X`) and instants
/// (`i`), lane-unique ids, and — the property Perfetto cannot check for
/// us — that every non-zero `parent` id resolves to an event on the
/// same lane (no dangling parent links).
pub fn validate_trace(text: &str) -> Result<(), String> {
    let root = json::parse(text)?;
    check_key_set(&root, "trace", &["traceEvents", "otherData"])?;
    let events = match want(&root, "traceEvents", "array")? {
        Json::Arr(items) => items,
        _ => unreachable!(),
    };
    let other = want(&root, "otherData", "object")?;
    match other.get("schema_version") {
        Some(Json::Str(v)) if *v == SCHEMA_VERSION.to_string() => {}
        Some(Json::Str(v)) => {
            return Err(format!(
                "otherData.schema_version {v} != {SCHEMA_VERSION} (schema drift?)"
            ))
        }
        _ => return Err("otherData: missing string 'schema_version'".to_string()),
    }
    match other.get("clock") {
        Some(Json::Str(v)) if v == "manual" || v == "wall" => {}
        other => {
            return Err(format!(
                "otherData.clock: expected manual|wall, got {other:?}"
            ))
        }
    }

    let mut ids: std::collections::BTreeMap<(u64, u64), ()> = std::collections::BTreeMap::new();
    let mut links: Vec<(usize, u64, u64)> = Vec::new();
    for (i, event) in events.iter().enumerate() {
        let at = |msg: String| format!("traceEvents[{i}]: {msg}");
        let ph = match want(event, "ph", "string").map_err(at)? {
            Json::Str(s) => s.clone(),
            _ => unreachable!(),
        };
        let keys: &[&str] = match ph.as_str() {
            "X" => &["name", "ph", "ts", "dur", "pid", "tid", "args"],
            "i" => &["name", "ph", "s", "ts", "pid", "tid", "args"],
            other => return Err(at(format!("bad ph '{other}' (want X or i)"))),
        };
        check_key_set(event, &format!("traceEvents[{i}]"), keys)?;
        want(event, "name", "string").map_err(at)?;
        want_num(event, "ts").map_err(at)?;
        let pid = want_u64(event, "pid").map_err(at)?;
        want_num(event, "tid").map_err(at)?;
        if ph == "X" {
            want_num(event, "dur").map_err(at)?;
        }
        let args = want(event, "args", "object").map_err(at)?;
        let id_of = |key: &str| -> Result<u64, String> {
            match args.get(key) {
                Some(Json::Str(s)) => s
                    .parse::<u64>()
                    .map_err(|_| at(format!("args.{key} '{s}' is not a u64"))),
                _ => Err(at(format!("args: missing string '{key}'"))),
            }
        };
        let id = id_of("id")?;
        let parent = id_of("parent")?;
        if id == 0 {
            return Err(at("args.id must be non-zero".to_string()));
        }
        if ids.insert((pid, id), ()).is_some() {
            return Err(at(format!("duplicate id {id} on lane {pid}")));
        }
        links.push((i, pid, parent));
    }
    for (i, pid, parent) in links {
        if parent != 0 && !ids.contains_key(&(pid, parent)) {
            return Err(format!(
                "traceEvents[{i}]: dangling parent id {parent} on lane {pid}"
            ));
        }
    }
    Ok(())
}

/// Parses the inner text of a `{...}` label set into `(key, value)` pairs,
/// undoing the exposition format's `\\`, `\"`, and `\n` escapes.
fn parse_labels(s: &str) -> Result<Vec<(String, String)>, String> {
    let bytes = s.as_bytes();
    let mut pos = 0;
    let mut out = Vec::new();
    while pos < bytes.len() {
        let start = pos;
        while pos < bytes.len() && bytes[pos] != b'=' {
            pos += 1;
        }
        if pos >= bytes.len() {
            return Err("label missing '='".to_string());
        }
        let key = s[start..pos].to_string();
        pos += 1;
        if bytes.get(pos) != Some(&b'"') {
            return Err(format!("label '{key}' value not quoted"));
        }
        pos += 1;
        let mut value = String::new();
        loop {
            match bytes.get(pos) {
                None => return Err(format!("label '{key}' value unterminated")),
                Some(b'\\') => {
                    match bytes.get(pos + 1) {
                        Some(b'"') => value.push('"'),
                        Some(b'\\') => value.push('\\'),
                        Some(b'n') => value.push('\n'),
                        _ => return Err(format!("label '{key}' has a bad escape")),
                    }
                    pos += 2;
                }
                Some(b'"') => {
                    pos += 1;
                    break;
                }
                Some(_) => {
                    let c = s[pos..].chars().next().expect("non-empty");
                    value.push(c);
                    pos += c.len_utf8();
                }
            }
        }
        out.push((key, value));
        match bytes.get(pos) {
            None => break,
            Some(b',') => pos += 1,
            _ => return Err("expected ',' between labels".to_string()),
        }
    }
    Ok(out)
}

/// Splits one exposition sample line into `(family, labels, value)`,
/// scanning the optional label set with quote/escape awareness: inside
/// a quoted label value, spaces and `}` are data and `\"`/`\\`/`\n` are
/// escapes. Unterminated quotes or label sets are rejected — which is
/// exactly what un-escaped quotes in a label value degenerate into.
fn split_sample_line(line: &str) -> Result<(&str, Option<&str>, &str), String> {
    let bytes = line.as_bytes();
    let mut pos = 0;
    while pos < bytes.len() && bytes[pos] != b' ' && bytes[pos] != b'{' {
        pos += 1;
    }
    if pos == 0 {
        return Err("sample line has no metric name".to_string());
    }
    let family = &line[..pos];
    let labels = if bytes.get(pos) == Some(&b'{') {
        let start = pos + 1;
        pos += 1;
        let mut in_quotes = false;
        loop {
            match bytes.get(pos) {
                None => {
                    return Err(if in_quotes {
                        "unterminated quote in label value (unescaped '\"'?)".to_string()
                    } else {
                        "unterminated label set".to_string()
                    })
                }
                Some(b'"') => {
                    in_quotes = !in_quotes;
                    pos += 1;
                }
                Some(b'\\') if in_quotes => {
                    pos += 1;
                    // Only an escaped quote/backslash alters scanning;
                    // other escape bytes are judged by `parse_labels`.
                    if matches!(bytes.get(pos), Some(b'"' | b'\\')) {
                        pos += 1;
                    }
                }
                Some(b'}') if !in_quotes => break,
                Some(_) => pos += 1,
            }
        }
        let text = &line[start..pos];
        pos += 1;
        Some(text)
    } else {
        None
    };
    let rest = &line[pos..];
    let Some(value) = rest.strip_prefix(' ') else {
        return Err("sample line has no value".to_string());
    };
    let value = value.trim();
    if value.is_empty() {
        return Err("sample line has no value".to_string());
    }
    Ok((family, labels, value))
}

/// Accumulated samples of one histogram series (one base family + one
/// non-`le` label combination).
#[derive(Default)]
struct HistSeries {
    /// `(le, cumulative count)` in emission order.
    buckets: Vec<(String, f64)>,
    sum: Option<f64>,
    count: Option<f64>,
}

/// Validates a Prometheus-style text page: every sample belongs to a
/// declared `# TYPE` family, every name carries the `mop_` prefix, all
/// expected families are present, histogram series are cumulative and
/// consistent (`_bucket` monotone, `+Inf` == `_count`), and
/// `mop_schema_version` matches.
pub fn validate_prometheus(page: &str) -> Result<(), String> {
    let mut declared: Vec<(String, String)> = Vec::new();
    let mut sampled: Vec<String> = Vec::new();
    let mut schema_version: Option<f64> = None;
    let mut histograms: BTreeMap<(String, String), HistSeries> = BTreeMap::new();

    for (lineno, line) in page.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        let at = |msg: String| format!("prometheus line {}: {msg}", lineno + 1);
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts
                .next()
                .ok_or_else(|| at("missing family name".to_string()))?;
            let typ = parts
                .next()
                .ok_or_else(|| at("missing family type".to_string()))?;
            if !matches!(typ, "counter" | "gauge" | "histogram") {
                return Err(at(format!("bad family type '{typ}'")));
            }
            if !name.starts_with(PROM_PREFIX) {
                return Err(at(format!("family '{name}' lacks {PROM_PREFIX} prefix")));
            }
            declared.push((name.to_string(), typ.to_string()));
            continue;
        }
        if line.starts_with('#') {
            continue; // other comments are fine
        }
        // Sample line: name[{labels}] value. The split must be
        // label-set aware: label *values* legally contain spaces and
        // '}' inside their quotes, so naive first-space / ends-with-'}'
        // parsing either rejects valid exposition or mis-splits it.
        let (family, labels_text, value_part) = split_sample_line(line).map_err(at)?;
        if !family.starts_with(PROM_PREFIX) {
            return Err(at(format!("sample '{family}' lacks {PROM_PREFIX} prefix")));
        }
        let value: f64 = value_part
            .parse()
            .map_err(|_| at(format!("bad sample value '{value_part}'")))?;
        // An exact declaration wins (so a gauge legitimately named
        // `*_count` is not mistaken for a histogram series); otherwise a
        // `_bucket`/`_sum`/`_count` suffix resolves to its histogram base.
        if declared.iter().any(|(d, _)| d == family) {
            // Labels still have to escape cleanly even when the family
            // needs no further interpretation.
            if let Some(text) = labels_text {
                parse_labels(text).map_err(at)?;
            }
            if family == format!("{PROM_PREFIX}schema_version") {
                schema_version = Some(value);
            }
            sampled.push(family.to_string());
            continue;
        }
        let hist = ["_bucket", "_sum", "_count"].iter().find_map(|suffix| {
            let base = family.strip_suffix(suffix)?;
            declared
                .iter()
                .any(|(d, t)| d == base && t == "histogram")
                .then(|| (base.to_string(), *suffix))
        });
        let Some((base, suffix)) = hist else {
            return Err(at(format!("sample '{family}' has no # TYPE declaration")));
        };
        let mut labels = match labels_text {
            Some(text) => parse_labels(text).map_err(at)?,
            None => Vec::new(),
        };
        let le = match suffix {
            "_bucket" => {
                let pos = labels
                    .iter()
                    .position(|(k, _)| k == "le")
                    .ok_or_else(|| at(format!("'{family}' bucket sample has no 'le' label")))?;
                let (_, le) = labels.remove(pos);
                if le != "+Inf" && le.parse::<f64>().is_err() {
                    return Err(at(format!("'{family}' has bad le value '{le}'")));
                }
                Some(le)
            }
            _ => None,
        };
        labels.sort();
        let series_key = labels
            .iter()
            .map(|(k, v)| format!("{k}={v:?}"))
            .collect::<Vec<_>>()
            .join(",");
        let series = histograms.entry((base.clone(), series_key)).or_default();
        match suffix {
            "_bucket" => series.buckets.push((le.expect("bucket has le"), value)),
            "_sum" => series.sum = Some(value),
            _ => series.count = Some(value),
        }
        sampled.push(base);
    }

    for ((family, series), hist) in &histograms {
        let fail = |msg: String| format!("prometheus histogram {family}{{{series}}}: {msg}");
        if hist.buckets.is_empty() {
            return Err(fail("no _bucket samples".to_string()));
        }
        for pair in hist.buckets.windows(2) {
            if pair[1].1 < pair[0].1 {
                return Err(fail(format!(
                    "buckets not cumulative: le={} count {} < le={} count {}",
                    pair[1].0, pair[1].1, pair[0].0, pair[0].1
                )));
            }
        }
        let (last_le, last_count) = hist.buckets.last().expect("non-empty");
        if last_le != "+Inf" {
            return Err(fail(format!("last bucket le is '{last_le}', not '+Inf'")));
        }
        let count = hist
            .count
            .ok_or_else(|| fail("missing _count sample".to_string()))?;
        if hist.sum.is_none() {
            return Err(fail("missing _sum sample".to_string()));
        }
        if *last_count != count {
            return Err(fail(format!(
                "+Inf bucket ({last_count}) != _count ({count})"
            )));
        }
    }

    let mut expected: Vec<String> = vec![
        format!("{PROM_PREFIX}schema_version"),
        format!("{PROM_PREFIX}elapsed_nanos"),
    ];
    expected.extend(
        Counter::ALL
            .iter()
            .map(|c| format!("{PROM_PREFIX}{}", c.key())),
    );
    expected.extend(
        Gauge::ALL
            .iter()
            .map(|g| format!("{PROM_PREFIX}{}", g.key())),
    );
    for family in &expected {
        if !sampled.iter().any(|s| s == family) {
            return Err(format!(
                "prometheus page: missing expected family '{family}' (schema drift?)"
            ));
        }
    }
    match schema_version {
        Some(v) if v == SCHEMA_VERSION as f64 => Ok(()),
        Some(v) => Err(format!(
            "prometheus page: schema_version {v} != {SCHEMA_VERSION}"
        )),
        None => Err("prometheus page: no mop_schema_version sample".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validator_rejects_wrong_version() {
        let snap = crate::metrics::MetricsSnapshot {
            schema_version: SCHEMA_VERSION + 1,
            elapsed_nanos: 0,
            counters: Counter::ALL.iter().map(|c| (c.key(), 0)).collect(),
            gauges: Gauge::ALL.iter().map(|g| (g.key(), 0.0)).collect(),
            spans: Vec::new(),
            mutators: Vec::new(),
            opcodes: Vec::new(),
        };
        let line = crate::export::jsonl_line(&snap);
        let err = validate_snapshot_line(&line).unwrap_err();
        assert!(err.contains("version"), "{err}");
    }

    #[test]
    fn validator_rejects_missing_or_non_finite_counters() {
        let snap = |skip: usize| crate::metrics::MetricsSnapshot {
            schema_version: SCHEMA_VERSION,
            elapsed_nanos: 0,
            counters: Counter::ALL
                .iter()
                .skip(skip)
                .map(|c| (c.key(), 0))
                .collect(),
            gauges: Gauge::ALL.iter().map(|g| (g.key(), 0.0)).collect(),
            spans: Vec::new(),
            mutators: Vec::new(),
            opcodes: Vec::new(),
        };
        let line = crate::export::jsonl_line(&snap(1));
        let err = validate_snapshot_line(&line).unwrap_err();
        assert!(err.contains("missing key"), "{err}");

        // The parser reads `{:?}`'s non-finite spellings, so the
        // validator has to refuse them itself.
        let valid = crate::export::jsonl_line(&snap(0));
        validate_snapshot_line(&valid).expect("valid line");
        let counter = format!("\"{}\":0", Counter::ALL[0].key());
        for bad in ["NaN", "-inf"] {
            let fixed = format!("\"{}\":{bad}", Counter::ALL[0].key());
            let line = valid.replacen(&counter, &fixed, 1);
            assert_ne!(line, valid);
            let err = validate_snapshot_line(&line).unwrap_err();
            assert!(err.contains("finite"), "{bad}: {err}");
        }
    }

    #[test]
    fn prometheus_validator_rejects_undeclared_sample() {
        let page = "mop_rogue 1\n";
        let err = validate_prometheus(page).unwrap_err();
        assert!(err.contains("no # TYPE"), "{err}");
    }

    fn minimal_page_with(extra: &str) -> String {
        let mut page = format!(
            "# TYPE {p}schema_version gauge\n{p}schema_version {v}\n\
             # TYPE {p}elapsed_nanos gauge\n{p}elapsed_nanos 0\n",
            p = PROM_PREFIX,
            v = SCHEMA_VERSION
        );
        for c in Counter::ALL {
            page.push_str(&format!(
                "# TYPE {p}{k} counter\n{p}{k} 0\n",
                p = PROM_PREFIX,
                k = c.key()
            ));
        }
        for g in Gauge::ALL {
            page.push_str(&format!(
                "# TYPE {p}{k} gauge\n{p}{k} 0\n",
                p = PROM_PREFIX,
                k = g.key()
            ));
        }
        page.push_str(extra);
        page
    }

    #[test]
    fn prometheus_validator_accepts_well_formed_histogram() {
        let page = minimal_page_with(
            "# TYPE mop_h histogram\n\
             mop_h_bucket{span=\"x\",le=\"1\"} 1\n\
             mop_h_bucket{span=\"x\",le=\"+Inf\"} 2\n\
             mop_h_sum{span=\"x\"} 40\n\
             mop_h_count{span=\"x\"} 2\n",
        );
        validate_prometheus(&page).expect("histogram validates");
    }

    #[test]
    fn prometheus_validator_rejects_non_cumulative_histogram() {
        let page = minimal_page_with(
            "# TYPE mop_h histogram\n\
             mop_h_bucket{le=\"1\"} 3\n\
             mop_h_bucket{le=\"+Inf\"} 2\n\
             mop_h_sum 40\n\
             mop_h_count 2\n",
        );
        let err = validate_prometheus(&page).unwrap_err();
        assert!(err.contains("not cumulative"), "{err}");
    }

    #[test]
    fn prometheus_validator_rejects_inf_count_mismatch() {
        let page = minimal_page_with(
            "# TYPE mop_h histogram\n\
             mop_h_bucket{le=\"+Inf\"} 2\n\
             mop_h_sum 40\n\
             mop_h_count 3\n",
        );
        let err = validate_prometheus(&page).unwrap_err();
        assert!(err.contains("!= _count"), "{err}");
    }

    #[test]
    fn prometheus_validator_requires_all_families() {
        let page = format!(
            "# TYPE {p}schema_version gauge\n{p}schema_version {v}\n",
            p = PROM_PREFIX,
            v = SCHEMA_VERSION
        );
        let err = validate_prometheus(&page).unwrap_err();
        assert!(err.contains("missing expected family"), "{err}");
    }

    #[test]
    fn prometheus_validator_accepts_spaces_and_braces_in_label_values() {
        // Escaped quotes/backslashes plus raw spaces and '}' — all legal
        // exposition — used to trip the first-space/ends-with-'}' split.
        let page = minimal_page_with(
            "# TYPE mop_x counter\n\
             mop_x{name=\"a b} c\"} 1\n\
             mop_x{name=\"q\\\"uo\\\\te\"} 2\n\
             mop_x{name=\"line\\nbreak\"} 3\n",
        );
        validate_prometheus(&page).expect("quoted label values validate");
    }

    #[test]
    fn prometheus_validator_rejects_unescaped_quote() {
        // An unescaped quote inside a value desynchronizes the quoting:
        // the scanner runs off the end of the line.
        let page = minimal_page_with("# TYPE mop_x counter\nmop_x{name=\"a\"b\"} 1\n");
        let err = validate_prometheus(&page).unwrap_err();
        assert!(
            err.contains("unterminated") || err.contains("expected ','"),
            "{err}"
        );
    }

    #[test]
    fn prometheus_validator_rejects_bad_escape_in_declared_family() {
        let page = minimal_page_with("# TYPE mop_x counter\nmop_x{name=\"a\\qb\"} 1\n");
        let err = validate_prometheus(&page).unwrap_err();
        assert!(err.contains("bad escape"), "{err}");
    }

    #[test]
    fn prometheus_validator_rejects_unterminated_label_set() {
        let page = minimal_page_with("# TYPE mop_x counter\nmop_x{name=\"a\" 1\n");
        let err = validate_prometheus(&page).unwrap_err();
        assert!(err.contains("unterminated label set"), "{err}");
    }

    fn trace_doc(events: &str) -> String {
        format!(
            "{{\"traceEvents\":[{events}],\"otherData\":{{\
             \"schema_version\":\"{SCHEMA_VERSION}\",\"clock\":\"manual\"}}}}"
        )
    }

    fn trace_event(id: u64, parent: u64) -> String {
        format!(
            "{{\"name\":\"round\",\"ph\":\"X\",\"ts\":0,\"dur\":1,\"pid\":0,\"tid\":0,\
             \"args\":{{\"id\":\"{id}\",\"parent\":\"{parent}\",\
             \"dur_steps\":\"1\",\"wall_ns\":\"0\"}}}}"
        )
    }

    #[test]
    fn trace_validator_accepts_linked_events() {
        let doc = trace_doc(&format!("{},{}", trace_event(1, 0), trace_event(2, 1)));
        validate_trace(&doc).expect("linked events validate");
    }

    #[test]
    fn trace_validator_rejects_dangling_parent() {
        let doc = trace_doc(&trace_event(2, 7));
        let err = validate_trace(&doc).unwrap_err();
        assert!(err.contains("dangling parent id 7"), "{err}");
    }

    #[test]
    fn trace_validator_rejects_duplicate_ids_and_bad_ph() {
        let doc = trace_doc(&format!("{},{}", trace_event(1, 0), trace_event(1, 0)));
        let err = validate_trace(&doc).unwrap_err();
        assert!(err.contains("duplicate id 1"), "{err}");

        let bad_ph = trace_doc(
            "{\"name\":\"x\",\"ph\":\"B\",\"ts\":0,\"dur\":0,\"pid\":0,\"tid\":0,\
             \"args\":{\"id\":\"1\",\"parent\":\"0\"}}",
        );
        let err = validate_trace(&bad_ph).unwrap_err();
        assert!(err.contains("bad ph"), "{err}");
    }

    #[test]
    fn trace_validator_rejects_schema_drift() {
        let doc = format!(
            "{{\"traceEvents\":[],\"otherData\":{{\
             \"schema_version\":\"{}\",\"clock\":\"manual\"}}}}",
            SCHEMA_VERSION + 1
        );
        let err = validate_trace(&doc).unwrap_err();
        assert!(err.contains("schema drift"), "{err}");
    }
}
