//! Integration test of the `mopfuzzer` CLI binary (the `MopFuzzer.jar`
//! analogue of the paper's Appendix A.5).

use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mopfuzzer"))
}

#[test]
fn help_prints_usage() {
    let out = bin().arg("--help").output().expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("--project_path"));
    assert!(text.contains("--enable_profile_guide"));
}

#[test]
fn unknown_option_fails_with_usage() {
    let out = bin().args(["--bogus", "1"]).output().expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown option"));
}

#[test]
fn removed_oracle_jobs_flag_points_at_jobs() {
    let out = bin()
        .args(["--oracle-jobs", "2", "--rounds", "1"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--jobs"), "{stderr}");
}

/// Corpus campaigns run serially: `--jobs 2` on a corpus campaign, or on
/// `--resume` of a corpus journal, exits non-zero naming `--jobs`, and
/// writes nothing.
#[test]
fn corpus_campaign_refuses_parallel_jobs() {
    let dir = std::env::temp_dir().join(format!("mop_cli_corpus_jobs_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = dir.join("store");
    let journal = dir.join("campaign.jsonl");
    std::fs::create_dir_all(&dir).unwrap();
    let out = bin()
        .args(["corpus", "init", store.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let campaign = |jobs: &str| {
        bin()
            .args([
                "--rounds",
                "1",
                "--iterations",
                "4",
                "--corpus",
                store.to_str().unwrap(),
                "--journal",
                journal.to_str().unwrap(),
                "--jobs",
                jobs,
            ])
            .output()
            .expect("binary runs")
    };
    let out = campaign("2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{stderr}");
    assert!(stderr.contains("--jobs"), "{stderr}");
    assert!(!journal.exists(), "a refused campaign created its journal");

    let out = campaign("1");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let written = std::fs::read(&journal).unwrap();
    let out = bin()
        .args(["--resume", journal.to_str().unwrap(), "--jobs", "2"])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{stderr}");
    assert!(stderr.contains("--jobs"), "{stderr}");
    assert_eq!(std::fs::read(&journal).unwrap(), written);

    std::fs::remove_dir_all(&dir).ok();
}

/// The fenced code blocks of README.md and DESIGN.md, with the file each
/// came from.
fn doc_code_blocks() -> Vec<(&'static str, String)> {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut blocks = Vec::new();
    for file in ["README.md", "DESIGN.md"] {
        let text = std::fs::read_to_string(root.join(file)).expect("doc readable");
        let mut current: Option<String> = None;
        for line in text.lines() {
            if line.trim_start().starts_with("```") {
                match current.take() {
                    Some(block) => blocks.push((file, block)),
                    None => current = Some(String::new()),
                }
            } else if let Some(block) = &mut current {
                block.push_str(line);
                block.push('\n');
            }
        }
    }
    blocks
}

/// True when `text` holds `word` not followed by another word character.
fn mentions(text: &str, word: &str) -> bool {
    text.match_indices(word).any(|(at, _)| {
        !text[at + word.len()..]
            .starts_with(|c: char| c.is_ascii_alphanumeric() || c == '-' || c == '_')
    })
}

/// Every `--flag` on a `mopfuzzer` command line in the docs' code blocks
/// is one `mopfuzzer --help` lists: a documented flag cannot be dead.
#[test]
fn documented_flags_are_accepted_by_the_cli() {
    let out = bin().arg("--help").output().expect("binary runs");
    let help = String::from_utf8_lossy(&out.stderr);
    let mut checked = 0;
    for (file, block) in doc_code_blocks() {
        for line in block.replace("\\\n", " ").lines() {
            let code = line.split('#').next().unwrap_or("");
            let words: Vec<&str> = code.split_whitespace().collect();
            let Some(at) = words.iter().enumerate().position(|(i, w)| {
                (*w == "mopfuzzer" || w.ends_with("/mopfuzzer"))
                    && (i == 0 || !matches!(words[i - 1], "-p" | "--package"))
            }) else {
                continue;
            };
            for word in &words[at + 1..] {
                // `serve` hands the rest to mopfuzzerd; shell syntax ends
                // the command.
                if matches!(*word, "serve" | "|" | "&&" | ";" | ">" | "2>&1") {
                    break;
                }
                let Some(name) = word.strip_prefix("--").filter(|n| !n.is_empty()) else {
                    continue;
                };
                let flag = format!("--{}", name.split('=').next().unwrap_or(name));
                assert!(
                    mentions(&help, &flag),
                    "{file}: `{flag}` in `{line}` is not in mopfuzzer --help"
                );
                checked += 1;
            }
        }
    }
    assert!(checked >= 10, "found only {checked} documented flags");
}

/// Every `MOPFUZZER_*` environment variable the docs name is read
/// somewhere in the crates' sources.
#[test]
fn documented_environment_variables_exist() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut sources = String::new();
    let mut stack = vec![root.join("crates")];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n != "target") {
                    stack.push(path);
                }
            } else if path.extension().is_some_and(|e| e == "rs") {
                sources.push_str(&std::fs::read_to_string(&path).unwrap());
            }
        }
    }
    let prefix = "MOPFUZZER_";
    for file in ["README.md", "DESIGN.md"] {
        let text = std::fs::read_to_string(root.join(file)).unwrap();
        for (at, _) in text.match_indices(prefix) {
            let name: String = text[at..]
                .chars()
                .take_while(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || *c == '_')
                .collect();
            assert!(
                mentions(&sources, &name),
                "{file} documents {name}, but no crate reads it"
            );
        }
    }
}

#[test]
fn fuzzes_a_project_directory_and_writes_mutants() {
    let dir = std::env::temp_dir().join(format!("mop_cli_{}", std::process::id()));
    let proj = dir.join("proj");
    let out_dir = dir.join("mutants");
    std::fs::create_dir_all(&proj).unwrap();
    std::fs::write(
        proj.join("Test0001.java"),
        r#"
        class T {
            static int s;
            static void main() {
                for (int i = 0; i < 1_000; i++) { s = s + i % 5; }
                System.out.println(s);
            }
        }
        "#,
    )
    .unwrap();

    let out = bin()
        .args([
            "--project_path",
            proj.to_str().unwrap(),
            "--target_case",
            "Test0001",
            "--jdk",
            "HotSpur-17,J9-17",
            "--enable_profile_guide",
            "true",
            "--iterations",
            "6",
            "--out",
            out_dir.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stdout: {stdout}\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("Test0001"));

    // The final mutant was written and is a valid MiniJava program.
    let mutant =
        std::fs::read_to_string(out_dir.join("Test0001_final.java")).expect("mutant file written");
    mjava::parse(&mutant).expect("mutant parses");
    // The per-case log records the applied mutators and the verdict.
    let log = std::fs::read_to_string(out_dir.join("Test0001.log")).expect("log written");
    assert!(log.contains("verdict:"));
    assert!(log.contains("iter"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn campaign_mode_journals_and_resume_replays_identically() {
    let dir = std::env::temp_dir().join(format!("mop_cli_camp_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("campaign.jsonl");
    let campaign_args = [
        "--rounds",
        "3",
        "--iterations",
        "8",
        "--rng",
        "2024",
        "--jdk",
        "HotSpur-17,J9-17",
        "--journal",
        journal.to_str().unwrap(),
    ];

    let out = bin().args(campaign_args).output().expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stdout: {stdout}\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("supervised rounds"));
    let done_line = stdout
        .lines()
        .find(|l| l.starts_with("done:"))
        .expect("summary printed")
        .to_string();

    // The journal holds a header plus one line per round.
    let text = std::fs::read_to_string(&journal).expect("journal written");
    assert_eq!(text.lines().count(), 4, "{text}");

    // Truncate the journal to 2 of 3 rounds; resume re-runs the rest and
    // reports the identical totals.
    let kept: Vec<&str> = text.lines().take(3).collect();
    std::fs::write(&journal, kept.join("\n")).unwrap();
    let out = bin()
        .args(["--resume", journal.to_str().unwrap()])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stdout: {stdout}\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains(&done_line),
        "{stdout}\nexpected: {done_line}"
    );
    // The resumed journal is whole again.
    let text = std::fs::read_to_string(&journal).unwrap();
    assert_eq!(text.lines().count(), 4);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_with_larger_rounds_extends_a_finished_campaign() {
    let dir = std::env::temp_dir().join(format!("mop_cli_extend_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("campaign.jsonl");
    let out = bin()
        .args([
            "--rounds",
            "2",
            "--iterations",
            "6",
            "--jdk",
            "HotSpur-17,J9-17",
            "--journal",
            journal.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    assert_eq!(
        std::fs::read_to_string(&journal).unwrap().lines().count(),
        3,
        "header + 2 rounds"
    );

    // The campaign is finished; --resume alone would replay and stop.
    // With a larger --rounds it extends to the new total.
    let out = bin()
        .args(["--resume", journal.to_str().unwrap(), "--rounds", "5"])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stdout: {stdout}\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("extending to 5 total round(s)"), "{stdout}");
    assert!(stdout.contains("5 round(s) completed"), "{stdout}");
    let text = std::fs::read_to_string(&journal).unwrap();
    assert_eq!(text.lines().count(), 6, "header + 5 rounds");
    // The rewritten header carries the extended total, so a further plain
    // resume does not shrink the campaign back.
    assert!(
        text.lines().next().unwrap().contains("\"rounds\":5"),
        "{text}"
    );

    // Shrinking below the journaled rounds is refused.
    let out = bin()
        .args(["--resume", journal.to_str().unwrap(), "--rounds", "1"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot shrink"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn metrics_out_writes_valid_snapshots_and_prometheus() {
    let dir = std::env::temp_dir().join(format!("mop_cli_metrics_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let metrics = dir.join("metrics.jsonl");
    let out = bin()
        .args([
            "--rounds",
            "3",
            "--iterations",
            "6",
            "--jdk",
            "HotSpur-17,J9-17",
            "--metrics-out",
            metrics.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stdout: {stdout}\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // End-of-campaign human report on stdout.
    assert!(stdout.contains("== telemetry report =="), "{stdout}");
    assert!(stdout.contains("spans by self time:"), "{stdout}");

    // One snapshot per round plus the final flush, every line valid.
    let text = std::fs::read_to_string(&metrics).expect("metrics written");
    assert_eq!(text.lines().count(), 4, "{text}");
    for line in text.lines() {
        jtelemetry::schema::validate_snapshot_line(line).expect("snapshot line valid");
    }
    let prom = std::fs::read_to_string(dir.join("metrics.jsonl.prom")).expect("prom written");
    jtelemetry::schema::validate_prometheus(&prom).expect("prometheus page valid");
    assert!(prom.contains("mop_rounds_ok 3"), "{prom}");

    // The report lists every span the campaign recorded — every optimizer
    // phase among them — not only the largest few.
    let recorded: Vec<&str> = prom
        .lines()
        .filter_map(|l| l.strip_prefix("mop_span_self_nanos{span=\""))
        .filter_map(|l| l.split('"').next())
        .collect();
    for phase in jopt::PhaseId::DEFAULT_ORDER {
        assert!(
            recorded.contains(&phase.name()),
            "{phase:?} not recorded: {prom}"
        );
    }
    let report = stdout
        .split("spans by self time:\n")
        .nth(1)
        .expect("report section");
    for span in recorded {
        assert!(
            report
                .lines()
                .any(|l| l.split_whitespace().next() == Some(span)),
            "span {span} missing from the report:\n{stdout}"
        );
    }

    std::fs::remove_dir_all(&dir).ok();
}

/// A corpus campaign's `--metrics-out` page times every layer a round
/// passes through, from mutation to the journal append, so the cost split
/// comes from the program itself.
#[test]
fn metrics_out_names_a_span_for_every_layer() {
    const LAYERS: [&str; 17] = [
        "fuzz",
        "mutate",
        "obv",
        "image_build",
        "tier0",
        "optimize",
        "program_fp",
        "install",
        "final_exec",
        "vm_execution",
        "differential",
        "reduce",
        "fingerprint",
        "store_save",
        "journal_append",
        "interp_run",
        "lower",
    ];
    let dir = std::env::temp_dir().join(format!("mop_cli_layers_{}", std::process::id()));
    let store = dir.join("store");
    std::fs::create_dir_all(&dir).unwrap();
    let init = bin()
        .args(["corpus", "init", store.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(init.status.success());
    let metrics = dir.join("metrics.jsonl");
    let out = bin()
        .args(["--rounds", "2", "--iterations", "4", "--rng", "3"])
        .args([
            "--corpus",
            store.to_str().unwrap(),
            "--promote-threshold",
            "1",
        ])
        .args(["--journal", dir.join("j.jsonl").to_str().unwrap()])
        .args(["--metrics-out", metrics.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let prom = std::fs::read_to_string(dir.join("metrics.jsonl.prom")).expect("prom written");
    for layer in LAYERS {
        let count = format!("mop_span_duration_nanos_count{{span=\"{layer}\"}} ");
        let line = prom.lines().find(|l| l.starts_with(&count));
        assert!(
            line.is_some_and(|l| !l.ends_with(" 0")),
            "no {layer} span: {prom}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_out_writes_a_perfetto_loadable_trace() {
    let dir = std::env::temp_dir().join(format!("mop_cli_trace_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("trace.json");
    let out = bin()
        .args([
            "--rounds",
            "3",
            "--iterations",
            "6",
            "--jdk",
            "HotSpur-17,J9-17",
            "--jobs",
            "2",
            "--profile",
            "--trace-out",
            trace.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stdout: {stdout}\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("trace: "), "{stdout}");

    let json = std::fs::read_to_string(&trace).expect("trace written");
    jtelemetry::schema::validate_trace(&json).expect("trace valid");
    // The campaign left round, optimizer, and interpreter spans in the
    // export, and the otherData records the worker count.
    assert!(json.contains("\"round\""), "{json}");
    assert!(json.contains("\"optimize\""), "{json}");
    assert!(json.contains("\"interp_run\""), "{json}");
    assert!(json.contains("\"jobs\":\"2\""), "{json}");

    std::fs::remove_dir_all(&dir).ok();
}

/// `--metrics-out -` and `--trace-out -` stream machine-readable output
/// to stdout; every stdout line must stay parseable (human banner,
/// report, and summary all move to stderr).
#[test]
fn streaming_to_stdout_keeps_the_stream_clean() {
    let out = bin()
        .args([
            "--rounds",
            "3",
            "--iterations",
            "6",
            "--jdk",
            "HotSpur-17,J9-17",
            "--profile",
            "--metrics-out",
            "-",
            "--trace-out",
            "-",
        ])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stdout: {stdout}\nstderr: {stderr}");

    let mut snapshots = 0;
    let mut traces = 0;
    for line in stdout.lines() {
        if line.starts_with("{\"traceEvents\"") {
            jtelemetry::schema::validate_trace(line).expect("trace line valid");
            traces += 1;
        } else {
            jtelemetry::schema::validate_snapshot_line(line)
                .unwrap_or_else(|e| panic!("non-machine stdout line {line:?}: {e}"));
            snapshots += 1;
        }
    }
    // One snapshot per round plus the final flush, then the trace.
    assert_eq!(snapshots, 4, "{stdout}");
    assert_eq!(traces, 1, "{stdout}");

    // The human-facing lines went to stderr instead.
    assert!(stderr.contains("campaign:"), "{stderr}");
    assert!(stderr.contains("== telemetry report =="), "{stderr}");
    assert!(stderr.contains("done:"), "{stderr}");
}

#[test]
fn campaign_budget_flag_stops_early() {
    let out = bin()
        .args(["--rounds", "50", "--iterations", "5", "--max-execs", "1"])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("stopped early"), "{stdout}");
}

#[test]
fn round_timeout_flag_reaches_the_journal_header() {
    let dir = std::env::temp_dir().join(format!("mop_cli_timeout_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("campaign.jsonl");
    let out = bin()
        .args([
            "--rounds",
            "2",
            "--iterations",
            "6",
            "--jdk",
            "HotSpur-17,J9-17",
            "--round-timeout",
            "30000",
            "--journal",
            journal.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&journal).unwrap();
    assert!(
        text.lines()
            .next()
            .unwrap()
            .contains("\"round_wall_timeout_ms\":30000"),
        "{text}"
    );
    // A resume inherits the limit from the header and replays cleanly.
    let out = bin()
        .args(["--resume", journal.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(out.status.success());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corpus_fsck_reports_and_repairs_crash_damage() {
    let dir = std::env::temp_dir().join(format!("mop_cli_fsck_{}", std::process::id()));
    let store = dir.join("store");
    std::fs::create_dir_all(&dir).unwrap();
    let out = bin()
        .args(["corpus", "init", store.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // A clean store fscks clean.
    let out = bin()
        .args(["corpus", "fsck", store.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("clean"));

    // Simulate a crash mid-atomic-write: a stale tmp file in the store.
    std::fs::write(store.join("manifest.tmp"), "half-written").unwrap();
    let out = bin()
        .args(["corpus", "fsck", store.to_str().unwrap(), "--json"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success(), "damage without --repair must fail");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"type\":\"jcorpus-fsck\""), "{stdout}");
    assert!(stdout.contains("\"clean\":false"), "{stdout}");

    // --repair fixes it and exits 0; the store is clean again.
    let out = bin()
        .args(["corpus", "fsck", store.to_str().unwrap(), "--repair"])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stdout: {stdout}\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("repaired"), "{stdout}");
    assert!(!store.join("manifest.tmp").exists());
    let out = bin()
        .args(["corpus", "fsck", store.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(out.status.success());

    std::fs::remove_dir_all(&dir).ok();
}

/// Regression: `--resume` on a journal whose corpus header names a store
/// directory that no longer exists must fail with a clear, typed CLI
/// error and a non-zero exit — not an opaque I/O error.
#[test]
fn resume_with_missing_corpus_store_fails_clearly() {
    let dir = std::env::temp_dir().join(format!("mop_cli_gone_store_{}", std::process::id()));
    let store = dir.join("store");
    let journal = dir.join("campaign.jsonl");
    std::fs::create_dir_all(&dir).unwrap();
    let out = bin()
        .args(["corpus", "init", store.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = bin()
        .args([
            "--rounds",
            "1",
            "--iterations",
            "4",
            "--corpus",
            store.to_str().unwrap(),
            "--journal",
            journal.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The store vanishes between the run and the resume.
    std::fs::remove_dir_all(&store).unwrap();
    let out = bin()
        .args(["--resume", journal.to_str().unwrap()])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "resume must fail\nstderr: {stderr}");
    assert!(stderr.contains("error: cannot resume"), "{stderr}");
    assert!(
        stderr.contains(store.to_str().unwrap()),
        "the message must name the missing store: {stderr}"
    );
    assert!(stderr.contains("--corpus"), "{stderr}");

    std::fs::remove_dir_all(&dir).ok();
}

/// SIGINT mid-campaign: the binary finishes the round in flight, flushes
/// the journal, exits 0 with a resume hint — and `--resume` then converges
/// to the byte-identical journal of an uninterrupted run.
#[cfg(unix)]
#[test]
fn sigint_is_graceful_and_resume_converges_bit_identically() {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    const SIGINT: i32 = 2;

    let dir = std::env::temp_dir().join(format!("mop_cli_sigint_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("campaign.jsonl");
    let baseline = dir.join("baseline.jsonl");
    let args = |journal: &std::path::Path| {
        vec![
            "--rounds".to_string(),
            "40".to_string(),
            "--iterations".to_string(),
            "6".to_string(),
            "--rng".to_string(),
            "7".to_string(),
            "--jdk".to_string(),
            "HotSpur-17,J9-17".to_string(),
            "--jobs".to_string(),
            "1".to_string(),
            "--journal".to_string(),
            journal.to_str().unwrap().to_string(),
        ]
    };

    // The uninterrupted reference run.
    let out = bin().args(args(&baseline)).output().expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let expected = std::fs::read(&baseline).unwrap();
    let done_line = String::from_utf8_lossy(&out.stdout)
        .lines()
        .find(|l| l.starts_with("done:"))
        .expect("summary printed")
        .to_string();

    // Interrupt a second run once its journal proves a round completed.
    let child = bin()
        .args(args(&journal))
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("binary spawns");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    loop {
        let lines = std::fs::read_to_string(&journal)
            .map(|t| t.lines().count())
            .unwrap_or(0);
        if lines >= 2 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "campaign never journaled a round"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    unsafe {
        assert_eq!(kill(child.id() as i32, SIGINT), 0);
    }
    let out = child.wait_with_output().expect("child exits");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "graceful interrupt must exit 0\nstdout: {stdout}\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("interrupted: stopped at a round boundary"),
        "{stdout}"
    );
    assert!(stdout.contains("--resume"), "{stdout}");

    // The interrupted journal is a clean prefix: header + whole lines only.
    let text = std::fs::read_to_string(&journal).unwrap();
    let kept = text.lines().count();
    assert!((2..=41).contains(&kept), "{kept} lines");
    assert!(text.ends_with('\n'), "no torn trailing line");

    // Resume converges to the uninterrupted bytes and totals.
    let out = bin()
        .args(["--resume", journal.to_str().unwrap()])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stdout: {stdout}\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains(&done_line),
        "{stdout}\nexpected: {done_line}"
    );
    assert_eq!(std::fs::read(&journal).unwrap(), expected);

    std::fs::remove_dir_all(&dir).ok();
}

/// `--enable_profile_guide` takes exactly `true` or `false`: a mistyped
/// value must fail rather than silently run the guided campaign.
#[test]
fn enable_profile_guide_rejects_other_values() {
    for value in ["False", "0", "no"] {
        let out = bin()
            .args(["--rounds", "1", "--iterations", "1"])
            .args(["--enable_profile_guide", value])
            .output()
            .expect("binary runs");
        assert!(!out.status.success(), "{value:?} was accepted");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("bad --enable_profile_guide"), "{stderr}");
    }
}

#[test]
fn rejects_bad_jvm_spec() {
    let out = bin()
        .args(["--jdk", "Frobnicator-17"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown family"));
}

#[test]
fn j9_mainline_is_rejected() {
    let out = bin()
        .args(["--jdk", "J9-mainline"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("J9 ships versions"));
}
