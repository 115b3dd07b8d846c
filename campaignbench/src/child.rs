//! The child processes of one run. Each starts cold (empty code cache and
//! pipeline memo), does one job, and prints `key value` lines:
//!
//! * `campaign` — `run_campaign` over a seed directory (the measured run
//!   of the in-process workloads, and their interpreter reference);
//! * `corpus` — a corpus campaign over a store, journaled (the
//!   interpreter reference of the daemon workload);
//! * `rounds` — the same rounds driven directly, either through the
//!   production `fuzz`/`differential_jobs` (`direct`) or assembled from
//!   the layers' public functions with spans (`traced`).

use crate::round::{self, Counters, Plan, RoundInput, RoundOutcome};
use crate::trace::{self, Layer};
use crate::workload;
use jvmsim::JvmSpec;
use mopfuzzer::{CampaignConfig, CampaignResult, CorpusOptions, JournalContents};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Instant, SystemTime};

/// What a campaign's accounting adds up to; equal digests mean equal
/// campaign results.
#[derive(Default)]
pub struct Totals {
    pub completed: u64,
    pub failed: u64,
    pub executions: u64,
    pub steps: u64,
    pub inconclusive: u64,
    pub promotions: u64,
    pub bugs: Vec<String>,
}

impl Totals {
    pub fn from_result(result: &CampaignResult) -> Totals {
        Totals {
            completed: result.completed_rounds() as u64,
            failed: result.errored_rounds + result.skipped_rounds,
            executions: result.executions,
            steps: result.steps,
            inconclusive: result.inconclusive_rounds,
            promotions: result.promotions.len() as u64,
            bugs: result.bugs.iter().map(|b| b.id.clone()).collect(),
        }
    }

    pub fn from_outcomes<'a>(outcomes: impl IntoIterator<Item = &'a RoundOutcome>) -> Totals {
        let mut t = Totals::default();
        for o in outcomes {
            if o.failed {
                t.failed += 1;
                continue;
            }
            t.completed += 1;
            t.executions += o.executions();
            t.steps += o.steps();
            t.inconclusive += u64::from(o.inconclusive);
            t.promotions += u64::from(o.promotion.is_some());
            for id in o.bug_ids() {
                if !t.bugs.iter().any(|b| b == id) {
                    t.bugs.push(id.to_string());
                }
            }
        }
        t
    }

    pub fn digest(&self) -> String {
        format!(
            "completed={} failed={} execs={} steps={} inconclusive={} promotions={} bugs=[{}]",
            self.completed,
            self.failed,
            self.executions,
            self.steps,
            self.inconclusive,
            self.promotions,
            self.bugs.join(",")
        )
    }
}

/// Parsed `--flag value` pairs; a flag may repeat.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("expected a --flag, got {flag:?}"))?;
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            pairs.push((name.to_string(), value.clone()));
        }
        Ok(Flags(pairs))
    }

    fn all(&self, name: &str) -> Vec<&str> {
        self.0
            .iter()
            .filter(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    fn opt(&self, name: &str) -> Option<&str> {
        self.all(name).into_iter().next()
    }

    fn str(&self, name: &str) -> Result<&str, String> {
        self.opt(name).ok_or_else(|| format!("missing --{name}"))
    }

    fn num<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        self.str(name)?.parse().map_err(|_| format!("bad --{name}"))
    }
}

pub fn main(args: &[String]) -> Result<(), String> {
    let (kind, rest) = args.split_first().ok_or("child needs a kind")?;
    let flags = Flags::parse(rest)?;
    if flags.opt("interp") == Some("1") {
        jexec::set_default_exec_mode(jexec::ExecMode::Interp);
    }
    match kind.as_str() {
        "campaign" => campaign(&flags),
        "corpus" => corpus(&flags),
        "rounds" => rounds(&flags),
        other => Err(format!("unknown child kind {other:?}")),
    }?;
    println!("rss_mb {}", crate::proc::peak_rss_mb("self").unwrap_or(0.0));
    Ok(())
}

fn pool(armed: bool) -> Vec<JvmSpec> {
    let pool = JvmSpec::differential_pool();
    if armed {
        pool
    } else {
        pool.into_iter().map(JvmSpec::without_bugs).collect()
    }
}

fn campaign(flags: &Flags) -> Result<(), String> {
    let seeds = workload::read_seeds(Path::new(flags.str("seeds")?))?;
    let rounds: usize = flags.num("rounds")?;
    let config = CampaignConfig {
        pool: pool(flags.str("armed")? == "1"),
        iterations_per_seed: flags.num("iterations")?,
        jobs: flags.num("jobs")?,
        rng_seed: flags.num("rng")?,
        ..CampaignConfig::new(rounds)
    };
    let cpu = || crate::proc::cpu_seconds("self").unwrap_or(0.0);
    let (start, cpu_start) = (Instant::now(), cpu());
    let result = mopfuzzer::run_campaign(&seeds, &config);
    let wall = start.elapsed().as_secs_f64();
    let totals = Totals::from_result(&result);
    println!("wall_s {wall}");
    println!("cpu_s {}", cpu() - cpu_start);
    println!("completed {}", totals.completed);
    println!("failed {}", totals.failed);
    println!("executions {}", totals.executions);
    println!("steps {}", totals.steps);
    println!("bugs {}", totals.bugs.join(","));
    println!("digest {}", totals.digest());
    Ok(())
}

/// The daemon's campaign for one tenant, run in process: the same
/// config the daemon builds from a `{rounds, seed, corpus}` submission.
fn corpus(flags: &Flags) -> Result<(), String> {
    let mut store = jcorpus::Store::open(Path::new(flags.str("store")?))?;
    let config = CampaignConfig {
        rng_seed: flags.num("rng")?,
        iterations_per_seed: flags.num("iterations")?,
        jobs: flags.num("jobs")?,
        ..CampaignConfig::new(flags.num("rounds")?)
    };
    let journal = PathBuf::from(flags.str("journal")?);
    let start = Instant::now();
    mopfuzzer::run_corpus_campaign(
        &mut store,
        &config,
        &CorpusOptions::default(),
        Some(&journal),
        None,
    )?;
    println!("wall_s {}", start.elapsed().as_secs_f64());
    Ok(())
}

/// A campaign over a seed directory, as rounds: round `r` fuzzes seed
/// `r % seeds` guided by pool JVM `r % pool`.
fn campaign_plan(flags: &Flags) -> Result<Plan, String> {
    let seeds = workload::read_seeds(Path::new(flags.str("seeds")?))?;
    let pool = pool(flags.str("armed")? == "1");
    let rng: u64 = flags.num("rng")?;
    let rounds = (0..flags.num::<usize>("rounds")?)
        .map(|r| {
            let seed = &seeds[r % seeds.len()];
            RoundInput {
                round: r,
                seed: seed.name.clone(),
                program: seed.program.clone(),
                rng_seed: round::round_rng_seed(rng, r, 0),
                guidance: pool[r % pool.len()].clone(),
            }
        })
        .collect();
    Ok(Plan {
        pool,
        iterations: flags.num("iterations")?,
        rounds,
        corpus: None,
    })
}

/// The rounds a journaled campaign completed, with each round's seed
/// program taken from the journal's seed snapshot or an earlier
/// promotion.
fn journal_plan(contents: &JournalContents) -> Result<Plan, String> {
    let config = &contents.config;
    let mut programs: HashMap<&str, &mjava::Program> = contents
        .seeds
        .iter()
        .map(|s| (s.name.as_str(), &s.program))
        .collect();
    let mut rounds = Vec::new();
    for record in &contents.records {
        if record.disposition == mopfuzzer::Disposition::Ok {
            let program = programs
                .get(record.seed.as_str())
                .ok_or_else(|| format!("journal round {} has an unknown seed", record.round))?;
            rounds.push(RoundInput {
                round: record.round,
                seed: record.seed.clone(),
                program: (*program).clone(),
                rng_seed: round::round_rng_seed(
                    config.rng_seed,
                    record.round,
                    record.errors.len() as u32,
                ),
                guidance: config.pool[record.round % config.pool.len()].clone(),
            });
        }
        if let Some(promotion) = &record.promotion {
            programs.insert(&promotion.name, &promotion.source);
        }
    }
    Ok(Plan {
        pool: config.pool.clone(),
        iterations: config.iterations_per_seed,
        rounds,
        corpus: contents.corpus.as_ref().map(|header| {
            (
                header.promote_threshold,
                header.baseline.iter().map(|b| b.fingerprint).collect(),
            )
        }),
    })
}

/// Files under `dir` with their size and modification time.
fn file_states(dir: &Path) -> HashMap<PathBuf, (u64, Option<SystemTime>)> {
    let mut out = HashMap::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            match entry.metadata() {
                Ok(meta) if meta.is_dir() => stack.push(path),
                Ok(meta) => {
                    out.insert(path, (meta.len(), meta.modified().ok()));
                }
                Err(_) => {}
            }
        }
    }
    out
}

/// Replays a corpus campaign's persistence: rewrites its journal record by
/// record and admits its promotions into a pristine copy of its store,
/// then saves the store. Returns (journal bytes, store bytes written).
fn persist(
    contents: &JournalContents,
    journal_out: &Path,
    store_copy: &Path,
) -> Result<(u64, u64), String> {
    trace::span(Layer::Journal, || -> Result<(), String> {
        let mut writer = mopfuzzer::JournalWriter::create(
            journal_out,
            &contents.config,
            &contents.seeds,
            contents.corpus.as_ref(),
        )?;
        contents
            .records
            .iter()
            .try_for_each(|record| writer.write_round(record))
    })?;
    let journal_bytes = std::fs::metadata(journal_out)
        .map_err(|e| format!("stat {}: {e}", journal_out.display()))?
        .len();
    let mut store = jcorpus::Store::open(store_copy)?;
    let before = file_states(store_copy);
    trace::span(Layer::JcorpusSave, || {
        for promotion in contents.records.iter().filter_map(|r| r.promotion.as_ref()) {
            store.admit(
                &promotion.name,
                &promotion.source,
                promotion.fingerprint,
                jcorpus::Provenance::Promoted,
                Some(promotion.from_seed.clone()),
            );
        }
        store.save()
    })?;
    let written = file_states(store_copy)
        .into_iter()
        .filter(|(path, state)| before.get(path) != Some(state))
        .map(|(_, (len, _))| len)
        .sum();
    Ok((journal_bytes, written))
}

fn rounds(flags: &Flags) -> Result<(), String> {
    let traced = match flags.str("mode")? {
        "traced" => true,
        "direct" => false,
        other => return Err(format!("unknown --mode {other:?}")),
    };
    let journals: Vec<JournalContents> = flags
        .all("journal")
        .into_iter()
        .map(|path| mopfuzzer::read_journal(Path::new(path)))
        .collect::<Result<_, _>>()?;
    let plans: Vec<Plan> = if journals.is_empty() {
        vec![campaign_plan(flags)?]
    } else {
        journals
            .iter()
            .map(journal_plan)
            .collect::<Result<_, _>>()?
    };
    let store_copies = flags.all("store-copy");
    if !journals.is_empty() && store_copies.len() != journals.len() {
        return Err("every --journal needs a --store-copy".to_string());
    }

    if traced {
        trace::start();
    }
    let mut counters = Counters::default();
    let mut outcomes = Vec::new();
    let start = Instant::now();
    for plan in &plans {
        let mut known = plan
            .corpus
            .as_ref()
            .map(|(_, fingerprints)| fingerprints.clone())
            .unwrap_or_default();
        for input in &plan.rounds {
            outcomes.push(if traced {
                round::assembled_round(input, plan, &mut known, &mut counters)
            } else {
                round::direct_round(input, plan, &mut known)
            });
        }
    }
    let mut journal_bytes = 0;
    let mut store_bytes = 0;
    for (i, (contents, copy)) in journals.iter().zip(&store_copies).enumerate() {
        let out = Path::new(flags.str("journal-out")?).join(format!("tenant{i}.jsonl"));
        let (journal, store) = persist(contents, &out, Path::new(copy))?;
        println!("journal_out {journal}");
        journal_bytes += journal;
        store_bytes += store;
    }
    let wall = start.elapsed().as_secs_f64();
    let summary = trace::finish();

    println!("wall_s {wall}");
    for outcome in &outcomes {
        println!("round {outcome}");
    }
    for plan_journal in &journals {
        for record in &plan_journal.records {
            println!("expected {}", RoundOutcome::from_record(record));
        }
    }
    println!("digest {}", Totals::from_outcomes(&outcomes).digest());
    // How much lowering and compilation the rounds asked for: equal
    // counts mean the assembled copy runs and compiles what production
    // does, whatever the outcomes.
    let code = jexec::threaded::cache_stats();
    let memo = jopt::pipeline::cache_stats();
    println!(
        "lookups code={} memo={}",
        code.hits + code.misses,
        memo.hits + memo.misses
    );
    if !traced {
        return Ok(());
    }
    if let Some(path) = flags.opt("spans") {
        std::fs::write(path, summary.spans_tsv()).map_err(|e| format!("write {path}: {e}"))?;
    }
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let c = &counters;
    let metrics: Vec<(&str, f64)> = vec![
        ("attributed_ms", summary.attributed_ms()),
        ("parent_self_ms", summary.parent_self_ms()),
        ("mutators.ms", summary.total_ms(Layer::Mutators)),
        ("mutators.applied", c.mutators_applied as f64),
        (
            "mutators.built_ratio",
            ratio(c.children_built, c.mutators_applied),
        ),
        ("jexec.build_ms", summary.total_ms(Layer::JexecBuild)),
        ("jexec.build_calls", c.build_calls as f64),
        ("jexec.tier0_ms", summary.total_ms(Layer::JexecTier0)),
        ("jexec.tier0_steps", c.tier0_steps as f64),
        (
            "jexec.tier0_unique_ratio",
            ratio(c.oracle_tier0_unique, c.oracle_tier0_runs),
        ),
        ("jopt.ms", summary.total_ms(Layer::Jopt)),
        ("jopt.calls", c.jopt_calls as f64),
        (
            "jopt.memo_hit_ratio",
            ratio(memo.hits, memo.hits + memo.misses),
        ),
        ("jopt.memo_entries", memo.entries as f64),
        ("jexec.install_ms", summary.total_ms(Layer::JexecInstall)),
        ("jexec.install_methods", c.install_methods as f64),
        ("jexec.final_ms", summary.total_ms(Layer::JexecFinal)),
        ("jexec.final_steps", c.final_steps as f64),
        (
            "jexec.final_unique_ratio",
            ratio(c.oracle_final_unique, c.oracle_final_runs),
        ),
        (
            "jexec.code_cache_hit_ratio",
            ratio(code.hits, code.hits + code.misses),
        ),
        ("jexec.code_cache_entries", code.entries as f64),
        ("jprofile.obv_ms", summary.total_ms(Layer::Jprofile)),
        ("jvmsim.self_ms", summary.self_ms(Layer::Jvmsim)),
        ("fuzzer.self_ms", summary.self_ms(Layer::Fuzzer)),
        ("oracle.ms", summary.total_ms(Layer::Oracle)),
        ("oracle.self_ms", summary.self_ms(Layer::Oracle)),
        ("oracle.verdicts", c.verdicts as f64),
        ("journal.append_ms", summary.total_ms(Layer::Journal)),
        ("journal.bytes", journal_bytes as f64),
        ("jcorpus.save_ms", summary.total_ms(Layer::JcorpusSave)),
        (
            "jcorpus.fingerprint_ms",
            summary.total_ms(Layer::JcorpusFingerprint),
        ),
        ("jcorpus.bytes_written", store_bytes as f64),
        ("jreduce.ms", summary.total_ms(Layer::Jreduce)),
        ("jreduce.candidates", c.reduce_candidates as f64),
        (
            "jreduce.accept_ratio",
            ratio(c.reduce_accepted, c.reduce_candidates),
        ),
    ];
    for (name, value) in metrics {
        println!("metric {name} {value}");
    }
    Ok(())
}
