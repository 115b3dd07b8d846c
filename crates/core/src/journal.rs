//! JSONL campaign journal — the checkpoint/resume format.
//!
//! A journal is one header line (the full campaign configuration plus the
//! seed corpus, so the file is self-contained) followed by one line per
//! executed round. The writer flushes after every line, so a killed
//! campaign loses at most the round that was mid-write; the reader drops a
//! truncated trailing line and [`crate::campaign::resume_campaign`] simply
//! re-executes that round.
//!
//! Every line is JSON as the workspace's one codec, [`jtelemetry::json`],
//! writes and reads it: strings go through its escaper, and numbers keep
//! their source text, so `u64` and `f64` values round-trip exactly (floats
//! are printed with `{:?}`, Rust's shortest-exact representation, which
//! spells non-finite values `inf`, `-inf` and `NaN`).
//!
//! Since version 2, a record's coverage is **delta-encoded** against the
//! previous journaled round: rounds with no coverage write `null`, the
//! first covered round writes the full block lists, and every later one
//! writes only `{add, del}` per area. Writer and reader track the same
//! previous-coverage state, so resume stays bit-identical while journals
//! of long campaigns shrink dramatically (coverage is highly repetitive
//! round-over-round). Failed attempts also carry a flight-recorder dump
//! (the last events before the fault) and each round carries the wasted
//! step/execution totals its faulted attempts burned.

use crate::campaign::CampaignConfig;
use crate::corpus::Seed;
use crate::mutators::MutatorKind;
use crate::supervisor::{BudgetKind, RoundError, RoundFailure, SupervisorConfig};
use crate::variant::Variant;
use jcorpus::Vfs;
use jtelemetry::json::{self, quote, Json};
use jtelemetry::{FlightEvent, FlightKind};
use jvmsim::{Area, Component, CoverageMap, FaultPlan, JvmSpec, VmFault};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Bumped when the line format changes incompatibly. Version 2 added
/// delta-encoded coverage, flight-recorder dumps on failures, and
/// wasted-work accounting. Version 3 added the corpus header (store dir,
/// promotion threshold, per-entry stats baseline, pre-existing quarantine)
/// and per-round mutant-promotion records.
pub const JOURNAL_VERSION: u64 = 3;

const AREAS: [(&str, Area); 4] = [
    ("c1", Area::C1),
    ("c2", Area::C2),
    ("runtime", Area::Runtime),
    ("gc", Area::Gc),
];

/// One bug observation inside a round, before campaign-level dedup.
#[derive(Debug, Clone, PartialEq)]
pub struct BugSighting {
    /// Ground-truth bug id.
    pub id: String,
    /// Affected component.
    pub component: Component,
    /// Crash vs. miscompilation.
    pub is_crash: bool,
    /// JVM it was observed on.
    pub jvm: String,
    /// Mutation chain up to the sighting.
    pub mutators: Vec<MutatorKind>,
    /// The triggering mutant.
    pub mutant: mjava::Program,
}

/// Why a round's final mutant was promoted into the corpus.
#[derive(Debug, Clone, PartialEq)]
pub enum PromotionReason {
    /// The final OBV delta cleared the promotion threshold.
    Delta(f64),
    /// The round triggered an oracle verdict for this bug id.
    Bug(String),
}

/// A mutant promoted into the corpus by one round: the jreduce-minimized
/// program plus provenance and the simulated work the minimization cost.
/// Journaled with the round so replay re-admits the entry without
/// re-running the reduction.
#[derive(Debug, Clone, PartialEq)]
pub struct PromotionRecord {
    /// Corpus entry name (`p` + the fingerprint hex, collision-free).
    pub name: String,
    /// Behaviour fingerprint of the minimized program.
    pub fingerprint: u64,
    /// The minimized program admitted as a seed.
    pub source: mjava::Program,
    /// The seed whose fuzz run produced the mutant.
    pub from_seed: String,
    /// What earned the promotion.
    pub reason: PromotionReason,
    /// JVM executions spent minimizing + fingerprinting.
    pub execs: u64,
    /// Interpreter steps spent minimizing + fingerprinting.
    pub steps: u64,
}

/// The stats baseline of one corpus entry at campaign start, embedded in
/// the journal header so resume rebuilds the scheduler without trusting
/// the (possibly since-mutated) store.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineEntry {
    /// Entry name.
    pub name: String,
    /// Behaviour fingerprint.
    pub fingerprint: u64,
    /// Stats at campaign start.
    pub stats: jcorpus::EntryStats,
    /// Consecutive campaigns the entry's energy ended clamped at the
    /// floor, as of campaign start. Carried so a resumed campaign updates
    /// the store's GC streak exactly like the original run would have
    /// (streaks are computed from this baseline, not read-modify-write).
    /// Absent in older journals and defaults to 0.
    pub floor_streak: u64,
}

/// Corpus-mode context in the journal header: everything a resume needs to
/// reconstruct the power scheduler and quarantine exactly as the live
/// campaign started with them.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusHeader {
    /// The store directory the campaign ran over.
    pub dir: String,
    /// OBV-delta threshold for mutant promotion.
    pub promote_threshold: f64,
    /// Per-entry stats at campaign start, in store order.
    pub baseline: Vec<BaselineEntry>,
    /// Quarantine pairs inherited from earlier campaigns over the store.
    pub preq: Vec<(String, Option<MutatorKind>)>,
}

/// How a supervised round ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// The round executed and its totals count.
    Ok,
    /// Every attempt faulted; the round contributed nothing.
    Errored,
    /// The round's seed was quarantined, so it never ran.
    Skipped,
}

/// Everything one round produced — the unit of journaling and of result
/// accounting (see [`crate::supervisor::apply_record`]).
#[derive(Debug, Clone, PartialEq)]
pub struct RoundRecord {
    /// Round index.
    pub round: usize,
    /// Seed name.
    pub seed: String,
    /// How the round ended.
    pub disposition: Disposition,
    /// Executions spent fuzzing.
    pub fuzz_execs: u64,
    /// Steps spent fuzzing.
    pub fuzz_steps: u64,
    /// `(executions, steps)` of the differential stage, when it ran.
    pub diff: Option<(u64, u64)>,
    /// Final-mutant Δ (meaningful for `Ok` rounds).
    pub final_delta: f64,
    /// Whether the differential verdict was inconclusive.
    pub inconclusive: bool,
    /// Faulted attempts preceding the outcome.
    pub errors: Vec<RoundFailure>,
    /// Crash found during guidance runs, if any.
    pub crash: Option<BugSighting>,
    /// Bugs found by the differential stage.
    pub diff_bugs: Vec<BugSighting>,
    /// Coverage of the whole round (fuzzing + differential).
    pub coverage: CoverageMap,
    /// Set on `Errored` rounds: the `(seed, mutator)` pair charged with
    /// the failure (`None` mutator = the seed as a whole).
    pub fault_pair: Option<(String, Option<MutatorKind>)>,
    /// Interpreter steps burned by this round's faulted attempts.
    pub wasted_steps: u64,
    /// JVM executions burned by this round's faulted attempts.
    pub wasted_execs: u64,
    /// Corpus promotion produced by this round, if any (corpus mode only).
    pub promotion: Option<PromotionRecord>,
}

/// Appends journal lines, fsyncing each one. Tracks the previous round's
/// coverage so each record can be delta-encoded against it.
///
/// All I/O goes through a [`jcorpus::Vfs`], so chaos tests can crash the
/// journal at any write, and the real implementation makes every line
/// durable (append + file fsync) before the campaign moves on — a killed
/// campaign loses at most the line that was mid-write.
pub struct JournalWriter {
    path: PathBuf,
    fs: Arc<dyn Vfs>,
    prev_coverage: Option<CoverageMap>,
}

impl JournalWriter {
    /// Creates (or truncates) a journal at `path` and writes the header.
    /// Corpus-mode campaigns pass their [`CorpusHeader`]; plain campaigns
    /// pass `None`.
    pub fn create(
        path: &Path,
        config: &CampaignConfig,
        seeds: &[Seed],
        corpus: Option<&CorpusHeader>,
    ) -> Result<JournalWriter, String> {
        JournalWriter::create_with(path, config, seeds, corpus, jcorpus::vfs::real())
    }

    /// [`JournalWriter::create`] with all journal I/O routed through `fs`
    /// (chaos injection in tests, real fsyncs in production).
    pub fn create_with(
        path: &Path,
        config: &CampaignConfig,
        seeds: &[Seed],
        corpus: Option<&CorpusHeader>,
        fs: Arc<dyn Vfs>,
    ) -> Result<JournalWriter, String> {
        // Create-or-truncate, then persist the (possibly new) directory
        // entry before the first line is written.
        fs.write(path, b"")
            .and_then(|()| fs.fsync_file(path))
            .and_then(|()| fs.fsync_dir(jcorpus::vfs::parent_dir(path)))
            .map_err(|e| format!("journal create {}: {e}", path.display()))?;
        let mut writer = JournalWriter {
            path: path.to_path_buf(),
            fs,
            prev_coverage: None,
        };
        writer.line(&encode_header(config, seeds, corpus))?;
        Ok(writer)
    }

    /// Appends one round record as a single durable line.
    pub fn write_round(&mut self, record: &RoundRecord) -> Result<(), String> {
        let line = encode_record(record, self.prev_coverage.as_ref());
        self.line(&line)?;
        if !coverage_is_empty(&record.coverage) {
            self.prev_coverage = Some(record.coverage.clone());
        }
        Ok(())
    }

    fn line(&mut self, json: &str) -> Result<(), String> {
        let _span = jtelemetry::span("journal_append", Vec::new);
        let mut data = Vec::with_capacity(json.len() + 1);
        data.extend_from_slice(json.as_bytes());
        data.push(b'\n');
        self.fs
            .append(&self.path, &data)
            .and_then(|()| self.fs.fsync_file(&self.path))
            .map_err(|e| format!("journal write: {e}"))
    }
}

/// A parsed journal.
pub struct JournalContents {
    /// The campaign configuration from the header.
    pub config: CampaignConfig,
    /// The seed corpus from the header.
    pub seeds: Vec<Seed>,
    /// Corpus-mode context, when the campaign ran over a store.
    pub corpus: Option<CorpusHeader>,
    /// Intact round records, in round order.
    pub records: Vec<RoundRecord>,
    /// True when a truncated trailing line was dropped.
    pub truncated_tail: bool,
}

/// Reads a journal back. A mangled *final* line is tolerated (the writer
/// was killed mid-line); corruption anywhere else is an error.
pub fn read_journal(path: &Path) -> Result<JournalContents, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("journal read {}: {e}", path.display()))?;
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    let Some((&first, rest)) = lines.split_first() else {
        return Err("journal is empty".to_string());
    };
    let (config, seeds, corpus) = decode_header(first)?;
    let mut records: Vec<RoundRecord> = Vec::new();
    let mut truncated_tail = false;
    let mut prev_coverage: Option<CoverageMap> = None;
    for (i, line) in rest.iter().enumerate() {
        match json::parse(line).and_then(|v| decode_record(&v, prev_coverage.as_ref())) {
            Ok(record) => {
                if record.round != records.len() {
                    return Err(format!(
                        "journal out of order: line {} has round {}, expected {}",
                        i + 2,
                        record.round,
                        records.len()
                    ));
                }
                if !coverage_is_empty(&record.coverage) {
                    prev_coverage = Some(record.coverage.clone());
                }
                records.push(record);
            }
            Err(e) if i + 1 == rest.len() => {
                // Killed mid-write: drop the tail, the round re-executes.
                truncated_tail = true;
                let _ = e;
            }
            Err(e) => return Err(format!("journal line {}: {e}", i + 2)),
        }
    }
    Ok(JournalContents {
        config,
        seeds,
        corpus,
        records,
        truncated_tail,
    })
}

// ---- encoding ----

fn opt_u64(v: Option<u64>) -> String {
    v.map_or("null".to_string(), |n| n.to_string())
}

fn join<T>(items: &[T], f: impl Fn(&T) -> String) -> String {
    items.iter().map(f).collect::<Vec<_>>().join(",")
}

fn encode_corpus_header(corpus: &CorpusHeader) -> String {
    let baseline = join(&corpus.baseline, |b| {
        format!(
            "{{\"name\":{},\"fingerprint\":{},\"schedules\":{},\"yield_sum\":{:?},\
             \"faults\":{},\"bugs\":{},\"floor_streak\":{}}}",
            quote(&b.name),
            quote(&jcorpus::fingerprint_hex(b.fingerprint)),
            b.stats.schedules,
            b.stats.yield_sum,
            b.stats.faults,
            b.stats.bugs,
            b.floor_streak,
        )
    });
    let preq = join(&corpus.preq, |(seed, mutator)| {
        format!(
            "{{\"seed\":{},\"mutator\":{}}}",
            quote(seed),
            mutator.map_or("null".to_string(), |m| quote(&format!("{m:?}"))),
        )
    });
    format!(
        "{{\"dir\":{},\"promote_threshold\":{:?},\"baseline\":[{baseline}],\"preq\":[{preq}]}}",
        quote(&corpus.dir),
        corpus.promote_threshold,
    )
}

fn encode_header(config: &CampaignConfig, seeds: &[Seed], corpus: Option<&CorpusHeader>) -> String {
    // `round_wall_timeout_ms` is omitted (not `null`) when unset, so
    // headers written by timeout-less campaigns are byte-identical to
    // pre-timeout journals — the golden corpus stays valid.
    let supervisor = format!(
        "{{\"max_retries\":{},\"quarantine_threshold\":{},\"max_steps\":{},\
         \"max_executions\":{},\"round_step_deadline\":{}{}}}",
        config.supervisor.max_retries,
        config.supervisor.quarantine_threshold,
        opt_u64(config.supervisor.max_steps),
        opt_u64(config.supervisor.max_executions),
        opt_u64(config.supervisor.round_step_deadline),
        config
            .supervisor
            .round_wall_timeout_ms
            .map_or(String::new(), |ms| format!(
                ",\"round_wall_timeout_ms\":{ms}"
            )),
    );
    let fault = match &config.fault {
        None => "null".to_string(),
        Some(plan) => format!(
            "{{\"seed\":{},\"rate_ppm\":{},\"only\":{}}}",
            plan.seed,
            plan.rate_ppm,
            plan.only
                .map_or("null".to_string(), |k| quote(&format!("{k:?}"))),
        ),
    };
    let seeds_json = join(seeds, |s| {
        format!(
            "{{\"name\":{},\"source\":{}}}",
            quote(&s.name),
            quote(&mjava::print(&s.program))
        )
    });
    format!(
        "{{\"type\":\"header\",\"version\":{JOURNAL_VERSION},\"rounds\":{},\
         \"iterations_per_seed\":{},\"variant\":{},\"rng_seed\":{},\"pool\":[{}],\
         \"supervisor\":{},\"fault\":{},\"corpus\":{},\"seeds\":[{}]}}",
        config.rounds,
        config.iterations_per_seed,
        quote(&format!("{:?}", config.variant)),
        config.rng_seed,
        join(&config.pool, |s| quote(&s.name())),
        supervisor,
        fault,
        corpus.map_or("null".to_string(), encode_corpus_header),
        seeds_json,
    )
}

fn encode_sighting(s: &BugSighting) -> String {
    format!(
        "{{\"id\":{},\"component\":{},\"is_crash\":{},\"jvm\":{},\
         \"mutators\":[{}],\"mutant\":{}}}",
        quote(&s.id),
        quote(&format!("{:?}", s.component)),
        s.is_crash,
        quote(&s.jvm),
        join(&s.mutators, |m| quote(&format!("{m:?}"))),
        quote(&mjava::print(&s.mutant)),
    )
}

fn encode_flight(events: &[FlightEvent]) -> String {
    join(events, |e| {
        format!(
            "{{\"at\":{},\"kind\":{},\"label\":{},\"detail\":{}}}",
            e.at_steps,
            quote(e.kind.key()),
            quote(&e.label),
            quote(&e.detail),
        )
    })
}

fn encode_failure(f: &RoundFailure) -> String {
    let flight = format!(",\"flight\":[{}]", encode_flight(&f.flight));
    match &f.error {
        RoundError::MutatorPanic { mutator, message } => format!(
            "{{\"kind\":\"mutator_panic\",\"attempt\":{},\"mutator\":{},\"message\":{}{}}}",
            f.attempt,
            mutator.map_or("null".to_string(), |m| quote(&format!("{m:?}"))),
            quote(message),
            flight,
        ),
        RoundError::VmPanic { message } => format!(
            "{{\"kind\":\"vm_panic\",\"attempt\":{},\"message\":{}{}}}",
            f.attempt,
            quote(message),
            flight,
        ),
        RoundError::BuildFailure { message } => format!(
            "{{\"kind\":\"build_failure\",\"attempt\":{},\"message\":{}{}}}",
            f.attempt,
            quote(message),
            flight,
        ),
        RoundError::BudgetExhausted {
            budget,
            limit,
            used,
        } => format!(
            "{{\"kind\":\"budget\",\"attempt\":{},\"budget\":{},\"limit\":{},\"used\":{}{}}}",
            f.attempt,
            quote(budget_name(*budget)),
            limit,
            used,
            flight,
        ),
        RoundError::Timeout { limit_ms } => format!(
            "{{\"kind\":\"timeout\",\"attempt\":{},\"limit_ms\":{}{}}}",
            f.attempt, limit_ms, flight,
        ),
    }
}

fn budget_name(kind: BudgetKind) -> &'static str {
    match kind {
        BudgetKind::RoundSteps => "round_steps",
        BudgetKind::CampaignSteps => "campaign_steps",
        BudgetKind::CampaignExecutions => "campaign_executions",
    }
}

fn budget_from_name(name: &str) -> Result<BudgetKind, String> {
    match name {
        "round_steps" => Ok(BudgetKind::RoundSteps),
        "campaign_steps" => Ok(BudgetKind::CampaignSteps),
        "campaign_executions" => Ok(BudgetKind::CampaignExecutions),
        other => Err(format!("unknown budget kind {other:?}")),
    }
}

fn coverage_is_empty(map: &CoverageMap) -> bool {
    AREAS.iter().all(|&(_, area)| map.blocks(area).is_empty())
}

fn encode_coverage_full(map: &CoverageMap) -> String {
    let area = |a: Area| join(&map.blocks(a), u32::to_string);
    format!(
        "{{\"c1\":[{}],\"c2\":[{}],\"runtime\":[{}],\"gc\":[{}]}}",
        area(Area::C1),
        area(Area::C2),
        area(Area::Runtime),
        area(Area::Gc),
    )
}

/// Delta-encodes `current` against the previous journaled coverage:
/// `null` for uncovered rounds, `{"full":...}` when there is no previous
/// state, `{"delta":{area:{"add":[..],"del":[..]},...}}` otherwise.
fn encode_coverage(current: &CoverageMap, prev: Option<&CoverageMap>) -> String {
    if coverage_is_empty(current) {
        return "null".to_string();
    }
    let Some(prev) = prev else {
        return format!("{{\"full\":{}}}", encode_coverage_full(current));
    };
    let deltas = AREAS
        .iter()
        .map(|&(key, area)| {
            let old = prev.blocks(area);
            let new = current.blocks(area);
            let add: Vec<u32> = new.iter().filter(|b| !old.contains(b)).copied().collect();
            let del: Vec<u32> = old.iter().filter(|b| !new.contains(b)).copied().collect();
            format!(
                "\"{key}\":{{\"add\":[{}],\"del\":[{}]}}",
                join(&add, u32::to_string),
                join(&del, u32::to_string),
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    format!("{{\"delta\":{{{deltas}}}}}")
}

fn encode_promotion(p: &PromotionRecord) -> String {
    let reason = match &p.reason {
        PromotionReason::Delta(v) => format!("{{\"kind\":\"delta\",\"value\":{v:?}}}"),
        PromotionReason::Bug(id) => format!("{{\"kind\":\"bug\",\"id\":{}}}", quote(id)),
    };
    format!(
        "{{\"name\":{},\"fingerprint\":{},\"from_seed\":{},\"reason\":{reason},\
         \"execs\":{},\"steps\":{},\"source\":{}}}",
        quote(&p.name),
        quote(&jcorpus::fingerprint_hex(p.fingerprint)),
        quote(&p.from_seed),
        p.execs,
        p.steps,
        quote(&mjava::print(&p.source)),
    )
}

fn encode_record(r: &RoundRecord, prev_coverage: Option<&CoverageMap>) -> String {
    let disposition = match r.disposition {
        Disposition::Ok => "ok",
        Disposition::Errored => "errored",
        Disposition::Skipped => "skipped",
    };
    let diff = r.diff.map_or("null".to_string(), |(execs, steps)| {
        format!("{{\"execs\":{execs},\"steps\":{steps}}}")
    });
    let fault_pair = r.fault_pair.as_ref().map_or("null".to_string(), |(s, m)| {
        format!(
            "{{\"seed\":{},\"mutator\":{}}}",
            quote(s),
            m.map_or("null".to_string(), |m| quote(&format!("{m:?}"))),
        )
    });
    format!(
        "{{\"type\":\"round\",\"round\":{},\"seed\":{},\"disposition\":{},\
         \"fuzz_execs\":{},\"fuzz_steps\":{},\"wasted_steps\":{},\"wasted_execs\":{},\
         \"diff\":{},\"final_delta\":{:?},\
         \"inconclusive\":{},\"errors\":[{}],\"crash\":{},\"diff_bugs\":[{}],\
         \"coverage\":{},\"fault_pair\":{},\"promotion\":{}}}",
        r.round,
        quote(&r.seed),
        quote(disposition),
        r.fuzz_execs,
        r.fuzz_steps,
        r.wasted_steps,
        r.wasted_execs,
        diff,
        r.final_delta,
        r.inconclusive,
        join(&r.errors, encode_failure),
        r.crash.as_ref().map_or("null".to_string(), encode_sighting),
        join(&r.diff_bugs, encode_sighting),
        encode_coverage(&r.coverage, prev_coverage),
        fault_pair,
        r.promotion
            .as_ref()
            .map_or("null".to_string(), encode_promotion),
    )
}

// ---- decoding ----

fn req<'j>(obj: &'j Json, key: &str) -> Result<&'j Json, String> {
    obj.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

fn req_str(obj: &Json, key: &str) -> Result<String, String> {
    req(obj, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("field {key:?} is not a string"))
}

fn req_u64(obj: &Json, key: &str) -> Result<u64, String> {
    req(obj, key)?
        .as_u64()
        .ok_or_else(|| format!("field {key:?} is not a u64"))
}

fn req_usize(obj: &Json, key: &str) -> Result<usize, String> {
    usize::try_from(req_u64(obj, key)?).map_err(|_| format!("field {key:?} is too large"))
}

fn req_f64(obj: &Json, key: &str) -> Result<f64, String> {
    req(obj, key)?
        .as_f64()
        .ok_or_else(|| format!("field {key:?} is not a number"))
}

fn variant_from_name(name: &str) -> Result<Variant, String> {
    Variant::ALL
        .into_iter()
        .find(|v| format!("{v:?}") == name)
        .ok_or_else(|| format!("unknown variant {name:?}"))
}

fn mutator_from_json(v: &Json) -> Result<Option<MutatorKind>, String> {
    if v.is_null() {
        return Ok(None);
    }
    let name = v.as_str().ok_or("mutator is not a string")?;
    MutatorKind::from_debug_name(name)
        .map(Some)
        .ok_or_else(|| format!("unknown mutator {name:?}"))
}

fn vm_fault_from_name(name: &str) -> Result<VmFault, String> {
    [
        VmFault::Panic,
        VmFault::BuildFailure,
        VmFault::FuelExhaustion,
        VmFault::LogCorruption,
        VmFault::Hang,
    ]
    .into_iter()
    .find(|k| format!("{k:?}") == name)
    .ok_or_else(|| format!("unknown fault kind {name:?}"))
}

fn decode_corpus_header(v: &Json) -> Result<CorpusHeader, String> {
    let baseline = req(v, "baseline")?
        .as_arr()
        .ok_or("corpus baseline is not an array")?
        .iter()
        .map(|b| {
            Ok(BaselineEntry {
                name: req_str(b, "name")?,
                fingerprint: jcorpus::parse_fingerprint(&req_str(b, "fingerprint")?)?,
                stats: jcorpus::EntryStats {
                    schedules: req_u64(b, "schedules")?,
                    yield_sum: req_f64(b, "yield_sum")?,
                    faults: req_u64(b, "faults")?,
                    bugs: req_u64(b, "bugs")?,
                },
                floor_streak: match b.get("floor_streak") {
                    Some(f) => f.as_u64().ok_or("floor_streak is not a u64")?,
                    None => 0, // journals from before store GC existed
                },
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let preq = req(v, "preq")?
        .as_arr()
        .ok_or("corpus preq is not an array")?
        .iter()
        .map(|p| Ok((req_str(p, "seed")?, mutator_from_json(req(p, "mutator")?)?)))
        .collect::<Result<Vec<_>, String>>()?;
    Ok(CorpusHeader {
        dir: req_str(v, "dir")?,
        promote_threshold: req_f64(v, "promote_threshold")?,
        baseline,
        preq,
    })
}

type Header = (CampaignConfig, Vec<Seed>, Option<CorpusHeader>);

fn decode_header(line: &str) -> Result<Header, String> {
    let v = json::parse(line)?;
    if req_str(&v, "type")? != "header" {
        return Err("first journal line is not a header".to_string());
    }
    let version = req_u64(&v, "version")?;
    if version != JOURNAL_VERSION {
        return Err(format!(
            "journal version {version} unsupported (expected {JOURNAL_VERSION})"
        ));
    }
    let sup = req(&v, "supervisor")?;
    let opt = |key: &str| -> Result<Option<u64>, String> {
        let field = req(sup, key)?;
        if field.is_null() {
            Ok(None)
        } else {
            field
                .as_u64()
                .map(Some)
                .ok_or_else(|| format!("field {key:?} is not a u64"))
        }
    };
    let supervisor = SupervisorConfig {
        max_retries: req_u64(sup, "max_retries")? as u32,
        quarantine_threshold: req_u64(sup, "quarantine_threshold")? as u32,
        max_steps: opt("max_steps")?,
        max_executions: opt("max_executions")?,
        round_step_deadline: opt("round_step_deadline")?,
        // Written only when set (see `encode_header`), so absence — as in
        // every pre-timeout journal — reads back as None.
        round_wall_timeout_ms: match sup.get("round_wall_timeout_ms") {
            None => None,
            Some(f) if f.is_null() => None,
            Some(f) => Some(
                f.as_u64()
                    .ok_or("field \"round_wall_timeout_ms\" is not a u64")?,
            ),
        },
    };
    let fault_field = req(&v, "fault")?;
    let fault = if fault_field.is_null() {
        None
    } else {
        let only_field = req(fault_field, "only")?;
        let only = if only_field.is_null() {
            None
        } else {
            Some(vm_fault_from_name(
                only_field.as_str().ok_or("fault.only is not a string")?,
            )?)
        };
        Some(FaultPlan {
            seed: req_u64(fault_field, "seed")?,
            rate_ppm: req_u64(fault_field, "rate_ppm")? as u32,
            only,
        })
    };
    let pool = req(&v, "pool")?
        .as_arr()
        .ok_or("pool is not an array")?
        .iter()
        .map(|j| {
            let name = j.as_str().ok_or("pool entry is not a string")?;
            JvmSpec::from_name(name)
        })
        .collect::<Result<Vec<_>, _>>()?;
    let seeds = req(&v, "seeds")?
        .as_arr()
        .ok_or("seeds is not an array")?
        .iter()
        .map(|j| {
            let name = req_str(j, "name")?;
            let source = req_str(j, "source")?;
            let program =
                mjava::parse(&source).map_err(|e| format!("seed {name:?} does not parse: {e}"))?;
            Ok(Seed { name, program })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let corpus_field = req(&v, "corpus")?;
    let corpus = if corpus_field.is_null() {
        None
    } else {
        Some(decode_corpus_header(corpus_field)?)
    };
    let config = CampaignConfig {
        iterations_per_seed: req_usize(&v, "iterations_per_seed")?,
        variant: variant_from_name(&req_str(&v, "variant")?)?,
        rounds: req_usize(&v, "rounds")?,
        pool,
        rng_seed: req_u64(&v, "rng_seed")?,
        supervisor,
        fault,
        // The worker count is an execution detail, not campaign identity:
        // a journal written at any --jobs replays and resumes at any other.
        jobs: 1,
    };
    Ok((config, seeds, corpus))
}

fn decode_sighting(v: &Json) -> Result<BugSighting, String> {
    let component_name = req_str(v, "component")?;
    let component = Component::from_debug_name(&component_name)
        .ok_or_else(|| format!("unknown component {component_name:?}"))?;
    let mutators = req(v, "mutators")?
        .as_arr()
        .ok_or("mutators is not an array")?
        .iter()
        .map(|m| mutator_from_json(m)?.ok_or_else(|| "null in mutator chain".to_string()))
        .collect::<Result<Vec<_>, String>>()?;
    let source = req_str(v, "mutant")?;
    let mutant = mjava::parse(&source).map_err(|e| format!("mutant does not parse: {e}"))?;
    Ok(BugSighting {
        id: req_str(v, "id")?,
        component,
        is_crash: req(v, "is_crash")?
            .as_bool()
            .ok_or("is_crash is not a bool")?,
        jvm: req_str(v, "jvm")?,
        mutators,
        mutant,
    })
}

fn decode_flight(v: &Json) -> Result<Vec<FlightEvent>, String> {
    v.as_arr()
        .ok_or("flight is not an array")?
        .iter()
        .map(|e| {
            let kind_name = req_str(e, "kind")?;
            let kind = FlightKind::from_key(&kind_name)
                .ok_or_else(|| format!("unknown flight kind {kind_name:?}"))?;
            Ok(FlightEvent {
                at_steps: req_u64(e, "at")?,
                kind,
                label: req_str(e, "label")?,
                detail: req_str(e, "detail")?,
            })
        })
        .collect()
}

fn decode_failure(v: &Json, round: usize) -> Result<RoundFailure, String> {
    let attempt = req_u64(v, "attempt")? as u32;
    let flight = decode_flight(req(v, "flight")?)?;
    let error = match req_str(v, "kind")?.as_str() {
        "mutator_panic" => RoundError::MutatorPanic {
            mutator: mutator_from_json(req(v, "mutator")?)?,
            message: req_str(v, "message")?,
        },
        "vm_panic" => RoundError::VmPanic {
            message: req_str(v, "message")?,
        },
        "build_failure" => RoundError::BuildFailure {
            message: req_str(v, "message")?,
        },
        "budget" => RoundError::BudgetExhausted {
            budget: budget_from_name(&req_str(v, "budget")?)?,
            limit: req_u64(v, "limit")?,
            used: req_u64(v, "used")?,
        },
        "timeout" => RoundError::Timeout {
            limit_ms: req_u64(v, "limit_ms")?,
        },
        other => return Err(format!("unknown error kind {other:?}")),
    };
    Ok(RoundFailure {
        round,
        attempt,
        error,
        flight,
    })
}

fn blocks_list(v: &Json, key: &str) -> Result<Vec<u32>, String> {
    req(v, key)?
        .as_arr()
        .ok_or_else(|| format!("coverage {key:?} is not an array"))?
        .iter()
        .map(|b| {
            b.as_u64()
                .and_then(|n| u32::try_from(n).ok())
                .ok_or_else(|| format!("bad block in {key:?}"))
        })
        .collect()
}

fn decode_coverage_full(v: &Json) -> Result<CoverageMap, String> {
    let mut map = CoverageMap::new();
    for (key, area) in AREAS {
        map.mark_all(area, blocks_list(v, key)?);
    }
    Ok(map)
}

/// Inverse of [`encode_coverage`]: `null` → empty, `full` → as written,
/// `delta` → previous coverage patched with per-area add/del lists.
fn decode_coverage(v: &Json, prev: Option<&CoverageMap>) -> Result<CoverageMap, String> {
    if v.is_null() {
        return Ok(CoverageMap::new());
    }
    if let Some(full) = v.get("full") {
        return decode_coverage_full(full);
    }
    let delta = v
        .get("delta")
        .ok_or("coverage has neither full nor delta")?;
    let prev = prev.ok_or("delta coverage with no previous round to patch")?;
    let mut map = CoverageMap::new();
    for (key, area) in AREAS {
        let d = req(delta, key)?;
        let add = blocks_list(d, "add")?;
        let del = blocks_list(d, "del")?;
        let mut blocks: Vec<u32> = prev
            .blocks(area)
            .into_iter()
            .filter(|b| !del.contains(b))
            .collect();
        blocks.extend(add);
        map.mark_all(area, blocks);
    }
    Ok(map)
}

fn decode_promotion(v: &Json) -> Result<PromotionRecord, String> {
    let reason_field = req(v, "reason")?;
    let reason = match req_str(reason_field, "kind")?.as_str() {
        "delta" => PromotionReason::Delta(req_f64(reason_field, "value")?),
        "bug" => PromotionReason::Bug(req_str(reason_field, "id")?),
        other => return Err(format!("unknown promotion reason {other:?}")),
    };
    let source_text = req_str(v, "source")?;
    let source =
        mjava::parse(&source_text).map_err(|e| format!("promoted program does not parse: {e}"))?;
    Ok(PromotionRecord {
        name: req_str(v, "name")?,
        fingerprint: jcorpus::parse_fingerprint(&req_str(v, "fingerprint")?)?,
        source,
        from_seed: req_str(v, "from_seed")?,
        reason,
        execs: req_u64(v, "execs")?,
        steps: req_u64(v, "steps")?,
    })
}

fn decode_record(v: &Json, prev_coverage: Option<&CoverageMap>) -> Result<RoundRecord, String> {
    if req_str(v, "type")? != "round" {
        return Err("not a round record".to_string());
    }
    let round = req_usize(v, "round")?;
    let disposition = match req_str(v, "disposition")?.as_str() {
        "ok" => Disposition::Ok,
        "errored" => Disposition::Errored,
        "skipped" => Disposition::Skipped,
        other => return Err(format!("unknown disposition {other:?}")),
    };
    let diff_field = req(v, "diff")?;
    let diff = if diff_field.is_null() {
        None
    } else {
        Some((req_u64(diff_field, "execs")?, req_u64(diff_field, "steps")?))
    };
    let errors = req(v, "errors")?
        .as_arr()
        .ok_or("errors is not an array")?
        .iter()
        .map(|e| decode_failure(e, round))
        .collect::<Result<Vec<_>, _>>()?;
    let crash_field = req(v, "crash")?;
    let crash = if crash_field.is_null() {
        None
    } else {
        Some(decode_sighting(crash_field)?)
    };
    let diff_bugs = req(v, "diff_bugs")?
        .as_arr()
        .ok_or("diff_bugs is not an array")?
        .iter()
        .map(decode_sighting)
        .collect::<Result<Vec<_>, _>>()?;
    let pair_field = req(v, "fault_pair")?;
    let fault_pair = if pair_field.is_null() {
        None
    } else {
        Some((
            req_str(pair_field, "seed")?,
            mutator_from_json(req(pair_field, "mutator")?)?,
        ))
    };
    let promo_field = req(v, "promotion")?;
    let promotion = if promo_field.is_null() {
        None
    } else {
        Some(decode_promotion(promo_field)?)
    };
    Ok(RoundRecord {
        round,
        seed: req_str(v, "seed")?,
        disposition,
        fuzz_execs: req_u64(v, "fuzz_execs")?,
        fuzz_steps: req_u64(v, "fuzz_steps")?,
        diff,
        final_delta: req(v, "final_delta")?
            .as_f64()
            .ok_or("final_delta is not a number")?,
        inconclusive: req(v, "inconclusive")?
            .as_bool()
            .ok_or("inconclusive is not a bool")?,
        errors,
        crash,
        diff_bugs,
        coverage: decode_coverage(req(v, "coverage")?, prev_coverage)?,
        fault_pair,
        wasted_steps: req_u64(v, "wasted_steps")?,
        wasted_execs: req_u64(v, "wasted_execs")?,
        promotion,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus;

    fn sample_record(round: usize) -> RoundRecord {
        let mutant = mjava::samples::listing2().program;
        let mut coverage = CoverageMap::new();
        coverage.mark_all(Area::C2, [3, 1, 4, 1, 5]);
        coverage.mark(Area::Gc, 9);
        RoundRecord {
            round,
            seed: "listing2".to_string(),
            disposition: Disposition::Ok,
            fuzz_execs: 42,
            fuzz_steps: 123_456,
            diff: Some((8, 98_765)),
            final_delta: 13.625,
            inconclusive: true,
            errors: vec![
                RoundFailure {
                    round,
                    attempt: 0,
                    error: RoundError::MutatorPanic {
                        mutator: Some(MutatorKind::Inlining),
                        message: "mop-fault:mutator:Inlining: \"quoted\"\nline".to_string(),
                    },
                    flight: vec![
                        FlightEvent {
                            at_steps: 0,
                            kind: FlightKind::Round,
                            label: "attempt".to_string(),
                            detail: "round 3 attempt 0".to_string(),
                        },
                        FlightEvent {
                            at_steps: 512,
                            kind: FlightKind::Mutator,
                            label: "Inlining".to_string(),
                            detail: "iteration 2".to_string(),
                        },
                    ],
                },
                RoundFailure {
                    round,
                    attempt: 1,
                    error: RoundError::BudgetExhausted {
                        budget: BudgetKind::RoundSteps,
                        limit: 10,
                        used: u64::MAX,
                    },
                    flight: Vec::new(),
                },
                RoundFailure {
                    round,
                    attempt: 2,
                    error: RoundError::Timeout { limit_ms: 750 },
                    flight: Vec::new(),
                },
            ],
            crash: Some(BugSighting {
                id: "H205".to_string(),
                component: Component::IdealLoopOptimizationC2,
                is_crash: true,
                jvm: "HotSpur-17".to_string(),
                mutators: vec![MutatorKind::LoopPeeling, MutatorKind::Inlining],
                mutant: mutant.clone(),
            }),
            diff_bugs: vec![BugSighting {
                id: "J101".to_string(),
                component: Component::OtherJit,
                is_crash: false,
                jvm: "J9-8".to_string(),
                mutators: vec![],
                mutant,
            }],
            coverage,
            fault_pair: Some(("listing2".to_string(), None)),
            wasted_steps: 4_321,
            wasted_execs: 7,
            promotion: Some(PromotionRecord {
                name: "p00000000deadbeef".to_string(),
                fingerprint: 0xdead_beef,
                source: mjava::samples::listing2().program,
                from_seed: "listing2".to_string(),
                reason: PromotionReason::Delta(21.5),
                execs: 17,
                steps: 9_876,
            }),
        }
    }

    fn sample_config() -> CampaignConfig {
        let mut config = CampaignConfig::new(7);
        config.rng_seed = u64::MAX - 3; // exercise exact u64 round-trip
        config.supervisor.max_steps = Some(123);
        config.supervisor.round_wall_timeout_ms = Some(250);
        config.fault = Some(FaultPlan::new(5, 0.05).with_only(VmFault::LogCorruption));
        config
    }

    #[test]
    fn record_roundtrips_exactly() {
        let record = sample_record(3);
        let line = encode_record(&record, None);
        let decoded = decode_record(&json::parse(&line).unwrap(), None).unwrap();
        assert_eq!(decoded, record);
        // RoundFailure equality ignores flight dumps, so check them by hand.
        for (d, r) in decoded.errors.iter().zip(&record.errors) {
            assert_eq!(d.flight, r.flight);
        }
    }

    #[test]
    fn coverage_delta_encoding_roundtrips_and_shrinks() {
        let first = sample_record(0);
        let mut second = sample_record(1);
        // Second round: one block leaves, one arrives, the rest repeat.
        second.coverage = first.coverage.clone();
        second.coverage.mark(Area::C1, 77);
        let mut third = sample_record(2);
        third.coverage = second.coverage.clone();

        let line0 = encode_record(&first, None);
        let line1 = encode_record(&second, Some(&first.coverage));
        let line2 = encode_record(&third, Some(&second.coverage));
        assert!(line0.contains("\"full\""), "first covered round is full");
        assert!(line1.contains("\"delta\""), "second round is a delta");
        assert!(
            line2.contains("\"delta\":{\"c1\":{\"add\":[],\"del\":[]}"),
            "unchanged coverage is an empty delta: {line2}"
        );

        let d0 = decode_record(&json::parse(&line0).unwrap(), None).unwrap();
        let d1 = decode_record(&json::parse(&line1).unwrap(), Some(&d0.coverage)).unwrap();
        let d2 = decode_record(&json::parse(&line2).unwrap(), Some(&d1.coverage)).unwrap();
        assert_eq!(d1, second);
        assert_eq!(d2, third);

        // A delta with no previous round is corruption, not a guess.
        assert!(decode_record(&json::parse(&line1).unwrap(), None).is_err());
    }

    #[test]
    fn empty_coverage_rounds_do_not_disturb_the_delta_chain() {
        let covered = sample_record(0);
        let mut errored = sample_record(1);
        errored.disposition = Disposition::Errored;
        errored.coverage = CoverageMap::new();
        let mut after = sample_record(2);
        after.coverage = covered.coverage.clone();

        let dir = std::env::temp_dir().join("mopfuzzer-journal-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("delta-chain.jsonl");
        let config = sample_config();
        let seeds: Vec<Seed> = corpus::builtin().into_iter().take(1).collect();
        let mut writer = JournalWriter::create(&path, &config, &seeds, None).unwrap();
        for r in [&covered, &errored, &after] {
            writer.write_round(r).unwrap();
        }
        drop(writer);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[2].contains("\"coverage\":null"), "errored round");
        assert!(lines[3].contains("\"delta\""), "deltas skip the null round");
        let contents = read_journal(&path).unwrap();
        assert_eq!(contents.records, vec![covered, errored, after]);
        std::fs::remove_file(&path).ok();
    }

    fn sample_corpus_header() -> CorpusHeader {
        CorpusHeader {
            dir: "/tmp/some store \"dir\"".to_string(),
            promote_threshold: 17.25,
            baseline: vec![
                BaselineEntry {
                    name: "listing2".to_string(),
                    fingerprint: u64::MAX - 9,
                    stats: jcorpus::EntryStats {
                        schedules: 4,
                        yield_sum: 51.375,
                        faults: 1,
                        bugs: 2,
                    },
                    floor_streak: 3,
                },
                BaselineEntry {
                    name: "p0000000000000001".to_string(),
                    fingerprint: 1,
                    stats: jcorpus::EntryStats::default(),
                    floor_streak: 0,
                },
            ],
            preq: vec![
                ("gen_000".to_string(), None),
                ("listing2".to_string(), Some(MutatorKind::Inlining)),
            ],
        }
    }

    #[test]
    fn corpus_header_roundtrips_exactly() {
        let config = sample_config();
        let seeds: Vec<Seed> = corpus::builtin().into_iter().take(2).collect();
        let header = sample_corpus_header();
        let line = encode_header(&config, &seeds, Some(&header));
        let (_, _, dcorpus) = decode_header(&line).unwrap();
        assert_eq!(dcorpus, Some(header));
        // Plain campaigns journal a null corpus and read back None.
        let plain = encode_header(&config, &seeds, None);
        let (_, _, dcorpus) = decode_header(&plain).unwrap();
        assert_eq!(dcorpus, None);
    }

    #[test]
    fn header_roundtrips_exactly() {
        let config = sample_config();
        let seeds: Vec<Seed> = corpus::builtin().into_iter().take(3).collect();
        let line = encode_header(&config, &seeds, None);
        let (dconfig, dseeds, _) = decode_header(&line).unwrap();
        assert_eq!(dconfig.iterations_per_seed, config.iterations_per_seed);
        assert_eq!(dconfig.variant, config.variant);
        assert_eq!(dconfig.rounds, config.rounds);
        assert_eq!(dconfig.rng_seed, config.rng_seed);
        assert_eq!(dconfig.supervisor, config.supervisor);
        assert_eq!(dconfig.fault, config.fault);
        assert_eq!(
            dconfig.pool.iter().map(JvmSpec::name).collect::<Vec<_>>(),
            config.pool.iter().map(JvmSpec::name).collect::<Vec<_>>()
        );
        assert_eq!(dseeds.len(), seeds.len());
        for (d, s) in dseeds.iter().zip(&seeds) {
            assert_eq!(d.name, s.name);
            assert_eq!(d.program, s.program);
        }
    }

    #[test]
    fn journal_file_roundtrip_and_truncation_tolerance() {
        let dir = std::env::temp_dir().join("mopfuzzer-journal-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.jsonl");
        let config = sample_config();
        let seeds: Vec<Seed> = corpus::builtin().into_iter().take(2).collect();
        let records = [sample_record(0), sample_record(1)];
        let mut writer = JournalWriter::create(&path, &config, &seeds, None).unwrap();
        for r in &records {
            writer.write_round(r).unwrap();
        }
        drop(writer);
        let contents = read_journal(&path).unwrap();
        assert!(!contents.truncated_tail);
        assert_eq!(contents.records, records);
        assert_eq!(contents.seeds.len(), 2);

        // Chop the last line in half: reader drops it, keeps the rest.
        let text = std::fs::read_to_string(&path).unwrap();
        let cut = text.trim_end().len() - 40;
        std::fs::write(&path, &text[..cut]).unwrap();
        let contents = read_journal(&path).unwrap();
        assert!(contents.truncated_tail);
        assert_eq!(contents.records, records[..1]);

        // Corruption in the middle is an error, not silently dropped.
        let lines: Vec<&str> = text.lines().collect();
        let mangled = format!("{}\n{}\n{}\n", lines[0], "{broken", lines[2]);
        std::fs::write(&path, mangled).unwrap();
        assert!(read_journal(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn out_of_order_rounds_are_rejected() {
        let dir = std::env::temp_dir().join("mopfuzzer-journal-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("order.jsonl");
        let config = sample_config();
        let seeds: Vec<Seed> = corpus::builtin().into_iter().take(1).collect();
        let mut writer = JournalWriter::create(&path, &config, &seeds, None).unwrap();
        writer.write_round(&sample_record(0)).unwrap();
        writer.write_round(&sample_record(5)).unwrap();
        writer.write_round(&sample_record(1)).unwrap();
        drop(writer);
        // Bad round index in the middle → hard error (only a bad *tail*
        // may be dropped).
        assert!(read_journal(&path).is_err());
        std::fs::remove_file(&path).ok();
    }
}
