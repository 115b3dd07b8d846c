//! The optimization pipeline: phase scheduling, context, limits.
//!
//! The simulated JIT mirrors HotSpot's C2 structure: a fixed sequence of
//! phases applied for several *rounds*, so that one phase's rewrite changes
//! what later phases (and later rounds) see. This iteration is what makes
//! optimization *interactions* (the paper's subject) real in the model: a
//! peeled loop can be unswitched next round, an inlined synchronized callee
//! exposes a nested monitor to the lock phases, and so on.

use crate::analysis::block_size;
use crate::event::{FlagSet, OptEvent, OptEventKind};
use crate::phases;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Identifies one optimizer phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PhaseId {
    /// Method inlining (incl. synchronized-callee handling).
    Inline,
    /// Escape analysis + scalar replacement.
    Escape,
    /// Lock elimination, lock coarsening, nested-lock analysis.
    Locks,
    /// Loop unswitching, peeling, unrolling.
    Loops,
    /// GVN, constant folding, algebraic simplification.
    Gvn,
    /// Redundant store elimination.
    Store,
    /// Autobox elimination.
    Autobox,
    /// Dead code elimination.
    Dce,
    /// Reflection devirtualization.
    Dereflect,
    /// Uncommon-trap placement / deoptimization planning.
    Deopt,
}

impl PhaseId {
    /// All phases in the default C2-style order.
    pub const DEFAULT_ORDER: [PhaseId; 10] = [
        PhaseId::Inline,
        PhaseId::Dereflect,
        PhaseId::Escape,
        PhaseId::Locks,
        PhaseId::Loops,
        PhaseId::Gvn,
        PhaseId::Store,
        PhaseId::Autobox,
        PhaseId::Dce,
        PhaseId::Deopt,
    ];

    /// Human-readable phase name.
    pub fn name(&self) -> &'static str {
        match self {
            PhaseId::Inline => "inline",
            PhaseId::Escape => "escape_analysis",
            PhaseId::Locks => "lock_opts",
            PhaseId::Loops => "ideal_loop",
            PhaseId::Gvn => "iterative_gvn",
            PhaseId::Store => "redundant_store",
            PhaseId::Autobox => "autobox",
            PhaseId::Dce => "dead_code",
            PhaseId::Dereflect => "dereflection",
            PhaseId::Deopt => "uncommon_trap",
        }
    }

    /// Base of this phase's coverage-block id range (each phase owns 100
    /// ids; the simulated JVM maps them into its component coverage).
    pub fn coverage_base(&self) -> u32 {
        match self {
            PhaseId::Inline => 0,
            PhaseId::Escape => 100,
            PhaseId::Locks => 200,
            PhaseId::Loops => 300,
            PhaseId::Gvn => 400,
            PhaseId::Store => 500,
            PhaseId::Autobox => 600,
            PhaseId::Dce => 700,
            PhaseId::Dereflect => 800,
            PhaseId::Deopt => 900,
        }
    }
}

/// Tunable limits, corresponding to HotSpot options like
/// `-XX:LoopUnrollLimit` and `-XX:MaxInlineSize`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OptLimits {
    /// Maximum constant trip count fully unrolled.
    pub unroll_limit: u64,
    /// Maximum callee size (statements) eligible for inlining.
    pub inline_max_stmts: usize,
    /// Maximum number of inlinings per compilation (depth proxy).
    pub inline_budget: usize,
    /// Number of pipeline rounds.
    pub rounds: usize,
    /// Method size (statements) above which expanding phases stop.
    pub max_method_size: usize,
}

impl Default for OptLimits {
    fn default() -> OptLimits {
        OptLimits {
            unroll_limit: 8,
            inline_max_stmts: 12,
            inline_budget: 24,
            rounds: 3,
            max_method_size: 3000,
        }
    }
}

/// Mutable state threaded through the phases of one method compilation.
#[derive(Debug)]
pub struct OptCx<'p> {
    /// The whole (pre-optimization) program, for callee lookup and class
    /// layouts.
    pub program: &'p mjava::Program,
    /// Limits in force.
    pub limits: OptLimits,
    /// `Class::method` label for event attribution.
    pub method_label: String,
    /// Events emitted so far.
    pub events: Vec<OptEvent>,
    /// Coverage blocks touched (phase-relative ids offset by
    /// [`PhaseId::coverage_base`]).
    pub covered: HashSet<u32>,
    /// Remaining inline budget.
    pub inline_budget_left: usize,
    current_phase: PhaseId,
    fresh: u32,
}

impl<'p> OptCx<'p> {
    /// Creates a context for compiling one method.
    pub fn new(
        program: &'p mjava::Program,
        class_name: &str,
        method_name: &str,
        limits: OptLimits,
    ) -> OptCx<'p> {
        OptCx {
            program,
            limits,
            method_label: format!("{class_name}::{method_name}"),
            events: Vec::new(),
            covered: HashSet::new(),
            inline_budget_left: limits.inline_budget,
            current_phase: PhaseId::Inline,
            fresh: 0,
        }
    }

    /// Records an optimization behaviour.
    pub fn emit(&mut self, kind: OptEventKind, detail: impl Into<String>) {
        self.events.push(OptEvent {
            kind,
            method: self.method_label.clone(),
            detail: detail.into(),
        });
    }

    /// Records an optimization behaviour at most once per (kind, detail)
    /// pair. Observational phases (escape analysis, trap placement,
    /// nested-monitor reports) re-run every round without consuming their
    /// pattern; deduplicating keeps event counts proportional to program
    /// structure rather than to the round count.
    pub fn emit_once(&mut self, kind: OptEventKind, detail: impl AsRef<str> + Into<String>) {
        if self
            .events
            .iter()
            .any(|e| e.kind == kind && e.detail == detail.as_ref())
        {
            return;
        }
        self.emit(kind, detail);
    }

    /// Marks a coverage block of the current phase as executed.
    pub fn cover(&mut self, local_block: u32) {
        debug_assert!(local_block < 100, "phase block ids are 0..100");
        self.covered
            .insert(self.current_phase.coverage_base() + local_block);
    }

    /// Produces an optimizer-private identifier. The `$` makes collisions
    /// with mutator- and user-written names impossible (those come from
    /// `Program::fresh_name`, which never emits `$`).
    pub fn fresh(&mut self, prefix: &str) -> String {
        let n = self.fresh;
        self.fresh += 1;
        format!("{prefix}${n}")
    }

    /// Count of events of one kind emitted so far.
    pub fn count(&self, kind: OptEventKind) -> usize {
        self.events.iter().filter(|e| e.kind == kind).count()
    }
}

/// The result of optimizing one method.
#[derive(Debug, Clone)]
pub struct OptOutcome {
    /// The optimized method (same name/signature, rewritten body). A memo
    /// hit shares it with the memo's snapshot: copy on write
    /// (`Arc::make_mut`), never in place.
    pub method: Arc<mjava::Method>,
    /// Every optimization behaviour performed.
    pub events: Vec<OptEvent>,
    /// The trace log as rendered under the given flags (profile data).
    pub log: Vec<String>,
    /// Coverage blocks touched during compilation.
    pub covered: HashSet<u32>,
}

/// Optimizes one method of `program` through `phase_order`, repeated for
/// `limits.rounds` rounds.
///
/// Returns `None` when the class or method does not exist.
pub fn optimize(
    program: &mjava::Program,
    class_name: &str,
    method_name: &str,
    phase_order: &[PhaseId],
    limits: OptLimits,
    flags: &FlagSet,
) -> Option<OptOutcome> {
    let class = program.class(class_name)?;
    let mut method = class.method(method_name)?.clone();
    let mut cx = OptCx::new(program, class_name, method_name, limits);
    let _span = jtelemetry::span("optimize", || vec![("method", cx.method_label.clone())]);
    run_pipeline(&mut method, class, phase_order, &mut cx);
    let log = render_log(&cx.method_label, &cx.events, flags);
    Some(OptOutcome {
        method: Arc::new(method),
        events: cx.events,
        log,
        covered: cx.covered,
    })
}

/// Runs `phase_order` for `limits.rounds` rounds, stopping for good once
/// the method outgrows `limits.max_method_size` (no phase runs on an
/// oversized body, so it stays oversized). Returns the number of phases
/// run: the phase spans emitted are exactly the first that many entries
/// of `phase_order` repeated.
fn run_pipeline(
    method: &mut mjava::Method,
    class: &mjava::Class,
    phase_order: &[PhaseId],
    cx: &mut OptCx,
) -> usize {
    let total = phase_order.len() * cx.limits.rounds;
    let mut ran = 0;
    for &phase in phase_order.iter().cycle().take(total) {
        if block_size(&method.body) > cx.limits.max_method_size {
            break;
        }
        cx.current_phase = phase;
        run_phase(phase, method, class, cx);
        ran += 1;
    }
    ran
}

/// Renders the trace log of one compilation under `flags`.
fn render_log(method_label: &str, events: &[OptEvent], flags: &FlagSet) -> Vec<String> {
    let mut log = Vec::new();
    if flags.contains(crate::event::TraceFlag::PrintCompilation) {
        log.push(format!("Compiled method {method_label}"));
    }
    log.extend(events.iter().filter_map(|e| e.log_line(flags)));
    log
}

/// Everything a compile produces except its flag-dependent log.
/// `phases_run` lets a memo hit replay the phases' flight events and
/// spans, so flight streams and span histograms stay identical whether
/// the pipeline ran or was replayed.
struct Snapshot {
    method: Arc<mjava::Method>,
    events: Vec<OptEvent>,
    covered: HashSet<u32>,
    phases_run: usize,
}

/// One compile configuration: the memo's key. `limits` includes `rounds`.
#[derive(PartialEq, Eq, Hash)]
struct MemoKey {
    program_fp: u64,
    class: String,
    method: String,
    phase_order: Vec<PhaseId>,
    limits: OptLimits,
}

type MemoMap = HashMap<MemoKey, Arc<Snapshot>>;

/// Statistics of the process-wide pipeline memo (for benches and
/// debugging).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Finished-compile snapshots currently resident.
    pub entries: usize,
    /// [`optimize_memo`] calls served from a snapshot.
    pub hits: u64,
    /// Calls that ran the pipeline.
    pub misses: u64,
}

/// Snapshot cap (one per distinct compile); on overflow the memo is
/// flushed wholesale. Presence in the memo never affects results (a miss
/// recomputes the same state), so eviction is unobservable.
const MEMO_CAP: usize = 8_192;

static PIPELINE_MEMO: OnceLock<RwLock<MemoMap>> = OnceLock::new();
static MEMO_HITS: AtomicU64 = AtomicU64::new(0);
static MEMO_MISSES: AtomicU64 = AtomicU64::new(0);

fn memo() -> &'static RwLock<MemoMap> {
    PIPELINE_MEMO.get_or_init(|| RwLock::new(HashMap::new()))
}

fn memo_read() -> RwLockReadGuard<'static, MemoMap> {
    memo().read().unwrap_or_else(|e| e.into_inner())
}

fn memo_write() -> RwLockWriteGuard<'static, MemoMap> {
    memo().write().unwrap_or_else(|e| e.into_inner())
}

/// Empties the memo and zeroes its statistics.
#[cfg(test)]
pub fn cache_reset() {
    memo_write().clear();
    MEMO_HITS.store(0, Ordering::Relaxed);
    MEMO_MISSES.store(0, Ordering::Relaxed);
}

/// Live statistics of the process-wide pipeline memo.
pub fn cache_stats() -> CacheStats {
    CacheStats {
        entries: memo_read().len(),
        hits: MEMO_HITS.load(Ordering::Relaxed),
        misses: MEMO_MISSES.load(Ordering::Relaxed),
    }
}

/// Fingerprint (length-prefixed FNV-1a) of a program's canonical source,
/// for [`optimize_memo`]'s `program_fp` argument. Callers hash
/// `mjava::print(program)` once per program rather than once per
/// compiled method.
pub fn source_fingerprint(source: &str) -> u64 {
    let len = (source.len() as u64).to_le_bytes();
    len.iter()
        .chain(source.as_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// [`optimize`] with cross-version memoization: each finished compile is
/// published to a process-wide memo keyed by `(program fingerprint,
/// class, method, phase order, limits)`, so differential-pool JVMs that
/// share a compile configuration (and repeated runs of a corpus seed)
/// run the pipeline at most once. Hit or miss, the outcome's method is
/// the snapshot's, shared rather than copied.
///
/// `program_fp` must be a fingerprint of `program`'s canonical source
/// (`mjava::print`) — callers compute it once per program. Trace `flags`
/// only affect log rendering, never optimization decisions, so they are
/// excluded from the key and applied to the memoized events on every call.
///
/// Returns what [`optimize`] returns for the same arguments, hit or miss:
/// a compile is a function of its inputs, since no hash-order iteration
/// reaches a name, an event or the log (the crate denies
/// `clippy::iter_over_hash_type`). The telemetry matches except for
/// durations: a memo hit replays the pipeline's phase spans instead of
/// running them.
pub fn optimize_memo(
    program: &mjava::Program,
    program_fp: u64,
    class_name: &str,
    method_name: &str,
    phase_order: &[PhaseId],
    limits: OptLimits,
    flags: &FlagSet,
) -> Option<OptOutcome> {
    let class = program.class(class_name)?;
    let source = class.method(method_name)?;
    let mut cx = OptCx::new(program, class_name, method_name, limits);
    let _span = jtelemetry::span("optimize", || vec![("method", cx.method_label.clone())]);
    let key = MemoKey {
        program_fp,
        class: class_name.to_string(),
        method: method_name.to_string(),
        phase_order: phase_order.to_vec(),
        limits,
    };
    let cached = memo_read().get(&key).map(Arc::clone);
    let snapshot = match cached {
        Some(snapshot) => {
            MEMO_HITS.fetch_add(1, Ordering::Relaxed);
            for &phase in phase_order.iter().cycle().take(snapshot.phases_run) {
                drop(phase_span(phase, &cx));
            }
            snapshot
        }
        None => {
            MEMO_MISSES.fetch_add(1, Ordering::Relaxed);
            let mut method = source.clone();
            let phases_run = run_pipeline(&mut method, class, phase_order, &mut cx);
            let snapshot = Arc::new(Snapshot {
                method: Arc::new(method),
                events: std::mem::take(&mut cx.events),
                covered: std::mem::take(&mut cx.covered),
                phases_run,
            });
            let mut map = memo_write();
            let flushed = (map.len() >= MEMO_CAP).then(|| std::mem::take(&mut *map));
            map.entry(key).or_insert_with(|| Arc::clone(&snapshot));
            // Dropping a full memo is slow: release the lock first.
            drop(map);
            drop(flushed);
            snapshot
        }
    };
    Some(OptOutcome {
        method: Arc::clone(&snapshot.method),
        events: snapshot.events.clone(),
        log: render_log(&cx.method_label, &snapshot.events, flags),
        covered: snapshot.covered.clone(),
    })
}

/// A phase's flight event and span; a memo hit replays both.
fn phase_span(phase: PhaseId, cx: &OptCx) -> jtelemetry::SpanGuard {
    jtelemetry::flight(
        jtelemetry::FlightKind::Phase,
        phase.name(),
        &cx.method_label,
    );
    jtelemetry::span(phase.name(), || vec![("detail", cx.method_label.clone())])
}

fn run_phase(phase: PhaseId, method: &mut mjava::Method, class: &mjava::Class, cx: &mut OptCx) {
    let _span = phase_span(phase, cx);
    match phase {
        PhaseId::Inline => phases::inline::run(method, class, cx),
        PhaseId::Escape => phases::escape::run(method, class, cx),
        PhaseId::Locks => phases::locks::run(method, cx),
        PhaseId::Loops => phases::loops::run(method, cx),
        PhaseId::Gvn => phases::gvn::run(method, cx),
        PhaseId::Store => phases::store::run(method, cx),
        PhaseId::Autobox => phases::autobox::run(method, cx),
        PhaseId::Dce => phases::dce::run(method, cx),
        PhaseId::Dereflect => phases::dereflect::run(method, cx),
        PhaseId::Deopt => phases::deopt::run(method, cx),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_order_contains_every_phase_once() {
        let mut order = PhaseId::DEFAULT_ORDER.to_vec();
        order.sort();
        order.dedup();
        assert_eq!(order.len(), 10);
    }

    #[test]
    fn coverage_bases_are_disjoint() {
        let bases: HashSet<u32> = PhaseId::DEFAULT_ORDER
            .iter()
            .map(|p| p.coverage_base())
            .collect();
        assert_eq!(bases.len(), 10);
    }

    #[test]
    fn fresh_names_use_dollar() {
        let p = mjava::parse("class T { static void main() { } }").unwrap();
        let mut cx = OptCx::new(&p, "T", "main", OptLimits::default());
        let a = cx.fresh("u");
        let b = cx.fresh("u");
        assert_ne!(a, b);
        assert!(a.contains('$'));
    }

    #[test]
    fn optimize_missing_method_is_none() {
        let p = mjava::parse("class T { static void main() { } }").unwrap();
        assert!(optimize(
            &p,
            "T",
            "nope",
            &PhaseId::DEFAULT_ORDER,
            OptLimits::default(),
            &FlagSet::all()
        )
        .is_none());
    }

    /// A program that exercises inlining, loops, GVN, DCE, and fresh-name
    /// generation, so memoized state carries nontrivial context.
    const MEMO_SRC: &str = r#"
        class T {
            static int f(int x) { return x * 2; }
            static void main() {
                int s = 0;
                for (int i = 0; i < 4; i++) { int t = T.f(i); s = s + t; }
                synchronized (T.class) { s = s + 1; }
                System.out.println(s);
            }
        }
    "#;

    fn assert_same_outcome(a: &OptOutcome, b: &OptOutcome) {
        assert_eq!(a.method, b.method);
        assert_eq!(a.events, b.events);
        assert_eq!(a.log, b.log);
        assert_eq!(a.covered, b.covered);
    }

    /// The memo is process-global; tests that assert its statistics must
    /// not interleave.
    static MEMO_TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn memoized_optimize_matches_direct() {
        let _guard = MEMO_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let p = mjava::parse(MEMO_SRC).unwrap();
        let limits = OptLimits::default();
        let direct = optimize(
            &p,
            "T",
            "main",
            &PhaseId::DEFAULT_ORDER,
            limits,
            &FlagSet::all(),
        )
        .unwrap();
        cache_reset();
        // The cold pass (miss) and every warm pass (hit) must agree.
        for pass in 0..3 {
            let memoed = optimize_memo(
                &p,
                source_fingerprint(&mjava::print(&p)),
                "T",
                "main",
                &PhaseId::DEFAULT_ORDER,
                limits,
                &FlagSet::all(),
            )
            .unwrap();
            assert_same_outcome(&direct, &memoed);
            let stats = cache_stats();
            assert_eq!(stats.misses, 1, "only the cold pass runs (pass {pass})");
            assert_eq!(stats.hits, pass as u64, "every warm pass is a full hit");
        }
    }

    /// `optimize_memo` and `optimize` of one config of [`MEMO_SRC`].
    fn memo_and_direct(method: &str, order: &[PhaseId], limits: OptLimits) -> [OptOutcome; 2] {
        let p = mjava::parse(MEMO_SRC).unwrap();
        let fp = source_fingerprint(&mjava::print(&p));
        [
            optimize_memo(&p, fp, "T", method, order, limits, &FlagSet::all()).unwrap(),
            optimize(&p, "T", method, order, limits, &FlagSet::all()).unwrap(),
        ]
    }

    fn with_rounds(rounds: usize) -> OptLimits {
        OptLimits {
            rounds,
            ..OptLimits::default()
        }
    }

    #[test]
    fn a_miss_publishes_one_snapshot() {
        let _guard = MEMO_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        cache_reset();
        for rounds in [2, 3] {
            let before = cache_stats();
            memo_and_direct("main", &PhaseId::DEFAULT_ORDER, with_rounds(rounds));
            let after = cache_stats();
            assert_eq!(after.misses, before.misses + 1, "rounds {rounds}");
            assert_eq!(after.entries, before.entries + 1, "rounds {rounds}");
        }
    }

    #[test]
    fn round_counts_do_not_share_entries() {
        let _guard = MEMO_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        cache_reset();
        for rounds in [2, 3] {
            let [memoed, direct] =
                memo_and_direct("main", &PhaseId::DEFAULT_ORDER, with_rounds(rounds));
            assert_same_outcome(&direct, &memoed);
        }
        let stats = cache_stats();
        assert_eq!((stats.entries, stats.misses, stats.hits), (2, 2, 0));
    }

    #[test]
    fn entries_are_keyed_by_their_full_key() {
        let _guard = MEMO_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let reversed: Vec<PhaseId> = PhaseId::DEFAULT_ORDER.iter().rev().copied().collect();
        let order = &PhaseId::DEFAULT_ORDER[..];
        let base = OptLimits::default();
        let configs = [
            ("main", order, base),
            ("f", order, base),
            ("main", &reversed[..], base),
            (
                "main",
                order,
                OptLimits {
                    unroll_limit: 2,
                    ..base
                },
            ),
            (
                "main",
                order,
                OptLimits {
                    inline_max_stmts: 0,
                    ..base
                },
            ),
        ];
        cache_reset();
        // Every config is a cold miss with its own entry, and a warm pass
        // hits each one; both passes must match `optimize` of that config.
        for pass in 0..2 {
            for (n, (method, order, limits)) in configs.iter().enumerate() {
                let [memoed, direct] = memo_and_direct(method, order, *limits);
                assert_same_outcome(&direct, &memoed);
                let stats = cache_stats();
                let cold = if pass == 0 { n + 1 } else { configs.len() };
                assert_eq!(stats.misses as usize, cold, "config {n}, pass {pass}");
                assert_eq!(stats.entries, cold, "config {n}, pass {pass}");
            }
        }
        // The configs compile to pairwise different outcomes, so a lookup
        // served from another config's entry could not have matched above.
        let outcomes: Vec<(Arc<mjava::Method>, Vec<OptEvent>)> = configs
            .iter()
            .map(|(method, order, limits)| {
                let [_, direct] = memo_and_direct(method, order, *limits);
                (direct.method, direct.events)
            })
            .collect();
        for (i, a) in outcomes.iter().enumerate() {
            for b in &outcomes[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    /// Inlining freshens the callee's locals; their `inl$N` numbers reach
    /// the method, the events and the log, so they must not depend on
    /// anything but the input (hash-set order once made them vary).
    #[test]
    fn optimize_is_a_function_of_its_input() {
        let p = mjava::parse(
            r#"
            class T {
                int v;
                static int f(int x) { T t = new T(); t.v = x; int a = t.v * 3 + x; return a; }
                static void main() {
                    int s = T.f(3);
                    System.out.println(s);
                }
            }
        "#,
        )
        .unwrap();
        let once = || {
            optimize(
                &p,
                "T",
                "main",
                &PhaseId::DEFAULT_ORDER,
                OptLimits::default(),
                &FlagSet::all(),
            )
            .unwrap()
        };
        let first = once();
        assert!(
            first.events.iter().any(|e| e.detail.contains("inl$")),
            "{:?}",
            first.events
        );
        for _ in 0..20 {
            assert_same_outcome(&first, &once());
        }
    }

    #[test]
    fn optimize_trivial_method_is_stable() {
        let p = mjava::parse("class T { static void main() { System.out.println(1); } }").unwrap();
        let out = optimize(
            &p,
            "T",
            "main",
            &PhaseId::DEFAULT_ORDER,
            OptLimits::default(),
            &FlagSet::all(),
        )
        .unwrap();
        assert_eq!(out.method.body, p.classes[0].methods[0].body);
        // PrintCompilation banner is always present under all-flags.
        assert!(out.log[0].starts_with("Compiled method"));
    }
}
