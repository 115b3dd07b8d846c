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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
    pub fn emit_once(&mut self, kind: OptEventKind, detail: impl Into<String>) {
        let detail = detail.into();
        if self
            .events
            .iter()
            .any(|e| e.kind == kind && e.detail == detail)
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
    /// The optimized method (same name/signature, rewritten body).
    pub method: mjava::Method,
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
    let method = class.method(method_name)?;
    let mut method = method.clone();
    let mut cx = OptCx::new(program, class_name, method_name, limits);
    let _trace = jtelemetry::trace_span("optimize", || vec![("method", cx.method_label.clone())]);
    for _round in 0..limits.rounds {
        for &phase in phase_order {
            if block_size(&method.body) > limits.max_method_size {
                break;
            }
            cx.current_phase = phase;
            run_phase(phase, &mut method, class, &mut cx);
        }
    }
    let mut log = Vec::new();
    if flags.contains(crate::event::TraceFlag::PrintCompilation) {
        log.push(format!("Compiled method {}", cx.method_label));
    }
    for e in &cx.events {
        if let Some(line) = e.log_line(flags) {
            log.push(line);
        }
    }
    Some(OptOutcome {
        method,
        events: cx.events,
        log,
        covered: cx.covered,
    })
}

/// Compilation state at a round boundary: everything later rounds read.
/// `spans` records the exact `run_phase` sequence over the memoized rounds
/// so a memo hit can replay its telemetry spans — flight streams and span
/// histograms stay identical whether the pipeline ran or was replayed.
struct MemoState {
    method: mjava::Method,
    events: Vec<OptEvent>,
    covered: HashSet<u32>,
    inline_budget_left: usize,
    fresh: u32,
    spans: Vec<PhaseId>,
}

/// Statistics of the process-wide pipeline memo (for benches and
/// debugging).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Round-boundary snapshots currently resident.
    pub entries: usize,
    /// [`optimize_memo`] calls fully served from a snapshot.
    pub hits: u64,
    /// Calls that ran at least one pipeline round.
    pub misses: u64,
}

/// Snapshot cap; on overflow the memo is flushed wholesale. Presence in
/// the memo never affects results (a miss recomputes the same state), so
/// eviction is unobservable.
const MEMO_CAP: usize = 8_192;

static PIPELINE_MEMO: OnceLock<RwLock<HashMap<u64, Arc<MemoState>>>> = OnceLock::new();
static MEMO_HITS: AtomicU64 = AtomicU64::new(0);
static MEMO_MISSES: AtomicU64 = AtomicU64::new(0);

fn memo() -> &'static RwLock<HashMap<u64, Arc<MemoState>>> {
    PIPELINE_MEMO.get_or_init(|| RwLock::new(HashMap::new()))
}

fn memo_read() -> RwLockReadGuard<'static, HashMap<u64, Arc<MemoState>>> {
    memo().read().unwrap_or_else(|e| e.into_inner())
}

fn memo_write() -> RwLockWriteGuard<'static, HashMap<u64, Arc<MemoState>>> {
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

/// FNV-1a over the memo key ingredients.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn byte(&mut self, b: u8) {
        self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
    }
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        for b in s.bytes() {
            self.byte(b);
        }
    }
}

/// Fingerprint of a program's canonical source, for [`optimize_memo`]'s
/// `program_fp` argument. Callers hash `mjava::print(program)` once per
/// program rather than once per compiled method.
pub fn source_fingerprint(source: &str) -> u64 {
    let mut h = Fnv::new();
    h.str(source);
    h.0
}

/// Key of the compilation state after `round` rounds of this pipeline.
/// `limits.rounds` is deliberately excluded so version configs that share
/// a phase order and limits share prefixes — a 2-round JVM's final state
/// seeds rounds 0..2 of a 3-round JVM compiling the same program.
fn memo_key(
    program_fp: u64,
    class_name: &str,
    method_name: &str,
    phase_order: &[PhaseId],
    limits: &OptLimits,
    round: usize,
) -> u64 {
    let mut h = Fnv::new();
    h.u64(program_fp);
    h.str(class_name);
    h.str(method_name);
    h.u64(phase_order.len() as u64);
    for p in phase_order {
        h.byte(*p as u8);
    }
    h.u64(limits.unroll_limit);
    h.u64(limits.inline_max_stmts as u64);
    h.u64(limits.inline_budget as u64);
    h.u64(limits.max_method_size as u64);
    h.u64(round as u64);
    h.0
}

/// [`optimize`] with cross-version memoization: round-boundary compilation
/// states are published to a process-wide memo keyed by
/// `(program fingerprint, method, phase order, limits, round)`, so the
/// eight differential-pool JVMs (and repeated runs of a corpus seed)
/// re-optimize shared pipeline prefixes at most once.
///
/// `program_fp` must be a fingerprint of `program`'s canonical source
/// (`mjava::print`) — callers compute it once per program. Trace `flags`
/// only affect log rendering, never optimization decisions, so they are
/// excluded from the key and applied to the memoized events on every call.
///
/// Bit-for-bit equivalent to [`optimize`], including telemetry: a memo hit
/// replays the pipeline's phase spans instead of running them.
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
    let mut method = class.method(method_name)?.clone();
    let mut cx = OptCx::new(program, class_name, method_name, limits);
    let _trace = jtelemetry::trace_span("optimize", || vec![("method", cx.method_label.clone())]);
    let key_at = |round: usize| {
        memo_key(
            program_fp,
            class_name,
            method_name,
            phase_order,
            &limits,
            round,
        )
    };

    // Resume from the deepest memoized prefix.
    let mut start_round = 0;
    let mut prefix: Option<Arc<MemoState>> = None;
    {
        let map = memo_read();
        for round in (1..=limits.rounds).rev() {
            if let Some(state) = map.get(&key_at(round)) {
                prefix = Some(Arc::clone(state));
                start_round = round;
                break;
            }
        }
    }
    let mut spans: Vec<PhaseId> = Vec::new();
    if let Some(state) = prefix {
        for &phase in state.spans.iter() {
            let _span = jtelemetry::span(
                jtelemetry::FlightKind::Phase,
                phase.name(),
                &cx.method_label,
            );
        }
        method = state.method.clone();
        cx.events = state.events.clone();
        cx.covered = state.covered.clone();
        cx.inline_budget_left = state.inline_budget_left;
        cx.fresh = state.fresh;
        spans = state.spans.clone();
    }
    if start_round == limits.rounds {
        MEMO_HITS.fetch_add(1, Ordering::Relaxed);
    } else {
        MEMO_MISSES.fetch_add(1, Ordering::Relaxed);
    }

    for round in start_round..limits.rounds {
        for &phase in phase_order {
            if block_size(&method.body) > limits.max_method_size {
                break;
            }
            cx.current_phase = phase;
            run_phase(phase, &mut method, class, &mut cx);
            spans.push(phase);
        }
        let key = key_at(round + 1);
        let mut map = memo_write();
        if map.len() >= MEMO_CAP {
            map.clear();
        }
        map.entry(key).or_insert_with(|| {
            Arc::new(MemoState {
                method: method.clone(),
                events: cx.events.clone(),
                covered: cx.covered.clone(),
                inline_budget_left: cx.inline_budget_left,
                fresh: cx.fresh,
                spans: spans.clone(),
            })
        });
    }

    let mut log = Vec::new();
    if flags.contains(crate::event::TraceFlag::PrintCompilation) {
        log.push(format!("Compiled method {}", cx.method_label));
    }
    for e in &cx.events {
        if let Some(line) = e.log_line(flags) {
            log.push(line);
        }
    }
    Some(OptOutcome {
        method,
        events: cx.events,
        log,
        covered: cx.covered,
    })
}

fn run_phase(phase: PhaseId, method: &mut mjava::Method, class: &mjava::Class, cx: &mut OptCx) {
    let _span = jtelemetry::span(
        jtelemetry::FlightKind::Phase,
        phase.name(),
        &cx.method_label,
    );
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
                for (int i = 0; i < 4; i++) { s = s + T.f(i); }
                synchronized (T.class) { s = s + 1; }
                System.out.println(s);
            }
        }
    "#;

    fn fp(p: &mjava::Program) -> u64 {
        let mut h = Fnv::new();
        h.str(&mjava::print(p));
        h.0
    }

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
        // Cold (miss), warm (full hit), and every intermediate must agree.
        for pass in 0..3 {
            let memoed = optimize_memo(
                &p,
                fp(&p),
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

    #[test]
    fn memo_prefix_is_shared_across_round_counts() {
        let _guard = MEMO_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let p = mjava::parse(MEMO_SRC).unwrap();
        cache_reset();
        let short = OptLimits {
            rounds: 2,
            ..OptLimits::default()
        };
        let long = OptLimits {
            rounds: 3,
            ..OptLimits::default()
        };
        let a = optimize_memo(
            &p,
            fp(&p),
            "T",
            "main",
            &PhaseId::DEFAULT_ORDER,
            short,
            &FlagSet::all(),
        )
        .unwrap();
        let entries_after_short = cache_stats().entries;
        // The 3-round config resumes from the 2-round boundary; it must
        // still match a from-scratch 3-round run exactly.
        let b = optimize_memo(
            &p,
            fp(&p),
            "T",
            "main",
            &PhaseId::DEFAULT_ORDER,
            long,
            &FlagSet::all(),
        )
        .unwrap();
        let direct = optimize(
            &p,
            "T",
            "main",
            &PhaseId::DEFAULT_ORDER,
            long,
            &FlagSet::all(),
        )
        .unwrap();
        assert_same_outcome(&direct, &b);
        assert_eq!(
            cache_stats().entries,
            entries_after_short + 1,
            "resume adds exactly the round-3 boundary"
        );
        let direct_short = optimize(
            &p,
            "T",
            "main",
            &PhaseId::DEFAULT_ORDER,
            short,
            &FlagSet::all(),
        )
        .unwrap();
        assert_same_outcome(&direct_short, &a);
    }

    #[test]
    fn memo_key_separates_programs_limits_and_orders() {
        let base = memo_key(
            1,
            "T",
            "main",
            &PhaseId::DEFAULT_ORDER,
            &OptLimits::default(),
            2,
        );
        assert_ne!(
            base,
            memo_key(
                2,
                "T",
                "main",
                &PhaseId::DEFAULT_ORDER,
                &OptLimits::default(),
                2
            )
        );
        assert_ne!(
            base,
            memo_key(
                1,
                "T",
                "other",
                &PhaseId::DEFAULT_ORDER,
                &OptLimits::default(),
                2
            )
        );
        let reordered: Vec<PhaseId> = PhaseId::DEFAULT_ORDER.iter().rev().copied().collect();
        assert_ne!(
            base,
            memo_key(1, "T", "main", &reordered, &OptLimits::default(), 2)
        );
        let tuned = OptLimits {
            unroll_limit: 16,
            ..OptLimits::default()
        };
        assert_ne!(
            base,
            memo_key(1, "T", "main", &PhaseId::DEFAULT_ORDER, &tuned, 2)
        );
        assert_ne!(
            base,
            memo_key(
                1,
                "T",
                "main",
                &PhaseId::DEFAULT_ORDER,
                &OptLimits::default(),
                3
            )
        );
        // rounds is excluded on purpose: prefixes are shared across
        // configs that differ only in round count.
        let more_rounds = OptLimits {
            rounds: 7,
            ..OptLimits::default()
        };
        assert_eq!(
            base,
            memo_key(1, "T", "main", &PhaseId::DEFAULT_ORDER, &more_rounds, 2)
        );
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
