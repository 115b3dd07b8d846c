//! The threaded-code execution substrate: the fast twin of [`crate::interp`].
//!
//! [`lower`] translates a method's [`Code`] once into a flat array of
//! pre-decoded, pre-resolved [`Op`]s:
//!
//! * local and static slots are bounds-checked at lowering time (invalid
//!   slots become [`Op::Corrupt`] ops that raise the interpreter's exact
//!   error at the exact step it would occur);
//! * constants are pre-packed as untagged [`Slot`]s (see [`crate::slot`]);
//! * branch targets are resolved to op indices, with out-of-range targets
//!   redirected to a trailing "pc out of range" sentinel;
//! * field names, virtual-call names, and reflective class/method names are
//!   resolved into per-class offset and dispatch tables, replacing the
//!   interpreter's per-access linear scans and hash lookups;
//! * statically resolved calls that can only fail (arity mismatch, missing
//!   receiver) carry their prebuilt error;
//! * a forward type-recovery pass ([`int_facts`]) proves which
//!   `Arith`/`Cmp` sites always see two `int` operands; those lower to
//!   the tag-free [`Op::ArithII`]/[`Op::CmpII`] fast ops.
//!
//! Values do not live in boxed [`Value`] vectors here: every operand is an
//! untagged 64-bit payload plus a one-byte tag in a single contiguous
//! register-file arena per execution (`RegFile`). A call frame is a
//! `(base, floor, sp)` window into that arena — the receiver and arguments
//! a caller pushes already sit where the callee's locals begin, so frame
//! entry copies nothing in the common case and frame save/restore is three
//! integers instead of two `Vec`s.
//!
//! On top of lowering, [`fuse`] builds superinstructions, and a final pass
//! inlines tiny leaf callees at their statically resolved `Invoke` sites
//! ([`Op::InlineCall`]): the callee's straight-line micro-ops execute in
//! the caller's dispatch, with no frame push and no per-call code lookup.
//! The process-wide code cache key covers the code fingerprints of every
//! statically invoked callee, so a JIT [`Image::install_code`] on a leaf
//! invalidates exactly the cached bodies that inlined it.
//!
//! Lowered bodies are shared through a process-wide lock-once code cache
//! keyed by `(image shape fingerprint, method+callee code fingerprints)`,
//! so every `WorkPool` worker and every differential-pool JVM reuses
//! lowering work.
//!
//! The dispatch loop preserves the interpreter's observable behaviour bit
//! for bit: fuel accounting, step counts, the every-4096-steps cancellation
//! poll, `--profile` opcode attribution, error values and their timing, and
//! all [`ExecStats`]/[`Profile`] counters. `tests/exec_equivalence.rs`
//! enforces this over the golden corpus and a property sweep.
//!
//! One deliberate divergence: hand-built code holding an out-of-range
//! [`MethodId`]/[`ClassId`] makes the interpreter panic on a slice index at
//! the faulting instruction; here the same instruction executes an
//! [`Op::HostPanic`] with a clearer message. Both substrates panic at the
//! same execution point, so crash containment behaves identically. The AST
//! compiler never emits such code.

use crate::code::{ArithOp, CmpOp, Code, Instr, MethodId};
use crate::error::ExecError;
use crate::image::{Fnv, Image};
use crate::interp::{opcode_index, ExecConfig, ExecStats, OpcodeProfiler, Outcome, Profile};
use crate::slot::{self, Slot, Tag, NULL};
use crate::value::{ClassId, Heap, Value};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Micro-table value for the pc sentinel: the interpreter errors on fetch,
/// before profiler attribution, so the sentinel must not be profiled.
const NO_OPCODE: u8 = u8::MAX;

/// Missing entry in a per-class field-offset table.
const NO_FIELD: u32 = u32::MAX;

/// A pre-decoded, pre-resolved instruction. Operand-free by design: cold
/// resolution data lives in side tables indexed by small ids, keeping the
/// hot array compact.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Push a pre-packed constant (covers ConstI/ConstL/ConstB/ConstNull
    /// and ClassObj; the original opcode survives in the opcode array).
    ConstVal(Slot),
    /// Load a local slot, validated at lowering time.
    Load(u16),
    /// Store into a local slot, validated at lowering time.
    Store(u16),
    /// Field read via the indexed per-class offset table.
    GetField(u16),
    /// Field write via the indexed per-class offset table.
    PutField(u16),
    /// Read a flattened static slot, validated at lowering time.
    GetStatic(u32),
    /// Write a flattened static slot, validated at lowering time.
    PutStatic(u32),
    Arith(ArithOp),
    /// [`Op::Arith`] whose operands are statically proven `int` by
    /// [`int_facts`]: raw-payload `i32` arithmetic, no tag dispatch.
    ArithII(ArithOp),
    Cmp(CmpOp),
    /// [`Op::Cmp`] with statically proven `int` operands.
    CmpII(CmpOp),
    Neg,
    Not,
    /// Unconditional jump; `backedge` is precomputed (`target <= pc`).
    Jump {
        target: u32,
        backedge: bool,
    },
    JumpIfFalse(u32),
    /// Statically resolved call via the calls table.
    Invoke(u16),
    /// Name-dispatched call via the vcalls table.
    InvokeVirtual(u16),
    /// Reflective call via the rcalls table.
    InvokeReflect(u16),
    New(u32),
    BoxInt,
    UnboxInt,
    MonitorEnter,
    MonitorExit,
    Print,
    Pop,
    Dup,
    ReturnV,
    Return,
    /// An op the interpreter rejects at runtime; raises the matching
    /// `VmCorrupt` after the usual fuel/step/cancel accounting.
    Corrupt(CorruptKind),
    /// An op the interpreter panics on (out-of-range id in hand-built
    /// code); see the module docs.
    HostPanic(BadRef),

    // ---- superinstructions (fused bodies only, see [`fuse`]) ----
    //
    // Each replaces a straight-line run of the plain ops above with one
    // dispatch. Execution stays micro-step exact: every constituent
    // instruction "ticks" fuel/steps/cancellation (and, when profiling,
    // its opcode) individually, so fuel exhaustion, error timing,
    // watchdog polls, and opcode attribution are bit-identical to the
    // interpreter's.
    /// Two pushes: `Load`/`ConstVal`/`GetStatic` × 2.
    Push2 {
        a: Src,
        b: Src,
    },
    /// Fetch then store: e.g. `Load; Store`, `ConstVal; PutStatic`.
    Move {
        src: Src,
        dst: Sink,
    },
    /// `Load(slot); GetField(fi)` — field read off a local object.
    GetFieldL {
        slot: u16,
        fi: u16,
    },
    /// Binary arithmetic with fused operand fetches and an optional
    /// fused store: `[fetch a] [fetch b] Arith [Store/PutStatic]`.
    /// `Src::Stack` operands pop (a fused `Arith; Store` tail has both
    /// on the stack); `b` is only `Stack` when `a` is. `ii` carries the
    /// constituent's proven-int flag.
    Bin {
        op: ArithOp,
        ii: bool,
        a: Src,
        b: Src,
        sink: Sink,
    },
    /// `[fetch a] [fetch b] Cmp; JumpIfFalse(target)` — the classic
    /// loop-header shape, one dispatch per iteration test.
    CmpBr {
        op: CmpOp,
        ii: bool,
        a: Src,
        b: Src,
        target: u32,
    },
    /// A backward `Jump` fused with the [`Op::CmpBr`] loop header it
    /// lands on: the whole loop latch + next iteration test in one
    /// dispatch. `exit` is the `CmpBr` exit target (where a false
    /// condition leaves the loop); `fall` is the fused index right after
    /// the `CmpBr` (where a true condition re-enters the body). The
    /// original `CmpBr` stays in place for loop entry.
    JumpCmpBr {
        op: CmpOp,
        ii: bool,
        a: Src,
        b: Src,
        exit: u32,
        fall: u32,
    },
    /// A whole two-operator expression statement in one dispatch:
    /// `(a op1 b) op2 c` when `right` is false (micro order
    /// `a b op1 c op2 [sink]`), `a op2 (b op1 c)` when true (micro order
    /// `a b c op1 op2 [sink]`). All three operands are real fetches —
    /// the fuser never builds a `Chain3` from stack operands.
    Chain3 {
        a: Src,
        b: Src,
        c: Src,
        op1: ArithOp,
        op2: ArithOp,
        ii1: bool,
        ii2: bool,
        right: bool,
        sink: Sink,
    },
    /// The canonical counted-loop latch, one dispatch per iteration:
    /// `local dst = local islot iop const` (the induction step), the
    /// backward jump, and the [`Op::CmpBr`] header test it lands on.
    /// Built by replacing the `Bin` of a `Bin` + backward-`Jump` pair
    /// (both stay in place — a branch into either still behaves
    /// identically).
    IncLatch {
        iop: ArithOp,
        iop_ii: bool,
        islot: u16,
        ic: Slot,
        dst: u16,
        cop: CmpOp,
        cop_ii: bool,
        ca: Src,
        cb: Src,
        exit: u32,
        fall: u32,
    },
    /// A statically resolved call to a tiny straight-line leaf method,
    /// executed inline via the inlines table: no frame push, no code
    /// lookup, one dispatch for the call plus per-micro ticks for the
    /// callee's instructions — step accounting identical to the real
    /// call.
    InlineCall(u16),
}

/// Fused operand source. Slots are pre-validated (the fuser only folds
/// ops that already passed lowering-time bounds checks).
#[derive(Debug, Clone, Copy)]
enum Src {
    /// Pop from the operand stack (the value a preceding plain op left).
    Stack,
    Local(u16),
    Static(u32),
    Const(Slot),
}

/// Fused result destination.
#[derive(Debug, Clone, Copy)]
enum Sink {
    Push,
    Local(u16),
    Static(u32),
}

#[derive(Debug, Clone, Copy)]
enum CorruptKind {
    LocalSlot,
    StaticSlot,
    Pc,
}

impl CorruptKind {
    fn msg(self) -> &'static str {
        match self {
            CorruptKind::LocalSlot => "local slot out of range",
            CorruptKind::StaticSlot => "static slot out of range",
            CorruptKind::Pc => "pc out of range",
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum BadRef {
    Method,
    Class,
}

/// One micro-instruction of an inlined leaf body: the strict straight-line
/// subset of [`Op`] a leaf may contain. Executes against the caller's
/// register file with a private `(cbase, cfloor, csp)` window.
#[derive(Debug, Clone, Copy)]
enum LeafOp {
    Const(Slot),
    Load(u16),
    Store(u16),
    Arith(ArithOp),
    Cmp(CmpOp),
    Neg,
    Not,
    Dup,
    Pop,
    ReturnV,
    Return,
}

/// An inline-expanded leaf callee: the frame geometry [`enter!`] would
/// have set up, plus the translated body.
#[derive(Debug)]
struct InlineInfo {
    /// The callee, for `Profile::invocations` attribution.
    mid: u32,
    argc: u8,
    /// Whether the call pops (and the callee binds) a receiver. Only
    /// `pops_recv == needs_recv` call sites inline, so one flag covers
    /// both.
    recv: bool,
    n_locals: u16,
    max_stack: u16,
    body: Box<[LeafOp]>,
}

/// Per-class instance-field offsets for one field name.
#[derive(Debug)]
struct FieldTable {
    name: Box<str>,
    /// Offset per [`ClassId`], [`NO_FIELD`] when the class lacks the field.
    offsets: Box<[u32]>,
}

/// What a call does once its arguments and receiver are off the stack.
#[derive(Debug, Clone)]
enum CallAction {
    Goto { mid: u32, needs_recv: bool },
    Fail(ExecError),
}

/// A statically resolved (or statically failing) `Invoke`.
#[derive(Debug)]
struct CallInfo {
    argc: u8,
    pops_recv: bool,
    action: CallAction,
}

/// Pre-resolved virtual dispatch target for one class.
#[derive(Debug, Clone, Copy)]
enum VTarget {
    Goto { mid: u32, needs_recv: bool },
    NoMethod,
    Arity,
}

/// A name-dispatched `InvokeVirtual`: one resolution per possible runtime
/// class, replacing the interpreter's per-call hash lookup.
#[derive(Debug)]
struct VCall {
    name: Box<str>,
    argc: u8,
    targets: Box<[VTarget]>,
}

/// A fully pre-resolved `InvokeReflect` (class and method names are
/// compile-time constants, so resolution never depends on runtime values).
#[derive(Debug)]
struct RCall {
    argc: u8,
    pops_recv: bool,
    action: CallAction,
}

/// Resolution side tables: the field, call, and dispatch data ops index.
#[derive(Debug)]
struct SideTables {
    fields: Box<[FieldTable]>,
    calls: Box<[CallInfo]>,
    vcalls: Box<[VCall]>,
    rcalls: Box<[RCall]>,
}

/// One method's lowered body plus its resolution side tables.
#[derive(Debug)]
pub struct ThreadedCode {
    /// The ops array, ending in the pc-out-of-range sentinel.
    ops: Box<[Op]>,
    /// Opcode indices of every op's constituent instructions in execution
    /// order, for `--profile` attribution: op `i`'s micros start at
    /// `micros[micro_at[i]]`, one per tick. Filled in by [`fuse`].
    micros: Box<[u8]>,
    micro_at: Box<[u32]>,
    n_locals: u16,
    max_stack: u16,
    tables: SideTables,
    /// Inline-expanded leaf callees referenced by [`Op::InlineCall`].
    inlines: Box<[InlineInfo]>,
}

/// Statistics of the process-wide code cache (for benches and debugging).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Entries currently resident.
    pub entries: usize,
    /// Process-lifetime lookup hits.
    pub hits: u64,
    /// Process-lifetime lookup misses (lowerings performed).
    pub misses: u64,
}

/// Entry cap; on overflow the cache is flushed wholesale. Presence in the
/// cache never affects results or telemetry, so eviction is unobservable.
const CACHE_CAP: usize = 16_384;

/// `(image shape fingerprint, combined code fingerprint)` -> lowered body.
/// The combined fingerprint covers the method's own code plus the code of
/// every statically invoked callee — leaf inlining copies callee bodies
/// into the fused code, so `install_code` on a callee must invalidate its
/// inliners too.
type CodeMap = HashMap<(u64, u64), Arc<ThreadedCode>>;

static CODE_CACHE: OnceLock<RwLock<CodeMap>> = OnceLock::new();
static CACHE_HITS: AtomicU64 = AtomicU64::new(0);
static CACHE_MISSES: AtomicU64 = AtomicU64::new(0);

fn cache() -> &'static RwLock<CodeMap> {
    CODE_CACHE.get_or_init(|| RwLock::new(HashMap::new()))
}

fn cache_read() -> RwLockReadGuard<'static, CodeMap> {
    cache().read().unwrap_or_else(|e| e.into_inner())
}

fn cache_write() -> RwLockWriteGuard<'static, CodeMap> {
    cache().write().unwrap_or_else(|e| e.into_inner())
}

/// Empties the cache and zeroes its statistics.
#[cfg(test)]
pub fn cache_reset() {
    cache_write().clear();
    CACHE_HITS.store(0, Ordering::Relaxed);
    CACHE_MISSES.store(0, Ordering::Relaxed);
}

/// Serializes the unit tests that reset the process-wide code cache or
/// read its statistics, which the test harness shares across threads.
#[cfg(test)]
pub(crate) static CACHE_TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Live statistics of the process-wide cache.
pub fn cache_stats() -> CacheStats {
    CacheStats {
        entries: cache_read().len(),
        hits: CACHE_HITS.load(Ordering::Relaxed),
        misses: CACHE_MISSES.load(Ordering::Relaxed),
    }
}

/// Fetches (or lowers and publishes) the threaded body of one method.
fn lookup_or_lower(image: &Image, mid: MethodId) -> Arc<ThreadedCode> {
    let m = &image.methods[mid];
    let mut h = Fnv::new();
    h.u64(m.code_fp);
    // Leaf inlining copies statically invoked callee bodies into this
    // method's fused code, so the key covers their fingerprints too:
    // `install_code` on a callee changes every inliner's key.
    for instr in &m.code.instrs {
        if let Instr::Invoke { method, .. } = instr {
            if let Some(t) = image.methods.get(*method) {
                h.u64(t.code_fp);
            }
        }
    }
    let key = (image.shape_fp(), h.0);
    if let Some(tc) = cache_read().get(&key) {
        CACHE_HITS.fetch_add(1, Ordering::Relaxed);
        return Arc::clone(tc);
    }
    CACHE_MISSES.fetch_add(1, Ordering::Relaxed);
    // Lower outside the lock: lowering is a pure function of the key, so
    // racing writers insert interchangeable values and `or_insert` keeps
    // the first.
    let tc = Arc::new(fuse(image, mid, lower(image, mid)));
    let mut map = cache_write();
    let flushed = (map.len() >= CACHE_CAP).then(|| std::mem::take(&mut *map));
    let tc = Arc::clone(map.entry(key).or_insert(tc));
    // Dropping a full cache is slow: release the lock first.
    drop(map);
    drop(flushed);
    tc
}

/// Abstract operand kind for the lowering-time type recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum At {
    Int,
    Long,
    Bool,
    Any,
}

impl At {
    fn join(self, other: At) -> At {
        if self == other {
            self
        } else {
            At::Any
        }
    }
}

/// Abstract machine state at one pc: the kind of every stack and local
/// slot. Stack depth is exact — merges with mismatched depths abandon the
/// analysis (see [`int_facts`]).
#[derive(Clone, PartialEq)]
struct AbsState {
    stack: Vec<At>,
    locals: Vec<At>,
}

/// Budget multiplier: the fixpoint visits at most `64 * n` worklist items
/// before giving up (the lattice is tiny, so real code converges far
/// earlier; this is a backstop for adversarial hand-built code).
const FACTS_BUDGET_PER_INSTR: usize = 64;

/// Instruction-count ceiling for running the recovery at all.
const FACTS_MAX_INSTRS: usize = 2048;

/// Lowering-time recovery of statically-`int` operand pairs: a forward
/// abstract interpretation over `Code` tracking, per pc, the abstract kind
/// of every stack and local slot. `facts[pc]` is true exactly when
/// instruction `pc` is an `Arith`/`Cmp` whose two stack operands are
/// proven `int` on every path — those lower to the tag-free
/// [`Op::ArithII`]/[`Op::CmpII`].
///
/// Soundness over precision: locals start as `Any` (parameters and fields
/// are untyped here), every unknown producer pushes `Any`, paths that must
/// error before producing a value (abstract stack underflow, invalid
/// slots, falling off the end) are terminal, and any merge with mismatched
/// stack depths — impossible for compiler output, possible for hand-built
/// code — abandons the analysis entirely. A missed fact only costs the
/// generic tag-dispatched op; a wrong fact would be a miscompile, so every
/// `ArithII`/`CmpII` dispatch debug-asserts its operand tags.
fn int_facts(code: &Code) -> Vec<bool> {
    let n = code.instrs.len();
    let mut facts = vec![false; n];
    if n == 0 || n > FACTS_MAX_INSTRS {
        return facts;
    }
    let n_locals = code.n_locals as usize;
    let mut states: Vec<Option<AbsState>> = vec![None; n];
    states[0] = Some(AbsState {
        stack: Vec::new(),
        locals: vec![At::Any; n_locals],
    });
    let mut work = vec![0usize];
    let mut budget = FACTS_BUDGET_PER_INSTR * n;
    while let Some(pc) = work.pop() {
        if budget == 0 {
            return vec![false; n];
        }
        budget -= 1;
        let Some(mut st) = states[pc].clone() else {
            continue;
        };
        // Transfer: `None` from a pop means abstract underflow — real
        // execution errors at this pc, so the path is terminal.
        let mut succs: [Option<usize>; 2] = [None, None];
        let fall = (pc + 1 < n).then_some(pc + 1);
        let mut terminal = false;
        macro_rules! popk {
            () => {
                match st.stack.pop() {
                    Some(k) => k,
                    None => {
                        terminal = true;
                        At::Any
                    }
                }
            };
        }
        match &code.instrs[pc] {
            Instr::ConstI(_) => {
                st.stack.push(At::Int);
                succs[0] = fall;
            }
            Instr::ConstL(_) => {
                st.stack.push(At::Long);
                succs[0] = fall;
            }
            Instr::ConstB(_) => {
                st.stack.push(At::Bool);
                succs[0] = fall;
            }
            Instr::ConstNull | Instr::ClassObj(_) => {
                st.stack.push(At::Any);
                succs[0] = fall;
            }
            Instr::Load(s) => {
                if (*s as usize) < n_locals {
                    st.stack.push(st.locals[*s as usize]);
                    succs[0] = fall;
                }
            }
            Instr::Store(s) => {
                let v = popk!();
                if !terminal && (*s as usize) < n_locals {
                    st.locals[*s as usize] = v;
                    succs[0] = fall;
                }
            }
            Instr::GetField(_) => {
                let _ = popk!();
                st.stack.push(At::Any);
                succs[0] = fall;
            }
            Instr::PutField(_) => {
                let _ = popk!();
                let _ = popk!();
                succs[0] = fall;
            }
            Instr::GetStatic(..) => {
                st.stack.push(At::Any);
                succs[0] = fall;
            }
            Instr::PutStatic(..) => {
                let _ = popk!();
                succs[0] = fall;
            }
            Instr::Arith(_) => {
                let b = popk!();
                let a = popk!();
                let r = match (a, b) {
                    (At::Int, At::Int) => At::Int,
                    (At::Int | At::Long, At::Int | At::Long) => At::Long,
                    (At::Bool, At::Bool) => At::Bool,
                    _ => At::Any,
                };
                st.stack.push(r);
                succs[0] = fall;
            }
            Instr::Cmp(_) => {
                let _ = popk!();
                let _ = popk!();
                st.stack.push(At::Bool);
                succs[0] = fall;
            }
            Instr::Neg => {
                let v = popk!();
                st.stack.push(match v {
                    At::Int => At::Int,
                    At::Long => At::Long,
                    _ => At::Any,
                });
                succs[0] = fall;
            }
            Instr::Not => {
                let _ = popk!();
                st.stack.push(At::Bool);
                succs[0] = fall;
            }
            Instr::Jump(t) => {
                succs[0] = (*t < n).then_some(*t);
            }
            Instr::JumpIfFalse(t) => {
                let _ = popk!();
                succs[0] = fall;
                succs[1] = (*t < n).then_some(*t);
            }
            Instr::Invoke { argc, has_recv, .. } => {
                for _ in 0..(*argc as usize + usize::from(*has_recv)) {
                    let _ = popk!();
                }
                st.stack.push(At::Any);
                succs[0] = fall;
            }
            Instr::InvokeVirtual { argc, .. } => {
                for _ in 0..(*argc as usize + 1) {
                    let _ = popk!();
                }
                st.stack.push(At::Any);
                succs[0] = fall;
            }
            Instr::InvokeReflect { argc, has_recv, .. } => {
                for _ in 0..(*argc as usize + usize::from(*has_recv)) {
                    let _ = popk!();
                }
                st.stack.push(At::Any);
                succs[0] = fall;
            }
            Instr::New(_) => {
                st.stack.push(At::Any);
                succs[0] = fall;
            }
            Instr::BoxInt => {
                let _ = popk!();
                st.stack.push(At::Any);
                succs[0] = fall;
            }
            Instr::UnboxInt => {
                let _ = popk!();
                st.stack.push(At::Int);
                succs[0] = fall;
            }
            Instr::MonitorEnter | Instr::MonitorExit | Instr::Print | Instr::Pop => {
                let _ = popk!();
                succs[0] = fall;
            }
            Instr::Dup => {
                match st.stack.last() {
                    Some(&v) => st.stack.push(v),
                    None => terminal = true,
                }
                succs[0] = fall;
            }
            Instr::ReturnV => {
                let _ = popk!();
            }
            Instr::Return => {}
        }
        if terminal {
            continue;
        }
        for succ in succs.into_iter().flatten() {
            match &mut states[succ] {
                slot @ None => {
                    *slot = Some(st.clone());
                    work.push(succ);
                }
                Some(old) => {
                    if old.stack.len() != st.stack.len() {
                        // Depth mismatch: exact depth tracking is the
                        // soundness backbone, so give up wholesale.
                        return vec![false; n];
                    }
                    let mut changed = false;
                    for (o, v) in old.stack.iter_mut().zip(&st.stack) {
                        let j = o.join(*v);
                        if j != *o {
                            *o = j;
                            changed = true;
                        }
                    }
                    for (o, v) in old.locals.iter_mut().zip(&st.locals) {
                        let j = o.join(*v);
                        if j != *o {
                            *o = j;
                            changed = true;
                        }
                    }
                    if changed {
                        work.push(succ);
                    }
                }
            }
        }
    }
    for (pc, instr) in code.instrs.iter().enumerate() {
        if matches!(instr, Instr::Arith(_) | Instr::Cmp(_)) {
            if let Some(st) = &states[pc] {
                let d = st.stack.len();
                if d >= 2 && st.stack[d - 1] == At::Int && st.stack[d - 2] == At::Int {
                    facts[pc] = true;
                }
            }
        }
    }
    facts
}

/// Lowers one method's [`Code`] against its image. Infallible: anything the
/// interpreter would reject at runtime becomes a [`Op::Corrupt`] or
/// [`Op::HostPanic`] op that reproduces the behaviour at the same step.
fn lower(image: &Image, mid: MethodId) -> ThreadedCode {
    let code = &image.methods[mid].code;
    let n = code.instrs.len();
    let n_classes = image.classes.len();
    let facts = int_facts(code);

    // Flattened static layout: base slot per class.
    let mut static_base = Vec::with_capacity(n_classes);
    let mut acc = 0u32;
    for class in &image.classes {
        static_base.push(acc);
        acc += class.static_fields.len() as u32;
    }

    let mut ops = Vec::with_capacity(n + 1);
    let mut fields: Vec<FieldTable> = Vec::new();
    let mut field_ids: HashMap<&str, u16> = HashMap::new();
    let mut calls: Vec<CallInfo> = Vec::new();
    let mut vcalls: Vec<VCall> = Vec::new();
    let mut rcalls: Vec<RCall> = Vec::new();

    // Any jump target beyond the code lands on the sentinel at index n.
    let clamp = |target: usize| -> u32 { target.min(n) as u32 };

    for (pc, instr) in code.instrs.iter().enumerate() {
        let op = match instr {
            Instr::ConstI(v) => Op::ConstVal(slot::pack(Value::Int(*v))),
            Instr::ConstL(v) => Op::ConstVal(slot::pack(Value::Long(*v))),
            Instr::ConstB(b) => Op::ConstVal(slot::pack(Value::Bool(*b))),
            Instr::ConstNull => Op::ConstVal(NULL),
            // Class lock objects occupy heap ids 0..n_classes, so the class
            // object is a plain reference — unvalidated, as in the
            // interpreter (a wild id only surfaces as a dangling reference
            // if used).
            Instr::ClassObj(cid) => Op::ConstVal(Slot {
                bits: *cid as u64,
                tag: Tag::Ref,
            }),
            Instr::Load(s) => {
                if (*s as usize) < code.n_locals as usize {
                    Op::Load(*s)
                } else {
                    Op::Corrupt(CorruptKind::LocalSlot)
                }
            }
            Instr::Store(s) => {
                if (*s as usize) < code.n_locals as usize {
                    Op::Store(*s)
                } else {
                    Op::Corrupt(CorruptKind::LocalSlot)
                }
            }
            Instr::GetField(name) => {
                Op::GetField(intern_field(image, &mut fields, &mut field_ids, name))
            }
            Instr::PutField(name) => {
                Op::PutField(intern_field(image, &mut fields, &mut field_ids, name))
            }
            Instr::GetStatic(cid, off) => match flat_static(image, &static_base, *cid, *off) {
                Some(flat) => Op::GetStatic(flat),
                None => Op::Corrupt(CorruptKind::StaticSlot),
            },
            Instr::PutStatic(cid, off) => match flat_static(image, &static_base, *cid, *off) {
                Some(flat) => Op::PutStatic(flat),
                None => Op::Corrupt(CorruptKind::StaticSlot),
            },
            Instr::Arith(op) => {
                if facts[pc] {
                    Op::ArithII(*op)
                } else {
                    Op::Arith(*op)
                }
            }
            Instr::Cmp(op) => {
                if facts[pc] {
                    Op::CmpII(*op)
                } else {
                    Op::Cmp(*op)
                }
            }
            Instr::Neg => Op::Neg,
            Instr::Not => Op::Not,
            Instr::Jump(target) => Op::Jump {
                target: clamp(*target),
                backedge: *target <= pc,
            },
            Instr::JumpIfFalse(target) => Op::JumpIfFalse(clamp(*target)),
            Instr::Invoke {
                method,
                argc,
                has_recv,
            } => {
                if *method >= image.methods.len() {
                    Op::HostPanic(BadRef::Method)
                } else {
                    let target = &image.methods[*method];
                    // Failure priority mirrors the interpreter's check
                    // order: arity first, then a missing mandatory
                    // receiver. Both fire after operand pops.
                    let action = if target.params.len() != *argc as usize {
                        CallAction::Fail(ExecError::NoSuchMethod {
                            class: image.classes[target.class].name.clone(),
                            method: target.name.clone(),
                        })
                    } else if !target.is_static && !*has_recv {
                        CallAction::Fail(ExecError::NullReference)
                    } else {
                        CallAction::Goto {
                            mid: *method as u32,
                            needs_recv: !target.is_static,
                        }
                    };
                    calls.push(CallInfo {
                        argc: *argc,
                        pops_recv: *has_recv,
                        action,
                    });
                    Op::Invoke((calls.len() - 1) as u16)
                }
            }
            Instr::InvokeVirtual { method, argc } => {
                let targets: Vec<VTarget> = image
                    .classes
                    .iter()
                    .map(|class| match class.method_index.get(method) {
                        None => VTarget::NoMethod,
                        Some(&mid) => {
                            let target = &image.methods[mid];
                            if target.params.len() != *argc as usize {
                                VTarget::Arity
                            } else {
                                VTarget::Goto {
                                    mid: mid as u32,
                                    needs_recv: !target.is_static,
                                }
                            }
                        }
                    })
                    .collect();
                vcalls.push(VCall {
                    name: method.clone().into_boxed_str(),
                    argc: *argc,
                    targets: targets.into_boxed_slice(),
                });
                Op::InvokeVirtual((vcalls.len() - 1) as u16)
            }
            Instr::InvokeReflect {
                class,
                method,
                has_recv,
                argc,
            } => {
                // Reflective errors quote the *requested* names, not the
                // image's — exactly as the interpreter does.
                let action = match image.class_id(class) {
                    None => CallAction::Fail(ExecError::NoSuchClass(class.clone())),
                    Some(cid) => match image.classes[cid].method_index.get(method) {
                        None => CallAction::Fail(ExecError::NoSuchMethod {
                            class: class.clone(),
                            method: method.clone(),
                        }),
                        Some(&mid) => {
                            let target = &image.methods[mid];
                            if target.params.len() != *argc as usize {
                                CallAction::Fail(ExecError::NoSuchMethod {
                                    class: class.clone(),
                                    method: method.clone(),
                                })
                            } else {
                                CallAction::Goto {
                                    mid: mid as u32,
                                    needs_recv: !target.is_static,
                                }
                            }
                        }
                    },
                };
                rcalls.push(RCall {
                    argc: *argc,
                    pops_recv: *has_recv,
                    action,
                });
                Op::InvokeReflect((rcalls.len() - 1) as u16)
            }
            Instr::New(cid) => {
                if *cid < n_classes {
                    Op::New(*cid as u32)
                } else {
                    Op::HostPanic(BadRef::Class)
                }
            }
            Instr::BoxInt => Op::BoxInt,
            Instr::UnboxInt => Op::UnboxInt,
            Instr::MonitorEnter => Op::MonitorEnter,
            Instr::MonitorExit => Op::MonitorExit,
            Instr::Print => Op::Print,
            Instr::Pop => Op::Pop,
            Instr::Dup => Op::Dup,
            Instr::ReturnV => Op::ReturnV,
            Instr::Return => Op::Return,
        };
        ops.push(op);
    }
    // Fetch sentinel: running past the end (or a wild jump) raises the
    // interpreter's "pc out of range" after fuel/step/cancel accounting but
    // before profiler attribution.
    ops.push(Op::Corrupt(CorruptKind::Pc));

    ThreadedCode {
        ops: ops.into_boxed_slice(),
        micros: Box::new([]),
        micro_at: Box::new([]),
        n_locals: code.n_locals,
        // Recompute: hand-built code may understate its own metadata.
        max_stack: Code::compute_max_stack(&code.instrs),
        tables: SideTables {
            fields: fields.into_boxed_slice(),
            calls: calls.into_boxed_slice(),
            vcalls: vcalls.into_boxed_slice(),
            rcalls: rcalls.into_boxed_slice(),
        },
        inlines: Box::new([]),
    }
}

/// Fuses the lowering of method `mid` into its executable body: maximal
/// straight-line runs of fetch/arith/compare/store/branch ops collapse
/// into the superinstructions at the tail of [`Op`], one dispatch each,
/// statically resolved calls to tiny leaves become [`Op::InlineCall`]s,
/// and every op records its constituent opcodes for `--profile`.
///
/// Groups never span a branch target (every target starts a group, so
/// remapped jumps stay valid), and only ops already validated by
/// [`lower`] participate — `Corrupt`/`HostPanic` ops are never folded.
fn fuse(image: &Image, mid: MethodId, mut tc: ThreadedCode) -> ThreadedCode {
    let ops = &tc.ops;
    let n = ops.len() - 1; // exclude the pc sentinel
    let mut is_target = vec![false; n + 1];
    for op in ops.iter() {
        match op {
            Op::Jump { target, .. } | Op::JumpIfFalse(target) => {
                is_target[*target as usize] = true;
            }
            _ => {}
        }
    }

    let as_fetch = |op: &Op| -> Option<Src> {
        match op {
            Op::Load(s) => Some(Src::Local(*s)),
            Op::ConstVal(v) => Some(Src::Const(*v)),
            Op::GetStatic(s) => Some(Src::Static(*s)),
            _ => None,
        }
    };
    let as_sink = |op: &Op| -> Option<Sink> {
        match op {
            Op::Store(s) => Some(Sink::Local(*s)),
            Op::PutStatic(s) => Some(Sink::Static(*s)),
            _ => None,
        }
    };
    // Arith/Cmp constituents carry their proven-int flag into the fused
    // op so the superinstruction keeps the tag-free fast path.
    let as_arith = |op: &Op| -> Option<(ArithOp, bool)> {
        match op {
            Op::Arith(o) => Some((*o, false)),
            Op::ArithII(o) => Some((*o, true)),
            _ => None,
        }
    };
    let as_cmp = |op: &Op| -> Option<(CmpOp, bool)> {
        match op {
            Op::Cmp(o) => Some((*o, false)),
            Op::CmpII(o) => Some((*o, true)),
            _ => None,
        }
    };

    let mut fused: Vec<Op> = Vec::with_capacity(n + 1);
    let mut orig_to_fused = vec![u32::MAX; n + 1];
    // `group_at[f]`: the original pc where fused op `f`'s group starts.
    let mut group_at: Vec<u32> = Vec::with_capacity(n + 1);
    let mut i = 0usize;
    while i < n {
        orig_to_fused[i] = fused.len() as u32;
        group_at.push(i as u32);
        // `free(j)`: op j exists and may be consumed mid-group (nothing
        // jumps into it).
        let free = |j: usize| j < n && !is_target[j];
        let (op, k) = if let Some(f0) = as_fetch(&ops[i]) {
            if !free(i + 1) {
                (ops[i], 1)
            } else if let Some(f1) = as_fetch(&ops[i + 1]) {
                // Two-operator chains first (longest match): left-deep
                // `F F A F A [S]` and right-deep `F F F A A [S]`.
                let chain3 = |f2: Src,
                              op1: ArithOp,
                              ii1: bool,
                              op2: ArithOp,
                              ii2: bool,
                              right: bool,
                              at: usize| match (
                    free(at),
                    as_sink(ops.get(at).unwrap_or(&Op::Return)),
                ) {
                    (true, Some(sink)) => (
                        Op::Chain3 {
                            a: f0,
                            b: f1,
                            c: f2,
                            op1,
                            op2,
                            ii1,
                            ii2,
                            right,
                            sink,
                        },
                        at + 1 - i,
                    ),
                    _ => (
                        Op::Chain3 {
                            a: f0,
                            b: f1,
                            c: f2,
                            op1,
                            op2,
                            ii1,
                            ii2,
                            right,
                            sink: Sink::Push,
                        },
                        at - i,
                    ),
                };
                if !free(i + 2) {
                    (Op::Push2 { a: f0, b: f1 }, 2)
                } else if let Some((op1, ii1)) = as_arith(&ops[i + 2]) {
                    let f2 = free(i + 3).then(|| as_fetch(&ops[i + 3])).flatten();
                    let a2 = free(i + 4)
                        .then(|| ops.get(i + 4))
                        .flatten()
                        .and_then(as_arith);
                    match (f2, a2) {
                        (Some(f2), Some((op2, ii2))) => {
                            chain3(f2, op1, ii1, op2, ii2, false, i + 5)
                        }
                        _ => match (free(i + 3), as_sink(ops.get(i + 3).unwrap_or(&Op::Return))) {
                            (true, Some(sink)) => (
                                Op::Bin {
                                    op: op1,
                                    ii: ii1,
                                    a: f0,
                                    b: f1,
                                    sink,
                                },
                                4,
                            ),
                            _ => (
                                Op::Bin {
                                    op: op1,
                                    ii: ii1,
                                    a: f0,
                                    b: f1,
                                    sink: Sink::Push,
                                },
                                3,
                            ),
                        },
                    }
                } else if let Some((cop, cii)) = as_cmp(&ops[i + 2]) {
                    match (free(i + 3), ops.get(i + 3)) {
                        (true, Some(Op::JumpIfFalse(t))) => (
                            Op::CmpBr {
                                op: cop,
                                ii: cii,
                                a: f0,
                                b: f1,
                                target: *t,
                            },
                            4,
                        ),
                        _ => (Op::Push2 { a: f0, b: f1 }, 2),
                    }
                } else {
                    match (
                        as_fetch(&ops[i + 2]),
                        free(i + 3)
                            .then(|| ops.get(i + 3))
                            .flatten()
                            .and_then(as_arith),
                        free(i + 4)
                            .then(|| ops.get(i + 4))
                            .flatten()
                            .and_then(as_arith),
                    ) {
                        (Some(f2), Some((op1, ii1)), Some((op2, ii2))) => {
                            chain3(f2, op1, ii1, op2, ii2, true, i + 5)
                        }
                        _ => (Op::Push2 { a: f0, b: f1 }, 2),
                    }
                }
            } else {
                // Single fetch: it supplies the *second* operand (the
                // first, if any, is already on the stack).
                if let Some((op, ii)) = as_arith(&ops[i + 1]) {
                    match (free(i + 2), as_sink(ops.get(i + 2).unwrap_or(&Op::Return))) {
                        (true, Some(sink)) => (
                            Op::Bin {
                                op,
                                ii,
                                a: Src::Stack,
                                b: f0,
                                sink,
                            },
                            3,
                        ),
                        _ => (
                            Op::Bin {
                                op,
                                ii,
                                a: Src::Stack,
                                b: f0,
                                sink: Sink::Push,
                            },
                            2,
                        ),
                    }
                } else if let Some((op, ii)) = as_cmp(&ops[i + 1]) {
                    match (free(i + 2), ops.get(i + 2)) {
                        (true, Some(Op::JumpIfFalse(t))) => (
                            Op::CmpBr {
                                op,
                                ii,
                                a: Src::Stack,
                                b: f0,
                                target: *t,
                            },
                            3,
                        ),
                        _ => (ops[i], 1),
                    }
                } else {
                    match &ops[i + 1] {
                        Op::Store(s) => (
                            Op::Move {
                                src: f0,
                                dst: Sink::Local(*s),
                            },
                            2,
                        ),
                        Op::PutStatic(s) => (
                            Op::Move {
                                src: f0,
                                dst: Sink::Static(*s),
                            },
                            2,
                        ),
                        Op::GetField(fi) => match f0 {
                            Src::Local(lsl) => (Op::GetFieldL { slot: lsl, fi: *fi }, 2),
                            _ => (ops[i], 1),
                        },
                        _ => (ops[i], 1),
                    }
                }
            }
        } else if let Some((op, ii)) = as_arith(&ops[i]) {
            // Stack-operand tails of larger expressions.
            if free(i + 1) {
                match as_sink(&ops[i + 1]) {
                    Some(sink) => (
                        Op::Bin {
                            op,
                            ii,
                            a: Src::Stack,
                            b: Src::Stack,
                            sink,
                        },
                        2,
                    ),
                    None => (ops[i], 1),
                }
            } else {
                (ops[i], 1)
            }
        } else if let Some((op, ii)) = as_cmp(&ops[i]) {
            if free(i + 1) {
                match &ops[i + 1] {
                    Op::JumpIfFalse(t) => (
                        Op::CmpBr {
                            op,
                            ii,
                            a: Src::Stack,
                            b: Src::Stack,
                            target: *t,
                        },
                        2,
                    ),
                    _ => (ops[i], 1),
                }
            } else {
                (ops[i], 1)
            }
        } else {
            (ops[i], 1)
        };
        fused.push(op);
        i += k;
    }
    orig_to_fused[n] = fused.len() as u32;
    group_at.push(n as u32);
    fused.push(Op::Corrupt(CorruptKind::Pc));

    // Groups are contiguous runs of original instructions, so the original
    // opcode sequence doubles as the micro table: group `f`'s micros are
    // `group_at[f]..group_at[f + 1]`. The latch and inlining rewrites below
    // append longer sequences and repoint `micro_at`.
    let instrs = &image.methods[mid].code.instrs;
    let mut micros: Vec<u8> = instrs.iter().map(|ins| opcode_index(ins) as u8).collect();
    micros.push(NO_OPCODE);
    let mut micro_at = group_at.clone();
    let group = |f: usize| group_at[f] as usize..group_at[f + 1] as usize;
    let append = |micros: &mut Vec<u8>, parts: &[std::ops::Range<usize>]| {
        let at = micros.len() as u32;
        for part in parts {
            micros.extend_from_within(part.clone());
        }
        at
    };

    // Remap branch targets into fused index space. Every target is a
    // group start (the fuser never consumes a targeted op mid-group).
    for op in &mut fused {
        match op {
            Op::Jump { target, .. } | Op::JumpIfFalse(target) | Op::CmpBr { target, .. } => {
                let t = orig_to_fused[*target as usize];
                debug_assert_ne!(t, u32::MAX, "branch into the middle of a fused group");
                *target = t;
            }
            _ => {}
        }
    }

    // Counted-loop latch fusion: an induction step
    // `Bin{Local, Const -> Local}` directly before a backward `Jump`
    // into a fused `CmpBr` collapses into one `IncLatch` dispatch per
    // iteration. Only slot j is rewritten — the `Jump` at j+1 and the
    // `CmpBr` stay in place, so any branch into the middle of the
    // pattern still sees identical semantics. Its micros are the `Bin`
    // group, the `Jump`, and the header group.
    for j in 0..fused.len().saturating_sub(1) {
        if let (
            Op::Bin {
                op: iop,
                ii: iop_ii,
                a: Src::Local(islot),
                b: Src::Const(ic),
                sink: Sink::Local(dst),
            },
            Op::Jump {
                target,
                backedge: true,
            },
        ) = (fused[j], fused[j + 1])
        {
            if let Op::CmpBr {
                op: cop,
                ii: cop_ii,
                a: ca,
                b: cb,
                target: exit,
            } = fused[target as usize]
            {
                fused[j] = Op::IncLatch {
                    iop,
                    iop_ii,
                    islot,
                    ic,
                    dst,
                    cop,
                    cop_ii,
                    ca,
                    cb,
                    exit,
                    fall: target + 1,
                };
                micro_at[j] = append(
                    &mut micros,
                    &[group(j), group(j + 1), group(target as usize)],
                );
            }
        }
    }

    // Latch fusion: a backward `Jump` landing on a fused `CmpBr` (the
    // `for`/`while` loop latch returning to its header test) becomes one
    // dispatch per iteration. The `CmpBr` stays in place for loop entry,
    // so this is a pure behavioral copy — even a branch *to* the old
    // `Jump` index sees identical semantics (jump micro, then the test).
    for j in 0..fused.len() {
        if let Op::Jump {
            target,
            backedge: true,
        } = fused[j]
        {
            if let Op::CmpBr {
                op,
                ii,
                a,
                b,
                target: exit,
            } = fused[target as usize]
            {
                fused[j] = Op::JumpCmpBr {
                    op,
                    ii,
                    a,
                    b,
                    exit,
                    fall: target + 1,
                };
                micro_at[j] = append(&mut micros, &[group(j), group(target as usize)]);
            }
        }
    }

    // Leaf-call inlining: a statically resolved `Invoke` of a tiny
    // straight-line callee executes the callee's micro-ops in place —
    // no frame push, no per-call code lookup. Its micros are the `Invoke`
    // plus the callee's instructions up to its return (the leaf body is
    // exactly that prefix). The code-cache key covers the callee
    // fingerprints (see [`lookup_or_lower`]), so `install_code` on the
    // callee invalidates this body.
    let mut inlines: Vec<InlineInfo> = Vec::new();
    for (f, op) in fused.iter_mut().enumerate() {
        if let Op::Invoke(ci) = op {
            let info = &tc.tables.calls[*ci as usize];
            if let CallAction::Goto { mid, needs_recv } = &info.action {
                if info.pops_recv == *needs_recv && inlines.len() < u16::MAX as usize {
                    if let Some(inl) =
                        build_leaf_inline(image, *mid as usize, info.argc, *needs_recv)
                    {
                        micro_at[f] = append(&mut micros, &[group(f)]);
                        let leaf = &image.methods[*mid as usize].code.instrs[..inl.body.len()];
                        micros.extend(leaf.iter().map(|ins| opcode_index(ins) as u8));
                        inlines.push(inl);
                        *op = Op::InlineCall((inlines.len() - 1) as u16);
                    }
                }
            }
        }
    }

    tc.ops = fused.into_boxed_slice();
    tc.micros = micros.into_boxed_slice();
    tc.micro_at = micro_at.into_boxed_slice();
    tc.inlines = inlines.into_boxed_slice();
    tc
}

/// Cap on the instruction count of an inlinable leaf body.
const LEAF_INLINE_MAX: usize = 8;

/// Translates a callee into straight-line [`LeafOp`]s if it qualifies:
/// short, free of branches/calls/heap ops, valid local slots, and provably
/// terminated by a `Return`/`ReturnV` (so the executed micro sequence is
/// exactly the prefix up to the first return — no pc-out-of-range tail).
/// The receiver and arguments must fit its locals; otherwise the
/// frame-entry errors would fire and the call site is left alone.
fn build_leaf_inline(image: &Image, mid: usize, argc: u8, recv: bool) -> Option<InlineInfo> {
    let code = &image.methods[mid].code;
    let n_locals = code.n_locals as usize;
    if code.instrs.is_empty()
        || code.instrs.len() > LEAF_INLINE_MAX
        || argc as usize + usize::from(recv) > n_locals
    {
        return None;
    }
    let mut body = Vec::with_capacity(code.instrs.len());
    for instr in &code.instrs {
        let lop = match instr {
            Instr::ConstI(v) => LeafOp::Const(slot::pack(Value::Int(*v))),
            Instr::ConstL(v) => LeafOp::Const(slot::pack(Value::Long(*v))),
            Instr::ConstB(b) => LeafOp::Const(slot::pack(Value::Bool(*b))),
            Instr::ConstNull => LeafOp::Const(NULL),
            Instr::ClassObj(cid) => LeafOp::Const(Slot {
                bits: *cid as u64,
                tag: Tag::Ref,
            }),
            Instr::Load(s) if (*s as usize) < n_locals => LeafOp::Load(*s),
            Instr::Store(s) if (*s as usize) < n_locals => LeafOp::Store(*s),
            Instr::Arith(op) => LeafOp::Arith(*op),
            Instr::Cmp(op) => LeafOp::Cmp(*op),
            Instr::Neg => LeafOp::Neg,
            Instr::Not => LeafOp::Not,
            Instr::Dup => LeafOp::Dup,
            Instr::Pop => LeafOp::Pop,
            Instr::ReturnV => {
                body.push(LeafOp::ReturnV);
                return Some(InlineInfo {
                    mid: mid as u32,
                    argc,
                    recv,
                    n_locals: code.n_locals,
                    max_stack: Code::compute_max_stack(&code.instrs),
                    body: body.into_boxed_slice(),
                });
            }
            Instr::Return => {
                body.push(LeafOp::Return);
                return Some(InlineInfo {
                    mid: mid as u32,
                    argc,
                    recv,
                    n_locals: code.n_locals,
                    max_stack: Code::compute_max_stack(&code.instrs),
                    body: body.into_boxed_slice(),
                });
            }
            _ => return None,
        };
        body.push(lop);
    }
    // Fell off the end without a return: the real callee raises
    // "pc out of range"; don't inline.
    None
}

fn intern_field<'c>(
    image: &'c Image,
    fields: &mut Vec<FieldTable>,
    ids: &mut HashMap<&'c str, u16>,
    name: &str,
) -> u16 {
    if let Some(&id) = ids.get(name) {
        return id;
    }
    let offsets: Vec<u32> = image
        .classes
        .iter()
        .map(|c| c.instance_offset(name).map_or(NO_FIELD, |o| o as u32))
        .collect();
    fields.push(FieldTable {
        name: name.into(),
        offsets: offsets.into_boxed_slice(),
    });
    let id = (fields.len() - 1) as u16;
    // Borrow the name from the image when possible so the map key outlives
    // this call; fall back to leaking nothing by keying on the table we
    // just pushed is not possible with a HashMap<&str>, so only intern
    // names that exist in some class layout (repeats of unknown names are
    // rare and just get duplicate tables).
    for class in &image.classes {
        if let Some(f) = class.instance_fields.iter().find(|f| f.name == name) {
            ids.insert(f.name.as_str(), id);
            break;
        }
    }
    id
}

fn flat_static(image: &Image, base: &[u32], cid: ClassId, off: u16) -> Option<u32> {
    let class = image.classes.get(cid)?;
    if (off as usize) < class.static_fields.len() {
        Some(base[cid] + u32::from(off))
    } else {
        None
    }
}

/// A suspended caller frame: three indices into the register-file arena
/// plus the code handle — no per-frame vectors to save or restore.
struct SavedFrame {
    code: Arc<ThreadedCode>,
    mid: usize,
    pc: usize,
    base: usize,
    floor: usize,
    sp: usize,
}

/// The per-execution register-file arena: every frame's locals and operand
/// stack (and, in a second instance, the flattened statics) live in two
/// parallel arrays — untagged `u64` payloads plus one-byte tags — instead
/// of boxed `Vec<Value>`s. Frames are `(base, floor, sp)` windows into the
/// arena; see [`TMachine::run_from_inner`].
///
/// Accessors skip bounds checks. The indices are validated structurally,
/// not per-access: local slots are bounds-checked at lowering time against
/// `n_locals`, and frame entry reserves `base + n_locals + max_stack`
/// entries; static slots are bounds-checked at lowering time against the
/// image's flattened static count, which the cache key's shape fingerprint
/// pins; stack accesses sit below `sp`, which never exceeds `len` (pushes
/// grow on full). Debug builds assert every access, and the CI `miri`
/// pass executes the dispatch loop under those assertions.
#[derive(Debug, Default)]
struct RegFile {
    bits: Vec<u64>,
    tags: Vec<Tag>,
}

impl RegFile {
    fn with_capacity(n: usize) -> Self {
        RegFile {
            bits: Vec::with_capacity(n),
            tags: Vec::with_capacity(n),
        }
    }

    #[inline]
    fn len(&self) -> usize {
        self.bits.len()
    }

    #[inline]
    fn get(&self, i: usize) -> Slot {
        debug_assert!(i < self.bits.len(), "register read out of the arena");
        // SAFETY: see the type docs — `i` is below a lowering-validated
        // bound covered by `reserve_to` at frame entry, or below `sp`.
        unsafe {
            Slot {
                bits: *self.bits.get_unchecked(i),
                tag: *self.tags.get_unchecked(i),
            }
        }
    }

    #[inline]
    fn set(&mut self, i: usize, s: Slot) {
        debug_assert!(i < self.bits.len(), "register write out of the arena");
        // SAFETY: as in `get`.
        unsafe {
            *self.bits.get_unchecked_mut(i) = s.bits;
            *self.tags.get_unchecked_mut(i) = s.tag;
        }
    }

    #[inline]
    fn push(&mut self, s: Slot) {
        self.bits.push(s.bits);
        self.tags.push(s.tag);
    }

    /// Grows the arena to at least `n` entries (zero/`Null` filled).
    /// Never shrinks: returned frames leave their windows allocated for
    /// the next call.
    fn reserve_to(&mut self, n: usize) {
        if n > self.bits.len() {
            self.bits.resize(n, 0);
            self.tags.resize(n, Tag::Null);
        }
    }

    /// Shifts `n` entries starting at `dst + 1` down by one (discarding
    /// the entry at `dst`): frame entry uses this when a static target
    /// was invoked with an explicit receiver.
    fn shift_down(&mut self, dst: usize, n: usize) {
        self.bits.copy_within(dst + 1..dst + 1 + n, dst);
        self.tags.copy_within(dst + 1..dst + 1 + n, dst);
    }
}

struct TMachine<'i> {
    image: &'i Image,
    heap: Heap,
    /// Flattened statics (all classes concatenated in [`ClassId`] order),
    /// packed into slot form once at startup.
    statics: RegFile,
    /// The frame arena: all call frames' locals and operand stacks.
    regs: RegFile,
    fuel: u64,
    max_call_depth: usize,
    stats: ExecStats,
    profile: Profile,
    output: Vec<String>,
    profiler: Option<OpcodeProfiler>,
    /// Per-execution memo of cache lookups (one per method, first call).
    lowered: Vec<Option<Arc<ThreadedCode>>>,
}

/// Executes `image` from its `main` method on the threaded substrate,
/// bypassing the run memo of [`crate::run`].
///
/// Observably identical to [`crate::interp::run`] — outcome, fuel and
/// cancellation behaviour, and telemetry (both emit theirs through
/// `memo`) — so journals and traces are byte-identical across
/// exec modes. `config.mode` is ignored here.
pub fn run(image: &Image, config: &ExecConfig) -> Outcome {
    crate::memo::bypass(crate::ExecMode::Threaded, image, config)
}

/// The threaded substrate proper: runs `image` with `profiler` attached
/// (if any) and hands the profiler back. Emits no telemetry.
pub(crate) fn execute(
    image: &Image,
    config: &ExecConfig,
    profiler: Option<OpcodeProfiler>,
) -> (Outcome, Option<OpcodeProfiler>) {
    let mut statics = RegFile::default();
    for class in &image.classes {
        for f in &class.static_fields {
            statics.push(slot::pack(f.init));
        }
    }
    let mut machine = TMachine {
        image,
        heap: Heap::new(),
        statics,
        regs: RegFile::with_capacity(256),
        fuel: config.fuel,
        max_call_depth: config.max_call_depth,
        stats: ExecStats::default(),
        profile: Profile {
            invocations: vec![0; image.methods.len()],
            backedges: vec![0; image.methods.len()],
        },
        output: Vec::new(),
        profiler,
        lowered: vec![None; image.methods.len()],
    };
    // Class lock objects occupy ids 0..n_classes, so `ClassObj(c)` is
    // `Ref(c)`.
    for cid in 0..image.classes.len() {
        machine.heap.alloc(cid, Vec::new());
    }
    let result = machine.run_from(image.main());
    let mut error = result.err();
    // A clean exit must leave every monitor released; a leaked monitor is
    // the classic symptom of a broken lock optimization.
    if error.is_none() {
        for id in 0..machine.heap.len() {
            if machine.heap.get(id).map_or(0, |o| o.monitor_depth) != 0 {
                error = Some(ExecError::IllegalMonitorState);
                break;
            }
        }
    }
    let outcome = Outcome {
        output: machine.output,
        error,
        stats: machine.stats,
        profile: machine.profile,
    };
    (outcome, machine.profiler)
}

impl<'i> TMachine<'i> {
    fn ensure(&mut self, mid: usize) -> Arc<ThreadedCode> {
        if let Some(tc) = &self.lowered[mid] {
            return Arc::clone(tc);
        }
        let tc = lookup_or_lower(self.image, mid);
        self.lowered[mid] = Some(Arc::clone(&tc));
        tc
    }

    fn run_from(&mut self, main: MethodId) -> Result<(), ExecError> {
        // Monomorphize the dispatch loop on "is a profiler attached":
        // the unprofiled instantiation (the fuzzing hot path) carries no
        // per-dispatch profiler check at all.
        if self.profiler.is_some() {
            self.run_from_inner::<true>(main)
        } else {
            self.run_from_inner::<false>(main)
        }
    }

    fn run_from_inner<const PROFILED: bool>(&mut self, main: MethodId) -> Result<(), ExecError> {
        let mut cur_code = self.ensure(main);
        let mut cur_mid = main;
        let mut pc = 0usize;
        // Entry frame: counters bump exactly as the interpreter's
        // `new_frame`, and like there, the entry frame does not update
        // `max_depth`.
        self.profile.invocations[main] += 1;
        self.stats.calls += 1;
        // The frame window: locals at `base..floor`, operand stack at
        // `floor..sp` (sp = next free). Invariants: `floor <= sp <= len`,
        // and `floor + max_stack` is reserved (pushes beyond grow).
        let mut base = 0usize;
        let mut floor = cur_code.n_locals as usize;
        let mut sp = floor;
        self.regs.reserve_to(floor + cur_code.max_stack as usize);
        for i in 0..floor {
            self.regs.set(i, NULL);
        }
        let mut saved: Vec<SavedFrame> = Vec::with_capacity(16);
        // Fuel and step counters live in locals for the whole dispatch
        // loop: routing them through `self` costs a serialized memory
        // round-trip per dispatch. Every exit from the loop (including
        // errors) funnels through the single write-back below; panics
        // (host bugs, watchdog aborts) discard the machine anyway.
        let mut fuel = self.fuel;
        let mut steps = self.stats.steps;
        // Profiled runs only: the next micro of the current op to credit
        // (an index into `cur_code.micros`), set at every dispatch.
        let mut cursor = 0usize;

        macro_rules! pop {
            () => {{
                if sp == floor {
                    return Err(ExecError::VmCorrupt("operand stack underflow"));
                }
                sp -= 1;
                self.regs.get(sp)
            }};
        }

        macro_rules! push {
            ($v:expr) => {{
                let v: Slot = $v;
                if sp == self.regs.len() {
                    self.regs.push(v);
                } else {
                    self.regs.set(sp, v);
                }
                sp += 1;
            }};
        }

        /// One micro-step: exactly the interpreter's per-instruction
        /// accounting (fuel gate, step count, watchdog poll cadence) and,
        /// in the `PROFILED` instantiation, attribution of the current
        /// op's next constituent opcode — so a cut or error mid-group
        /// credits only the micros that ran.
        macro_rules! tick {
            () => {
                if fuel == 0 {
                    return Err(ExecError::OutOfFuel);
                }
                fuel -= 1;
                steps += 1;
                if steps & 0xFFF == 0 {
                    jtelemetry::cancel::check("interpreter");
                }
                if PROFILED {
                    if let Some(profiler) = &mut self.profiler {
                        let idx = cur_code.micros[cursor];
                        if idx != NO_OPCODE {
                            profiler.step(steps, idx as usize);
                        }
                    }
                    cursor += 1;
                }
            };
        }

        /// Batch accounting for a superinstruction's `$rest` micro-steps
        /// (or those of an inlined leaf body). When the whole group fits
        /// before the next fuel wall *and* the next watchdog poll
        /// boundary, account it in one shot and bind `$fast = true`; the
        /// arm's [`mtick!`] sites then compile to no-ops and any mid-group
        /// error rolls the overshoot back. Otherwise, and always in the
        /// `PROFILED` instantiation (attribution is per micro), fall back
        /// to per-micro ticking (`$fast = false`), which is bit-exact at
        /// every boundary.
        macro_rules! batched {
            ($rest:expr, $fast:ident) => {
                let rest: u64 = $rest;
                let $fast = !PROFILED && fuel >= rest && (steps & 0xFFF) + rest < 0x1000;
                if $fast {
                    fuel -= rest;
                    steps += rest;
                }
            };
        }

        /// A [`tick!`] site inside a [`batched!`] superinstruction arm:
        /// skipped on the batched fast path, exact on the slow path.
        macro_rules! mtick {
            ($fast:ident) => {
                if !$fast {
                    tick!();
                }
            };
        }

        /// Fetches a fused operand. `Stack` pops — underflow raises the
        /// interpreter's exact corruption error.
        macro_rules! fetch {
            ($src:expr) => {
                match $src {
                    Src::Local(s) => self.regs.get(base + *s as usize),
                    Src::Const(v) => *v,
                    Src::Static(s) => self.statics.get(*s as usize),
                    Src::Stack => pop!(),
                }
            };
        }

        /// Slot arithmetic with the lowering-proven `int×int` fast path:
        /// the flag came from [`int_facts`], so debug builds re-check the
        /// tags it promised.
        macro_rules! slot_arith {
            ($op:expr, $ii:expr, $a:expr, $b:expr) => {{
                if $ii {
                    debug_assert!(
                        $a.tag == Tag::Int && $b.tag == Tag::Int,
                        "type recovery proved int operands"
                    );
                    slot::arith_ii($op, $a.bits, $b.bits)
                } else {
                    slot::arith($op, $a, $b)
                }
            }};
        }

        macro_rules! slot_cmp {
            ($op:expr, $ii:expr, $a:expr, $b:expr) => {{
                if $ii {
                    debug_assert!(
                        $a.tag == Tag::Int && $b.tag == Tag::Int,
                        "type recovery proved int operands"
                    );
                    Ok(slot::compare_ii($op, $a.bits, $b.bits))
                } else {
                    slot::compare($op, $a, $b)
                }
            }};
        }

        /// Common frame-entry tail for the three call forms. `$recv` is the
        /// fully resolved receiver (already validated), `$argn` the argument
        /// count, `$pops_recv` whether a receiver slot leaves the stack.
        ///
        /// The receiver (when popped) and arguments already sit
        /// contiguously at the top of the caller's stack window in
        /// callee-local order, so the callee frame starts right on top of
        /// them: no copying, just three index updates.
        macro_rules! enter {
            ($frame:lifetime, $mid:expr, $recv:expr, $argn:expr, $pops_recv:expr) => {{
                let mid: usize = $mid;
                let recv: Option<Slot> = $recv;
                let argn: usize = $argn;
                let pops_recv: bool = $pops_recv;
                if saved.len() + 1 >= self.max_call_depth {
                    return Err(ExecError::StackOverflow);
                }
                let callee = self.ensure(mid);
                self.profile.invocations[mid] += 1;
                self.stats.calls += 1;
                let n_locals = callee.n_locals as usize;
                let has_recv = recv.is_some();
                // A resolved receiver always came off the stack.
                debug_assert!(pops_recv || !has_recv);
                if has_recv && n_locals == 0 {
                    return Err(ExecError::VmCorrupt("no slot for receiver"));
                }
                if argn + usize::from(has_recv) > n_locals {
                    return Err(ExecError::VmCorrupt("no slot for argument"));
                }
                let cbase = sp - argn - usize::from(pops_recv);
                if pops_recv && !has_recv {
                    // Static target invoked with an explicit receiver: the
                    // receiver slot is discarded, arguments shift down one.
                    self.regs.shift_down(cbase, argn);
                }
                let cfloor = cbase + n_locals;
                self.regs.reserve_to(cfloor + callee.max_stack as usize);
                for i in (cbase + argn + usize::from(has_recv))..cfloor {
                    self.regs.set(i, NULL);
                }
                saved.push(SavedFrame {
                    code: std::mem::replace(&mut cur_code, callee),
                    mid: cur_mid,
                    pc: pc + 1,
                    base,
                    floor,
                    sp: cbase,
                });
                cur_mid = mid;
                pc = 0;
                base = cbase;
                floor = cfloor;
                sp = cfloor;
                self.stats.max_depth = self.stats.max_depth.max(saved.len() + 1);
                continue $frame;
            }};
        }

        macro_rules! ret {
            ($frame:lifetime, $v:expr) => {{
                let v: Slot = $v;
                match saved.pop() {
                    Some(f) => {
                        cur_code = f.code;
                        cur_mid = f.mid;
                        pc = f.pc;
                        base = f.base;
                        floor = f.floor;
                        sp = f.sp;
                        push!(v);
                        continue $frame;
                    }
                    None => return Ok(()),
                }
            }};
        }

        let mut dispatch = || -> Result<(), ExecError> {
            // The outer loop re-borrows the current method's op array after
            // every frame change (`enter!`/`ret!` reassign `cur_code` and
            // `continue 'frame`); the inner loop then dispatches on a flat
            // slice with the indirection hoisted out.
            'frame: loop {
                let ops: &[Op] = &cur_code.ops;
                loop {
                    debug_assert!(pc < ops.len(), "pc escaped the op array");
                    // SAFETY: `pc` is always in bounds. Lowering clamps every
                    // branch target into `0..=len-1` and appends a diverging
                    // `Corrupt(Pc)` sentinel at `len-1`; the fused remap maps
                    // targets onto group starts and latch `fall` indices onto
                    // `cmpbr+1 <= len-1`; `enter!` sets `pc = 0` (every lowering
                    // is non-empty), `ret!` restores `invoke_pc + 1 <= len-1`
                    // (an `Invoke` is never the sentinel), and sequential
                    // `pc += 1` from a non-sentinel op lands at most on the
                    // sentinel, which returns before the next fetch.
                    let cur_op = unsafe { ops.get_unchecked(pc) };
                    if PROFILED {
                        cursor = cur_code.micro_at[pc] as usize;
                    }
                    match cur_op {
                        Op::ConstVal(v) => {
                            tick!();
                            push!(*v);
                        }
                        Op::Load(s) => {
                            tick!();
                            let v = self.regs.get(base + *s as usize);
                            push!(v);
                        }
                        Op::Store(s) => {
                            tick!();
                            let v = pop!();
                            self.regs.set(base + *s as usize, v);
                        }
                        Op::GetField(fi) => {
                            tick!();
                            let obj = pop!();
                            match obj.tag {
                                Tag::Null => return Err(ExecError::NullReference),
                                Tag::Ref => {
                                    let object = self
                                        .heap
                                        .get(obj.bits as usize)
                                        .ok_or(ExecError::VmCorrupt("dangling reference"))?;
                                    let table = &cur_code.tables.fields[*fi as usize];
                                    let off = table.offsets[object.class];
                                    if off == NO_FIELD {
                                        return Err(ExecError::NoSuchField {
                                            class: self.image.classes[object.class].name.clone(),
                                            field: table.name.to_string(),
                                        });
                                    }
                                    let v = slot::pack(object.fields[off as usize]);
                                    push!(v);
                                }
                                _ => {
                                    return Err(ExecError::TypeMismatch(
                                        "field access on non-object",
                                    ))
                                }
                            }
                        }
                        Op::PutField(fi) => {
                            tick!();
                            let value = pop!();
                            let obj = pop!();
                            match obj.tag {
                                Tag::Null => return Err(ExecError::NullReference),
                                Tag::Ref => {
                                    let object = self
                                        .heap
                                        .get_mut(obj.bits as usize)
                                        .ok_or(ExecError::VmCorrupt("dangling reference"))?;
                                    let class = object.class;
                                    let table = &cur_code.tables.fields[*fi as usize];
                                    let off = table.offsets[class];
                                    if off == NO_FIELD {
                                        return Err(ExecError::NoSuchField {
                                            class: self.image.classes[class].name.clone(),
                                            field: table.name.to_string(),
                                        });
                                    }
                                    object.fields[off as usize] = slot::unpack(value);
                                }
                                _ => {
                                    return Err(ExecError::TypeMismatch(
                                        "field access on non-object",
                                    ))
                                }
                            }
                        }
                        Op::GetStatic(si) => {
                            tick!();
                            let v = self.statics.get(*si as usize);
                            push!(v);
                        }
                        Op::PutStatic(si) => {
                            tick!();
                            let v = pop!();
                            self.statics.set(*si as usize, v);
                        }
                        Op::Arith(op) => {
                            tick!();
                            let b = pop!();
                            let a = pop!();
                            push!(slot::arith(*op, a, b)?);
                        }
                        Op::ArithII(op) => {
                            tick!();
                            let b = pop!();
                            let a = pop!();
                            push!(slot_arith!(*op, true, a, b)?);
                        }
                        Op::Cmp(op) => {
                            tick!();
                            let b = pop!();
                            let a = pop!();
                            push!(slot::compare(*op, a, b)?);
                        }
                        Op::CmpII(op) => {
                            tick!();
                            let b = pop!();
                            let a = pop!();
                            push!(slot_cmp!(*op, true, a, b)?);
                        }
                        Op::Neg => {
                            tick!();
                            let v = pop!();
                            push!(slot::negate(v)?);
                        }
                        Op::Not => {
                            tick!();
                            let v = pop!();
                            push!(slot::boolean_not(v)?);
                        }
                        Op::Jump { target, backedge } => {
                            tick!();
                            if *backedge {
                                self.profile.backedges[cur_mid] += 1;
                            }
                            pc = *target as usize;
                            continue;
                        }
                        Op::JumpIfFalse(target) => {
                            tick!();
                            let v = pop!();
                            if v.tag != Tag::Bool {
                                return Err(ExecError::TypeMismatch("branch on non-boolean"));
                            }
                            if v.bits == 0 {
                                pc = *target as usize;
                                continue;
                            }
                        }
                        Op::Invoke(ci) => {
                            tick!();
                            let info = &cur_code.tables.calls[*ci as usize];
                            let argn = info.argc as usize;
                            if sp - floor < argn {
                                return Err(ExecError::VmCorrupt("operand stack underflow"));
                            }
                            let recv = if info.pops_recv {
                                if sp - floor < argn + 1 {
                                    return Err(ExecError::VmCorrupt("operand stack underflow"));
                                }
                                Some(require_recv(self.regs.get(sp - argn - 1))?)
                            } else {
                                None
                            };
                            match &info.action {
                                CallAction::Fail(e) => return Err(e.clone()),
                                CallAction::Goto { mid, needs_recv } => {
                                    let recv = if *needs_recv {
                                        Some(recv.ok_or(ExecError::NullReference)?)
                                    } else {
                                        None
                                    };
                                    let (mid, pops_recv) = (*mid as usize, info.pops_recv);
                                    enter!('frame, mid, recv, argn, pops_recv)
                                }
                            }
                        }
                        Op::InvokeVirtual(vi) => {
                            tick!();
                            let vc = &cur_code.tables.vcalls[*vi as usize];
                            let argn = vc.argc as usize;
                            if sp - floor < argn + 1 {
                                return Err(ExecError::VmCorrupt("operand stack underflow"));
                            }
                            let recv = require_recv(self.regs.get(sp - argn - 1))?;
                            let class = self
                                .heap
                                .get(recv.bits as usize)
                                .ok_or(ExecError::VmCorrupt("dangling reference"))?
                                .class;
                            match vc.targets[class] {
                                VTarget::NoMethod | VTarget::Arity => {
                                    return Err(ExecError::NoSuchMethod {
                                        class: self.image.classes[class].name.clone(),
                                        method: vc.name.to_string(),
                                    })
                                }
                                VTarget::Goto { mid, needs_recv } => {
                                    let recv = needs_recv.then_some(recv);
                                    enter!('frame, mid as usize, recv, argn, true)
                                }
                            }
                        }
                        Op::InvokeReflect(ri) => {
                            tick!();
                            self.stats.reflective_calls += 1;
                            let rc = &cur_code.tables.rcalls[*ri as usize];
                            let argn = rc.argc as usize;
                            let pops = argn + usize::from(rc.pops_recv);
                            if sp - floor < pops {
                                return Err(ExecError::VmCorrupt("operand stack underflow"));
                            }
                            let recv_raw = rc.pops_recv.then(|| self.regs.get(sp - argn - 1));
                            match &rc.action {
                                CallAction::Fail(e) => return Err(e.clone()),
                                CallAction::Goto { mid, needs_recv } => {
                                    let recv = if *needs_recv {
                                        match recv_raw {
                                            None => return Err(ExecError::NullReference),
                                            Some(v) => Some(require_recv(v)?),
                                        }
                                    } else {
                                        None
                                    };
                                    let (mid, pops_recv) = (*mid as usize, rc.pops_recv);
                                    enter!('frame, mid, recv, argn, pops_recv)
                                }
                            }
                        }
                        Op::New(cid) => {
                            tick!();
                            self.stats.allocations += 1;
                            let defaults = self.image.classes[*cid as usize].field_defaults();
                            let oid = self.heap.alloc(*cid as usize, defaults);
                            push!(Slot {
                                bits: oid as u64,
                                tag: Tag::Ref,
                            });
                        }
                        Op::BoxInt => {
                            tick!();
                            self.stats.boxes += 1;
                            let v = pop!();
                            match v.tag {
                                Tag::Int => push!(Slot {
                                    bits: v.bits,
                                    tag: Tag::Boxed,
                                }),
                                _ => return Err(ExecError::TypeMismatch("boxing a non-int")),
                            }
                        }
                        Op::UnboxInt => {
                            tick!();
                            self.stats.unboxes += 1;
                            let v = pop!();
                            match v.tag {
                                Tag::Boxed => push!(Slot {
                                    bits: v.bits,
                                    tag: Tag::Int,
                                }),
                                Tag::Null => return Err(ExecError::NullReference),
                                _ => return Err(ExecError::TypeMismatch("unboxing a non-Integer")),
                            }
                        }
                        Op::MonitorEnter => {
                            tick!();
                            self.stats.monitor_enters += 1;
                            let v = pop!();
                            match v.tag {
                                Tag::Ref => {
                                    let obj = self
                                        .heap
                                        .get_mut(v.bits as usize)
                                        .ok_or(ExecError::VmCorrupt("dangling reference"))?;
                                    obj.monitor_depth += 1;
                                }
                                Tag::Null => return Err(ExecError::NullReference),
                                _ => return Err(ExecError::TypeMismatch("monitor on non-object")),
                            }
                        }
                        Op::MonitorExit => {
                            tick!();
                            self.stats.monitor_exits += 1;
                            let v = pop!();
                            match v.tag {
                                Tag::Ref => {
                                    let obj = self
                                        .heap
                                        .get_mut(v.bits as usize)
                                        .ok_or(ExecError::VmCorrupt("dangling reference"))?;
                                    if obj.monitor_depth == 0 {
                                        return Err(ExecError::IllegalMonitorState);
                                    }
                                    obj.monitor_depth -= 1;
                                }
                                Tag::Null => return Err(ExecError::NullReference),
                                _ => return Err(ExecError::TypeMismatch("monitor on non-object")),
                            }
                        }
                        Op::Print => {
                            tick!();
                            self.stats.prints += 1;
                            let v = pop!();
                            self.output.push(slot::unpack(v).to_string());
                        }
                        Op::Pop => {
                            tick!();
                            let _ = pop!();
                        }
                        Op::Dup => {
                            tick!();
                            if sp == floor {
                                return Err(ExecError::VmCorrupt("operand stack underflow"));
                            }
                            let v = self.regs.get(sp - 1);
                            push!(v);
                        }
                        Op::ReturnV => {
                            tick!();
                            let v = pop!();
                            ret!('frame, v)
                        }
                        Op::Return => {
                            tick!();
                            ret!('frame, NULL);
                        }
                        // ---- superinstructions ----
                        //
                        // Each arm accounts its whole width: `batched!` up
                        // front, then one `mtick!` per constituent instruction,
                        // interleaved exactly where the interpreter would (tick,
                        // then execute), so fuel exhaustion, watchdog polls,
                        // error step counts, and opcode attribution are
                        // bit-identical.
                        Op::Push2 { a, b } => {
                            batched!(2, fast);
                            mtick!(fast);
                            let av = fetch!(a);
                            mtick!(fast);
                            let bv = fetch!(b);
                            push!(av);
                            push!(bv);
                        }
                        Op::Move { src, dst } => {
                            batched!(2, fast);
                            mtick!(fast);
                            let v = fetch!(src);
                            mtick!(fast);
                            match dst {
                                Sink::Local(s) => self.regs.set(base + *s as usize, v),
                                Sink::Static(s) => self.statics.set(*s as usize, v),
                                Sink::Push => push!(v),
                            }
                        }
                        Op::GetFieldL { slot: lsl, fi } => {
                            batched!(2, fast);
                            mtick!(fast);
                            let obj = self.regs.get(base + *lsl as usize);
                            mtick!(fast);
                            match obj.tag {
                                Tag::Null => return Err(ExecError::NullReference),
                                Tag::Ref => {
                                    let object = self
                                        .heap
                                        .get(obj.bits as usize)
                                        .ok_or(ExecError::VmCorrupt("dangling reference"))?;
                                    let table = &cur_code.tables.fields[*fi as usize];
                                    let off = table.offsets[object.class];
                                    if off == NO_FIELD {
                                        return Err(ExecError::NoSuchField {
                                            class: self.image.classes[object.class].name.clone(),
                                            field: table.name.to_string(),
                                        });
                                    }
                                    let v = slot::pack(object.fields[off as usize]);
                                    push!(v);
                                }
                                _ => {
                                    return Err(ExecError::TypeMismatch(
                                        "field access on non-object",
                                    ))
                                }
                            }
                        }
                        Op::Bin { op, ii, a, b, sink } => {
                            // Full micro width: fetches, the arith, and a
                            // non-push sink.
                            let sinkbit = u64::from(!matches!(sink, Sink::Push));
                            let width = match (a, b) {
                                (Src::Stack, Src::Stack) => 1,
                                (Src::Stack, _) => 2,
                                _ => 3,
                            } + sinkbit;
                            batched!(width, fast);
                            mtick!(fast);
                            // Operand order mirrors the original sequence: `a`
                            // was fetched (or pushed) first. With a single fused
                            // fetch the stack holds `a` and the fetch is `b`.
                            let (av, bv) = match (a, b) {
                                (Src::Stack, Src::Stack) => {
                                    let bv = pop!();
                                    (pop!(), bv)
                                }
                                (Src::Stack, bsrc) => {
                                    let bv = fetch!(bsrc);
                                    mtick!(fast);
                                    (pop!(), bv)
                                }
                                (asrc, bsrc) => {
                                    let av = fetch!(asrc);
                                    mtick!(fast);
                                    let bv = fetch!(bsrc);
                                    mtick!(fast);
                                    (av, bv)
                                }
                            };
                            let res = match slot_arith!(*op, *ii, av, bv) {
                                Ok(v) => v,
                                Err(e) => {
                                    // Batched accounting overshot the sink micro
                                    // the interpreter never reaches.
                                    if fast {
                                        fuel += sinkbit;
                                        steps -= sinkbit;
                                    }
                                    return Err(e);
                                }
                            };
                            match sink {
                                Sink::Push => push!(res),
                                Sink::Local(s) => {
                                    mtick!(fast);
                                    self.regs.set(base + *s as usize, res);
                                }
                                Sink::Static(s) => {
                                    mtick!(fast);
                                    self.statics.set(*s as usize, res);
                                }
                            }
                        }
                        Op::CmpBr {
                            op,
                            ii,
                            a,
                            b,
                            target,
                        } => {
                            let width = match (a, b) {
                                (Src::Stack, Src::Stack) => 2,
                                (Src::Stack, _) => 3,
                                _ => 4,
                            };
                            batched!(width, fast);
                            mtick!(fast);
                            let (av, bv) = match (a, b) {
                                (Src::Stack, Src::Stack) => {
                                    let bv = pop!();
                                    (pop!(), bv)
                                }
                                (Src::Stack, bsrc) => {
                                    let bv = fetch!(bsrc);
                                    mtick!(fast);
                                    (pop!(), bv)
                                }
                                (asrc, bsrc) => {
                                    let av = fetch!(asrc);
                                    mtick!(fast);
                                    let bv = fetch!(bsrc);
                                    mtick!(fast);
                                    (av, bv)
                                }
                            };
                            let res = match slot_cmp!(*op, *ii, av, bv) {
                                Ok(v) => v,
                                Err(e) => {
                                    if fast {
                                        fuel += 1;
                                        steps -= 1;
                                    }
                                    return Err(e);
                                }
                            };
                            mtick!(fast);
                            // `compare` only ever yields a boolean.
                            debug_assert_eq!(res.tag, Tag::Bool);
                            if res.bits == 0 {
                                pc = *target as usize;
                                continue;
                            }
                        }
                        Op::JumpCmpBr {
                            op,
                            ii,
                            a,
                            b,
                            exit,
                            fall,
                        } => {
                            // The fused loop latch: the backward `Jump` (the
                            // first micro, which counts the backedge) plus the
                            // `CmpBr` group it lands on.
                            let width = match (a, b) {
                                (Src::Stack, Src::Stack) => 3,
                                (Src::Stack, _) => 4,
                                _ => 5,
                            };
                            batched!(width, fast);
                            mtick!(fast);
                            self.profile.backedges[cur_mid] += 1;
                            let (av, bv) = match (a, b) {
                                (Src::Stack, Src::Stack) => {
                                    mtick!(fast);
                                    let bv = pop!();
                                    (pop!(), bv)
                                }
                                (Src::Stack, bsrc) => {
                                    mtick!(fast);
                                    let bv = fetch!(bsrc);
                                    mtick!(fast);
                                    (pop!(), bv)
                                }
                                (asrc, bsrc) => {
                                    mtick!(fast);
                                    let av = fetch!(asrc);
                                    mtick!(fast);
                                    let bv = fetch!(bsrc);
                                    mtick!(fast);
                                    (av, bv)
                                }
                            };
                            let res = match slot_cmp!(*op, *ii, av, bv) {
                                Ok(v) => v,
                                Err(e) => {
                                    if fast {
                                        fuel += 1;
                                        steps -= 1;
                                    }
                                    return Err(e);
                                }
                            };
                            mtick!(fast);
                            debug_assert_eq!(res.tag, Tag::Bool);
                            pc = if res.bits == 0 {
                                *exit as usize
                            } else {
                                *fall as usize
                            };
                            continue;
                        }
                        Op::Chain3 {
                            a,
                            b,
                            c,
                            op1,
                            op2,
                            ii1,
                            ii2,
                            right,
                            sink,
                        } => {
                            let sinkbit = u64::from(!matches!(sink, Sink::Push));
                            batched!(5 + sinkbit, fast);
                            mtick!(fast);
                            let av = fetch!(a);
                            mtick!(fast);
                            let bv = fetch!(b);
                            let res = if *right {
                                // `a op2 (b op1 c)` — micro order a b c op1 op2.
                                mtick!(fast);
                                let cv = fetch!(c);
                                mtick!(fast);
                                let r1 = match slot_arith!(*op1, *ii1, bv, cv) {
                                    Ok(v) => v,
                                    Err(e) => {
                                        if fast {
                                            fuel += 1 + sinkbit;
                                            steps -= 1 + sinkbit;
                                        }
                                        return Err(e);
                                    }
                                };
                                mtick!(fast);
                                match slot_arith!(*op2, *ii2, av, r1) {
                                    Ok(v) => v,
                                    Err(e) => {
                                        if fast {
                                            fuel += sinkbit;
                                            steps -= sinkbit;
                                        }
                                        return Err(e);
                                    }
                                }
                            } else {
                                // `(a op1 b) op2 c` — micro order a b op1 c op2.
                                mtick!(fast);
                                let r1 = match slot_arith!(*op1, *ii1, av, bv) {
                                    Ok(v) => v,
                                    Err(e) => {
                                        if fast {
                                            fuel += 2 + sinkbit;
                                            steps -= 2 + sinkbit;
                                        }
                                        return Err(e);
                                    }
                                };
                                mtick!(fast);
                                let cv = fetch!(c);
                                mtick!(fast);
                                match slot_arith!(*op2, *ii2, r1, cv) {
                                    Ok(v) => v,
                                    Err(e) => {
                                        if fast {
                                            fuel += sinkbit;
                                            steps -= sinkbit;
                                        }
                                        return Err(e);
                                    }
                                }
                            };
                            match sink {
                                Sink::Push => push!(res),
                                Sink::Local(s) => {
                                    mtick!(fast);
                                    self.regs.set(base + *s as usize, res);
                                }
                                Sink::Static(s) => {
                                    mtick!(fast);
                                    self.statics.set(*s as usize, res);
                                }
                            }
                        }
                        Op::IncLatch {
                            iop,
                            iop_ii,
                            islot,
                            ic,
                            dst,
                            cop,
                            cop_ii,
                            ca,
                            cb,
                            exit,
                            fall,
                        } => {
                            // Micro order: load-islot const arith store jump
                            // [fetch ca] [fetch cb] cmp br.
                            let nf = match (ca, cb) {
                                (Src::Stack, Src::Stack) => 0u64,
                                (Src::Stack, _) => 1,
                                _ => 2,
                            };
                            batched!(7 + nf, fast);
                            mtick!(fast);
                            let av = self.regs.get(base + *islot as usize);
                            mtick!(fast);
                            mtick!(fast);
                            let r = match slot_arith!(*iop, *iop_ii, av, *ic) {
                                Ok(v) => v,
                                Err(e) => {
                                    if fast {
                                        fuel += 4 + nf;
                                        steps -= 4 + nf;
                                    }
                                    return Err(e);
                                }
                            };
                            mtick!(fast);
                            self.regs.set(base + *dst as usize, r);
                            mtick!(fast);
                            self.profile.backedges[cur_mid] += 1;
                            let (cav, cbv) = match (ca, cb) {
                                (Src::Stack, Src::Stack) => {
                                    mtick!(fast);
                                    let bv = pop!();
                                    (pop!(), bv)
                                }
                                (Src::Stack, bsrc) => {
                                    mtick!(fast);
                                    let bv = fetch!(bsrc);
                                    mtick!(fast);
                                    (pop!(), bv)
                                }
                                (asrc, bsrc) => {
                                    mtick!(fast);
                                    let cav = fetch!(asrc);
                                    mtick!(fast);
                                    let cbv = fetch!(bsrc);
                                    mtick!(fast);
                                    (cav, cbv)
                                }
                            };
                            let res = match slot_cmp!(*cop, *cop_ii, cav, cbv) {
                                Ok(v) => v,
                                Err(e) => {
                                    if fast {
                                        fuel += 1;
                                        steps -= 1;
                                    }
                                    return Err(e);
                                }
                            };
                            mtick!(fast);
                            debug_assert_eq!(res.tag, Tag::Bool);
                            pc = if res.bits == 0 {
                                *exit as usize
                            } else {
                                *fall as usize
                            };
                            continue;
                        }
                        Op::InlineCall(ix) => {
                            // The `Invoke` micro, then the callee's
                            // straight-line body with per-micro accounting —
                            // step-identical to the real call, minus the
                            // frame push.
                            tick!();
                            let info = &cur_code.inlines[*ix as usize];
                            let argn = info.argc as usize;
                            let pops = argn + usize::from(info.recv);
                            if sp - floor < pops {
                                return Err(ExecError::VmCorrupt("operand stack underflow"));
                            }
                            if info.recv {
                                require_recv(self.regs.get(sp - argn - 1))?;
                            }
                            if saved.len() + 1 >= self.max_call_depth {
                                return Err(ExecError::StackOverflow);
                            }
                            self.profile.invocations[info.mid as usize] += 1;
                            self.stats.calls += 1;
                            // The callee window sits directly on the popped
                            // receiver + arguments, exactly like `enter!`.
                            let cbase = sp - pops;
                            let cfloor = cbase + info.n_locals as usize;
                            self.regs.reserve_to(cfloor + info.max_stack as usize);
                            for i in (cbase + pops)..cfloor {
                                self.regs.set(i, NULL);
                            }
                            self.stats.max_depth = self.stats.max_depth.max(saved.len() + 2);
                            let body = &info.body;
                            let total = body.len() as u64;
                            batched!(total, fast);
                            let mut done: u64 = 0;
                            let mut csp = cfloor;
                            let mut retv = NULL;
                            /// Mid-body error exit: rolls back the batched
                            /// overshoot for the micros never reached.
                            macro_rules! ierr {
                                ($e:expr) => {{
                                    if fast {
                                        let over = total - done;
                                        fuel += over;
                                        steps -= over;
                                    }
                                    return Err($e);
                                }};
                            }
                            macro_rules! ipop {
                                () => {{
                                    if csp == cfloor {
                                        ierr!(ExecError::VmCorrupt("operand stack underflow"));
                                    }
                                    csp -= 1;
                                    self.regs.get(csp)
                                }};
                            }
                            macro_rules! ipush {
                                ($v:expr) => {{
                                    let v: Slot = $v;
                                    if csp == self.regs.len() {
                                        self.regs.push(v);
                                    } else {
                                        self.regs.set(csp, v);
                                    }
                                    csp += 1;
                                }};
                            }
                            'leaf: for lop in body.iter() {
                                mtick!(fast);
                                done += 1;
                                match lop {
                                    LeafOp::Const(v) => ipush!(*v),
                                    LeafOp::Load(s) => {
                                        let v = self.regs.get(cbase + *s as usize);
                                        ipush!(v);
                                    }
                                    LeafOp::Store(s) => {
                                        let v = ipop!();
                                        self.regs.set(cbase + *s as usize, v);
                                    }
                                    LeafOp::Arith(op) => {
                                        let b = ipop!();
                                        let a = ipop!();
                                        match slot::arith(*op, a, b) {
                                            Ok(v) => ipush!(v),
                                            Err(e) => ierr!(e),
                                        }
                                    }
                                    LeafOp::Cmp(op) => {
                                        let b = ipop!();
                                        let a = ipop!();
                                        match slot::compare(*op, a, b) {
                                            Ok(v) => ipush!(v),
                                            Err(e) => ierr!(e),
                                        }
                                    }
                                    LeafOp::Neg => {
                                        let v = ipop!();
                                        match slot::negate(v) {
                                            Ok(v) => ipush!(v),
                                            Err(e) => ierr!(e),
                                        }
                                    }
                                    LeafOp::Not => {
                                        let v = ipop!();
                                        match slot::boolean_not(v) {
                                            Ok(v) => ipush!(v),
                                            Err(e) => ierr!(e),
                                        }
                                    }
                                    LeafOp::Dup => {
                                        if csp == cfloor {
                                            ierr!(ExecError::VmCorrupt("operand stack underflow"));
                                        }
                                        let v = self.regs.get(csp - 1);
                                        ipush!(v);
                                    }
                                    LeafOp::Pop => {
                                        let _ = ipop!();
                                    }
                                    LeafOp::ReturnV => {
                                        retv = ipop!();
                                        break 'leaf;
                                    }
                                    LeafOp::Return => {
                                        break 'leaf;
                                    }
                                }
                            }
                            sp = cbase;
                            push!(retv);
                        }
                        Op::Corrupt(kind) => {
                            tick!();
                            return Err(ExecError::VmCorrupt(kind.msg()));
                        }
                        Op::HostPanic(what) => {
                            tick!();
                            match what {
                                BadRef::Method => panic!("invalid method id in hand-built code"),
                                BadRef::Class => panic!("invalid class id in hand-built code"),
                            }
                        }
                    }
                    pc += 1;
                }
            }
        };
        let result = dispatch();
        self.fuel = fuel;
        self.stats.steps = steps;
        result
    }
}

fn require_recv(v: Slot) -> Result<Slot, ExecError> {
    match v.tag {
        Tag::Null => Err(ExecError::NullReference),
        Tag::Ref => Ok(v),
        _ => Err(ExecError::TypeMismatch("receiver is not an object")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp;

    /// Interp and threaded agree on the full Outcome (output, error, stats,
    /// profile) for a source program.
    fn assert_equivalent(src: &str) {
        let image = Image::build(&mjava::parse(src).unwrap()).unwrap();
        let config = ExecConfig::default();
        let threaded = run(&image, &config);
        let interp = interp::run(&image, &config);
        assert_eq!(threaded, interp, "substrates diverged on:\n{src}");
    }

    #[test]
    fn matches_interp_on_core_behaviours() {
        for src in [
            "class T { static void main() { System.out.println(2 + 3 * 4); } }",
            "class T { static void main() { int s = 0; for (int i = 0; i < 100; i++) { s = s + i; } System.out.println(s); } }",
            "class T { int f; int bump(int d) { f = f + d; return f; } static void main() { T t = new T(); t.bump(5); System.out.println(t.bump(7)); } }",
            "class T { static int s = 10; static void inc() { s = s + 1; } static void main() { T.inc(); T.inc(); System.out.println(s); } }",
            "class T { static void main() { synchronized (T.class) { synchronized (T.class) { System.out.println(1); } } } }",
            "class T { int f; int get(int d) { return f + d; } static void main() { T t = new T(); t.f = 40; System.out.println(Class.forName(\"T\").getDeclaredMethod(\"get\").invoke(t, 2)); } }",
            "class T { static void main() { System.out.println(Class.forName(\"Nope\").getDeclaredMethod(\"g\").invoke(null)); } }",
            "class T { static void main() { Integer b = Integer.valueOf(20); System.out.println(b.intValue() + 22); } }",
            "class T { static void main() { System.out.println(1 / 0); } }",
            "class T { int f; static void main() { T t = null; System.out.println(t.f); } }",
            "class T { static int down(int n) { return T.down(n + 1); } static void main() { System.out.println(T.down(0)); } }",
            "class T { static int fib(int n) { if (n < 2) { return n; } return T.fib(n - 1) + T.fib(n - 2); } static void main() { System.out.println(T.fib(15)); } }",
            "class T { static void main() { System.out.println(2147483647 + 1); } }",
            "class T { static int g() { synchronized (T.class) { return 5; } } static void main() { System.out.println(T.g()); } }",
            // Representation hazards for the untagged slot encoding: long
            // overflow, int/long width crossings, and values whose low 32
            // bits collide with small ints.
            "class T { static void main() { long a = 9223372036854775807L; System.out.println(a + 1L); } }",
            "class T { static void main() { long a = 4294967296L; System.out.println(a / 2L); } }",
            "class T { static long twice(long x) { return x + x; } static void main() { System.out.println(T.twice(3000000000L)); } }",
            "class T { static void main() { long a = -1L; int b = -1; System.out.println(a == -1L); System.out.println(b == -1); } }",
            "class T { static void main() { System.out.println(9000000000L % 7L); } }",
        ] {
            assert_equivalent(src);
        }
    }

    #[test]
    fn matches_interp_on_all_builtin_seeds() {
        for seed in mjava::samples::all_seeds() {
            let image = Image::build(&seed.program).unwrap();
            let config = ExecConfig::default();
            let threaded = run(&image, &config);
            let interp = interp::run(&image, &config);
            assert_eq!(
                threaded, interp,
                "substrates diverged on seed {}",
                seed.name
            );
            assert!(threaded.is_clean(), "seed {} errored", seed.name);
        }
    }

    #[test]
    fn fuel_exhaustion_is_step_exact() {
        let program =
            mjava::parse("class T { static void main() { while (true) { int x = 1; } } }").unwrap();
        let image = Image::build(&program).unwrap();
        let config = ExecConfig {
            fuel: 10_000,
            ..ExecConfig::default()
        };
        let threaded = run(&image, &config);
        let interp = interp::run(&image, &config);
        assert_eq!(threaded.error, Some(ExecError::OutOfFuel));
        assert_eq!(threaded, interp);
        assert_eq!(threaded.stats.steps, 10_000);
    }

    #[test]
    fn hand_built_dup_pop_and_direct_invoke() {
        use crate::code::{Code, Instr};
        let program =
            mjava::parse("class T { int f; int get() { return f; } static void main() { } }")
                .unwrap();
        let mut image = Image::build(&program).unwrap();
        let get = image.method_id("T", "get").unwrap();
        let main = image.main();
        let code = Code {
            instrs: vec![
                Instr::New(0),
                Instr::Dup,
                Instr::Dup,
                Instr::ConstI(41),
                Instr::PutField("f".into()),
                Instr::Pop,
                Instr::Invoke {
                    method: get,
                    argc: 0,
                    has_recv: true,
                },
                Instr::ConstI(1),
                Instr::Arith(crate::code::ArithOp::Add),
                Instr::Print,
                Instr::Return,
            ],
            n_locals: 0,
            max_stack: 4,
        };
        image.install_code(main, code);
        let threaded = run(&image, &ExecConfig::default());
        let interp = interp::run(&image, &ExecConfig::default());
        assert_eq!(threaded, interp);
        assert_eq!(threaded.output, vec!["42"]);
    }

    #[test]
    fn corrupt_code_matches_interp() {
        use crate::code::{Code, Instr};
        // (code, expected error) pairs exercising lowering-time rejection.
        let cases: Vec<(Vec<Instr>, ExecError)> = vec![
            (
                vec![Instr::Pop, Instr::Return],
                ExecError::VmCorrupt("operand stack underflow"),
            ),
            (
                vec![Instr::Load(9), Instr::Return],
                ExecError::VmCorrupt("local slot out of range"),
            ),
            (
                vec![Instr::ConstI(1), Instr::Store(9), Instr::Return],
                ExecError::VmCorrupt("local slot out of range"),
            ),
            (
                vec![Instr::GetStatic(0, 7), Instr::Return],
                ExecError::VmCorrupt("static slot out of range"),
            ),
            (
                vec![Instr::Jump(99)],
                ExecError::VmCorrupt("pc out of range"),
            ),
            (
                vec![Instr::ConstI(1), Instr::Pop],
                ExecError::VmCorrupt("pc out of range"),
            ),
        ];
        for (instrs, want) in cases {
            let program = mjava::parse("class T { static void main() { } }").unwrap();
            let mut image = Image::build(&program).unwrap();
            let main = image.main();
            let max_stack = Code::compute_max_stack(&instrs);
            image.install_code(
                main,
                Code {
                    instrs,
                    n_locals: 0,
                    max_stack,
                },
            );
            let threaded = run(&image, &ExecConfig::default());
            let interp = interp::run(&image, &ExecConfig::default());
            assert_eq!(threaded.error, Some(want));
            assert_eq!(threaded, interp);
        }
    }

    /// Renders a method's fused op array, one op per line.
    fn dump_fused(image: &Image, mid: MethodId) -> Vec<String> {
        let tc = fuse(image, mid, lower(image, mid));
        tc.ops.iter().map(|op| format!("{op:?}")).collect()
    }

    /// Profiled runs execute the fused body and attribute every step to
    /// its original opcode: for one source per superinstruction kind
    /// (checked to fuse into that kind), and for an error inside a fused
    /// group, the outcome and opcode table equal the interpreter's at
    /// every fuel budget.
    #[test]
    fn profiler_attribution_matches_interp() {
        let cases = [
            (
                "IncLatch",
                "class T { static void main() { int s = 0; for (int i = 0; i < 50; i++) { s = s + i; } System.out.println(s); } }",
            ),
            (
                "JumpCmpBr",
                "class T { static void main() { int i = 1; int d = 3; while (i < 90) { i = i + d; } System.out.println(i); } }",
            ),
            (
                "Chain3",
                "class T { static void main() { int a = 2; int b = 3; int c = 4; int x = a + b * c; System.out.println(x); } }",
            ),
            (
                "GetFieldL",
                "class T { int f; static void main() { T t = new T(); t.f = 7; System.out.println(t.f); } }",
            ),
            (
                "InlineCall",
                "class T { static int f(int i) { return i * 2; } static void main() { int s = 0; for (int i = 0; i < 50; i++) { s = s + T.f(i); } System.out.println(s); } }",
            ),
            (
                "Bin { op: Div",
                "class T { static void main() { int z = 0; int y = 5 / z; System.out.println(y); } }",
            ),
        ];
        for (kind, src) in cases {
            let image = Image::build(&mjava::parse(src).unwrap()).unwrap();
            let fused = dump_fused(&image, image.main());
            assert!(
                fused.iter().any(|op| op.starts_with(kind)),
                "no {kind} in {fused:#?}"
            );
            // Full fuel, then every budget that cuts the run short: a cut
            // inside a fused op must credit exactly the micros that ran.
            let steps = interp::run(&image, &ExecConfig::default()).stats.steps;
            for fuel in (0..steps).chain([ExecConfig::default().fuel]) {
                let config = ExecConfig {
                    fuel,
                    ..ExecConfig::default()
                };
                let runs = [true, false].map(|threaded| {
                    jtelemetry::install(jtelemetry::Session::from_spec(jtelemetry::SessionSpec {
                        manual: true,
                        trace: false,
                        profile: true,
                    }));
                    let o = if threaded {
                        run(&image, &config)
                    } else {
                        interp::run(&image, &config)
                    };
                    let snap = jtelemetry::take().unwrap().snapshot();
                    let total: u64 = snap.opcodes.iter().map(|op| op.hits).sum();
                    assert_eq!(total, o.stats.steps, "{kind}: a step went unattributed");
                    (o, snap.opcodes)
                });
                assert_eq!(runs[0], runs[1], "{kind}: diverged at fuel {fuel}");
            }
        }
    }

    #[test]
    fn code_cache_shares_lowering_across_runs() {
        let _guard = CACHE_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        cache_reset();
        let image = Image::build(
            &mjava::parse("class T { static void main() { System.out.println(3); } }").unwrap(),
        )
        .unwrap();
        let first = run(&image, &ExecConfig::default());
        let stats1 = cache_stats();
        let second = run(&image, &ExecConfig::default());
        let stats2 = cache_stats();
        assert_eq!(first, second);
        assert!(stats2.hits > stats1.hits, "second run hits the cache");
        assert_eq!(stats2.misses, stats1.misses, "second run lowers nothing");
    }

    #[test]
    fn install_code_invalidates_exactly_that_method() {
        use crate::code::{Code, Instr};
        let _guard = CACHE_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let src = "class T { static int f() { return 1; } static void main() { System.out.println(3); } }";
        let mut image = Image::build(&mjava::parse(src).unwrap()).unwrap();
        let (main, f) = (image.main(), image.method_id("T", "f").unwrap());
        let main_before = lookup_or_lower(&image, main);
        let f_before = lookup_or_lower(&image, f);
        image.install_code(
            main,
            Code {
                instrs: vec![Instr::ConstI(9), Instr::Print, Instr::Return],
                n_locals: 0,
                max_stack: 1,
            },
        );
        assert!(
            !Arc::ptr_eq(&main_before, &lookup_or_lower(&image, main)),
            "tier-up must re-lower the installed method"
        );
        assert!(
            Arc::ptr_eq(&f_before, &lookup_or_lower(&image, f)),
            "an untouched method keeps its cached body"
        );
        let o = run(&image, &ExecConfig::default());
        assert_eq!(o.output, vec!["9"]);
    }

    /// Leaf inlining must be invisible in the step/fuel accounting: every
    /// fuel budget from zero to "runs to completion" yields exactly the
    /// interpreter's outcome, including mid-inlined-body fuel exhaustion.
    #[test]
    fn leaf_calls_inline_step_exact_under_fuel_sweep() {
        let src = "class T { static int f(int a, int b) { return a * b + 1; } static void main() { int s = 0; for (int i = 0; i < 40; i++) { s = s + T.f(i, 3); } System.out.println(s); } }";
        let image = Image::build(&mjava::parse(src).unwrap()).unwrap();
        let full = interp::run(&image, &ExecConfig::default());
        assert!(full.is_clean());
        let total = full.stats.steps;
        for fuel in (0..=total).step_by(7) {
            let config = ExecConfig {
                fuel,
                ..ExecConfig::default()
            };
            let threaded = run(&image, &config);
            let interp = interp::run(&image, &config);
            assert_eq!(threaded, interp, "diverged at fuel {fuel}");
        }
    }

    /// Inlining actually fires on tiny leaf calls, and installing new code
    /// into the leaf re-lowers its callers (the cache key covers direct
    /// callee fingerprints), so stale inlined bodies never execute.
    #[test]
    fn leaf_inlining_fires_and_is_invalidated_by_install_code() {
        use crate::code::{Code, Instr};
        let src = "class T { static int one() { return 1; } static void main() { System.out.println(T.one() + T.one()); } }";
        let mut image = Image::build(&mjava::parse(src).unwrap()).unwrap();
        let one = image.method_id("T", "one").unwrap();
        let inline_calls = dump_fused(&image, image.main())
            .iter()
            .filter(|op| op.starts_with("InlineCall"))
            .count();
        assert_eq!(inline_calls, 2, "both call sites inline");
        let o = run(&image, &ExecConfig::default());
        assert_eq!(o.output, vec!["2"]);
        assert_eq!(o, interp::run(&image, &ExecConfig::default()));
        image.install_code(
            one,
            Code {
                instrs: vec![Instr::ConstI(9), Instr::ReturnV],
                n_locals: 0,
                max_stack: 1,
            },
        );
        let o2 = run(&image, &ExecConfig::default());
        assert_eq!(o2.output, vec!["18"], "caller re-lowered with new body");
        assert_eq!(o2, interp::run(&image, &ExecConfig::default()));
    }

    /// The lowering-time type recovery only claims int×int when it proved
    /// it on every path; a long operand anywhere must leave the generic op.
    #[test]
    fn int_fact_recovery_is_conservative() {
        use crate::code::{ArithOp, Code, Instr};
        let int_code = Code {
            instrs: vec![
                Instr::ConstI(1),
                Instr::ConstI(2),
                Instr::Arith(ArithOp::Add),
                Instr::Print,
                Instr::Return,
            ],
            n_locals: 0,
            max_stack: 2,
        };
        assert!(int_facts(&int_code)[2], "int+int is provable");
        let long_code = Code {
            instrs: vec![
                Instr::ConstI(1),
                Instr::ConstL(2),
                Instr::Arith(ArithOp::Add),
                Instr::Print,
                Instr::Return,
            ],
            n_locals: 0,
            max_stack: 2,
        };
        assert!(!int_facts(&long_code)[2], "int+long must stay generic");
        let merge_code = Code {
            instrs: vec![
                // A join point where one predecessor carries a long: the
                // merged fact must drop to Any.
                Instr::ConstB(true),
                Instr::JumpIfFalse(4),
                Instr::ConstI(7),
                Instr::Jump(5),
                Instr::ConstL(7),
                Instr::ConstI(1),
                Instr::Arith(ArithOp::Add),
                Instr::Print,
                Instr::Return,
            ],
            n_locals: 0,
            max_stack: 2,
        };
        assert!(
            !int_facts(&merge_code)[6],
            "join of int and long is not int"
        );
    }
}
