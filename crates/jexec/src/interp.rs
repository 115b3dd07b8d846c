//! The interpreter tier: executes an [`Image`] with profiling.
//!
//! The machine is iterative (explicit frame stack), so deeply recursive
//! mutants hit the configured [`ExecError::StackOverflow`] limit instead of
//! exhausting the host thread's stack.
//!
//! Profiling data (per-method invocation and loop back-edge counters) is
//! what the tiered driver in `jvmsim` uses to decide which methods are hot
//! enough to JIT-compile, mirroring HotSpot's interpreter counters.

use crate::code::{Instr, MethodId};
use crate::error::ExecError;
use crate::image::Image;
use crate::ops;
use crate::value::{Heap, Value};
use std::sync::atomic::{AtomicU8, Ordering};

/// Which execution substrate runs an [`Image`].
///
/// Both substrates are observably identical — same outputs, errors, step
/// counts, fuel accounting, cancellation latency, and profile attribution —
/// so the mode is a pure performance knob and, like worker counts, is never
/// journaled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// The classic [`Instr`]-matching interpreter in this module.
    Interp,
    /// The pre-resolved threaded substrate in [`crate::threaded`], which
    /// lowers each method a run calls once, for that run.
    Threaded,
}

/// Process-wide default for [`ExecConfig::default`]'s `mode` field:
/// 0 = interp, 1 = threaded. Set once at CLI startup by `--exec-mode`.
static DEFAULT_MODE: AtomicU8 = AtomicU8::new(1);

/// Sets the process-wide default execution mode (`--exec-mode`).
pub fn set_default_exec_mode(mode: ExecMode) {
    DEFAULT_MODE.store(
        match mode {
            ExecMode::Interp => 0,
            ExecMode::Threaded => 1,
        },
        Ordering::Relaxed,
    );
}

/// The process-wide default execution mode.
pub fn default_exec_mode() -> ExecMode {
    match DEFAULT_MODE.load(Ordering::Relaxed) {
        0 => ExecMode::Interp,
        _ => ExecMode::Threaded,
    }
}

/// Execution limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// Maximum number of executed instructions before
    /// [`ExecError::OutOfFuel`].
    pub fuel: u64,
    /// Maximum call depth before [`ExecError::StackOverflow`].
    pub max_call_depth: usize,
    /// Which substrate executes the image (see [`ExecMode`]).
    pub mode: ExecMode,
}

impl Default for ExecConfig {
    fn default() -> ExecConfig {
        ExecConfig {
            fuel: 20_000_000,
            max_call_depth: 512,
            mode: default_exec_mode(),
        }
    }
}

/// Counters describing what an execution did — the raw material for the
/// simulated JVM's runtime/GC coverage model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Instructions executed.
    pub steps: u64,
    /// Objects allocated (class lock objects excluded).
    pub allocations: u64,
    /// Monitor enter operations.
    pub monitor_enters: u64,
    /// Monitor exit operations.
    pub monitor_exits: u64,
    /// Reflective invocations.
    pub reflective_calls: u64,
    /// Boxing operations.
    pub boxes: u64,
    /// Unboxing operations.
    pub unboxes: u64,
    /// Method invocations (all kinds).
    pub calls: u64,
    /// Lines printed.
    pub prints: u64,
    /// Deepest call stack observed.
    pub max_depth: usize,
}

/// Per-method hotness counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Profile {
    /// Invocations per [`MethodId`].
    pub invocations: Vec<u64>,
    /// Loop back-edges taken per [`MethodId`].
    pub backedges: Vec<u64>,
}

/// Number of distinct opcodes ([`Instr`] discriminants) — the size of the
/// profiler's fixed accumulation arrays.
pub(crate) const OPCODE_COUNT: usize = 30;

/// Stable display name for each opcode index (see [`opcode_index`]).
pub(crate) const OPCODE_NAMES: [&str; OPCODE_COUNT] = [
    "ConstI",
    "ConstL",
    "ConstB",
    "ConstNull",
    "ClassObj",
    "Load",
    "Store",
    "GetField",
    "PutField",
    "GetStatic",
    "PutStatic",
    "Arith",
    "Cmp",
    "Neg",
    "Not",
    "Jump",
    "JumpIfFalse",
    "Invoke",
    "InvokeVirtual",
    "InvokeReflect",
    "New",
    "BoxInt",
    "UnboxInt",
    "MonitorEnter",
    "MonitorExit",
    "Print",
    "Pop",
    "Dup",
    "ReturnV",
    "Return",
];

/// Dense index of an instruction's opcode, for array-indexed profiling.
pub(crate) fn opcode_index(instr: &Instr) -> usize {
    match instr {
        Instr::ConstI(_) => 0,
        Instr::ConstL(_) => 1,
        Instr::ConstB(_) => 2,
        Instr::ConstNull => 3,
        Instr::ClassObj(_) => 4,
        Instr::Load(_) => 5,
        Instr::Store(_) => 6,
        Instr::GetField(_) => 7,
        Instr::PutField(_) => 8,
        Instr::GetStatic(..) => 9,
        Instr::PutStatic(..) => 10,
        Instr::Arith(_) => 11,
        Instr::Cmp(_) => 12,
        Instr::Neg => 13,
        Instr::Not => 14,
        Instr::Jump(_) => 15,
        Instr::JumpIfFalse(_) => 16,
        Instr::Invoke { .. } => 17,
        Instr::InvokeVirtual { .. } => 18,
        Instr::InvokeReflect { .. } => 19,
        Instr::New(_) => 20,
        Instr::BoxInt => 21,
        Instr::UnboxInt => 22,
        Instr::MonitorEnter => 23,
        Instr::MonitorExit => 24,
        Instr::Print => 25,
        Instr::Pop => 26,
        Instr::Dup => 27,
        Instr::ReturnV => 28,
        Instr::Return => 29,
    }
}

/// Sampling opcode profiler, active only under `mopfuzzer --profile`.
///
/// Hits are counted on every instruction (one array increment); wall time
/// is attributed by sampling — every 64th instruction reads the session
/// clock once and charges the inter-sample delta to the opcode executing
/// at the sample point. That keeps dispatch overhead at ~1/64th of a
/// clock read, and under a manual clock the deltas are all zero, so the
/// per-opcode hit counts stay bit-identical across worker counts.
pub(crate) struct OpcodeProfiler {
    pub(crate) hits: [u64; OPCODE_COUNT],
    pub(crate) nanos: [u64; OPCODE_COUNT],
    last_sample: u64,
}

pub(crate) const SAMPLE_MASK: u64 = 63;

impl OpcodeProfiler {
    pub(crate) fn new() -> OpcodeProfiler {
        OpcodeProfiler {
            hits: [0; OPCODE_COUNT],
            nanos: [0; OPCODE_COUNT],
            last_sample: jtelemetry::now_nanos(),
        }
    }

    #[inline]
    pub(crate) fn step(&mut self, steps: u64, opcode: usize) {
        self.hits[opcode] += 1;
        if steps & SAMPLE_MASK == 0 {
            let now = jtelemetry::now_nanos();
            self.nanos[opcode] += now.saturating_sub(self.last_sample);
            self.last_sample = now;
        }
    }
}

/// The result of executing a program image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// Lines produced by `System.out.println`.
    pub output: Vec<String>,
    /// The terminating error, if any. `None` is a clean exit.
    pub error: Option<ExecError>,
    /// Execution counters.
    pub stats: ExecStats,
    /// Hotness profile.
    pub profile: Profile,
}

impl Outcome {
    /// The externally observable behaviour: printed lines, plus the Java
    /// exception banner for program-level errors. This is what the
    /// differential oracle compares across JVMs.
    pub fn observable(&self) -> Vec<String> {
        let mut out = self.output.clone();
        if let Some(e) = &self.error {
            if e.is_program_level() {
                out.push(format!("Exception in thread \"main\" {}", e.java_name()));
            }
        }
        out
    }

    /// True when execution neither erred nor timed out.
    pub fn is_clean(&self) -> bool {
        self.error.is_none()
    }
}

/// Executes `image` from its `main` method on the interpreter substrate,
/// bypassing the run memo of [`crate::run`].
///
/// This is the reference implementation of execution semantics; the
/// threaded substrate ([`crate::threaded::run`]) must match it bit for bit.
/// `config.mode` is ignored here — use [`crate::run`] to dispatch on it.
///
/// # Examples
///
/// ```
/// let program = mjava::parse(
///     "class T { static void main() { System.out.println(6 * 7); } }",
/// ).unwrap();
/// let image = jexec::Image::build(&program)?;
/// let outcome = jexec::run(&image, &jexec::ExecConfig::default());
/// assert_eq!(outcome.output, vec!["42"]);
/// # Ok::<(), jexec::BuildError>(())
/// ```
pub fn run(image: &Image, config: &ExecConfig) -> Outcome {
    crate::memo::bypass(ExecMode::Interp, image, config)
}

/// The interpreter proper: runs `image` with `profiler` attached (if any)
/// and hands the profiler back. Emits no telemetry; see [`crate::memo`].
pub(crate) fn execute(
    image: &Image,
    config: &ExecConfig,
    profiler: Option<OpcodeProfiler>,
) -> (Outcome, Option<OpcodeProfiler>) {
    let mut machine = Machine {
        image,
        config,
        heap: Heap::new(),
        statics: image.static_defaults(),
        fuel: config.fuel,
        stats: ExecStats::default(),
        profile: Profile {
            invocations: vec![0; image.methods.len()],
            backedges: vec![0; image.methods.len()],
        },
        output: Vec::new(),
        profiler,
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

/// Builds and runs a program in one step, dispatching on `config.mode`.
///
/// # Errors
///
/// Returns [`crate::BuildError`] if the program does not resolve.
pub fn run_program(
    program: &mjava::Program,
    config: &ExecConfig,
) -> Result<Outcome, crate::error::BuildError> {
    let image = Image::build(program)?;
    Ok(crate::run(&image, config))
}

struct Frame {
    mid: MethodId,
    locals: Vec<Value>,
    stack: Vec<Value>,
    pc: usize,
}

/// What the inner dispatch loop asks the outer loop to do.
enum Transfer {
    /// Push a new frame for this call.
    Call {
        mid: MethodId,
        recv: Option<Value>,
        args: Vec<Value>,
    },
    /// Pop the current frame, handing this value to the caller.
    Return(Value),
}

struct Machine<'i> {
    image: &'i Image,
    config: &'i ExecConfig,
    heap: Heap,
    statics: Vec<Vec<Value>>,
    fuel: u64,
    stats: ExecStats,
    profile: Profile,
    output: Vec<String>,
    profiler: Option<OpcodeProfiler>,
}

impl<'i> Machine<'i> {
    fn run_from(&mut self, main: MethodId) -> Result<(), ExecError> {
        let mut frames = Vec::with_capacity(16);
        frames.push(self.new_frame(main, None, Vec::new())?);
        loop {
            let frame = frames.last_mut().expect("at least one frame");
            let transfer = self.dispatch(frame)?;
            match transfer {
                Transfer::Call { mid, recv, args } => {
                    if frames.len() >= self.config.max_call_depth {
                        return Err(ExecError::StackOverflow);
                    }
                    frames.push(self.new_frame(mid, recv, args)?);
                    self.stats.max_depth = self.stats.max_depth.max(frames.len());
                }
                Transfer::Return(v) => {
                    frames.pop();
                    match frames.last_mut() {
                        Some(caller) => caller.stack.push(v),
                        None => return Ok(()),
                    }
                }
            }
        }
    }

    fn new_frame(
        &mut self,
        mid: MethodId,
        recv: Option<Value>,
        args: Vec<Value>,
    ) -> Result<Frame, ExecError> {
        self.profile.invocations[mid] += 1;
        self.stats.calls += 1;
        let method = &self.image.methods[mid];
        let mut locals = vec![Value::Null; method.code.n_locals as usize];
        let mut slot = 0usize;
        if let Some(r) = recv {
            if locals.is_empty() {
                return Err(ExecError::VmCorrupt("no slot for receiver"));
            }
            locals[0] = r;
            slot = 1;
        }
        for a in args {
            if slot >= locals.len() {
                return Err(ExecError::VmCorrupt("no slot for argument"));
            }
            locals[slot] = a;
            slot += 1;
        }
        Ok(Frame {
            mid,
            locals,
            // Exact preallocation from compile-time metadata — the hot loop
            // never reallocates an operand stack for compiler-emitted code.
            stack: Vec::with_capacity(method.code.max_stack as usize),
            pc: 0,
        })
    }

    /// Executes instructions in `frame` until a call or return transfers
    /// control.
    fn dispatch(&mut self, frame: &mut Frame) -> Result<Transfer, ExecError> {
        let code = &self.image.methods[frame.mid].code;
        macro_rules! pop {
            () => {
                frame
                    .stack
                    .pop()
                    .ok_or(ExecError::VmCorrupt("operand stack underflow"))?
            };
        }
        loop {
            if self.fuel == 0 {
                return Err(ExecError::OutOfFuel);
            }
            self.fuel -= 1;
            self.stats.steps += 1;
            // Cooperative cancellation: a campaign watchdog can cancel the
            // current round's token; polling every 4096 steps bounds the
            // latency of a wall-clock timeout without measurable dispatch
            // cost. Panics with the timeout marker when cancelled.
            if self.stats.steps & 0xFFF == 0 {
                jtelemetry::cancel::check("interpreter");
            }
            let instr = code
                .instrs
                .get(frame.pc)
                .ok_or(ExecError::VmCorrupt("pc out of range"))?;
            if let Some(profiler) = &mut self.profiler {
                profiler.step(self.stats.steps, opcode_index(instr));
            }
            match instr {
                Instr::ConstI(v) => frame.stack.push(Value::Int(*v)),
                Instr::ConstL(v) => frame.stack.push(Value::Long(*v)),
                Instr::ConstB(b) => frame.stack.push(Value::Bool(*b)),
                Instr::ConstNull => frame.stack.push(Value::Null),
                Instr::ClassObj(cid) => frame.stack.push(Value::Ref(*cid)),
                Instr::Load(s) => {
                    let v = *frame
                        .locals
                        .get(*s as usize)
                        .ok_or(ExecError::VmCorrupt("local slot out of range"))?;
                    frame.stack.push(v);
                }
                Instr::Store(s) => {
                    let v = pop!();
                    let slot = frame
                        .locals
                        .get_mut(*s as usize)
                        .ok_or(ExecError::VmCorrupt("local slot out of range"))?;
                    *slot = v;
                }
                Instr::GetField(name) => {
                    let obj = pop!();
                    let v = self.get_field(obj, name)?;
                    frame.stack.push(v);
                }
                Instr::PutField(name) => {
                    let value = pop!();
                    let obj = pop!();
                    self.put_field(obj, name, value)?;
                }
                Instr::GetStatic(cid, off) => {
                    let v = *self
                        .statics
                        .get(*cid)
                        .and_then(|s| s.get(*off as usize))
                        .ok_or(ExecError::VmCorrupt("static slot out of range"))?;
                    frame.stack.push(v);
                }
                Instr::PutStatic(cid, off) => {
                    let v = pop!();
                    let slot = self
                        .statics
                        .get_mut(*cid)
                        .and_then(|s| s.get_mut(*off as usize))
                        .ok_or(ExecError::VmCorrupt("static slot out of range"))?;
                    *slot = v;
                }
                Instr::Arith(op) => {
                    let b = pop!();
                    let a = pop!();
                    frame.stack.push(ops::arith(*op, a, b)?);
                }
                Instr::Cmp(op) => {
                    let b = pop!();
                    let a = pop!();
                    frame.stack.push(ops::compare(*op, a, b)?);
                }
                Instr::Neg => {
                    let v = pop!();
                    frame.stack.push(ops::negate(v)?);
                }
                Instr::Not => {
                    let v = pop!();
                    frame.stack.push(ops::boolean_not(v)?);
                }
                Instr::Jump(target) => {
                    if *target <= frame.pc {
                        self.profile.backedges[frame.mid] += 1;
                    }
                    frame.pc = *target;
                    continue;
                }
                Instr::JumpIfFalse(target) => {
                    let v = pop!();
                    match v {
                        Value::Bool(false) => {
                            frame.pc = *target;
                            continue;
                        }
                        Value::Bool(true) => {}
                        _ => return Err(ExecError::TypeMismatch("branch on non-boolean")),
                    }
                }
                Instr::Invoke {
                    method,
                    argc,
                    has_recv,
                } => {
                    let call_args = Self::pop_args(&mut frame.stack, *argc)?;
                    let recv = if *has_recv {
                        Some(Self::require_recv(pop!())?)
                    } else {
                        None
                    };
                    let target = &self.image.methods[*method];
                    if target.params.len() != call_args.len() {
                        return Err(ExecError::NoSuchMethod {
                            class: self.image.classes[target.class].name.clone(),
                            method: target.name.clone(),
                        });
                    }
                    let recv = if target.is_static {
                        None
                    } else {
                        Some(recv.ok_or(ExecError::NullReference)?)
                    };
                    frame.pc += 1;
                    return Ok(Transfer::Call {
                        mid: *method,
                        recv,
                        args: call_args,
                    });
                }
                Instr::InvokeVirtual { method, argc } => {
                    let call_args = Self::pop_args(&mut frame.stack, *argc)?;
                    let recv = Self::require_recv(pop!())?;
                    let Value::Ref(oid) = recv else {
                        return Err(ExecError::TypeMismatch("virtual call on non-object"));
                    };
                    let class = self
                        .heap
                        .get(oid)
                        .ok_or(ExecError::VmCorrupt("dangling reference"))?
                        .class;
                    let mid = self.image.classes[class]
                        .method_index
                        .get(method)
                        .copied()
                        .ok_or_else(|| ExecError::NoSuchMethod {
                            class: self.image.classes[class].name.clone(),
                            method: method.clone(),
                        })?;
                    let target = &self.image.methods[mid];
                    if target.params.len() != call_args.len() {
                        return Err(ExecError::NoSuchMethod {
                            class: self.image.classes[class].name.clone(),
                            method: method.clone(),
                        });
                    }
                    let recv = if target.is_static { None } else { Some(recv) };
                    frame.pc += 1;
                    return Ok(Transfer::Call {
                        mid,
                        recv,
                        args: call_args,
                    });
                }
                Instr::InvokeReflect {
                    class,
                    method,
                    has_recv,
                    argc,
                } => {
                    self.stats.reflective_calls += 1;
                    let call_args = Self::pop_args(&mut frame.stack, *argc)?;
                    let recv = if *has_recv { Some(pop!()) } else { None };
                    let cid = self
                        .image
                        .class_id(class)
                        .ok_or_else(|| ExecError::NoSuchClass(class.clone()))?;
                    let mid = self.image.classes[cid]
                        .method_index
                        .get(method)
                        .copied()
                        .ok_or_else(|| ExecError::NoSuchMethod {
                            class: class.clone(),
                            method: method.clone(),
                        })?;
                    let target = &self.image.methods[mid];
                    if target.params.len() != call_args.len() {
                        return Err(ExecError::NoSuchMethod {
                            class: class.clone(),
                            method: method.clone(),
                        });
                    }
                    let recv = if target.is_static {
                        None
                    } else {
                        match recv {
                            Some(Value::Null) | None => return Err(ExecError::NullReference),
                            Some(v) => Some(Self::require_recv(v)?),
                        }
                    };
                    frame.pc += 1;
                    return Ok(Transfer::Call {
                        mid,
                        recv,
                        args: call_args,
                    });
                }
                Instr::New(cid) => {
                    self.stats.allocations += 1;
                    let defaults = self.image.classes[*cid].field_defaults();
                    let oid = self.heap.alloc(*cid, defaults);
                    frame.stack.push(Value::Ref(oid));
                }
                Instr::BoxInt => {
                    self.stats.boxes += 1;
                    match pop!() {
                        Value::Int(v) => frame.stack.push(Value::Boxed(v)),
                        _ => return Err(ExecError::TypeMismatch("boxing a non-int")),
                    }
                }
                Instr::UnboxInt => {
                    self.stats.unboxes += 1;
                    match pop!() {
                        Value::Boxed(v) => frame.stack.push(Value::Int(v)),
                        Value::Null => return Err(ExecError::NullReference),
                        _ => return Err(ExecError::TypeMismatch("unboxing a non-Integer")),
                    }
                }
                Instr::MonitorEnter => {
                    self.stats.monitor_enters += 1;
                    match pop!() {
                        Value::Ref(oid) => {
                            let obj = self
                                .heap
                                .get_mut(oid)
                                .ok_or(ExecError::VmCorrupt("dangling reference"))?;
                            obj.monitor_depth += 1;
                        }
                        Value::Null => return Err(ExecError::NullReference),
                        _ => return Err(ExecError::TypeMismatch("monitor on non-object")),
                    }
                }
                Instr::MonitorExit => {
                    self.stats.monitor_exits += 1;
                    match pop!() {
                        Value::Ref(oid) => {
                            let obj = self
                                .heap
                                .get_mut(oid)
                                .ok_or(ExecError::VmCorrupt("dangling reference"))?;
                            if obj.monitor_depth == 0 {
                                return Err(ExecError::IllegalMonitorState);
                            }
                            obj.monitor_depth -= 1;
                        }
                        Value::Null => return Err(ExecError::NullReference),
                        _ => return Err(ExecError::TypeMismatch("monitor on non-object")),
                    }
                }
                Instr::Print => {
                    self.stats.prints += 1;
                    let v = pop!();
                    self.output.push(v.to_string());
                }
                Instr::Pop => {
                    let _ = pop!();
                }
                Instr::Dup => {
                    let v = *frame
                        .stack
                        .last()
                        .ok_or(ExecError::VmCorrupt("operand stack underflow"))?;
                    frame.stack.push(v);
                }
                Instr::ReturnV => return Ok(Transfer::Return(pop!())),
                Instr::Return => return Ok(Transfer::Return(Value::Null)),
            }
            frame.pc += 1;
        }
    }

    fn pop_args(stack: &mut Vec<Value>, argc: u8) -> Result<Vec<Value>, ExecError> {
        let n = argc as usize;
        if stack.len() < n {
            return Err(ExecError::VmCorrupt("operand stack underflow"));
        }
        Ok(stack.split_off(stack.len() - n))
    }

    fn require_recv(v: Value) -> Result<Value, ExecError> {
        match v {
            Value::Null => Err(ExecError::NullReference),
            Value::Ref(_) => Ok(v),
            _ => Err(ExecError::TypeMismatch("receiver is not an object")),
        }
    }

    fn get_field(&self, obj: Value, name: &str) -> Result<Value, ExecError> {
        match obj {
            Value::Null => Err(ExecError::NullReference),
            Value::Ref(oid) => {
                let object = self
                    .heap
                    .get(oid)
                    .ok_or(ExecError::VmCorrupt("dangling reference"))?;
                let class = &self.image.classes[object.class];
                let off = class
                    .instance_offset(name)
                    .ok_or_else(|| ExecError::NoSuchField {
                        class: class.name.clone(),
                        field: name.to_string(),
                    })?;
                Ok(object.fields[off])
            }
            _ => Err(ExecError::TypeMismatch("field access on non-object")),
        }
    }

    fn put_field(&mut self, obj: Value, name: &str, value: Value) -> Result<(), ExecError> {
        match obj {
            Value::Null => Err(ExecError::NullReference),
            Value::Ref(oid) => {
                let class_id = self
                    .heap
                    .get(oid)
                    .ok_or(ExecError::VmCorrupt("dangling reference"))?
                    .class;
                let class = &self.image.classes[class_id];
                let off = class
                    .instance_offset(name)
                    .ok_or_else(|| ExecError::NoSuchField {
                        class: class.name.clone(),
                        field: name.to_string(),
                    })?;
                let object = self
                    .heap
                    .get_mut(oid)
                    .ok_or(ExecError::VmCorrupt("dangling reference"))?;
                object.fields[off] = value;
                Ok(())
            }
            _ => Err(ExecError::TypeMismatch("field access on non-object")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// This module tests the interpreter substrate specifically; the mode
    /// is pinned so the global default (threaded) cannot redirect `exec`.
    /// `crate::threaded` mirrors the behavioural tests, and
    /// `tests/exec_equivalence.rs` proves the two substrates identical.
    fn interp_config() -> ExecConfig {
        ExecConfig {
            mode: ExecMode::Interp,
            ..ExecConfig::default()
        }
    }

    fn exec(src: &str) -> Outcome {
        run_program(&mjava::parse(src).unwrap(), &interp_config()).unwrap()
    }

    #[test]
    fn prints_arithmetic() {
        let o = exec("class T { static void main() { System.out.println(2 + 3 * 4); } }");
        assert!(o.is_clean());
        assert_eq!(o.output, vec!["14"]);
    }

    #[test]
    fn loops_accumulate_and_profile_backedges() {
        let o = exec(
            r#"
            class T {
                static void main() {
                    int s = 0;
                    for (int i = 0; i < 100; i++) { s = s + i; }
                    System.out.println(s);
                }
            }
            "#,
        );
        assert_eq!(o.output, vec!["4950"]);
        assert!(o.profile.backedges[0] >= 99);
    }

    #[test]
    fn instance_fields_and_methods() {
        let o = exec(
            r#"
            class T {
                int f;
                int bump(int d) { f = f + d; return f; }
                static void main() {
                    T t = new T();
                    t.bump(5);
                    System.out.println(t.bump(7));
                }
            }
            "#,
        );
        assert_eq!(o.output, vec!["12"]);
        assert_eq!(o.stats.allocations, 1);
    }

    #[test]
    fn statics_persist_across_calls() {
        let o = exec(
            r#"
            class T {
                static int s = 10;
                static void inc() { s = s + 1; }
                static void main() { T.inc(); T.inc(); System.out.println(s); }
            }
            "#,
        );
        assert_eq!(o.output, vec!["12"]);
    }

    #[test]
    fn synchronized_blocks_balance() {
        let o = exec(
            r#"
            class T {
                static void main() {
                    synchronized (T.class) {
                        synchronized (T.class) {
                            System.out.println(1);
                        }
                    }
                }
            }
            "#,
        );
        assert!(o.is_clean(), "error: {:?}", o.error);
        assert_eq!(o.stats.monitor_enters, 2);
        assert_eq!(o.stats.monitor_exits, 2);
    }

    #[test]
    fn return_inside_synchronized_releases() {
        let o = exec(
            r#"
            class T {
                static int g() {
                    synchronized (T.class) { return 5; }
                }
                static void main() { System.out.println(T.g()); }
            }
            "#,
        );
        assert!(o.is_clean(), "error: {:?}", o.error);
        assert_eq!(o.output, vec!["5"]);
    }

    #[test]
    fn synchronized_method_runs() {
        let o = exec(
            r#"
            class T {
                int n;
                synchronized void inc() { n = n + 1; }
                static void main() {
                    T t = new T();
                    t.inc(); t.inc(); t.inc();
                    System.out.println(t.n);
                }
            }
            "#,
        );
        assert!(o.is_clean());
        assert_eq!(o.output, vec!["3"]);
    }

    #[test]
    fn reflection_invokes_instance_method() {
        let o = exec(
            r#"
            class T {
                int f;
                int get(int d) { return f + d; }
                static void main() {
                    T t = new T();
                    t.f = 40;
                    System.out.println(Class.forName("T").getDeclaredMethod("get").invoke(t, 2));
                }
            }
            "#,
        );
        assert!(o.is_clean(), "error: {:?}", o.error);
        assert_eq!(o.output, vec!["42"]);
        assert_eq!(o.stats.reflective_calls, 1);
    }

    #[test]
    fn reflection_missing_class_is_program_level() {
        let o = exec(
            r#"
            class T {
                static void main() {
                    System.out.println(Class.forName("Nope").getDeclaredMethod("g").invoke(null));
                }
            }
            "#,
        );
        assert_eq!(o.error, Some(ExecError::NoSuchClass("Nope".into())));
        assert!(o
            .observable()
            .iter()
            .any(|l| l.contains("ClassNotFoundException")));
    }

    #[test]
    fn reflection_static_with_null_receiver() {
        let o = exec(
            r#"
            class T {
                static int twice(int v) { return v * 2; }
                static void main() {
                    System.out.println(Class.forName("T").getDeclaredMethod("twice").invoke(null, 21));
                }
            }
            "#,
        );
        assert!(o.is_clean(), "error: {:?}", o.error);
        assert_eq!(o.output, vec!["42"]);
    }

    #[test]
    fn boxing_roundtrip() {
        let o = exec(
            r#"
            class T {
                static void main() {
                    Integer b = Integer.valueOf(20);
                    System.out.println(b.intValue() + 22);
                }
            }
            "#,
        );
        assert_eq!(o.output, vec!["42"]);
        assert_eq!(o.stats.boxes, 1);
        assert_eq!(o.stats.unboxes, 1);
    }

    #[test]
    fn division_by_zero_is_program_level() {
        let o = exec("class T { static void main() { System.out.println(1 / 0); } }");
        assert_eq!(o.error, Some(ExecError::DivisionByZero));
        let obs = o.observable();
        assert!(obs.last().unwrap().contains("ArithmeticException"));
    }

    #[test]
    fn null_field_access_is_npe() {
        let o =
            exec("class T { int f; static void main() { T t = null; System.out.println(t.f); } }");
        assert_eq!(o.error, Some(ExecError::NullReference));
    }

    #[test]
    fn infinite_loop_runs_out_of_fuel() {
        let program =
            mjava::parse("class T { static void main() { while (true) { int x = 1; } } }").unwrap();
        let o = run_program(
            &program,
            &ExecConfig {
                fuel: 10_000,
                ..interp_config()
            },
        )
        .unwrap();
        assert_eq!(o.error, Some(ExecError::OutOfFuel));
    }

    #[test]
    fn deep_recursion_overflows_gracefully() {
        let o = exec(
            r#"
            class T {
                static int down(int n) { return T.down(n + 1); }
                static void main() { System.out.println(T.down(0)); }
            }
            "#,
        );
        assert_eq!(o.error, Some(ExecError::StackOverflow));
        assert!(o.stats.max_depth <= interp_config().max_call_depth);
    }

    #[test]
    fn bounded_recursion_works() {
        let o = exec(
            r#"
            class T {
                static int fib(int n) {
                    if (n < 2) { return n; }
                    return T.fib(n - 1) + T.fib(n - 2);
                }
                static void main() { System.out.println(T.fib(15)); }
            }
            "#,
        );
        assert!(o.is_clean());
        assert_eq!(o.output, vec!["610"]);
    }

    #[test]
    fn hot_method_profile() {
        let src = r#"
            class T {
                static int f(int i) { return i * 2; }
                static void main() {
                    int s = 0;
                    for (int i = 0; i < 500; i++) { s = s + T.f(i); }
                    System.out.println(s);
                }
            }
            "#;
        let image = Image::build(&mjava::parse(src).unwrap()).unwrap();
        let (main, f) = (image.main(), image.method_id("T", "f").unwrap());
        let o = run(&image, &interp_config());
        assert_eq!(o.profile.invocations[f], 500);
        assert_eq!(o.profile.backedges[f], 0);
        assert!(o.profile.backedges[main] >= 499);
    }

    #[test]
    fn int_overflow_wraps_like_java() {
        let o = exec("class T { static void main() { System.out.println(2147483647 + 1); } }");
        assert_eq!(o.output, vec!["-2147483648"]);
    }

    #[test]
    fn long_arithmetic() {
        let o = exec(
            "class T { static void main() { long x = 4000000000L; System.out.println(x + 1L); } }",
        );
        assert_eq!(o.output, vec!["4000000001"]);
    }

    #[test]
    fn while_with_mutation() {
        let o = exec(
            r#"
            class T {
                static void main() {
                    int i = 0;
                    int s = 0;
                    while (i < 10) { s = s + i; i = i + 1; }
                    System.out.println(s);
                }
            }
            "#,
        );
        assert_eq!(o.output, vec!["45"]);
    }

    #[test]
    fn hand_built_code_with_dup_pop_and_direct_invoke() {
        // Exercise instructions the AST compiler never emits (Dup, and
        // Invoke with an explicit receiver) by patching code in directly.
        use crate::code::{Code, Instr};
        let program = mjava::parse(
            r#"
            class T {
                int f;
                int get() { return f; }
                static void main() { }
            }
            "#,
        )
        .unwrap();
        let mut image = Image::build(&program).unwrap();
        let get = image.method_id("T", "get").unwrap();
        let main = image.main();
        // main: T t = new T(); t.f via Dup'd receiver; print get().
        let code = Code {
            instrs: vec![
                Instr::New(0),
                Instr::Dup,
                Instr::Dup,
                Instr::ConstI(41),
                Instr::PutField("f".into()),
                // Stack now: [t, t]; drop one, call get() on the other.
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
        let o = run(&image, &interp_config());
        assert!(o.is_clean(), "{:?}", o.error);
        assert_eq!(o.output, vec!["42"]);
    }

    #[test]
    fn corrupt_code_is_caught_not_undefined() {
        use crate::code::{Code, Instr};
        let program = mjava::parse("class T { static void main() { } }").unwrap();
        let mut image = Image::build(&program).unwrap();
        let main = image.main();
        // Pop from an empty stack must be a VmCorrupt error, not a panic.
        image.install_code(
            main,
            Code {
                instrs: vec![Instr::Pop, Instr::Return],
                n_locals: 0,
                max_stack: 0,
            },
        );
        let o = run(&image, &interp_config());
        assert_eq!(
            o.error,
            Some(ExecError::VmCorrupt("operand stack underflow"))
        );
    }

    #[test]
    fn profiler_attributes_every_instruction() {
        jtelemetry::install(jtelemetry::Session::from_spec(jtelemetry::SessionSpec {
            manual: true,
            trace: false,
            profile: true,
        }));
        let o = exec(
            r#"
            class T {
                static void main() {
                    int s = 0;
                    for (int i = 0; i < 50; i++) { s = s + i; }
                    System.out.println(s);
                }
            }
            "#,
        );
        assert!(o.is_clean());
        let snap = jtelemetry::take().unwrap().snapshot();
        let total: u64 = snap.opcodes.iter().map(|op| op.hits).sum();
        assert_eq!(total, o.stats.steps, "every step lands on one opcode");
        assert!(snap.opcodes.iter().any(|op| op.name == "Arith"));
        assert!(snap.opcodes.iter().any(|op| op.name == "JumpIfFalse"));
        assert!(
            snap.opcodes.iter().all(|op| op.nanos == 0),
            "manual clock must sample zero nanos"
        );
    }

    #[test]
    fn profiler_off_records_nothing() {
        jtelemetry::install(jtelemetry::Session::from_spec(jtelemetry::SessionSpec {
            manual: true,
            trace: false,
            profile: false,
        }));
        let o = exec("class T { static void main() { System.out.println(1); } }");
        assert!(o.is_clean());
        let snap = jtelemetry::take().unwrap().snapshot();
        assert!(snap.opcodes.is_empty());
    }

    #[test]
    fn all_builtin_seeds_execute_cleanly() {
        for seed in mjava::samples::all_seeds() {
            let o = run_program(&seed.program, &interp_config())
                .unwrap_or_else(|e| panic!("seed {} fails to build: {e}", seed.name));
            assert!(
                o.is_clean(),
                "seed {} errored: {:?} (output {:?})",
                seed.name,
                o.error,
                o.output
            );
            assert!(!o.output.is_empty(), "seed {} prints nothing", seed.name);
        }
    }
}
