//! Span recorder for the traced run.
//!
//! The benchmark times each call it makes into a layer's public function
//! (`jexec::run`, `jopt::optimize_memo`, `Image::build`, ...). A span has
//! a layer, a parent, a round id and start/end offsets; a layer's self
//! time is its span duration minus the part its child spans cover. Spans
//! stay in memory until the run ends. Recording is per thread and off
//! until [`start`] is called.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// The layers the benchmark attributes time to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// The fuzzing loop's own bookkeeping (Algorithm 1 outside its calls).
    Fuzzer,
    /// MP selection, mutator applicability, weighted choice and `apply`.
    Mutators,
    /// OBV scraping, deltas and weight updates.
    Jprofile,
    /// Class loading (`Image::build`) and per-JVM image clones.
    JexecBuild,
    /// Tier-0 interpretation (`jexec::run` on the loaded image).
    JexecTier0,
    /// Compilation: `jopt::optimize_memo` and its program fingerprint.
    Jopt,
    /// Lowering and install (`compile_method_ast` + `install_code`).
    JexecInstall,
    /// The final run on the compiled image.
    JexecFinal,
    /// The simulated JVM's own work: tier selection, bug evaluation.
    Jvmsim,
    /// The differential oracle (§3.5).
    Oracle,
    /// Test-case minimization for promotion (with its oracle runs).
    Jreduce,
    /// Behaviour fingerprinting on the reference JVM.
    JcorpusFingerprint,
    /// Corpus store admission and save.
    JcorpusSave,
    /// Journal appends.
    Journal,
}

pub const LAYERS: usize = 14;

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Fuzzer => "fuzzer",
            Layer::Mutators => "mutators",
            Layer::Jprofile => "jprofile",
            Layer::JexecBuild => "jexec.build",
            Layer::JexecTier0 => "jexec.tier0",
            Layer::Jopt => "jopt",
            Layer::JexecInstall => "jexec.install",
            Layer::JexecFinal => "jexec.final",
            Layer::Jvmsim => "jvmsim",
            Layer::Oracle => "oracle",
            Layer::Jreduce => "jreduce",
            Layer::JcorpusFingerprint => "jcorpus.fingerprint",
            Layer::JcorpusSave => "jcorpus.save",
            Layer::Journal => "journal",
        }
    }

    fn index(self) -> usize {
        self as usize
    }

    /// The layers whose spans wrap calls into other layers. Their self
    /// time is whatever their children leave uncovered, so it explains
    /// nothing and does not count as attributed.
    pub fn is_parent(self) -> bool {
        matches!(self, Layer::Fuzzer | Layer::Jvmsim | Layer::Oracle)
    }

    const ALL: [Layer; LAYERS] = [
        Layer::Fuzzer,
        Layer::Mutators,
        Layer::Jprofile,
        Layer::JexecBuild,
        Layer::JexecTier0,
        Layer::Jopt,
        Layer::JexecInstall,
        Layer::JexecFinal,
        Layer::Jvmsim,
        Layer::Oracle,
        Layer::Jreduce,
        Layer::JcorpusFingerprint,
        Layer::JcorpusSave,
        Layer::Journal,
    ];
}

/// One finished span.
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub round: u32,
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-layer totals plus the raw spans.
pub struct Summary {
    pub self_ns: [u64; LAYERS],
    pub total_ns: [u64; LAYERS],
    pub spans: Vec<Span>,
}

impl Summary {
    fn empty() -> Summary {
        Summary {
            self_ns: [0; LAYERS],
            total_ns: [0; LAYERS],
            spans: Vec::new(),
        }
    }

    pub fn self_ms(&self, layer: Layer) -> f64 {
        self.self_ns[layer.index()] as f64 / 1e6
    }

    pub fn total_ms(&self, layer: Layer) -> f64 {
        self.total_ns[layer.index()] as f64 / 1e6
    }

    /// Sum of the self times of the leaf layers: time spent inside a named
    /// call that no other span covers.
    pub fn attributed_ms(&self) -> f64 {
        self.self_sum_ms(|layer| !layer.is_parent())
    }

    /// Sum of the parent layers' self times.
    pub fn parent_self_ms(&self) -> f64 {
        self.self_sum_ms(Layer::is_parent)
    }

    fn self_sum_ms(&self, pick: impl Fn(Layer) -> bool) -> f64 {
        Layer::ALL
            .iter()
            .filter(|&&layer| pick(layer))
            .map(|&layer| self.self_ms(layer))
            .sum()
    }

    /// Tab-separated spans, one per line: id, parent, round, layer, and
    /// start/end in nanoseconds since recording started.
    pub fn spans_tsv(&self) -> String {
        let mut out = String::from("id\tparent\tround\tlayer\tstart_ns\tend_ns\n");
        for s in &self.spans {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{}\t{parent}\t{}\t{}\t{}\t{}",
                s.id,
                s.round,
                s.layer.name(),
                s.start_ns,
                s.end_ns
            );
        }
        out
    }
}

struct Open {
    id: u32,
    layer: Layer,
    start: Instant,
    child_ns: u64,
}

struct Recorder {
    epoch: Instant,
    round: u32,
    next_id: u32,
    open: Vec<Open>,
    summary: Summary,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Starts recording on this thread.
pub fn start() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            epoch: Instant::now(),
            round: 0,
            next_id: 0,
            open: Vec::new(),
            summary: Summary::empty(),
        });
    });
}

/// Stops recording and returns what was recorded (empty when off).
pub fn finish() -> Summary {
    RECORDER
        .with(|r| r.borrow_mut().take())
        .map_or_else(Summary::empty, |r| r.summary)
}

/// Tags the spans that follow with a round id.
pub fn set_round(round: usize) {
    RECORDER.with(|r| {
        if let Some(r) = r.borrow_mut().as_mut() {
            r.round = round as u32;
        }
    });
}

/// Runs `f` inside a span of `layer` (just runs it when recording is off).
pub fn span<T>(layer: Layer, f: impl FnOnce() -> T) -> T {
    let opened = RECORDER.with(|r| match r.borrow_mut().as_mut() {
        Some(r) => {
            let id = r.next_id;
            r.next_id += 1;
            r.open.push(Open {
                id,
                layer,
                start: Instant::now(),
                child_ns: 0,
            });
            true
        }
        None => false,
    });
    let out = f();
    if opened {
        let end = Instant::now();
        RECORDER.with(|r| {
            let mut guard = r.borrow_mut();
            let r = guard
                .as_mut()
                .expect("recorder stays installed inside a span");
            let open = r.open.pop().expect("span stack matches span calls");
            let dur = end.duration_since(open.start).as_nanos() as u64;
            let parent = r.open.last_mut().map(|p| {
                p.child_ns += dur;
                p.id
            });
            let i = open.layer.index();
            r.summary.self_ns[i] += dur.saturating_sub(open.child_ns);
            r.summary.total_ns[i] += dur;
            let start_ns = open.start.duration_since(r.epoch).as_nanos() as u64;
            r.summary.spans.push(Span {
                id: open.id,
                parent,
                round: r.round,
                layer: open.layer,
                start_ns,
                end_ns: start_ns + dur,
            });
        });
    }
    out
}
