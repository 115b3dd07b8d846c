//! The campaign registry: specs, statuses, persistence, and the
//! scheduler that multiplexes tenants onto one process.
//!
//! Each submitted campaign becomes a **tenant**: a directory under
//! `DATA_DIR/campaigns/<id>/` holding its immutable `spec.json`, an
//! atomically-rewritten `status.json`, and the campaign's JSONL journal.
//! A tenant runs on whichever driver thread takes it from the admission
//! FIFO, under a `jtelemetry` session and a thread-local cancel flag
//! ([`mopfuzzer::interrupt::set_local`]) installed for that run alone,
//! so the per-thread machinery the CLI relies on isolates tenants from
//! each other. Plain tenants share the one process-wide work pool;
//! each asks it for `jobs` capacity exactly as a standalone run would, so
//! pool capacity is the **max** of the plain tenants' worker counts,
//! never the sum. Corpus tenants run serially on their driver threads and
//! add no pool capacity.
//!
//! The scheduler is one FIFO of tenants behind one mutex, served by at
//! most `max_active` driver threads. A driver starts when a tenant is
//! queued and a slot is free, runs tenants one after another, and exits
//! once the FIFO is empty or the registry drains, so a queued tenant
//! holds no thread. Journals are written by the exact same library calls
//! the CLI makes with the same defaults, which is what keeps a daemon
//! campaign's journal byte-identical to `mopfuzzer --rounds .. --rng ..
//! --journal ..` at the same seed and worker counts (test-enforced).
//!
//! Lifecycle: `queued → running → done`, with three other exits —
//! `cancelled` (the tenant's cancel endpoint fired), `interrupted` (a
//! daemon-wide drain stopped it at a round boundary; `serve --resume`
//! re-adopts it and continues the journal bit-identically), and
//! `failed` (the campaign returned an error).

use jtelemetry::json::{self, quote, Json};
use jtelemetry::MetricsSnapshot;
use jvmsim::JvmSpec;
use mopfuzzer::{
    resume_campaign_extended, run_campaign_with_journal_observed, run_corpus_campaign,
    CampaignConfig, CampaignObserver, CampaignResult, CorpusOptions, SupervisorConfig, Variant,
};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// File names inside a tenant directory.
pub const SPEC_FILE: &str = "spec.json";
pub const STATUS_FILE: &str = "status.json";
pub const JOURNAL_FILE: &str = "journal.jsonl";
/// Subdirectory of the data dir holding one directory per tenant.
pub const CAMPAIGNS_DIR: &str = "campaigns";

/// One tenant's campaign parameters, resolved to the same defaults the
/// CLI resolves (that resolution is what the journal-equivalence
/// guarantee leans on). Serialized fully resolved into `spec.json`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignSpec {
    /// Supervised rounds to run (required, >= 1).
    pub rounds: usize,
    /// Campaign RNG seed (`"seed"`; default 0).
    pub rng_seed: u64,
    /// Mutation iterations per seed (default 50, the paper's setting).
    pub iterations: usize,
    /// Corpus store directory; `None` fuzzes the built-in corpus.
    pub corpus: Option<PathBuf>,
    /// Round-level worker threads, resolved by [`mopfuzzer::resolve_jobs`]
    /// (plain default: all hardware threads; corpus campaigns: 1).
    pub jobs: usize,
    /// Wall-clock round timeout in milliseconds, if any.
    pub round_timeout_ms: Option<u64>,
}

/// An optional integer field, read exactly: `1e3`, `1.5`, `-1` and
/// anything `T` cannot hold are errors, never rounded to a neighbour.
fn opt_int<T: TryFrom<u64>>(json: &Json, key: &str) -> Result<Option<T>, String> {
    match json.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_u64()
            .and_then(|n| T::try_from(n).ok())
            .map(Some)
            .ok_or_else(|| format!("\"{key}\" must be a non-negative integer")),
    }
}

impl CampaignSpec {
    /// Parses a submission body, rejecting unknown keys so a typo'd
    /// option fails loudly instead of silently running with defaults.
    pub fn from_json(text: &str) -> Result<CampaignSpec, String> {
        Self::parse(text, false).map(|(spec, _)| spec)
    }

    /// [`CampaignSpec::from_json`], plus the `spec.json` files older
    /// daemons persisted when `persisted` is set: those accepted
    /// `jobs > 1` with a corpus and `jobs` above [`mopfuzzer::MAX_JOBS`].
    /// Such a tenant runs at the most it may (1 over a corpus), which
    /// journals the same bytes because `jobs` is not journaled. Returns
    /// the lowered request alongside the spec.
    fn parse(text: &str, persisted: bool) -> Result<(CampaignSpec, Option<usize>), String> {
        let json = json::parse(text)?;
        let Some(map) = json.as_obj() else {
            return Err("campaign spec must be a JSON object".to_string());
        };
        const KNOWN: [&str; 6] = [
            "rounds",
            "seed",
            "iterations",
            "corpus",
            "jobs",
            "round_timeout_ms",
        ];
        if map.contains_key("oracle_jobs") {
            return Err(mopfuzzer::ORACLE_JOBS_REMOVED.to_string());
        }
        for key in map.keys() {
            if !KNOWN.contains(&key.as_str()) {
                return Err(format!("unknown spec field \"{key}\""));
            }
        }
        let rounds =
            opt_int(&json, "rounds")?.ok_or_else(|| "\"rounds\" is required".to_string())?;
        if rounds == 0 {
            return Err("\"rounds\" must be >= 1".to_string());
        }
        let corpus = match json.get("corpus") {
            None | Some(Json::Null) => None,
            Some(Json::Str(dir)) => Some(PathBuf::from(dir)),
            Some(_) => return Err("\"corpus\" must be a string".to_string()),
        };
        let requested: Option<usize> = opt_int(&json, "jobs")?;
        let most = if corpus.is_some() {
            1
        } else {
            mopfuzzer::MAX_JOBS
        };
        let lowered = requested.filter(|&n| persisted && n > most);
        let jobs = lowered.map_or(requested, |_| Some(most));
        let spec = CampaignSpec {
            rounds,
            rng_seed: opt_int(&json, "seed")?.unwrap_or(0),
            iterations: opt_int(&json, "iterations")?.unwrap_or(50),
            jobs: mopfuzzer::resolve_jobs(jobs, corpus.is_some())?,
            corpus,
            round_timeout_ms: opt_int(&json, "round_timeout_ms")?,
        };
        Ok((spec, lowered))
    }

    /// The resolved spec, in the same shape `from_json` accepts.
    pub fn to_json(&self) -> String {
        let corpus = match &self.corpus {
            Some(dir) => quote(&dir.display().to_string()),
            None => "null".to_string(),
        };
        let timeout = match self.round_timeout_ms {
            Some(ms) => ms.to_string(),
            None => "null".to_string(),
        };
        format!(
            "{{\"rounds\":{},\"seed\":{},\"iterations\":{},\"corpus\":{corpus},\
             \"jobs\":{},\"round_timeout_ms\":{timeout}}}",
            self.rounds, self.rng_seed, self.iterations, self.jobs,
        )
    }
}

/// Where a tenant is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum State {
    Queued,
    Running,
    Done,
    Cancelled,
    /// Stopped at a round boundary by a daemon drain; the journal
    /// resumes bit-identically under `serve --resume`.
    Interrupted,
    Failed,
}

impl State {
    pub fn as_str(&self) -> &'static str {
        match self {
            State::Queued => "queued",
            State::Running => "running",
            State::Done => "done",
            State::Cancelled => "cancelled",
            State::Interrupted => "interrupted",
            State::Failed => "failed",
        }
    }

    fn from_str(s: &str) -> Result<State, String> {
        Ok(match s {
            "queued" => State::Queued,
            "running" => State::Running,
            "done" => State::Done,
            "cancelled" => State::Cancelled,
            "interrupted" => State::Interrupted,
            "failed" => State::Failed,
            other => return Err(format!("unknown campaign state {other:?}")),
        })
    }

    /// Whether the campaign can never run again.
    pub fn terminal(&self) -> bool {
        matches!(self, State::Done | State::Cancelled | State::Failed)
    }
}

/// A tenant's live status — what `GET /campaigns/{id}` reports and what
/// `status.json` persists (atomically, once per round and per state
/// transition, so a crashed daemon's successor sees current truth).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignStatus {
    pub id: String,
    pub state: State,
    pub rounds: usize,
    /// The worker count the campaign runs at.
    pub jobs: usize,
    pub completed_rounds: usize,
    pub bugs: usize,
    pub executions: u64,
    pub error: Option<String>,
    pub journal: PathBuf,
}

impl CampaignStatus {
    fn queued(id: String, spec: &CampaignSpec, dir: &Path) -> CampaignStatus {
        CampaignStatus {
            id,
            state: State::Queued,
            rounds: spec.rounds,
            jobs: spec.jobs,
            completed_rounds: 0,
            bugs: 0,
            executions: 0,
            error: None,
            journal: dir.join(JOURNAL_FILE),
        }
    }

    pub fn to_json(&self) -> String {
        let error = self.error.as_deref().map_or("null".to_string(), quote);
        format!(
            "{{\"id\":{},\"state\":\"{}\",\"rounds\":{},\"jobs\":{},\
             \"completed_rounds\":{},\"bugs\":{},\"executions\":{},\"error\":{error},\
             \"journal\":{}}}",
            quote(&self.id),
            self.state.as_str(),
            self.rounds,
            self.jobs,
            self.completed_rounds,
            self.bugs,
            self.executions,
            quote(&self.journal.display().to_string()),
        )
    }

    fn from_json(text: &str) -> Result<CampaignStatus, String> {
        let json = json::parse(text)?;
        let str_field = |key: &str| -> Result<String, String> {
            json.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("status is missing \"{key}\""))
        };
        let state = State::from_str(&str_field("state")?)?;
        Ok(CampaignStatus {
            id: str_field("id")?,
            state,
            rounds: opt_int(&json, "rounds")?.unwrap_or(0),
            jobs: opt_int(&json, "jobs")?.unwrap_or(0),
            completed_rounds: opt_int(&json, "completed_rounds")?.unwrap_or(0),
            bugs: opt_int(&json, "bugs")?.unwrap_or(0),
            executions: opt_int(&json, "executions")?.unwrap_or(0),
            error: json.get("error").and_then(Json::as_str).map(str::to_string),
            journal: PathBuf::from(str_field("journal")?),
        })
    }
}

/// One campaign: spec, live status, cancel wiring, and its latest
/// telemetry snapshot (refreshed at every round boundary, so `/metrics`
/// is live without touching the driver thread).
struct Tenant {
    id: String,
    dir: PathBuf,
    spec: CampaignSpec,
    /// The driver thread's stop flag (installed as the thread-local
    /// interrupt while it runs this tenant); set by cancel and by drain.
    stop: Arc<AtomicBool>,
    /// Distinguishes a cancel (terminal) from a drain (resumable).
    cancelled: AtomicBool,
    status: Mutex<CampaignStatus>,
    metrics: Mutex<Option<Arc<MetricsSnapshot>>>,
}

impl Tenant {
    fn new(dir: PathBuf, spec: CampaignSpec, status: CampaignStatus) -> Arc<Tenant> {
        Arc::new(Tenant {
            id: status.id.clone(),
            dir,
            spec,
            stop: Arc::new(AtomicBool::new(false)),
            cancelled: AtomicBool::new(false),
            status: Mutex::new(status),
            metrics: Mutex::new(None),
        })
    }

    fn persist_status(&self) {
        let (text, path) = {
            let status = self.status.lock().unwrap_or_else(|e| e.into_inner());
            (status.to_json(), self.dir.join(STATUS_FILE))
        };
        // tmp + rename: a crash leaves either the old or the new status,
        // never a torn one.
        let tmp = self.dir.join("status.json.tmp");
        let write =
            std::fs::write(&tmp, text.as_bytes()).and_then(|()| std::fs::rename(&tmp, &path));
        if let Err(e) = write {
            eprintln!("warning: cannot persist {}: {e}", path.display());
        }
    }
}

/// The tenants waiting for a driver, in submission order, and the
/// number of driver threads alive to run them.
#[derive(Default)]
struct Queue {
    waiting: VecDeque<Arc<Tenant>>,
    drivers: usize,
}

/// Finished tenants whose snapshots `/metrics` still labels.
const RECENT_FINISHED: usize = 16;

/// The telemetry of tenants whose drivers are done with them.
struct Finished {
    /// The [`RECENT_FINISHED`] that finished last, oldest first.
    recent: VecDeque<Arc<Tenant>>,
    /// Every older one's snapshot, merged: only the aggregate shows it.
    retired: Arc<MetricsSnapshot>,
}

/// The registry: all tenants, the admission FIFO, the driver threads,
/// and the telemetry of finished tenants.
pub struct Registry {
    campaigns_dir: PathBuf,
    max_active: usize,
    draining: AtomicBool,
    queue: Mutex<Queue>,
    tenants: Mutex<Vec<Arc<Tenant>>>,
    finished: Mutex<Finished>,
    /// Live drivers; finished ones are dropped at the next spawn.
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl Registry {
    /// Opens (creating if needed) the registry under `data_dir`. Existing
    /// tenant directories are loaded so ids never collide and finished
    /// campaigns stay listed; incomplete ones are re-adopted (their
    /// journals resumed, queued ones started) only when `resume` is set.
    pub fn open(data_dir: &Path, max_active: usize, resume: bool) -> Result<Arc<Registry>, String> {
        let campaigns_dir = data_dir.join(CAMPAIGNS_DIR);
        std::fs::create_dir_all(&campaigns_dir)
            .map_err(|e| format!("cannot create {}: {e}", campaigns_dir.display()))?;
        let registry = Arc::new(Registry {
            campaigns_dir,
            max_active: max_active.max(1),
            draining: AtomicBool::new(false),
            queue: Mutex::default(),
            tenants: Mutex::new(Vec::new()),
            finished: Mutex::new(Finished {
                recent: VecDeque::new(),
                retired: Arc::new(MetricsSnapshot::empty()),
            }),
            threads: Mutex::new(Vec::new()),
        });
        if let Err(e) = registry.adopt_existing(resume) {
            // Stop what was already re-adopted, resumably.
            registry.drain();
            registry.join();
            return Err(e);
        }
        Ok(registry)
    }

    fn adopt_existing(self: &Arc<Registry>, resume: bool) -> Result<(), String> {
        let Ok(entries) = std::fs::read_dir(&self.campaigns_dir) else {
            return Ok(());
        };
        let mut dirs: Vec<PathBuf> = entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.join(SPEC_FILE).exists())
            .collect();
        dirs.sort();
        for dir in dirs {
            let spec_text = std::fs::read_to_string(dir.join(SPEC_FILE))
                .map_err(|e| format!("read {}: {e}", dir.join(SPEC_FILE).display()))?;
            let (spec, lowered) = CampaignSpec::parse(&spec_text, true)
                .map_err(|e| format!("{}: {e}", dir.join(SPEC_FILE).display()))?;
            let id = dir
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            let mut status = match std::fs::read_to_string(dir.join(STATUS_FILE)) {
                Ok(text) => CampaignStatus::from_json(&text)
                    .map_err(|e| format!("{}: {e}", dir.join(STATUS_FILE).display()))?,
                Err(_) => CampaignStatus::queued(id.clone(), &spec, &dir),
            };
            // Status files from older daemons carry no worker count; the
            // spec is the authority.
            status.jobs = spec.jobs;
            let incomplete = !status.state.terminal();
            if let Some(requested) = lowered.filter(|_| incomplete && resume) {
                eprintln!(
                    "mopfuzzerd: campaign {id} asks for jobs {requested}, more than it may \
                     run (corpus campaigns run serially); it runs at jobs {}",
                    spec.jobs
                );
            }
            let tenant = Tenant::new(dir, spec, status);
            self.tenants
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(tenant.clone());
            if incomplete && resume {
                self.schedule(tenant)?;
            }
        }
        Ok(())
    }

    /// Submits a new campaign: persists its spec and queued status, then
    /// queues it for the next free driver. Refused, with nothing written,
    /// while [`MAX_QUEUED`] campaigns already wait.
    ///
    /// [`MAX_QUEUED`]: crate::MAX_QUEUED
    pub fn submit(self: &Arc<Registry>, spec: CampaignSpec) -> Result<CampaignStatus, String> {
        // Holding `tenants` serializes submissions, so the cap is exact.
        let mut tenants = self.tenants.lock().unwrap_or_else(|e| e.into_inner());
        let queued = self
            .queue
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .waiting
            .len();
        if queued >= crate::MAX_QUEUED {
            return Err(format!(
                "{queued} campaigns are already queued; retry later"
            ));
        }
        let next = tenants
            .iter()
            .filter_map(|t| t.id.strip_prefix('c').and_then(|n| n.parse::<u64>().ok()))
            .max()
            .unwrap_or(0)
            + 1;
        let id = format!("c{next:04}");
        let dir = self.campaigns_dir.join(&id);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        std::fs::write(dir.join(SPEC_FILE), spec.to_json() + "\n")
            .map_err(|e| format!("cannot write {}: {e}", dir.join(SPEC_FILE).display()))?;
        let status = CampaignStatus::queued(id, &spec, &dir);
        let tenant = Tenant::new(dir, spec, status.clone());
        tenants.push(tenant.clone());
        tenant.persist_status();
        if let Err(e) = self.schedule(tenant.clone()) {
            {
                let mut status = tenant.status.lock().unwrap_or_else(|e| e.into_inner());
                status.state = State::Failed;
                status.error = Some(e.clone());
            }
            tenant.persist_status();
            return Err(e);
        }
        Ok(status)
    }

    /// Queues `tenant`, starting a driver for it while fewer than
    /// `max_active` are alive. When the OS refuses the thread, `tenant`
    /// leaves the queue again and the error is returned.
    fn schedule(self: &Arc<Registry>, tenant: Arc<Tenant>) -> Result<(), String> {
        let mut queue = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        queue.waiting.push_back(tenant);
        if queue.drivers == self.max_active {
            return Ok(());
        }
        let registry = self.clone();
        let spawned = std::thread::Builder::new()
            .name("campaign-driver".to_string())
            .spawn(move || drive(&registry));
        let handle = match spawned {
            Ok(handle) => handle,
            Err(e) => {
                queue.waiting.pop_back();
                return Err(format!("cannot start a campaign driver thread: {e}"));
            }
        };
        queue.drivers += 1;
        drop(queue);
        let mut threads = self.threads.lock().unwrap_or_else(|e| e.into_inner());
        threads.retain(|handle| !handle.is_finished());
        threads.push(handle);
        Ok(())
    }

    /// The next tenant for a driver, marked running, or `None` (and one
    /// driver fewer) once the FIFO is empty or the registry drains.
    fn next_tenant(&self) -> Option<Arc<Tenant>> {
        let mut queue = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        let next = if self.draining.load(Ordering::SeqCst) {
            None
        } else {
            queue.waiting.pop_front()
        };
        match &next {
            Some(tenant) => {
                tenant
                    .status
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .state = State::Running
            }
            None => queue.drivers -= 1,
        }
        next
    }

    /// Every tenant's status, in id order.
    pub fn statuses(&self) -> Vec<CampaignStatus> {
        let mut all: Vec<CampaignStatus> = self
            .tenants
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|t| t.status.lock().unwrap_or_else(|e| e.into_inner()).clone())
            .collect();
        all.sort_by(|a, b| a.id.cmp(&b.id));
        all
    }

    fn tenant(&self, id: &str) -> Option<Arc<Tenant>> {
        self.tenants
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .find(|t| t.id == id)
            .cloned()
    }

    /// One tenant's status.
    pub fn status(&self, id: &str) -> Option<CampaignStatus> {
        self.tenant(id)
            .map(|t| t.status.lock().unwrap_or_else(|e| e.into_inner()).clone())
    }

    /// Cancels a campaign. A queued one leaves the FIFO and is
    /// `cancelled` at once; a running one stops at its next round
    /// boundary and then lands in `cancelled`. Returns the status as of
    /// the request; `None` for unknown ids.
    pub fn cancel(&self, id: &str) -> Option<CampaignStatus> {
        let tenant = self.tenant(id)?;
        let (status, dequeued) = {
            let mut queue = self.queue.lock().unwrap_or_else(|e| e.into_inner());
            let mut status = tenant.status.lock().unwrap_or_else(|e| e.into_inner());
            let dequeued = status.state == State::Queued;
            if dequeued {
                queue.waiting.retain(|t| !Arc::ptr_eq(t, &tenant));
                status.state = State::Cancelled;
            } else if !status.state.terminal() {
                tenant.cancelled.store(true, Ordering::SeqCst);
                tenant.stop.store(true, Ordering::SeqCst);
            }
            (status.clone(), dequeued)
        };
        if dequeued {
            tenant.persist_status();
        }
        Some(status)
    }

    /// The fleet `/metrics` page: the aggregate over every tenant that
    /// has run, then per-tenant samples for the running ones and the
    /// [`RECENT_FINISHED`] that finished last.
    pub fn metrics_page(&self) -> String {
        let tenants = self
            .tenants
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        // Under `finished`, so no snapshot moves into `retired` meanwhile.
        let (retired, live) = {
            let finished = self.finished.lock().unwrap_or_else(|e| e.into_inner());
            let live: Vec<(&str, Arc<MetricsSnapshot>)> = tenants
                .iter()
                .filter_map(|t| {
                    let snap = t
                        .metrics
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .clone()?;
                    Some((t.id.as_str(), snap))
                })
                .collect();
            (finished.retired.clone(), live)
        };
        let live: Vec<(&str, &MetricsSnapshot)> =
            live.iter().map(|(id, snap)| (*id, &**snap)).collect();
        jtelemetry::export::prometheus_fleet(&retired, &live)
    }

    /// Keeps a finished tenant's snapshot on the per-tenant page while it
    /// is among the [`RECENT_FINISHED`] that finished last; the oldest one
    /// past that merges into the retired aggregate and frees its slot.
    fn retire(&self, tenant: &Arc<Tenant>) {
        let mut finished = self.finished.lock().unwrap_or_else(|e| e.into_inner());
        finished.recent.push_back(tenant.clone());
        if finished.recent.len() > RECENT_FINISHED {
            let oldest = finished.recent.pop_front().expect("longer than the cap");
            let snap = oldest
                .metrics
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .take();
            if let Some(snap) = snap {
                Arc::make_mut(&mut finished.retired).merge(&snap);
            }
        }
    }

    /// Begins a drain: running campaigns stop at their next round
    /// boundary (state `interrupted`, journal flushed, resumable),
    /// queued ones stay `queued` in the FIFO, which no driver takes
    /// from any more. Does not wait; follow with [`join`].
    ///
    /// [`join`]: Registry::join
    pub fn drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
        for tenant in self
            .tenants
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
        {
            tenant.stop.store(true, Ordering::SeqCst);
        }
    }

    /// Waits for the live driver threads to finish (with [`drain`] first,
    /// that is one round per running tenant; without it, the natural end
    /// of every queued and running campaign).
    ///
    /// [`drain`]: Registry::drain
    pub fn join(&self) {
        let threads: Vec<JoinHandle<()>> =
            std::mem::take(&mut *self.threads.lock().unwrap_or_else(|e| e.into_inner()));
        for handle in threads {
            let _ = handle.join();
        }
    }
}

/// Folds live round results into the tenant's status and telemetry slot.
/// Observers never touch the journal, so they cannot perturb its bytes.
struct RoundSink<'a> {
    tenant: &'a Tenant,
}

impl CampaignObserver for RoundSink<'_> {
    fn round_finished(&mut self, _round: usize, result: &CampaignResult) {
        {
            let mut status = self.tenant.status.lock().unwrap_or_else(|e| e.into_inner());
            status.completed_rounds = result.completed_rounds();
            status.bugs = result.bugs.len();
            status.executions = result.executions;
        }
        self.tenant.persist_status();
        if let Some(snap) = jtelemetry::snapshot() {
            *self
                .tenant
                .metrics
                .lock()
                .unwrap_or_else(|e| e.into_inner()) = Some(Arc::new(snap));
        }
    }
}

/// A driver thread: takes tenants from the FIFO until it is empty or the
/// registry drains, and runs each under its own telemetry session and
/// cancel flag through to its terminal state transition.
fn drive(registry: &Registry) {
    while let Some(tenant) = registry.next_tenant() {
        tenant.persist_status();
        jtelemetry::install(jtelemetry::Session::new());
        mopfuzzer::interrupt::set_local(tenant.stop.clone());
        let outcome = run_tenant_campaign(&tenant);
        mopfuzzer::interrupt::clear_local();
        if let Some(session) = jtelemetry::take() {
            *tenant.metrics.lock().unwrap_or_else(|e| e.into_inner()) =
                Some(Arc::new(session.snapshot()));
        }
        {
            let mut status = tenant.status.lock().unwrap_or_else(|e| e.into_inner());
            match &outcome {
                Err(e) => {
                    status.state = State::Failed;
                    status.error = Some(e.clone());
                }
                Ok(result) => {
                    status.completed_rounds = result.completed_rounds();
                    status.bugs = result.bugs.len();
                    status.executions = result.executions;
                    status.state = if !result.interrupted {
                        State::Done
                    } else if tenant.cancelled.load(Ordering::SeqCst) {
                        State::Cancelled
                    } else {
                        State::Interrupted
                    };
                }
            }
        }
        tenant.persist_status();
        registry.retire(&tenant);
    }
}

/// Builds the exact [`CampaignConfig`] the CLI builds for
/// `mopfuzzer --rounds R --rng S --jobs J [--iterations I]
/// [--round-timeout MS]`: full guidance, the standard
/// differential pool, default supervisor policy. Journal equivalence
/// with a standalone CLI run rests on this mapping.
fn campaign_config(spec: &CampaignSpec) -> CampaignConfig {
    CampaignConfig {
        iterations_per_seed: spec.iterations,
        variant: Variant::Full,
        rounds: spec.rounds,
        pool: JvmSpec::differential_pool(),
        rng_seed: spec.rng_seed,
        supervisor: SupervisorConfig {
            round_wall_timeout_ms: spec.round_timeout_ms,
            ..SupervisorConfig::default()
        },
        fault: None,
        jobs: spec.jobs,
    }
}

fn run_tenant_campaign(tenant: &Tenant) -> Result<CampaignResult, String> {
    let journal = tenant.dir.join(JOURNAL_FILE);
    let mut sink = RoundSink { tenant };
    if journal.exists() {
        // Re-adopted after a drain or a daemon crash: continue the
        // journal. The worker count is not journaled; any count the
        // journal's mode allows keeps the resumed half byte-identical.
        return resume_campaign_extended(&journal, None, Some(tenant.spec.jobs), Some(&mut sink));
    }
    let config = campaign_config(&tenant.spec);
    match &tenant.spec.corpus {
        None => {
            let seeds = mopfuzzer::corpus::builtin();
            run_campaign_with_journal_observed(&seeds, &config, &journal, Some(&mut sink))
        }
        Some(dir) => {
            let mut store = jcorpus::Store::open(dir)?;
            run_corpus_campaign(
                &mut store,
                &config,
                &CorpusOptions::default(),
                Some(&journal),
                Some(&mut sink),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::temp_dir;
    use std::time::{Duration, Instant};

    fn plain(rounds: usize) -> CampaignSpec {
        CampaignSpec {
            rounds,
            rng_seed: 0,
            iterations: 2,
            corpus: None,
            jobs: 1,
            round_timeout_ms: None,
        }
    }

    fn state(registry: &Registry, id: &str) -> State {
        registry.status(id).expect("known tenant").state
    }

    fn wait_for(registry: &Registry, id: &str, want: State) {
        let deadline = Instant::now() + Duration::from_secs(120);
        while state(registry, id) != want {
            assert!(Instant::now() < deadline, "{id} never became {want:?}");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    fn waiting(registry: &Registry) -> Vec<String> {
        let queue = registry.queue.lock().unwrap();
        queue.waiting.iter().map(|t| t.id.clone()).collect()
    }

    /// Driver threads alive, checked against the handles kept for them.
    fn drivers(registry: &Registry) -> usize {
        let drivers = registry.queue.lock().unwrap().drivers;
        assert!(registry.threads.lock().unwrap().len() <= registry.max_active);
        drivers
    }

    /// At `max_active` 1, one driver serves the FIFO in submission order;
    /// a cancelled queued tenant never runs, and a drain leaves the queue
    /// in place with no driver waiting on it.
    #[test]
    fn one_driver_serves_the_fifo_in_submission_order() {
        let dir = temp_dir("fifo");
        let registry = Registry::open(&dir, 1, false).unwrap();
        let forever = 1_000_000;
        for rounds in [forever, 1, forever, forever] {
            registry.submit(plain(rounds)).unwrap();
        }
        wait_for(&registry, "c0001", State::Running);
        assert_eq!(waiting(&registry), ["c0002", "c0003", "c0004"]);
        assert_eq!(drivers(&registry), 1);

        let cancelled = registry.cancel("c0003").unwrap();
        assert_eq!(cancelled.state, State::Cancelled);
        assert_eq!(waiting(&registry), ["c0002", "c0004"]);

        // The driver moves on in order: c0002's one round, then c0004.
        registry.cancel("c0001").unwrap();
        wait_for(&registry, "c0004", State::Running);
        assert_eq!(state(&registry, "c0001"), State::Cancelled);
        assert_eq!(state(&registry, "c0002"), State::Done);
        assert_eq!(drivers(&registry), 1);

        registry.submit(plain(forever)).unwrap();
        registry.drain();
        registry.join();
        assert_eq!(state(&registry, "c0004"), State::Interrupted);
        assert_eq!(state(&registry, "c0005"), State::Queued);
        assert_eq!(waiting(&registry), ["c0005"]);
        assert_eq!(drivers(&registry), 0);
        assert_eq!(state(&registry, "c0003"), State::Cancelled);
        for id in ["c0003", "c0005"] {
            let journal = dir.join(CAMPAIGNS_DIR).join(id).join(JOURNAL_FILE);
            assert!(!journal.exists(), "{id} never ran");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Past [`RECENT_FINISHED`] finished tenants, `/metrics` labels only
    /// the latest ones, while its aggregate section reads as if every
    /// tenant were still exported.
    #[test]
    fn finished_tenants_past_the_cap_fold_into_the_aggregate() {
        let dir = temp_dir("retire");
        let registry = Registry::open(&dir, 1, false).unwrap();
        let total = RECENT_FINISHED + 5;
        let mut snapshots = Vec::new();
        for n in 1..=total {
            jtelemetry::install(jtelemetry::Session::new());
            jtelemetry::count(jtelemetry::Counter::VmExecutions, n as u64);
            drop(jtelemetry::span("reduce", Vec::new));
            let snap = jtelemetry::take().unwrap().snapshot();
            let id = format!("c{n:04}");
            let mut status = CampaignStatus::queued(id.clone(), &plain(1), &dir);
            status.state = State::Done;
            let tenant = Tenant::new(dir.join(&id), plain(1), status);
            *tenant.metrics.lock().unwrap() = Some(Arc::new(snap.clone()));
            registry.tenants.lock().unwrap().push(tenant.clone());
            registry.retire(&tenant);
            snapshots.push((id, snap));
        }
        let page = registry.metrics_page();
        jtelemetry::schema::validate_prometheus(&page).unwrap();
        let everyone: Vec<(&str, &MetricsSnapshot)> = snapshots
            .iter()
            .map(|(id, snap)| (id.as_str(), snap))
            .collect();
        let unbounded = jtelemetry::export::prometheus_fleet(&MetricsSnapshot::empty(), &everyone);
        let aggregate = |page: &str| -> Vec<String> {
            page.lines()
                .filter(|line| !line.contains("{campaign="))
                .map(str::to_string)
                .collect()
        };
        assert_eq!(aggregate(&page), aggregate(&unbounded));
        assert!(page.contains(&format!(
            "\nmop_vm_executions {}\n",
            total * (total + 1) / 2
        )));
        let labelled: Vec<&str> = snapshots
            .iter()
            .map(|(id, _)| id.as_str())
            .filter(|id| page.contains(&format!("{{campaign=\"{id}\"}}")))
            .collect();
        let latest: Vec<&str> = everyone[total - RECENT_FINISHED..]
            .iter()
            .map(|(id, _)| *id)
            .collect();
        assert_eq!(labelled, latest);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spec_defaults_mirror_the_cli() {
        let spec = CampaignSpec::from_json("{\"rounds\": 3}").unwrap();
        assert_eq!(spec.rounds, 3);
        assert_eq!(spec.rng_seed, 0);
        assert_eq!(spec.iterations, 50);
        assert_eq!(spec.corpus, None);
        assert_eq!(spec.jobs, mopfuzzer::resolve_jobs(None, false).unwrap());
        assert_eq!(spec.round_timeout_ms, None);
        // Corpus campaigns run serially.
        let corpus = CampaignSpec::from_json("{\"rounds\": 3, \"corpus\": \"store\"}").unwrap();
        assert_eq!(corpus.jobs, 1);
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = CampaignSpec {
            rounds: 4,
            rng_seed: 7,
            iterations: 10,
            corpus: Some(PathBuf::from("/tmp/store")),
            jobs: 1,
            round_timeout_ms: Some(500),
        };
        assert_eq!(CampaignSpec::from_json(&spec.to_json()).unwrap(), spec);
        let plain = CampaignSpec {
            corpus: None,
            jobs: 2,
            ..spec
        };
        assert_eq!(CampaignSpec::from_json(&plain.to_json()).unwrap(), plain);
    }

    #[test]
    fn spec_rejects_bad_input() {
        assert!(CampaignSpec::from_json("{}")
            .unwrap_err()
            .contains("rounds"));
        assert!(CampaignSpec::from_json("{\"rounds\":0}")
            .unwrap_err()
            .contains(">= 1"));
        assert!(CampaignSpec::from_json("{\"rounds\":2,\"jbos\":1}")
            .unwrap_err()
            .contains("unknown spec field"));
        assert!(CampaignSpec::from_json("{\"rounds\":2,\"jobs\":0}")
            .unwrap_err()
            .contains("jobs"));
        for jobs in ["257", "100000", "18446744073709551615"] {
            let text = format!("{{\"rounds\":2,\"jobs\":{jobs}}}");
            let err = CampaignSpec::from_json(&text).unwrap_err();
            assert!(err.contains("at most 256"), "{jobs}: {err}");
        }
        assert!(CampaignSpec::from_json("{\"rounds\":2,\"oracle_jobs\":1}")
            .unwrap_err()
            .contains("--jobs"));
        assert!(CampaignSpec::from_json("not json").is_err());
    }

    #[test]
    fn spec_integers_are_read_exactly() {
        // 2^53 + 1 is the first integer an f64 cannot hold.
        let big = CampaignSpec::from_json("{\"rounds\":1,\"seed\":9007199254740993}").unwrap();
        assert_eq!(big.rng_seed, 9_007_199_254_740_993);
        let max = CampaignSpec::from_json("{\"rounds\":1,\"seed\":18446744073709551615}").unwrap();
        assert_eq!(max.rng_seed, u64::MAX);
        assert_eq!(CampaignSpec::from_json(&max.to_json()).unwrap(), max);
        for bad in [
            r#"{"rounds":1,"seed":1e300}"#,
            r#"{"rounds":1,"seed":18446744073709551616}"#,
            r#"{"rounds":1,"seed":-1}"#,
            r#"{"rounds":1.5}"#,
            r#"{"rounds":1e3}"#,
            r#"{"rounds":1,"jobs":1e300}"#,
        ] {
            let err = CampaignSpec::from_json(bad).unwrap_err();
            assert!(
                err.contains("must be a non-negative integer"),
                "{bad}: {err}"
            );
        }
    }

    #[test]
    fn persisted_specs_above_the_jobs_ceiling_run_at_it() {
        let text = "{\"rounds\":1,\"jobs\":100000}";
        let (spec, lowered) = CampaignSpec::parse(text, true).unwrap();
        assert_eq!((spec.jobs, lowered), (mopfuzzer::MAX_JOBS, Some(100_000)));
    }

    #[test]
    fn status_round_trips_through_json() {
        let status = CampaignStatus {
            id: "c0001".to_string(),
            state: State::Interrupted,
            rounds: 5,
            jobs: 2,
            completed_rounds: 2,
            bugs: 1,
            executions: 321,
            error: None,
            journal: PathBuf::from("/tmp/j.jsonl"),
        };
        assert_eq!(
            CampaignStatus::from_json(&status.to_json()).unwrap(),
            status
        );
        let failed = CampaignStatus {
            state: State::Failed,
            error: Some("boom \"quoted\"".to_string()),
            ..status
        };
        assert_eq!(
            CampaignStatus::from_json(&failed.to_json()).unwrap(),
            failed
        );
    }
}
