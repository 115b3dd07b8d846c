//! The on-disk corpus store.
//!
//! Layout of a store directory:
//!
//! ```text
//! DIR/
//!   manifest.jsonl     header line + one line per entry (id, name,
//!                      fingerprint, source hash, provenance, parent,
//!                      stats) or tombstone (id, name, fingerprint)
//!   quarantine.jsonl   one line per quarantined (seed, mutator) pair;
//!                      "mutator": null blocks the whole seed
//!   entries/<id>.java  pretty-printed mjava source, one file per entry
//!   .lock              advisory lockfile, present only during a save
//! ```
//!
//! The store is loaded fully into memory on [`Store::open`]; all mutation
//! is in-memory until [`Store::save`], which rewrites the manifest and
//! quarantine atomically (tmp file + rename). A campaign that dies before
//! its final flush therefore leaves the store exactly as it found it, and
//! a journal-based resume can replay onto the store idempotently: admits
//! dedup by fingerprint and stats are written as absolute values.
//!
//! Saves take the store lock ([`crate::StoreLock`]) and first fold in
//! whatever concurrent campaigns flushed since this store was opened:
//! quarantine pairs are set-unioned, and entries/tombstones with unknown
//! fingerprints are adopted under the ids the committed manifest gives
//! them. One of our own records whose id the committed manifest gives to
//! a different record moves to a fresh id, so id assignment races cannot
//! alias two different programs. Stats of entries shared with a
//! concurrent campaign are last-writer-wins — acceptable because stats
//! only steer scheduling heuristics.
//!
//! Entry sources are **write-once**: a save never writes a source under
//! an id that the committed manifest already maps to a record, so a
//! crash mid-save can leave at worst an orphan source under an
//! uncommitted id (the next writer overwrites it, `corpus fsck` removes
//! it). Only sources the committed manifest does not vouch for are
//! written: new entries, and entries recorded by a v1 manifest, which
//! carries no source hash (rewritten once, under the same program).
//!
//! Entries GC'd by [`Store::gc`] leave a manifest **tombstone** (id, name,
//! fingerprint, no source file): resuming a journal recorded before the
//! GC still resolves the entry's name (stats flushes become no-ops and
//! re-promotions dedup against the tombstone instead of resurrecting the
//! entry).

use crate::fingerprint::{fingerprint_hex, parse_fingerprint, source_hash};
use crate::lock::{StoreLock, DEFAULT_LOCK_TIMEOUT};
use crate::schedule::energy;
use crate::vfs::{self, Vfs};
use jtelemetry::json::{self, quote, Json};
use mjava::Program;
use std::collections::{BTreeMap, HashSet};
#[cfg(test)]
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Where a corpus entry came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// One of the handcrafted built-in seeds.
    Builtin,
    /// Produced by the deterministic seed generator.
    Generated,
    /// Imported from a directory of `.java` sources.
    Imported,
    /// A jreduce-minimized mutant promoted by a campaign.
    Promoted,
}

impl Provenance {
    /// Manifest spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            Provenance::Builtin => "builtin",
            Provenance::Generated => "generated",
            Provenance::Imported => "imported",
            Provenance::Promoted => "promoted",
        }
    }

    fn from_str(s: &str) -> Result<Provenance, String> {
        match s {
            "builtin" => Ok(Provenance::Builtin),
            "generated" => Ok(Provenance::Generated),
            "imported" => Ok(Provenance::Imported),
            "promoted" => Ok(Provenance::Promoted),
            other => Err(format!("unknown provenance {other:?}")),
        }
    }
}

/// Per-entry scheduling statistics, persisted in the manifest.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EntryStats {
    /// How many rounds have fuzzed this entry.
    pub schedules: u64,
    /// Sum of final OBV deltas those rounds produced.
    pub yield_sum: f64,
    /// Rounds that ended in a contained fault.
    pub faults: u64,
    /// Bugs (crashes or miscompiles) those rounds reported.
    pub bugs: u64,
}

/// One corpus entry.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// Stable store-assigned id (`c0001`, ...); names the source file.
    pub id: String,
    /// Unique human-facing seed name used by campaigns and journals.
    pub name: String,
    /// Behaviour fingerprint ([`crate::fingerprint`]).
    pub fingerprint: u64,
    /// FNV-1a over the pretty-printed source — the memoization key that
    /// lets imports skip re-executing the reference JVM for unchanged
    /// programs ([`Store::memoized_fingerprint`]).
    pub source_hash: u64,
    /// Where the entry came from.
    pub provenance: Provenance,
    /// For promoted entries, the seed whose fuzz run produced them.
    pub parent: Option<String>,
    /// Scheduling statistics.
    pub stats: EntryStats,
    /// Consecutive campaigns this entry's energy ended clamped at the
    /// scheduler floor — the GC criterion ([`Store::gc`]).
    pub floor_streak: u64,
}

/// A GC'd entry's manifest remnant: enough to resolve names and dedup
/// fingerprints for journals recorded before the GC, without a program.
#[derive(Debug, Clone, PartialEq)]
pub struct Tombstone {
    /// The id the entry held while alive.
    pub id: String,
    /// The name the entry held while alive (still reserved).
    pub name: String,
    /// The entry's behaviour fingerprint (still dedups admissions).
    pub fingerprint: u64,
}

/// The outcome of [`Store::admit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Admission {
    /// The program was new; admitted under this (possibly uniquified) name.
    Fresh(String),
    /// An entry (or tombstone) with the same fingerprint already exists
    /// under this name.
    Duplicate(String),
}

/// An in-memory view of a corpus directory.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    fs: Arc<dyn Vfs>,
    entries: Vec<Entry>,
    programs: Vec<Program>, // parallel to `entries`
    tombstones: Vec<Tombstone>,
    quarantine: Vec<(String, Option<String>)>,
}

pub(crate) const MANIFEST: &str = "manifest.jsonl";
pub(crate) const QUARANTINE: &str = "quarantine.jsonl";
pub(crate) const ENTRIES_DIR: &str = "entries";

/// v2: per-entry `source_hash` (fingerprint memoization), `floor_streak`
/// (GC bookkeeping), and tombstone lines. v1 manifests are still read
/// (hashes recomputed on open, streaks start at 0) and rewritten as v2 on
/// the next save.
const STORE_VERSION: u64 = 2;

impl Store {
    /// Creates an empty store at `dir`. Fails if a manifest already exists.
    pub fn init(dir: &Path) -> Result<Store, String> {
        Store::init_with(dir, vfs::real())
    }

    /// [`Store::init`] with all I/O routed through `fs` (chaos injection
    /// in tests, real fsyncs in production).
    pub fn init_with(dir: &Path, fs: Arc<dyn Vfs>) -> Result<Store, String> {
        refuse_sharded(fs.as_ref(), dir)?;
        if fs.exists(&dir.join(MANIFEST)) {
            return Err(format!("corpus store already exists at {}", dir.display()));
        }
        fs.create_dir_all(&dir.join(ENTRIES_DIR))
            .map_err(|e| format!("create {}: {e}", dir.display()))?;
        let mut store = Store {
            dir: dir.to_path_buf(),
            fs,
            entries: Vec::new(),
            programs: Vec::new(),
            tombstones: Vec::new(),
            quarantine: Vec::new(),
        };
        store.save()?;
        Ok(store)
    }

    /// Loads an existing store from `dir`.
    ///
    /// Recovery semantics: stale `*.tmp` siblings left by a crashed save
    /// are swept (when no other writer holds the store lock), and a torn
    /// **final** line of the manifest or quarantine — the footprint of a
    /// crash mid-write on a non-atomic filesystem — is dropped rather
    /// than fatal. Corruption anywhere else still fails the open;
    /// `corpus fsck` reports and repairs it explicitly.
    pub fn open(dir: &Path) -> Result<Store, String> {
        Store::open_with(dir, vfs::real())
    }

    /// [`Store::open`] with all I/O routed through `fs`.
    pub fn open_with(dir: &Path, fs: Arc<dyn Vfs>) -> Result<Store, String> {
        refuse_sharded(fs.as_ref(), dir)?;
        // Sweep stale tmp files only with the store lock held: a live
        // writer's tmp siblings are about to be renamed, not stale. A
        // held lock skips the sweep (zero-wait probe), never the open.
        if let Ok(_lock) = StoreLock::acquire_with_vfs(dir, Duration::ZERO, fs.clone()) {
            sweep_stale_tmp(fs.as_ref(), dir);
        }
        let manifest_path = dir.join(MANIFEST);
        let text = fs
            .read_to_string(&manifest_path)
            .map_err(|e| format!("read {}: {e}", manifest_path.display()))?;
        let mut lines: Vec<(usize, &str)> = text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty())
            .collect();
        if lines.is_empty() {
            return Err(format!("{}: empty manifest", manifest_path.display()));
        }
        let (_, header) = lines.remove(0);
        check_header(header).map_err(|e| format!("{}: {e}", manifest_path.display()))?;
        let mut entries = Vec::new();
        let mut programs = Vec::new();
        let mut tombstones = Vec::new();
        for (pos, (i, line)) in lines.iter().enumerate() {
            let decoded = match decode_line(line) {
                Ok(d) => d,
                // A torn tail (crash mid-write of the last record) is
                // recoverable: the record is dropped.
                Err(_) if pos + 1 == lines.len() => break,
                Err(e) => return Err(format!("{} line {}: {e}", manifest_path.display(), i + 1)),
            };
            match decoded {
                Decoded::Tomb(t) => tombstones.push(t),
                Decoded::Live(mut entry, has_hash) => {
                    let src_path = source_path(dir, &entry.id);
                    let src = fs
                        .read_to_string(&src_path)
                        .map_err(|e| format!("read {}: {e}", src_path.display()))?;
                    let program = mjava::parse(&src)
                        .map_err(|e| format!("parse {}: {e:?}", src_path.display()))?;
                    if !has_hash {
                        entry.source_hash = source_hash(&program);
                    }
                    entries.push(entry);
                    programs.push(program);
                }
            }
        }
        let quarantine = read_quarantine(fs.as_ref(), &dir.join(QUARANTINE))?;
        Ok(Store {
            dir: dir.to_path_buf(),
            fs,
            entries,
            programs,
            tombstones,
            quarantine,
        })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// All live entries, in admission order.
    pub fn entries(&self) -> &[Entry] {
        &self.entries
    }

    /// Tombstones of GC'd entries, in GC order.
    pub fn tombstones(&self) -> &[Tombstone] {
        &self.tombstones
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store holds no live entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The program behind a named live entry.
    pub fn program(&self, name: &str) -> Option<&Program> {
        self.entries
            .iter()
            .position(|e| e.name == name)
            .map(|i| &self.programs[i])
    }

    /// The memoized behaviour fingerprint for a program whose printed
    /// source matches an existing entry's — the import hot path that
    /// skips re-executing the reference JVM.
    pub fn memoized_fingerprint(&self, program: &Program) -> Option<u64> {
        let hash = source_hash(program);
        self.entries
            .iter()
            .find(|e| e.source_hash == hash)
            .map(|e| e.fingerprint)
    }

    /// Admits a program under `name_hint`, deduping by fingerprint.
    ///
    /// If an entry (or tombstone) with the same fingerprint exists the
    /// store is left untouched and the existing name is returned; this
    /// makes re-imports and replayed promotions idempotent, and keeps
    /// GC'd behaviours from being resurrected by a resume. Name
    /// collisions with distinct fingerprints are resolved by a
    /// deterministic `_2`, `_3`, ... suffix.
    pub fn admit(
        &mut self,
        name_hint: &str,
        program: &Program,
        fingerprint: u64,
        provenance: Provenance,
        parent: Option<String>,
    ) -> Admission {
        if let Some(existing) = self.entries.iter().find(|e| e.fingerprint == fingerprint) {
            return Admission::Duplicate(existing.name.clone());
        }
        if let Some(tomb) = self
            .tombstones
            .iter()
            .find(|t| t.fingerprint == fingerprint)
        {
            return Admission::Duplicate(tomb.name.clone());
        }
        let name = self.unique_name(name_hint);
        let id = format!("c{:04}", self.next_id());
        self.entries.push(Entry {
            id,
            name: name.clone(),
            fingerprint,
            source_hash: source_hash(program),
            provenance,
            parent,
            stats: EntryStats::default(),
            floor_streak: 0,
        });
        self.programs.push(program.clone());
        Admission::Fresh(name)
    }

    fn unique_name(&self, name_hint: &str) -> String {
        let taken = |name: &str| {
            self.entries.iter().any(|e| e.name == name)
                || self.tombstones.iter().any(|t| t.name == name)
        };
        let mut name = name_hint.to_string();
        let mut suffix = 2;
        while taken(&name) {
            name = format!("{name_hint}_{suffix}");
            suffix += 1;
        }
        name
    }

    /// Overwrites the stats of a named entry (absolute values, so flushing
    /// the same campaign twice — live then via resume — is idempotent).
    /// A tombstoned name is a silent no-op: resumed journals may flush
    /// stats for entries GC'd since they were recorded.
    pub fn set_stats(&mut self, name: &str, stats: EntryStats) -> Result<(), String> {
        match self.entries.iter_mut().find(|e| e.name == name) {
            Some(entry) => {
                entry.stats = stats;
                Ok(())
            }
            None if self.tombstones.iter().any(|t| t.name == name) => Ok(()),
            None => Err(format!("no corpus entry named {name:?}")),
        }
    }

    /// Overwrites the floor-streak counter of a named entry (absolute,
    /// idempotent like [`Store::set_stats`]; tombstoned names no-op).
    pub fn set_floor_streak(&mut self, name: &str, streak: u64) -> Result<(), String> {
        match self.entries.iter_mut().find(|e| e.name == name) {
            Some(entry) => {
                entry.floor_streak = streak;
                Ok(())
            }
            None if self.tombstones.iter().any(|t| t.name == name) => Ok(()),
            None => Err(format!("no corpus entry named {name:?}")),
        }
    }

    /// Drops every scheduled entry whose energy has sat at the scheduler
    /// floor for at least `streak` consecutive campaigns, leaving a
    /// manifest tombstone per dropped entry. Returns the dropped names.
    /// Never-scheduled entries are kept regardless (they have not had a
    /// chance to prove themselves).
    pub fn gc(&mut self, streak: u64) -> Vec<String> {
        let mut dropped = Vec::new();
        let mut i = 0;
        while i < self.entries.len() {
            let e = &self.entries[i];
            if e.stats.schedules > 0 && e.floor_streak >= streak {
                let entry = self.entries.remove(i);
                self.programs.remove(i);
                // The source file is deleted by the next save(), after the
                // manifest rename — a crash before then leaves the store
                // fully consistent under the old manifest.
                self.tombstones.push(Tombstone {
                    id: entry.id,
                    name: entry.name.clone(),
                    fingerprint: entry.fingerprint,
                });
                dropped.push(entry.name);
            } else {
                i += 1;
            }
        }
        dropped
    }

    /// The persisted quarantine: `(seed, mutator)` pairs; a `None` mutator
    /// blocks the whole seed.
    pub fn quarantine(&self) -> &[(String, Option<String>)] {
        &self.quarantine
    }

    /// Set-unions new pairs into the quarantine.
    pub fn merge_quarantine(&mut self, pairs: &[(String, Option<String>)]) {
        for pair in pairs {
            if !self.quarantine.contains(pair) {
                self.quarantine.push(pair.clone());
            }
        }
    }

    /// The machine-readable twin of `corpus stats`: one JSON object with
    /// per-entry stats and energies, tombstones, the quarantine, and the
    /// total energy. Schema checked by the `corpus_store` test suite.
    pub fn stats_json(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"type\":\"jcorpus-stats\",\"version\":1,\"dir\":{},",
            quote(&self.dir.display().to_string())
        ));
        out.push_str("\"entries\":[");
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = e.parent.as_deref().map_or("null".to_string(), quote);
            out.push_str(&format!(
                "{{\"id\":{},\"name\":{},\"fingerprint\":\"{}\",\"provenance\":\"{}\",\
                 \"parent\":{parent},\"schedules\":{},\"yield_sum\":{:?},\"faults\":{},\
                 \"bugs\":{},\"energy\":{:?},\"floor_streak\":{}}}",
                quote(&e.id),
                quote(&e.name),
                fingerprint_hex(e.fingerprint),
                e.provenance.as_str(),
                e.stats.schedules,
                e.stats.yield_sum,
                e.stats.faults,
                e.stats.bugs,
                energy(&e.stats),
                e.floor_streak,
            ));
        }
        out.push_str("],\"tombstones\":[");
        for (i, t) in self.tombstones.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"id\":{},\"name\":{},\"fingerprint\":\"{}\"}}",
                quote(&t.id),
                quote(&t.name),
                fingerprint_hex(t.fingerprint),
            ));
        }
        out.push_str("],\"quarantine\":[");
        for (i, (seed, mutator)) in self.quarantine.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&encode_pair(seed, mutator.as_deref()));
        }
        let total: f64 = self.entries.iter().map(|e| energy(&e.stats)).sum();
        out.push_str(&format!("],\"total_energy\":{total:?}}}"));
        out
    }

    /// Atomically rewrites the manifest and quarantine under the store
    /// lock, writing only the entry sources the committed manifest does
    /// not already vouch for (see module docs). State flushed by
    /// concurrent campaigns since this store was opened is folded in
    /// first, so two campaigns finishing over one store lose neither
    /// quarantine pairs nor promoted entries.
    pub fn save(&mut self) -> Result<(), String> {
        let _span = jtelemetry::span("store_save", Vec::new);
        self.fs
            .create_dir_all(&self.dir.join(ENTRIES_DIR))
            .map_err(|e| format!("create {}: {e}", self.dir.display()))?;
        let _lock = StoreLock::acquire_with_vfs(&self.dir, DEFAULT_LOCK_TIMEOUT, self.fs.clone())?;
        let committed = self.merge_disk_state();
        for (entry, program) in self.entries.iter().zip(&self.programs) {
            let recorded = matches!(
                committed.get(&entry.id),
                Some(Decoded::Live(c, true))
                    if c.fingerprint == entry.fingerprint && c.source_hash == entry.source_hash
            );
            if !recorded {
                let path = source_path(&self.dir, &entry.id);
                vfs::write_atomic(self.fs.as_ref(), &path, &mjava::print(program))?;
            }
        }
        let mut manifest = String::new();
        manifest.push_str(&format!(
            "{{\"type\":\"jcorpus\",\"version\":{STORE_VERSION}}}\n"
        ));
        for entry in &self.entries {
            manifest.push_str(&encode_entry(entry));
            manifest.push('\n');
        }
        for tomb in &self.tombstones {
            manifest.push_str(&encode_tombstone(tomb));
        }
        vfs::write_atomic(self.fs.as_ref(), &self.dir.join(MANIFEST), &manifest)?;
        // Sources the committed manifest held live and the new one
        // replaced (GC'd entries, displaced duplicates) are unlinked only
        // after the manifest rename: a crash before then leaves the store
        // fully consistent under the old manifest.
        let live: HashSet<&str> = self.entries.iter().map(|e| e.id.as_str()).collect();
        let known: HashSet<u64> = self.fingerprints().collect();
        let mut removed = false;
        for (id, record) in &committed {
            if let Decoded::Live(c, _) = record {
                if !live.contains(id.as_str()) && known.contains(&c.fingerprint) {
                    removed |= self.fs.remove_file(&source_path(&self.dir, id)).is_ok();
                }
            }
        }
        if removed {
            // Make the unlinks durable; failures leave orphaned sources
            // that `corpus fsck` reports (the manifest is already safe).
            let _ = self.fs.fsync_dir(&self.dir.join(ENTRIES_DIR));
        }
        let mut quarantine = String::new();
        for (seed, mutator) in &self.quarantine {
            quarantine.push_str(&encode_pair(seed, mutator.as_deref()));
            quarantine.push('\n');
        }
        vfs::write_atomic(self.fs.as_ref(), &self.dir.join(QUARANTINE), &quarantine)?;
        Ok(())
    }

    /// Folds in state concurrent campaigns flushed since we opened and
    /// returns the committed manifest it read, keyed by id. Quarantine
    /// pairs are unioned; records whose fingerprints we do not know are
    /// adopted under their committed ids. Then each of our records
    /// settles its id: it takes the id of the committed record of its
    /// fingerprint when that record agrees with it ([`Decoded::agrees`]),
    /// and moves to a fresh id above every id in sight when the committed
    /// manifest gives its id to another record. Best-effort: unreadable
    /// lines are skipped, never fatal, because our own atomic rewrite is
    /// the recovery path for torn state.
    fn merge_disk_state(&mut self) -> BTreeMap<String, Decoded> {
        if let Ok(disk) = read_quarantine(self.fs.as_ref(), &self.dir.join(QUARANTINE)) {
            self.merge_quarantine(&disk);
        }
        let mut committed = BTreeMap::new();
        let Ok(text) = self.fs.read_to_string(&self.dir.join(MANIFEST)) else {
            return committed;
        };
        let mut lines = text.lines();
        if lines
            .next()
            .is_none_or(|header| check_header(header).is_err())
        {
            return committed;
        }
        let mut known: HashSet<u64> = self.fingerprints().collect();
        for record in lines.filter_map(|line| decode_line(line).ok()) {
            if known.insert(record.fingerprint()) {
                self.adopt(&record);
            }
            committed.insert(record.id().to_string(), record);
        }
        let by_fingerprint: BTreeMap<u64, &str> = committed
            .iter()
            .map(|(id, record)| (record.fingerprint(), id.as_str()))
            .collect();
        let mut next = committed
            .keys()
            .map(String::as_str)
            .chain(self.ids())
            .filter_map(id_number)
            .max()
            .map_or(1, |n| n + 1);
        let mut settle = |id: &mut String, fingerprint: u64, source_hash: Option<u64>| {
            let agreeing = by_fingerprint
                .get(&fingerprint)
                .filter(|at| committed[**at].agrees(source_hash));
            if let Some(at) = agreeing {
                *id = at.to_string();
            } else if committed.contains_key(id.as_str()) {
                *id = format!("c{next:04}");
                next += 1;
            }
        };
        for entry in &mut self.entries {
            settle(&mut entry.id, entry.fingerprint, Some(entry.source_hash));
        }
        for tomb in &mut self.tombstones {
            settle(&mut tomb.id, tomb.fingerprint, None);
        }
        committed
    }

    /// Adopts one committed record a concurrent campaign flushed, under
    /// its committed id (so its source is already on disk) and a
    /// uniquified name. A live entry whose source is unreadable is
    /// skipped. v1 records get their source hash recomputed, as on open.
    fn adopt(&mut self, record: &Decoded) {
        match record {
            Decoded::Tomb(t) => {
                let name = self.unique_name(&t.name);
                self.tombstones.push(Tombstone { name, ..t.clone() });
            }
            Decoded::Live(entry, has_hash) => {
                let src = source_path(&self.dir, &entry.id);
                let Some(program) = self
                    .fs
                    .read_to_string(&src)
                    .ok()
                    .and_then(|text| mjava::parse(&text).ok())
                else {
                    return;
                };
                let mut entry = entry.clone();
                entry.name = self.unique_name(&entry.name);
                if !has_hash {
                    entry.source_hash = source_hash(&program);
                }
                self.entries.push(entry);
                self.programs.push(program);
            }
        }
    }

    /// Fingerprints of every live entry and tombstone.
    fn fingerprints(&self) -> impl Iterator<Item = u64> + '_ {
        let tombs = self.tombstones.iter().map(|t| t.fingerprint);
        self.entries.iter().map(|e| e.fingerprint).chain(tombs)
    }

    /// Ids of every live entry and tombstone.
    fn ids(&self) -> impl Iterator<Item = &str> {
        let tombs = self.tombstones.iter().map(|t| t.id.as_str());
        self.entries.iter().map(|e| e.id.as_str()).chain(tombs)
    }

    fn next_id(&self) -> u64 {
        self.ids().filter_map(id_number).max().map_or(1, |n| n + 1)
    }
}

/// The numeric part of an entry id (`c0042` → 42).
fn id_number(id: &str) -> Option<u64> {
    id.strip_prefix('c').and_then(|n| n.parse().ok())
}

/// Where the source of entry `id` lives in the store at `dir`.
pub(crate) fn source_path(dir: &Path, id: &str) -> PathBuf {
    dir.join(ENTRIES_DIR).join(format!("{id}.java"))
}

/// Refuses a directory holding the sharded layout earlier versions wrote
/// (`shards.json` beside `shards/NN/` sub-stores). That layout is no
/// longer read, and reading the directory as a flat store would miss
/// every entry, so init, open and fsck fail with the migration instead.
pub(crate) fn refuse_sharded(fs: &dyn Vfs, dir: &Path) -> Result<(), String> {
    if !fs.exists(&dir.join("shards.json")) {
        return Ok(());
    }
    let dir = dir.display();
    Err(format!(
        "{dir} holds a sharded corpus store (shards.json), which is no longer supported; \
         migrate it with `mopfuzzer corpus init NEWDIR`, then \
         `mopfuzzer corpus import NEWDIR {dir}/shards/NN/entries` for each shard NN"
    ))
}

/// Removes `*.tmp` siblings a crashed save left behind, in the store
/// root and `entries/`. Caller must hold the store lock. Best-effort:
/// a failed unlink just leaves the file for `corpus fsck` to report.
fn sweep_stale_tmp(fs: &dyn Vfs, dir: &Path) {
    for d in [dir.to_path_buf(), dir.join(ENTRIES_DIR)] {
        let Ok(paths) = fs.read_dir(&d) else {
            continue;
        };
        let mut removed = false;
        for path in paths {
            if path.extension().is_some_and(|e| e == "tmp") {
                removed |= fs.remove_file(&path).is_ok();
            }
        }
        if removed {
            let _ = fs.fsync_dir(&d);
        }
    }
}

fn encode_entry(e: &Entry) -> String {
    let parent = e.parent.as_deref().map_or("null".to_string(), quote);
    format!(
        "{{\"id\":{},\"name\":{},\"fingerprint\":\"{}\",\"source_hash\":\"{}\",\
         \"provenance\":\"{}\",\"parent\":{parent},\"schedules\":{},\"yield_sum\":{:?},\
         \"faults\":{},\"bugs\":{},\"floor_streak\":{}}}",
        quote(&e.id),
        quote(&e.name),
        fingerprint_hex(e.fingerprint),
        fingerprint_hex(e.source_hash),
        e.provenance.as_str(),
        e.stats.schedules,
        e.stats.yield_sum,
        e.stats.faults,
        e.stats.bugs,
        e.floor_streak,
    )
}

pub(crate) fn encode_tombstone(t: &Tombstone) -> String {
    format!(
        "{{\"id\":{},\"name\":{},\"fingerprint\":\"{}\",\"tombstone\":true}}\n",
        quote(&t.id),
        quote(&t.name),
        fingerprint_hex(t.fingerprint),
    )
}

/// One quarantined `(seed, mutator)` pair, as the quarantine file and
/// `stats --json` both write it.
fn encode_pair(seed: &str, mutator: Option<&str>) -> String {
    let mutator = mutator.map_or("null".to_string(), quote);
    format!("{{\"seed\":{},\"mutator\":{mutator}}}", quote(seed))
}

pub(crate) fn check_header(line: &str) -> Result<(), String> {
    let json = json::parse(line)?;
    if json.get("type").and_then(Json::as_str) != Some("jcorpus") {
        return Err("not a jcorpus manifest".to_string());
    }
    match json.get("version") {
        // v1 manifests predate source hashes, floor streaks, and
        // tombstones; all three default sensibly on decode.
        Some(v) if matches!(v.as_u64(), Some(1 | STORE_VERSION)) => Ok(()),
        Some(Json::Num(v)) => Err(format!("unsupported store version {v}")),
        _ => Err("missing store version".to_string()),
    }
}

fn str_field(obj: &Json, key: &str) -> Result<String, String> {
    obj.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field {key:?}"))
}

/// One decoded manifest line: a live entry (plus whether the manifest
/// carried its source hash, absent in v1) or a tombstone.
pub(crate) enum Decoded {
    Live(Entry, bool),
    Tomb(Tombstone),
}

impl Decoded {
    fn id(&self) -> &str {
        match self {
            Decoded::Live(e, _) => &e.id,
            Decoded::Tomb(t) => &t.id,
        }
    }

    fn fingerprint(&self) -> u64 {
        match self {
            Decoded::Live(e, _) => e.fingerprint,
            Decoded::Tomb(t) => t.fingerprint,
        }
    }

    /// Whether one of our records with this committed record's
    /// fingerprint may take its id: a tombstone always may, and a live
    /// entry (`Some(source_hash)`) may when the committed record is live
    /// with the same program, or is a v1 record that carries no hash.
    fn agrees(&self, source_hash: Option<u64>) -> bool {
        match (self, source_hash) {
            (_, None) => true,
            (Decoded::Live(c, has_hash), Some(hash)) => !has_hash || c.source_hash == hash,
            (Decoded::Tomb(_), Some(_)) => false,
        }
    }
}

pub(crate) fn decode_line(line: &str) -> Result<Decoded, String> {
    let json = json::parse(line)?;
    if json.get("tombstone").and_then(Json::as_bool) == Some(true) {
        return Ok(Decoded::Tomb(Tombstone {
            id: str_field(&json, "id")?,
            name: str_field(&json, "name")?,
            fingerprint: parse_fingerprint(&str_field(&json, "fingerprint")?)?,
        }));
    }
    let int = |key: &str| {
        json.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("missing integer field {key:?}"))
    };
    let parent = match json.get("parent") {
        Some(Json::Str(s)) => Some(s.clone()),
        Some(Json::Null) | None => None,
        Some(other) => return Err(format!("bad parent: {other:?}")),
    };
    let yield_sum = json
        .get("yield_sum")
        .and_then(Json::as_f64)
        .ok_or("missing number field \"yield_sum\"")?;
    let (source_hash, has_hash) = match json.get("source_hash") {
        Some(Json::Str(s)) => (parse_fingerprint(s)?, true),
        _ => (0, false),
    };
    Ok(Decoded::Live(
        Entry {
            id: str_field(&json, "id")?,
            name: str_field(&json, "name")?,
            fingerprint: parse_fingerprint(&str_field(&json, "fingerprint")?)?,
            source_hash,
            provenance: Provenance::from_str(&str_field(&json, "provenance")?)?,
            parent,
            stats: EntryStats {
                schedules: int("schedules")?,
                yield_sum,
                faults: int("faults")?,
                bugs: int("bugs")?,
            },
            // Absent from v1 manifests.
            floor_streak: match json.get("floor_streak") {
                None => 0,
                Some(_) => int("floor_streak")?,
            },
        },
        has_hash,
    ))
}

/// Reads the on-disk quarantine of the store at `dir` without opening the
/// whole store — the cheap fleet-wide poll running campaigns use to
/// observe pairs that concurrently-running campaigns have flushed.
/// A missing file is an empty quarantine, not an error.
pub fn read_quarantine_dir(dir: &Path) -> Result<Vec<(String, Option<String>)>, String> {
    read_quarantine(vfs::real().as_ref(), &dir.join(QUARANTINE))
}

/// Decodes one quarantine line into its `(seed, mutator)` pair.
pub(crate) fn decode_quarantine_line(line: &str) -> Result<(String, Option<String>), String> {
    let json = json::parse(line)?;
    let seed = str_field(&json, "seed")?;
    let mutator = match json.get("mutator") {
        Some(Json::Str(s)) => Some(s.clone()),
        Some(Json::Null) => None,
        other => return Err(format!("bad mutator: {other:?}")),
    };
    Ok((seed, mutator))
}

/// Reads a quarantine file, tolerating (dropping) a torn final line —
/// the footprint of a crash mid-write — while corruption anywhere else
/// stays fatal. A missing file is an empty quarantine.
fn read_quarantine(fs: &dyn Vfs, path: &Path) -> Result<Vec<(String, Option<String>)>, String> {
    if !fs.exists(path) {
        return Ok(Vec::new());
    }
    let text = fs
        .read_to_string(path)
        .map_err(|e| format!("read {}: {e}", path.display()))?;
    let lines: Vec<(usize, &str)> = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .collect();
    let mut pairs = Vec::new();
    for (pos, (i, line)) in lines.iter().enumerate() {
        match decode_quarantine_line(line) {
            Ok(pair) => pairs.push(pair),
            Err(_) if pos + 1 == lines.len() => break,
            Err(e) => return Err(format!("{} line {}: {e}", path.display(), i + 1)),
        }
    }
    Ok(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("jcorpus-test-{tag}-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn seeds() -> Vec<(String, Program)> {
        mjava::samples::all_seeds()
            .into_iter()
            .map(|s| (s.name.to_string(), s.program))
            .collect()
    }

    #[test]
    fn init_then_open_round_trips() {
        let dir = temp_dir("roundtrip");
        let mut store = Store::init(&dir).unwrap();
        for (i, (name, program)) in seeds().into_iter().enumerate().take(4) {
            let adm = store.admit(&name, &program, i as u64 + 10, Provenance::Builtin, None);
            assert_eq!(adm, Admission::Fresh(name));
        }
        store
            .set_stats(
                "listing2",
                EntryStats {
                    schedules: 3,
                    yield_sum: 41.25,
                    faults: 1,
                    bugs: 2,
                },
            )
            .unwrap();
        store.set_floor_streak("listing2", 2).unwrap();
        store.merge_quarantine(&[
            ("listing2".to_string(), Some("Inlining".to_string())),
            ("gen_001".to_string(), None),
        ]);
        store.save().unwrap();
        let manifest_a = fs::read_to_string(dir.join(MANIFEST)).unwrap();

        let mut reopened = Store::open(&dir).unwrap();
        assert_eq!(reopened.entries(), store.entries());
        assert_eq!(reopened.quarantine(), store.quarantine());
        for entry in store.entries() {
            assert_eq!(
                reopened.program(&entry.name).unwrap(),
                store.program(&entry.name).unwrap()
            );
        }
        reopened.save().unwrap();
        let manifest_b = fs::read_to_string(dir.join(MANIFEST)).unwrap();
        assert_eq!(manifest_a, manifest_b, "save is byte-stable");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn init_refuses_existing_store() {
        let dir = temp_dir("exists");
        Store::init(&dir).unwrap();
        assert!(Store::init(&dir).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn admit_dedups_by_fingerprint() {
        let dir = temp_dir("dedup");
        let mut store = Store::init(&dir).unwrap();
        let (name, program) = seeds().remove(0);
        assert_eq!(
            store.admit(&name, &program, 7, Provenance::Builtin, None),
            Admission::Fresh(name.clone())
        );
        // Same fingerprint, different name: collapses into the first entry.
        assert_eq!(
            store.admit("other", &program, 7, Provenance::Imported, None),
            Admission::Duplicate(name.clone())
        );
        // Same name, different fingerprint: uniquified.
        assert_eq!(
            store.admit(&name, &program, 8, Provenance::Imported, None),
            Admission::Fresh(format!("{name}_2"))
        );
        assert_eq!(store.len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_quarantine_is_a_set_union() {
        let dir = temp_dir("quarantine");
        let mut store = Store::init(&dir).unwrap();
        let pair = ("s".to_string(), Some("Hoisting".to_string()));
        store.merge_quarantine(std::slice::from_ref(&pair));
        store.merge_quarantine(&[pair.clone(), ("t".to_string(), None)]);
        assert_eq!(store.quarantine().len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_tombstones_floor_streak_entries() {
        let dir = temp_dir("gc");
        let mut store = Store::init(&dir).unwrap();
        let mut all = seeds();
        let (keep_name, keep) = all.remove(0);
        let (drop_name, dropped) = all.remove(0);
        let (fresh_name, fresh) = all.remove(0);
        store.admit(&keep_name, &keep, 1, Provenance::Builtin, None);
        store.admit(&drop_name, &dropped, 2, Provenance::Builtin, None);
        store.admit(&fresh_name, &fresh, 3, Provenance::Builtin, None);
        for name in [&keep_name, &drop_name] {
            store
                .set_stats(
                    name,
                    EntryStats {
                        schedules: 5,
                        yield_sum: 0.0,
                        faults: 0,
                        bugs: 0,
                    },
                )
                .unwrap();
        }
        store.set_floor_streak(&drop_name, 3).unwrap();
        // `fresh` was never scheduled: immune even with a long streak.
        store.set_floor_streak(&fresh_name, 99).unwrap();
        store.save().unwrap();

        assert_eq!(store.gc(3), vec![drop_name.clone()]);
        store.save().unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.tombstones().len(), 1);
        assert!(!dir.join(ENTRIES_DIR).join("c0002.java").exists());

        let mut reopened = Store::open(&dir).unwrap();
        assert_eq!(reopened.tombstones(), store.tombstones());
        // Older journals still resolve the name: stats flushes no-op ...
        reopened
            .set_stats(&drop_name, EntryStats::default())
            .unwrap();
        reopened.set_floor_streak(&drop_name, 0).unwrap();
        // ... re-promotions dedup against the tombstone ...
        assert_eq!(
            reopened.admit("again", &dropped, 2, Provenance::Promoted, None),
            Admission::Duplicate(drop_name.clone())
        );
        // ... and new admissions never reuse its id or name.
        assert_eq!(
            reopened.admit(&drop_name, &dropped, 99, Provenance::Imported, None),
            Admission::Fresh(format!("{drop_name}_2"))
        );
        assert_eq!(reopened.entries().last().unwrap().id, "c0004");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn v1_manifests_are_upgraded_on_open() {
        let dir = temp_dir("v1");
        let mut store = Store::init(&dir).unwrap();
        let (name, program) = seeds().remove(0);
        store.admit(&name, &program, 42, Provenance::Builtin, None);
        store.save().unwrap();
        // Rewrite the manifest as a v1 file: no source_hash, no
        // floor_streak, version 1 header.
        let manifest = fs::read_to_string(dir.join(MANIFEST)).unwrap();
        let v1: String = manifest
            .replace("\"version\":2", "\"version\":1")
            .lines()
            .map(|l| {
                let l = match l.find("\"source_hash\":") {
                    Some(i) => {
                        let rest = &l[i..];
                        let end = rest.find("\",").map(|e| i + e + 2).unwrap();
                        format!("{}{}", &l[..i], &l[end..])
                    }
                    None => l.to_string(),
                };
                match l.find(",\"floor_streak\":") {
                    Some(i) => format!("{}}}", &l[..i]),
                    None => l,
                }
            })
            .collect::<Vec<_>>()
            .join("\n")
            + "\n";
        fs::write(dir.join(MANIFEST), v1).unwrap();
        let reopened = Store::open(&dir).unwrap();
        let entry = &reopened.entries()[0];
        assert_eq!(entry.source_hash, source_hash(&program), "recomputed");
        assert_eq!(entry.floor_streak, 0);
        assert_eq!(
            reopened.memoized_fingerprint(&program),
            Some(42),
            "memoization works after upgrade"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_adopts_concurrent_flushes() {
        let dir = temp_dir("adopt");
        let mut all = seeds();
        let (base_name, base) = all.remove(0);
        let (a_name, a_prog) = all.remove(0);
        let (b_name, b_prog) = all.remove(0);
        let mut init = Store::init(&dir).unwrap();
        init.admit(&base_name, &base, 1, Provenance::Builtin, None);
        init.save().unwrap();
        // Two campaigns open the same baseline ...
        let mut campaign_a = Store::open(&dir).unwrap();
        let mut campaign_b = Store::open(&dir).unwrap();
        // ... both promote different programs (racing for the same id)
        // and quarantine different pairs ...
        campaign_a.admit(&a_name, &a_prog, 100, Provenance::Promoted, None);
        campaign_a.merge_quarantine(&[("s1".to_string(), None)]);
        campaign_a.save().unwrap();
        campaign_b.admit(&b_name, &b_prog, 200, Provenance::Promoted, None);
        campaign_b.merge_quarantine(&[("s2".to_string(), Some("Inlining".to_string()))]);
        campaign_b.save().unwrap();
        // ... and the final state holds all three entries and both pairs.
        let merged = Store::open(&dir).unwrap();
        assert_eq!(merged.len(), 3);
        assert_eq!(merged.quarantine().len(), 2);
        for (name, program) in [(&a_name, &a_prog), (&b_name, &b_prog)] {
            assert_eq!(merged.program(name).unwrap(), program);
        }
        let mut ids: Vec<&str> = merged.entries().iter().map(|e| e.id.as_str()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(
            ids.len(),
            3,
            "entries racing for one id end under distinct ids"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// A one-entry store and two campaigns over it (B's I/O through
    /// `fs_b`), each holding one unsaved promotion under the same fresh
    /// id: A's `arith_loop` (fingerprint 100) and B's program with
    /// fingerprint `b_fingerprint`.
    fn racing_campaigns(dir: &Path, fs_b: Arc<dyn Vfs>, b_fingerprint: u64) -> (Store, Store) {
        let mut all = seeds();
        let (base_name, base) = all.remove(0);
        let (a_name, a_prog) = all.remove(0);
        let (b_name, b_prog) = all.remove(0);
        assert_eq!(a_name, "arith_loop");
        let mut init = Store::init(dir).unwrap();
        init.admit(&base_name, &base, 1, Provenance::Builtin, None);
        init.save().unwrap();
        let mut a = Store::open(dir).unwrap();
        let mut b = Store::open_with(dir, fs_b).unwrap();
        a.admit(&a_name, &a_prog, 100, Provenance::Promoted, None);
        b.admit(&b_name, &b_prog, b_fingerprint, Provenance::Promoted, None);
        assert_eq!(a.entries()[1].id, b.entries()[1].id);
        (a, b)
    }

    /// Reopens the store at `dir` and checks that every live entry's
    /// program hashes to its manifest `source_hash`.
    fn assert_sources_match(dir: &Path, context: &str) -> Store {
        let store = Store::open(dir).unwrap();
        for entry in store.entries() {
            let program = store.program(&entry.name).unwrap();
            assert_eq!(
                source_hash(program),
                entry.source_hash,
                "{context}: entry {} ({}) holds another program",
                entry.id,
                entry.name
            );
        }
        store
    }

    /// B's save crashes after every mutating operation in turn, racing A
    /// for one id with a different behaviour and with a duplicate
    /// behaviour (same fingerprint, another program). A's committed
    /// source is never overwritten: every reopened entry holds the
    /// program its manifest hash names, before and after `fsck --repair`.
    #[test]
    fn a_crashed_concurrent_save_never_corrupts_a_committed_entry() {
        let dir = temp_dir("race-crash");
        for b_fingerprint in [200, 100] {
            let probe = Arc::new(vfs::ChaosVfs::probe());
            let (mut a, mut b) = racing_campaigns(&dir, probe.clone(), b_fingerprint);
            a.save().unwrap();
            let base = probe.ops();
            b.save().unwrap();
            let ops = probe.ops() - base;
            assert_sources_match(&dir, "uninterrupted");
            assert!(crate::fsck(&dir, false).unwrap().clean());
            for n in 0..=ops {
                let _ = fs::remove_dir_all(&dir);
                let chaos = Arc::new(vfs::ChaosVfs::crash_after(base + n));
                let (mut a, mut b) = racing_campaigns(&dir, chaos.clone(), b_fingerprint);
                a.save().unwrap();
                let _ = b.save();
                let context = format!("fingerprint {b_fingerprint}, crash after op {n} of {ops}");
                assert_sources_match(&dir, &context);
                let report = crate::fsck(&dir, true).unwrap();
                assert_eq!(
                    report.unrepaired(),
                    0,
                    "{context}: {}",
                    report.render_text()
                );
                let store = assert_sources_match(&dir, &context);
                assert!(
                    store.entries().iter().any(|e| e.fingerprint == 100),
                    "{context}: the promotion of fingerprint 100 was lost"
                );
                assert!(crate::fsck(&dir, false).unwrap().clean(), "{context}");
            }
            let _ = fs::remove_dir_all(&dir);
        }
    }

    /// A saves, B saves, A saves again: the second save of A adopts B's
    /// entry where B committed it and rewrites no committed source.
    #[test]
    fn interleaved_saves_keep_every_source_matching_its_hash() {
        let dir = temp_dir("race-interleave");
        let (mut a, mut b) = racing_campaigns(&dir, vfs::real(), 200);
        a.save().unwrap();
        b.save().unwrap();
        let probe = Arc::new(vfs::ChaosVfs::probe());
        a.fs = probe.clone();
        a.save().unwrap();
        let third = probe.ops();
        let store = assert_sources_match(&dir, "A, B, A");
        assert_eq!(store.len(), 3);
        assert_eq!(a.entries(), store.entries());
        // A's third save costs what saving an empty store costs: it
        // writes no entry source.
        let empty_dir = temp_dir("race-interleave-empty");
        let mut empty = Store::init(&empty_dir).unwrap();
        empty.fs = probe.clone();
        empty.save().unwrap();
        assert_eq!(probe.ops() - third, third);
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&empty_dir);
    }

    /// A directory holding the sharded layout is refused by open, init
    /// and fsck with the migration, even beside a flat manifest.
    #[test]
    fn sharded_layout_is_refused_with_the_migration() {
        let dir = temp_dir("sharded");
        Store::init(&dir).unwrap();
        fs::write(
            dir.join("shards.json"),
            "{\"type\":\"jcorpus-shards\",\"version\":1,\"shards\":2}\n",
        )
        .unwrap();
        let migration = format!(
            "mopfuzzer corpus import NEWDIR {}/shards/NN/entries",
            dir.display()
        );
        for err in [
            Store::open(&dir).unwrap_err(),
            Store::init(&dir).unwrap_err(),
            crate::fsck(&dir, false).unwrap_err(),
        ] {
            assert!(err.contains(&migration), "{err}");
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
