//! Crash-recovery checking and repair for corpus stores (`corpus fsck`).
//!
//! [`Store::open`](crate::Store::open) deliberately tolerates the
//! footprints a crash can leave behind (torn final lines, stale `*.tmp`
//! siblings) so campaigns keep running; `fsck` is the explicit twin that
//! *names* every such footprint and, with `repair`, removes it:
//!
//! * **torn tails** — an unparseable final line of `manifest.jsonl` or
//!   `quarantine.jsonl` (a writer died mid-write); repaired by
//!   rewriting the file without the torn record;
//! * **mid-file corruption** — an unparseable line that is *not* the
//!   tail, or a bad header: reported but never auto-repaired (dropping
//!   an interior record would silently lose data);
//! * **missing/corrupt sources** — a live manifest entry whose
//!   `entries/<id>.java` is unreadable or unparseable; repaired by
//!   tombstoning the entry (name and fingerprint stay reserved);
//! * **source mismatches** — a live v2 entry whose source parses but
//!   hashes to something other than its manifest `source_hash` (another
//!   program sits under its id); repaired by tombstoning, like a missing
//!   source. v1 entries carry no hash and are not checked;
//! * **dangling tombstones** — a tombstoned entry whose source file
//!   still exists (crash between the manifest rename and the source
//!   unlink); repaired by deleting the file;
//! * **orphan sources** — `entries/*.java` referenced by no manifest
//!   line at all; repaired by deleting the file;
//! * **stale tmp files** — `*.tmp` anywhere in the store; deleted.
//!
//! All checking runs under the store lock, so a live campaign's
//! in-flight save is never misread as damage. The report is available
//! machine-readable ([`FsckReport::to_json`]) for CI artifacts.

use crate::lock::{StoreLock, DEFAULT_LOCK_TIMEOUT};
use crate::store::{
    check_header, decode_line, decode_quarantine_line, encode_tombstone, refuse_sharded,
    source_path, Decoded, ENTRIES_DIR, MANIFEST, QUARANTINE,
};
use crate::vfs::{self, Vfs};
use crate::{source_hash, Tombstone};
use jtelemetry::json::quote;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// What kind of damage one [`FsckIssue`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsckIssueKind {
    /// Unparseable final line of `manifest.jsonl`.
    TornManifestTail,
    /// Unparseable interior line or header of `manifest.jsonl`.
    CorruptManifest,
    /// Unparseable final line of `quarantine.jsonl`.
    TornQuarantineTail,
    /// Unparseable interior line of `quarantine.jsonl`.
    CorruptQuarantine,
    /// Live entry whose `entries/<id>.java` is missing or unparseable.
    MissingSource,
    /// Live entry whose source hashes to something other than its
    /// manifest `source_hash`.
    SourceMismatch,
    /// `entries/*.java` referenced by no manifest line.
    OrphanSource,
    /// Tombstoned entry whose source file still exists.
    DanglingTombstone,
    /// Leftover `*.tmp` from an interrupted atomic write.
    StaleTmp,
}

impl FsckIssueKind {
    /// Stable machine-readable name.
    pub fn as_str(&self) -> &'static str {
        match self {
            FsckIssueKind::TornManifestTail => "torn-manifest-tail",
            FsckIssueKind::CorruptManifest => "corrupt-manifest",
            FsckIssueKind::TornQuarantineTail => "torn-quarantine-tail",
            FsckIssueKind::CorruptQuarantine => "corrupt-quarantine",
            FsckIssueKind::MissingSource => "missing-source",
            FsckIssueKind::SourceMismatch => "source-mismatch",
            FsckIssueKind::OrphanSource => "orphan-source",
            FsckIssueKind::DanglingTombstone => "dangling-tombstone",
            FsckIssueKind::StaleTmp => "stale-tmp",
        }
    }

    /// Whether `fsck --repair` knows a safe fix. Interior corruption is
    /// never auto-repaired: dropping a mid-file record loses data the
    /// crash did not.
    pub fn repairable(&self) -> bool {
        !matches!(
            self,
            FsckIssueKind::CorruptManifest | FsckIssueKind::CorruptQuarantine
        )
    }
}

/// One detected inconsistency.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FsckIssue {
    /// The damage class.
    pub kind: FsckIssueKind,
    /// The file the issue lives in.
    pub path: PathBuf,
    /// Human-readable specifics (line number, entry id, parse error).
    pub detail: String,
    /// Whether this run's repair pass fixed it.
    pub repaired: bool,
}

/// The outcome of one fsck pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FsckReport {
    /// The store that was checked.
    pub dir: PathBuf,
    /// Whether repairs were requested.
    pub repair: bool,
    /// Every detected issue, in detection order.
    pub issues: Vec<FsckIssue>,
}

impl FsckReport {
    /// No issues at all.
    pub fn clean(&self) -> bool {
        self.issues.is_empty()
    }

    /// Issues fixed by this run.
    pub fn repaired(&self) -> usize {
        self.issues.iter().filter(|i| i.repaired).count()
    }

    /// Issues still present after this run.
    pub fn unrepaired(&self) -> usize {
        self.issues.len() - self.repaired()
    }

    /// Machine-readable report, one JSON object.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"type\":\"jcorpus-fsck\",\"version\":1,\"dir\":{},\"repair\":{},\
             \"clean\":{},\"issues\":[",
            quote(&self.dir.display().to_string()),
            self.repair,
            self.clean(),
        );
        for (i, issue) in self.issues.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"kind\":\"{}\",\"path\":{},\"detail\":{},\"repaired\":{}}}",
                issue.kind.as_str(),
                quote(&issue.path.display().to_string()),
                quote(&issue.detail),
                issue.repaired,
            ));
        }
        out.push_str("]}");
        out
    }

    /// Human-readable report, one line per issue plus a summary.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for issue in &self.issues {
            let status = if issue.repaired { "repaired" } else { "found" };
            out.push_str(&format!(
                "{status}: {} at {} ({})\n",
                issue.kind.as_str(),
                issue.path.display(),
                issue.detail,
            ));
        }
        if self.clean() {
            out.push_str(&format!("{}: clean\n", self.dir.display()));
        } else {
            out.push_str(&format!(
                "{}: {} issue(s), {} repaired, {} remaining\n",
                self.dir.display(),
                self.issues.len(),
                self.repaired(),
                self.unrepaired(),
            ));
        }
        out
    }
}

/// Checks the store at `dir`, repairing what it finds when `repair` is
/// set. Fails only when the store cannot be examined at all (no
/// manifest, lock held past its timeout, or the sharded layout, which
/// is refused with its migration).
pub fn fsck(dir: &Path, repair: bool) -> Result<FsckReport, String> {
    fsck_with(dir, repair, vfs::real())
}

/// [`fsck`] with all I/O routed through `fs`.
pub fn fsck_with(dir: &Path, repair: bool, fs: Arc<dyn Vfs>) -> Result<FsckReport, String> {
    refuse_sharded(fs.as_ref(), dir)?;
    let _lock = StoreLock::acquire_with_vfs(dir, DEFAULT_LOCK_TIMEOUT, fs.clone())?;
    let mut report = FsckReport {
        dir: dir.to_path_buf(),
        repair,
        issues: Vec::new(),
    };
    let manifest = check_manifest(fs.as_ref(), dir, repair, &mut report)?;
    if let Some(manifest) = &manifest {
        check_sources(fs.as_ref(), dir, manifest, repair, &mut report);
    }
    check_quarantine(fs.as_ref(), dir, repair, &mut report);
    check_stale_tmp(fs.as_ref(), dir, repair, &mut report);
    if jtelemetry::enabled() {
        jtelemetry::count(
            jtelemetry::Counter::FsckIssuesFound,
            report.issues.len() as u64,
        );
        jtelemetry::count(
            jtelemetry::Counter::FsckRepairsApplied,
            report.repaired() as u64,
        );
    }
    Ok(report)
}

/// The manifest knowledge the source checks need: decoded lines paired
/// with their raw text (kept verbatim on rewrite, so repair never
/// reformats undamaged records).
struct ManifestScan {
    header: String,
    records: Vec<(String, Decoded)>, // (raw line, decoded)
}

fn check_manifest(
    fs: &dyn Vfs,
    dir: &Path,
    repair: bool,
    report: &mut FsckReport,
) -> Result<Option<ManifestScan>, String> {
    let path = dir.join(MANIFEST);
    let text = fs
        .read_to_string(&path)
        .map_err(|e| format!("read {}: {e}", path.display()))?;
    let lines: Vec<(usize, &str)> = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .collect();
    let Some((_, header)) = lines.first() else {
        report.issues.push(FsckIssue {
            kind: FsckIssueKind::CorruptManifest,
            path,
            detail: "empty manifest".to_string(),
            repaired: false,
        });
        return Ok(None);
    };
    if let Err(e) = check_header(header) {
        report.issues.push(FsckIssue {
            kind: FsckIssueKind::CorruptManifest,
            path,
            detail: format!("line 1: {e}"),
            repaired: false,
        });
        // Without a trusted header nothing downstream can be judged.
        return Ok(None);
    }
    let mut scan = ManifestScan {
        header: header.to_string(),
        records: Vec::new(),
    };
    let mut torn = false;
    for (pos, (i, line)) in lines.iter().enumerate().skip(1) {
        match decode_line(line) {
            Ok(decoded) => scan.records.push((line.to_string(), decoded)),
            Err(e) if pos + 1 == lines.len() => {
                torn = true;
                report.issues.push(FsckIssue {
                    kind: FsckIssueKind::TornManifestTail,
                    path: path.clone(),
                    detail: format!("line {}: {e}", i + 1),
                    repaired: repair,
                });
            }
            Err(e) => {
                report.issues.push(FsckIssue {
                    kind: FsckIssueKind::CorruptManifest,
                    path: path.clone(),
                    detail: format!("line {}: {e}", i + 1),
                    repaired: false,
                });
                // Interior corruption: stop judging sources against a
                // manifest we only partially understand.
                return Ok(None);
            }
        }
    }
    if torn && repair {
        rewrite_manifest(fs, dir, &scan);
    }
    Ok(Some(scan))
}

/// Rewrites the manifest from a scan's raw records (atomic commit).
fn rewrite_manifest(fs: &dyn Vfs, dir: &Path, scan: &ManifestScan) {
    let mut text = scan.header.clone();
    text.push('\n');
    for (raw, _) in &scan.records {
        text.push_str(raw);
        text.push('\n');
    }
    let _ = vfs::write_atomic(fs, &dir.join(MANIFEST), &text);
}

fn check_sources(
    fs: &dyn Vfs,
    dir: &Path,
    manifest: &ManifestScan,
    repair: bool,
    report: &mut FsckReport,
) {
    let entries_dir = dir.join(ENTRIES_DIR);
    let mut scan = ManifestScan {
        header: manifest.header.clone(),
        records: Vec::new(),
    };
    let mut tombstoned = Vec::new();
    let mut live_ids = Vec::new();
    let mut tomb_ids = Vec::new();
    for (raw, decoded) in &manifest.records {
        match decoded {
            Decoded::Tomb(t) => {
                tomb_ids.push(t.id.clone());
                scan.records.push((raw.clone(), Decoded::Tomb(t.clone())));
            }
            Decoded::Live(entry, has_hash) => {
                let src = source_path(dir, &entry.id);
                let program = fs
                    .read_to_string(&src)
                    .ok()
                    .and_then(|text| mjava::parse(&text).ok());
                let (kind, problem) = match program {
                    None => (FsckIssueKind::MissingSource, "has no readable source"),
                    // v1 records carry no hash to check against.
                    Some(p) if *has_hash && source_hash(&p) != entry.source_hash => (
                        FsckIssueKind::SourceMismatch,
                        "holds a source that does not hash to its source_hash",
                    ),
                    Some(_) => {
                        live_ids.push(entry.id.clone());
                        scan.records
                            .push((raw.clone(), Decoded::Live(entry.clone(), *has_hash)));
                        continue;
                    }
                };
                report.issues.push(FsckIssue {
                    kind,
                    path: src.clone(),
                    detail: format!(
                        "entry {} ({:?}) {problem}; tombstoning",
                        entry.id, entry.name
                    ),
                    repaired: repair,
                });
                // The safe repair: keep name and fingerprint reserved as
                // a tombstone, drop the unreadable program.
                let tomb = Tombstone {
                    id: entry.id.clone(),
                    name: entry.name.clone(),
                    fingerprint: entry.fingerprint,
                };
                tomb_ids.push(tomb.id.clone());
                tombstoned.push(src);
                let line = encode_tombstone(&tomb).trim_end().to_string();
                scan.records.push((line, Decoded::Tomb(tomb)));
            }
        }
    }
    if repair && !tombstoned.is_empty() {
        rewrite_manifest(fs, dir, &scan);
        for src in &tombstoned {
            let _ = fs.remove_file(src);
        }
        let _ = fs.fsync_dir(&entries_dir);
    }
    // Source files the (possibly just-rewritten) manifest does not claim.
    let mut removed = false;
    for path in fs.read_dir(&entries_dir).unwrap_or_default() {
        let Some(id) = path
            .file_name()
            .and_then(|n| n.to_str())
            .and_then(|n| n.strip_suffix(".java"))
        else {
            continue; // `*.tmp` and strangers are the tmp sweep's concern
        };
        if live_ids.iter().any(|l| l == id) || tombstoned.contains(&path) {
            continue;
        }
        let (kind, detail) = if tomb_ids.iter().any(|t| t == id) {
            (
                FsckIssueKind::DanglingTombstone,
                format!("tombstoned entry {id} still has a source file"),
            )
        } else {
            (
                FsckIssueKind::OrphanSource,
                format!("{id}.java is referenced by no manifest line"),
            )
        };
        report.issues.push(FsckIssue {
            kind,
            path: path.clone(),
            detail,
            repaired: repair,
        });
        if repair {
            removed |= fs.remove_file(&path).is_ok();
        }
    }
    if removed {
        let _ = fs.fsync_dir(&entries_dir);
    }
}

fn check_quarantine(fs: &dyn Vfs, dir: &Path, repair: bool, report: &mut FsckReport) {
    let path = dir.join(QUARANTINE);
    if !fs.exists(&path) {
        return; // a store may legitimately predate any quarantine flush
    }
    let Ok(text) = fs.read_to_string(&path) else {
        return;
    };
    let lines: Vec<(usize, &str)> = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .collect();
    let mut good = Vec::new();
    let mut torn = false;
    for (pos, (i, line)) in lines.iter().enumerate() {
        match decode_quarantine_line(line) {
            Ok(_) => good.push(*line),
            Err(e) if pos + 1 == lines.len() => {
                torn = true;
                report.issues.push(FsckIssue {
                    kind: FsckIssueKind::TornQuarantineTail,
                    path: path.clone(),
                    detail: format!("line {}: {e}", i + 1),
                    repaired: repair,
                });
            }
            Err(e) => {
                report.issues.push(FsckIssue {
                    kind: FsckIssueKind::CorruptQuarantine,
                    path: path.clone(),
                    detail: format!("line {}: {e}", i + 1),
                    repaired: false,
                });
                return;
            }
        }
    }
    if torn && repair {
        let mut text: String = good.join("\n");
        if !text.is_empty() {
            text.push('\n');
        }
        let _ = vfs::write_atomic(fs, &path, &text);
    }
}

fn check_stale_tmp(fs: &dyn Vfs, dir: &Path, repair: bool, report: &mut FsckReport) {
    for d in [dir.to_path_buf(), dir.join(ENTRIES_DIR)] {
        let Ok(paths) = fs.read_dir(&d) else {
            continue;
        };
        let mut paths: Vec<PathBuf> = paths
            .into_iter()
            .filter(|p| p.extension().is_some_and(|e| e == "tmp"))
            .collect();
        paths.sort();
        let mut removed = false;
        for path in paths {
            report.issues.push(FsckIssue {
                kind: FsckIssueKind::StaleTmp,
                path: path.clone(),
                detail: "leftover from an interrupted atomic write".to_string(),
                repaired: repair,
            });
            if repair {
                removed |= fs.remove_file(&path).is_ok();
            }
        }
        if removed {
            let _ = fs.fsync_dir(&d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{Provenance, Store};
    use std::fs as stdfs;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("jcorpus-fsck-{tag}-{}-{n}", std::process::id()));
        let _ = stdfs::remove_dir_all(&dir);
        dir
    }

    /// A saved two-entry store to damage.
    fn seeded_store(tag: &str) -> PathBuf {
        let dir = temp_dir(tag);
        let mut store = Store::init(&dir).unwrap();
        for (i, seed) in mjava::samples::all_seeds().into_iter().take(2).enumerate() {
            store.admit(
                seed.name,
                &seed.program,
                i as u64 + 1,
                Provenance::Builtin,
                None,
            );
        }
        store.merge_quarantine(&[("s".to_string(), None), ("t".to_string(), Some("X".into()))]);
        store.save().unwrap();
        dir
    }

    #[test]
    fn clean_store_reports_clean() {
        let dir = seeded_store("clean");
        let report = fsck(&dir, false).unwrap();
        assert!(report.clean(), "{:?}", report.issues);
        assert!(report.to_json().contains("\"clean\":true"));
        let _ = stdfs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_manifest_tail_is_reported_and_repaired() {
        let dir = seeded_store("torn-manifest");
        let path = dir.join(MANIFEST);
        let pristine = stdfs::read_to_string(&path).unwrap();
        let last = pristine.lines().last().unwrap();
        stdfs::write(&path, format!("{pristine}{}", &last[..last.len() / 2])).unwrap();
        let report = fsck(&dir, false).unwrap();
        assert_eq!(report.issues.len(), 1, "{:?}", report.issues);
        assert_eq!(report.issues[0].kind, FsckIssueKind::TornManifestTail);
        assert!(!report.issues[0].repaired);

        let report = fsck(&dir, true).unwrap();
        assert_eq!(report.repaired(), 1);
        assert_eq!(stdfs::read_to_string(&path).unwrap(), pristine);
        assert!(fsck(&dir, false).unwrap().clean());
        let _ = stdfs::remove_dir_all(&dir);
    }

    #[test]
    fn interior_corruption_is_reported_but_never_dropped() {
        let dir = seeded_store("interior");
        let path = dir.join(MANIFEST);
        let pristine = stdfs::read_to_string(&path).unwrap();
        let mut lines: Vec<&str> = pristine.lines().collect();
        lines.insert(1, "{\"garbage\":");
        stdfs::write(&path, lines.join("\n") + "\n").unwrap();
        let report = fsck(&dir, true).unwrap();
        assert_eq!(report.issues[0].kind, FsckIssueKind::CorruptManifest);
        assert!(!report.issues[0].repaired);
        assert!(report.unrepaired() >= 1);
        // The damaged manifest was not rewritten behind the user's back.
        assert!(stdfs::read_to_string(&path)
            .unwrap()
            .contains("{\"garbage\":"));
        let _ = stdfs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_source_is_tombstoned() {
        let dir = seeded_store("missing-src");
        stdfs::remove_file(dir.join(ENTRIES_DIR).join("c0001.java")).unwrap();
        let report = fsck(&dir, true).unwrap();
        assert!(
            report
                .issues
                .iter()
                .any(|i| i.kind == FsckIssueKind::MissingSource && i.repaired),
            "{:?}",
            report.issues
        );
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(store.tombstones().len(), 1);
        assert!(fsck(&dir, false).unwrap().clean());
        let _ = stdfs::remove_dir_all(&dir);
    }

    #[test]
    fn orphans_dangling_tombstones_and_tmp_are_swept() {
        let dir = seeded_store("sweep");
        let entries = dir.join(ENTRIES_DIR);
        // An orphan source, a stale tmp in each directory, and a
        // dangling tombstone (gc, then resurrect the source file).
        stdfs::write(entries.join("c9999.java"), "class Foo { }").unwrap();
        stdfs::write(entries.join("c0001.tmp"), "half").unwrap();
        stdfs::write(dir.join("manifest.tmp"), "half").unwrap();
        let mut store = Store::open(&dir).unwrap();
        let name = store.entries()[0].name.clone();
        store
            .set_stats(
                &name,
                crate::EntryStats {
                    schedules: 1,
                    ..Default::default()
                },
            )
            .unwrap();
        store.set_floor_streak(&name, 10).unwrap();
        assert_eq!(store.gc(1), vec![name]);
        store.save().unwrap();
        stdfs::write(entries.join("c0001.java"), "class Foo { }").unwrap();

        let report = fsck(&dir, true).unwrap();
        let kinds: Vec<FsckIssueKind> = report.issues.iter().map(|i| i.kind).collect();
        assert!(kinds.contains(&FsckIssueKind::OrphanSource), "{kinds:?}");
        assert!(
            kinds.contains(&FsckIssueKind::DanglingTombstone),
            "{kinds:?}"
        );
        assert!(!kinds.contains(&FsckIssueKind::StaleTmp), "{kinds:?}");
        assert!(!entries.join("c9999.java").exists());
        assert!(!entries.join("c0001.java").exists());
        assert!(fsck(&dir, false).unwrap().clean());
        let _ = stdfs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_manifest_tail_recovers_at_every_byte_boundary() {
        let dir = seeded_store("manifest-bytes");
        let manifest = dir.join(MANIFEST);
        let pristine = stdfs::read_to_string(&manifest).unwrap();
        let last = pristine.lines().last().unwrap().to_string();
        let head = pristine[..pristine.len() - last.len() - 1].to_string();
        let src_path = dir.join(ENTRIES_DIR).join("c0002.java");
        let src = stdfs::read_to_string(&src_path).unwrap();
        for cut in 0..last.len() {
            stdfs::write(&src_path, &src).unwrap();
            stdfs::write(&manifest, format!("{head}{}", &last[..cut])).unwrap();
            let opened = Store::open(&dir).unwrap();
            assert_eq!(opened.len(), 1, "cut {cut}: torn record dropped on open");
            let report = fsck(&dir, true).unwrap();
            assert!(
                report.issues.iter().all(|i| i.repaired),
                "cut {cut}: {:?}",
                report.issues
            );
            if cut > 0 {
                assert!(
                    report
                        .issues
                        .iter()
                        .any(|i| i.kind == FsckIssueKind::TornManifestTail),
                    "cut {cut}: {:?}",
                    report.issues
                );
            }
            assert!(fsck(&dir, false).unwrap().clean(), "cut {cut}");
        }
        let _ = stdfs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_quarantine_tail_recovers_at_every_byte_boundary() {
        let dir = seeded_store("quarantine-bytes");
        let quarantine = dir.join(QUARANTINE);
        let pristine = stdfs::read_to_string(&quarantine).unwrap();
        let last = pristine.lines().last().unwrap().to_string();
        let head = pristine[..pristine.len() - last.len() - 1].to_string();
        for cut in 0..last.len() {
            stdfs::write(&quarantine, format!("{head}{}", &last[..cut])).unwrap();
            let opened = Store::open(&dir).unwrap();
            assert_eq!(opened.quarantine().len(), 1, "cut {cut}");
            let report = fsck(&dir, true).unwrap();
            let expect = usize::from(cut > 0);
            assert_eq!(
                report.issues.len(),
                expect,
                "cut {cut}: {:?}",
                report.issues
            );
            assert_eq!(report.repaired(), expect, "cut {cut}");
            if cut > 0 {
                assert_eq!(report.issues[0].kind, FsckIssueKind::TornQuarantineTail);
                assert_eq!(stdfs::read_to_string(&quarantine).unwrap(), head);
            }
            assert!(fsck(&dir, false).unwrap().clean(), "cut {cut}");
        }
        let _ = stdfs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_quarantine_tail_is_repaired() {
        let dir = seeded_store("torn-quarantine");
        let path = dir.join(QUARANTINE);
        let pristine = stdfs::read_to_string(&path).unwrap();
        stdfs::write(&path, format!("{pristine}{{\"seed\":\"half")).unwrap();
        let report = fsck(&dir, true).unwrap();
        assert_eq!(report.issues.len(), 1, "{:?}", report.issues);
        assert_eq!(report.issues[0].kind, FsckIssueKind::TornQuarantineTail);
        assert_eq!(stdfs::read_to_string(&path).unwrap(), pristine);
        let _ = stdfs::remove_dir_all(&dir);
    }

    #[test]
    fn swapped_sources_are_source_mismatches_and_tombstoned() {
        let dir = seeded_store("mismatch");
        let entries = dir.join(ENTRIES_DIR);
        let first = stdfs::read_to_string(entries.join("c0001.java")).unwrap();
        let second = stdfs::read_to_string(entries.join("c0002.java")).unwrap();
        stdfs::write(entries.join("c0001.java"), &second).unwrap();
        stdfs::write(entries.join("c0002.java"), &first).unwrap();
        // Open still succeeds: both sources parse.
        assert_eq!(Store::open(&dir).unwrap().len(), 2);
        let report = fsck(&dir, false).unwrap();
        let kinds: Vec<FsckIssueKind> = report.issues.iter().map(|i| i.kind).collect();
        assert_eq!(
            kinds,
            [FsckIssueKind::SourceMismatch; 2],
            "{:?}",
            report.issues
        );
        assert!(report.to_json().contains("\"kind\":\"source-mismatch\""));

        let report = fsck(&dir, true).unwrap();
        assert_eq!(report.repaired(), 2, "{:?}", report.issues);
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.len(), 0);
        assert_eq!(store.tombstones().len(), 2);
        assert!(!entries.join("c0001.java").exists());
        assert!(fsck(&dir, false).unwrap().clean());
        let _ = stdfs::remove_dir_all(&dir);
    }

    #[test]
    fn reports_serialize() {
        let dir = seeded_store("json");
        stdfs::write(dir.join("manifest.tmp"), "half").unwrap();
        let report = fsck(&dir, false).unwrap();
        let json = report.to_json();
        assert!(json.contains("\"kind\":\"stale-tmp\""), "{json}");
        assert!(json.contains("\"clean\":false"), "{json}");
        let parsed = jtelemetry::json::parse(&json).unwrap();
        assert!(parsed.get("issues").and_then(|i| i.as_arr()).is_some());
        let text = report.render_text();
        assert!(text.contains("stale-tmp"), "{text}");
        let _ = stdfs::remove_dir_all(&dir);
    }
}
