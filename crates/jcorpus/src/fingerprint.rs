//! OBV/coverage fingerprints for corpus dedup.
//!
//! Two programs that evoke the same optimization behaviour — the same
//! 19-dimensional optimization behaviour vector (OBV) and the same set of
//! covered JIT/runtime blocks — on a fault-free reference JVM are treated
//! as one corpus entry. The fingerprint is an FNV-1a hash over the OBV
//! counts and the per-area sorted coverage blocks, so it is independent
//! of identifier names, statement order inside dead code, or any other
//! source detail that does not change observed behaviour.

use jprofile::Obv;
use jvmsim::{run_jvm, Area, JvmSpec, RunOptions, Verdict, Version};
use mjava::Program;

/// The result of fingerprinting one program, with the simulated work it
/// cost so callers can account for it in campaign budgets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FingerprintOutcome {
    /// The 64-bit behaviour fingerprint.
    pub fingerprint: u64,
    /// Simulated interpreter/JIT steps spent on the reference run.
    pub steps: u64,
}

/// The fault-free reference JVM all fingerprints are computed on.
///
/// Using a single bug-free spec keeps fingerprints stable across campaigns
/// with different differential pools and guarantees fingerprinting itself
/// never trips an injected bug.
pub fn reference_jvm() -> JvmSpec {
    JvmSpec::hotspur(Version::Mainline).without_bugs()
}

/// Computes the behaviour fingerprint of `program` on the reference JVM.
///
/// Returns an error for programs the reference JVM rejects (invalid
/// seeds have no behaviour to fingerprint).
pub fn fingerprint(program: &Program) -> Result<FingerprintOutcome, String> {
    let _span = jtelemetry::span("fingerprint", Vec::new);
    let run = run_jvm(program, &reference_jvm(), &RunOptions::fuzzing());
    match &run.verdict {
        Verdict::InvalidProgram(e) => Err(format!("invalid program: {e}")),
        Verdict::CompilerCrash(c) => Err(format!(
            "reference JVM crashed (should be bug-free): {}",
            c.bug_id
        )),
        Verdict::Completed(_) => {
            let obv = Obv::from_log(&run.log);
            let mut h = Fnv::new();
            for (_, count) in obv.iter() {
                h.write_u64(count);
            }
            for area in Area::ALL {
                h.write_u64(0xA5A5_A5A5_A5A5_A5A5); // area separator
                for block in run.coverage.blocks(area) {
                    h.write_u64(block as u64);
                }
            }
            Ok(FingerprintOutcome {
                fingerprint: h.finish(),
                steps: run.steps,
            })
        }
    }
}

/// FNV-1a over the pretty-printed source of `program` — the memoization
/// key for behaviour fingerprints. Costs one print, no JVM execution;
/// a store entry with the same source hash already knows the program's
/// fingerprint, so imports skip the reference run entirely.
pub fn source_hash(program: &Program) -> u64 {
    let mut h = Fnv::new();
    for byte in mjava::print(program).bytes() {
        h.write_u8(byte);
    }
    h.finish()
}

/// Renders a fingerprint as the fixed-width hex form stored in manifests.
pub fn fingerprint_hex(fp: u64) -> String {
    format!("{fp:016x}")
}

/// Parses the manifest hex form back into a fingerprint.
pub fn parse_fingerprint(s: &str) -> Result<u64, String> {
    u64::from_str_radix(s, 16).map_err(|e| format!("bad fingerprint {s:?}: {e}"))
}

/// FNV-1a, 64-bit. Dependency-free and stable across platforms.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write_u8(&mut self, byte: u8) {
        self.0 ^= byte as u64;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn write_u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.write_u8(byte);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(name: &str) -> Program {
        mjava::samples::all_seeds()
            .into_iter()
            .find(|s| s.name == name)
            .expect("known sample")
            .program
    }

    #[test]
    fn fingerprint_is_deterministic() {
        let p = sample("listing2");
        let a = fingerprint(&p).unwrap();
        let b = fingerprint(&p).unwrap();
        assert_eq!(a, b);
        assert!(a.steps > 0);
    }

    #[test]
    fn distinct_programs_distinct_fingerprints() {
        let seeds = mjava::samples::all_seeds();
        let mut fps = Vec::new();
        for s in &seeds {
            fps.push(fingerprint(&s.program).unwrap().fingerprint);
        }
        fps.sort_unstable();
        fps.dedup();
        assert_eq!(fps.len(), seeds.len(), "built-in seeds should not collide");
    }

    #[test]
    fn source_hash_tracks_printed_source() {
        let a = sample("listing2");
        let b = sample("arith_loop");
        assert_eq!(source_hash(&a), source_hash(&a));
        assert_ne!(source_hash(&a), source_hash(&b));
        // Print → parse → print is stable, so re-imports hit the memo.
        let reparsed = mjava::parse(&mjava::print(&a)).unwrap();
        assert_eq!(source_hash(&reparsed), source_hash(&a));
    }

    #[test]
    fn hex_round_trip() {
        for fp in [0u64, 1, 0xdead_beef, u64::MAX] {
            assert_eq!(parse_fingerprint(&fingerprint_hex(fp)).unwrap(), fp);
        }
        assert!(parse_fingerprint("xyz").is_err());
    }
}
