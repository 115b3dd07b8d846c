//! The workloads and the inputs each one generates from the workload seed.

use jvmsim::{JvmSpec, RunOptions, Verdict};
use mjava::{BinOp, Expr, Program, Stmt};
use mopfuzzer::Seed;
use rand::rngs::SmallRng;
use rand::{Rng as _, SeedableRng as _};
use std::path::Path;

/// One closed-loop campaign workload.
pub struct Workload {
    pub name: &'static str,
    /// Injected bugs armed in the pool (`false` = `JvmSpec::without_bugs`).
    pub armed: bool,
    /// Mutation iterations per seed.
    pub iterations: usize,
    /// Round workers; `None` = one per hardware thread (the CLI default).
    pub jobs: Option<usize>,
    /// Daemon tenants; 0 runs `run_campaign` in a child process instead.
    pub tenants: usize,
    /// Rounds scheduled per second of `--seconds`, so a run measures
    /// about that long on the reference host.
    pub rounds_per_second: f64,
    /// Generated seed programs per campaign (per tenant store for daemon
    /// workloads); round `r` fuzzes seed `r` modulo this. Fixed rather
    /// than one per round, so every set-up does the same amount of work
    /// and `setup_s` is long enough to measure steadily.
    pub seeds: usize,
    /// `GET /metrics` requests per second from the open-loop scraper.
    /// `bug_hunt` scrapes 15 times a second, so one run's three drives
    /// (about 17 s of campaigns on the reference host) give about 250
    /// samples and the reported p95 keeps at least ten samples beyond it
    /// even when the campaigns get a fifth faster. Production Prometheus
    /// scrapes far less often (every 15 s to 1 min), so this over- rather
    /// than under-states the load scraping puts on the daemon; the traced
    /// run reports the share of daemon CPU spent serving it
    /// (`mopfuzzerd.serve_cpu_share`).
    pub scrape_hz: f64,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "fuzz_loop",
        armed: false,
        iterations: 50,
        jobs: Some(1),
        tenants: 0,
        rounds_per_second: 8.0,
        seeds: 64,
        scrape_hz: 0.0,
    },
    Workload {
        name: "oracle_verdicts",
        armed: false,
        iterations: 4,
        jobs: None,
        tenants: 0,
        rounds_per_second: 200.0,
        seeds: 64,
        scrape_hz: 0.0,
    },
    Workload {
        name: "bug_hunt",
        armed: true,
        iterations: 10,
        jobs: None,
        tenants: 2,
        rounds_per_second: 50.0,
        seeds: 32,
        scrape_hz: 15.0,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

impl Workload {
    /// Rounds of each of a run's `campaigns` (per tenant for daemon
    /// workloads), so the whole run measures about `seconds`.
    pub fn rounds(&self, seconds: u64, campaigns: usize) -> usize {
        let total = (seconds as f64 * self.rounds_per_second).round() as usize;
        total.div_ceil(self.tenants.max(1) * campaigns).max(2)
    }

    pub fn jobs(&self) -> usize {
        self.jobs.unwrap_or_else(nproc)
    }
}

/// Campaign RNG seed of `stream` (a tenant index; 0 for in-process runs).
/// Kept below 2^53 so it survives the daemon's JSON numbers exactly.
pub fn campaign_rng(workload_seed: u64, stream: u64) -> u64 {
    workload_seed
        .wrapping_mul(0xD1B5_4A32_D192_ED03)
        .wrapping_add(stream.wrapping_mul(0x8CB9_2BA7_2F3D_8DD7))
        >> 11
}

/// Trip counts of a seed's hot loop. Under `-Xcomp` every method is
/// compiled whatever its hotness, so the generator's 500..2500-trip loop
/// only adds interpretation time and lets mutants reach the fuel cap a few
/// iterations sooner. A short loop keeps a run's cost from being set by a
/// handful of fuel-capped executions, which would make its throughput
/// depend on the seed rather than on the code under test.
const TRIPS: std::ops::Range<i64> = 8..33;

/// Generates `count` regression-test-shaped seed programs for `stream`:
/// the repository's generator with the hot loop shortened, rejection-
/// sampled so no seed crashes or miscompiles a pool JVM unmutated.
pub fn generate_seeds(workload_seed: u64, stream: u64, count: usize) -> Vec<Seed> {
    let mut rng = SmallRng::seed_from_u64(campaign_rng(workload_seed, stream) ^ 0x5EED);
    let pool = JvmSpec::differential_pool();
    (0..count)
        .map(|i| loop {
            let mut program = mopfuzzer::corpus::generate(&mut rng, i);
            let trip = rng.gen_range(TRIPS);
            if set_main_trip(&mut program, trip) && clean_on(&program, &pool) {
                break Seed {
                    name: format!("s{stream}_{i:02}"),
                    program,
                };
            }
        })
        .collect()
}

/// Sets the bound of the first `for` loop in `main`.
fn set_main_trip(program: &mut Program, trip: i64) -> bool {
    let main = program
        .classes
        .iter_mut()
        .flat_map(|c| c.methods.iter_mut())
        .find(|m| m.name == "main");
    let Some(main) = main else {
        return false;
    };
    for stmt in &mut main.body.0 {
        if let Stmt::For {
            cond: Expr::Binary(BinOp::Lt, _, bound),
            ..
        } = stmt
        {
            **bound = Expr::Int(trip);
            return true;
        }
    }
    false
}

fn clean_on(program: &Program, pool: &[JvmSpec]) -> bool {
    pool.iter().all(|spec| {
        let run = jvmsim::run_jvm(program, spec, &RunOptions::fuzzing());
        matches!(run.verdict, Verdict::Completed(_)) && run.miscompiled_by.is_empty()
    })
}

/// Writes seeds as `<name>.java` files.
pub fn write_seeds(dir: &Path, seeds: &[Seed]) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    for seed in seeds {
        let path = dir.join(format!("{}.java", seed.name));
        std::fs::write(&path, mjava::print(&seed.program))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    Ok(())
}

/// Reads the seeds [`write_seeds`] wrote, in name order.
pub fn read_seeds(dir: &Path) -> Result<Vec<Seed>, String> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("read {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "java"))
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|path| {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("read {}: {e}", path.display()))?;
            let program =
                mjava::parse(&text).map_err(|e| format!("parse {}: {e:?}", path.display()))?;
            let name = path
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_default();
            Ok(Seed { name, program })
        })
        .collect()
}

/// Builds a corpus store from generated seeds, as `corpus init` does:
/// each seed is fingerprinted on the reference JVM and admitted.
pub fn build_store(dir: &Path, seeds: &[Seed]) -> Result<(), String> {
    let mut store = jcorpus::Store::init(dir)?;
    mopfuzzer::import_seeds(&mut store, seeds, jcorpus::Provenance::Generated)?;
    store.save()
}
