//! Fleet-service throughput: concurrent tenants and store flush costs.
//!
//! Two measurements, written to `BENCH_service.json`:
//!
//!  1. **Fleet campaign throughput.** N identical campaigns are driven
//!     through the `mopfuzzerd` registry — the daemon's scheduler, minus
//!     the HTTP skin — at tenants ∈ {1, 2, 4}; the table reports
//!     campaigns/hour and aggregate execs/sec. Tenants multiplex onto
//!     one process-wide work pool, so on a single-core host expect
//!     ~flat execs/sec (the scheduler's point is that co-tenancy is
//!     *safe*, not that it beats the hardware).
//!
//!  2. **Store flush throughput, flat vs sharded.** T tenant threads
//!     share one corpus store; each repeatedly dirties a single entry's
//!     stats and flushes. A flat save rewrites every source plus the
//!     whole manifest under one store-wide lock; a sharded save rewrites
//!     only the dirty shard under that shard's lock. That is strictly
//!     less work and strictly less contention, so the bench **asserts
//!     sharded ≥ flat whenever tenants ≥ 2** — on any host, cores or
//!     not.
//!
//! Flags:
//!   --smoke       tiny iteration counts (CI smoke mode)
//!   --out PATH    output path (default BENCH_service.json)

use jcorpus::{EntryStats, Provenance, Store};
use mopfuzzerd::{CampaignSpec, Registry, State};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

const TENANTS: [usize; 3] = [1, 2, 4];
const SHARDS: usize = 8;

fn temp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("service-bench-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

struct FleetRow {
    tenants: usize,
    seconds: f64,
    campaigns_per_hour: f64,
    execs_per_sec: f64,
    executions: u64,
}

struct FlushRow {
    tenants: usize,
    flat_per_sec: f64,
    sharded_per_sec: f64,
}

fn main() {
    let metrics = bench::metrics::start();
    run();
    bench::metrics::finish(metrics.as_deref());
}

fn run() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
    };
    let out_path = flag("--out")
        .cloned()
        .unwrap_or_else(|| "BENCH_service.json".into());
    let rounds: usize = if smoke { 2 } else { 8 };
    let iterations: usize = if smoke { 4 } else { 12 };
    let flushes: usize = if smoke { 8 } else { 32 };
    let hw = std::thread::available_parallelism().map_or(1, usize::from);

    let fleet = fleet_rows(rounds, iterations);
    let flush = flush_rows(flushes);

    let fleet_table: Vec<Vec<String>> = fleet
        .iter()
        .map(|r| {
            vec![
                r.tenants.to_string(),
                format!("{:.3}", r.seconds),
                format!("{:.1}", r.campaigns_per_hour),
                format!("{:.0}", r.execs_per_sec),
            ]
        })
        .collect();
    println!("{}", render_fleet(rounds, hw, &fleet_table));

    let flush_table: Vec<Vec<String>> = flush
        .iter()
        .map(|r| {
            vec![
                r.tenants.to_string(),
                format!("{:.1}", r.flat_per_sec),
                format!("{:.1}", r.sharded_per_sec),
                format!("{:.2}x", r.sharded_per_sec / r.flat_per_sec),
            ]
        })
        .collect();
    println!(
        "{}",
        bench::render_table(
            &format!("Store flush throughput, {SHARDS} shards, {flushes} flushes/tenant"),
            &["tenants", "flat/s", "sharded/s", "sharded gain"],
            &flush_table
        )
    );

    for r in &flush {
        if r.tenants >= 2 {
            assert!(
                r.sharded_per_sec >= r.flat_per_sec,
                "sharded flush throughput regressed below flat at {} tenants \
                 ({:.1}/s < {:.1}/s): dirty-shard saves should always do less \
                 work than whole-store rewrites",
                r.tenants,
                r.sharded_per_sec,
                r.flat_per_sec,
            );
        }
    }

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"type\": \"mopfuzzer-service-bench\",");
    let _ = writeln!(json, "  \"version\": 1,");
    let _ = writeln!(json, "  \"host\": {},", bench::host_meta_json());
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(
        json,
        "  \"fleet\": {{\"rounds\": {rounds}, \"iterations\": {iterations}, \"results\": ["
    );
    for (i, r) in fleet.iter().enumerate() {
        let comma = if i + 1 < fleet.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"tenants\": {}, \"seconds\": {:.6}, \"campaigns_per_hour\": {:.3}, \
             \"execs_per_sec\": {:.3}, \"executions\": {}}}{comma}",
            r.tenants, r.seconds, r.campaigns_per_hour, r.execs_per_sec, r.executions,
        );
    }
    let _ = writeln!(json, "  ]}},");
    let _ = writeln!(
        json,
        "  \"flush\": {{\"shards\": {SHARDS}, \"flushes_per_tenant\": {flushes}, \"results\": ["
    );
    for (i, r) in flush.iter().enumerate() {
        let comma = if i + 1 < flush.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"tenants\": {}, \"flat_flushes_per_sec\": {:.3}, \
             \"sharded_flushes_per_sec\": {:.3}, \"sharded_gain\": {:.3}}}{comma}",
            r.tenants,
            r.flat_per_sec,
            r.sharded_per_sec,
            r.sharded_per_sec / r.flat_per_sec,
        );
    }
    let _ = writeln!(json, "  ]}}");
    let _ = writeln!(json, "}}");
    std::fs::write(&out_path, json).expect("write bench output");
    eprintln!("wrote {out_path}");
}

fn render_fleet(rounds: usize, hw: usize, table: &[Vec<String>]) -> String {
    bench::render_table(
        &format!("Fleet throughput, {rounds} rounds/campaign, {hw} hardware thread(s)"),
        &["tenants", "seconds", "campaigns/h", "execs/s"],
        table,
    )
}

/// Drives `tenants` identical campaigns through the registry and times
/// the whole fleet to completion.
fn fleet_rows(rounds: usize, iterations: usize) -> Vec<FleetRow> {
    TENANTS
        .iter()
        .map(|&tenants| {
            eprintln!("running {tenants} concurrent tenant(s), {rounds} rounds each ...");
            let data_dir = temp_dir("fleet");
            let registry = Registry::open(&data_dir, tenants, false).expect("open registry");
            let start = Instant::now();
            for t in 0..tenants {
                let spec = CampaignSpec::from_json(&format!(
                    "{{\"rounds\": {rounds}, \"seed\": {}, \"iterations\": {iterations}, \
                     \"jobs\": 1}}",
                    100 + t as u64,
                ))
                .expect("parse spec");
                registry.submit(spec).expect("submit campaign");
            }
            registry.join();
            let seconds = start.elapsed().as_secs_f64().max(1e-9);
            let statuses = registry.statuses();
            assert_eq!(statuses.len(), tenants);
            let mut executions = 0;
            for s in &statuses {
                assert_eq!(s.state, State::Done, "tenant {} did not finish", s.id);
                executions += s.executions;
            }
            let _ = std::fs::remove_dir_all(&data_dir);
            FleetRow {
                tenants,
                seconds,
                campaigns_per_hour: tenants as f64 * 3600.0 / seconds,
                execs_per_sec: executions as f64 / seconds,
                executions,
            }
        })
        .collect()
}

/// T tenant threads hammer one store with dirty-one-entry flushes; the
/// same workload runs against a flat and a sharded copy.
fn flush_rows(flushes: usize) -> Vec<FlushRow> {
    let seeds = mopfuzzer::corpus::corpus(24, 1);
    TENANTS
        .iter()
        .map(|&tenants| {
            let flat = flush_run(&seeds, tenants, flushes, None);
            let sharded = flush_run(&seeds, tenants, flushes, Some(SHARDS));
            FlushRow {
                tenants,
                flat_per_sec: flat,
                sharded_per_sec: sharded,
            }
        })
        .collect()
}

fn flush_run(
    seeds: &[mopfuzzer::Seed],
    tenants: usize,
    flushes: usize,
    shards: Option<usize>,
) -> f64 {
    let layout = if shards.is_some() { "sharded" } else { "flat" };
    eprintln!("flushing {layout} store, {tenants} tenant(s) x {flushes} flushes ...");
    let dir = temp_dir(layout);
    let store_dir = dir.join("store");
    let mut store = match shards {
        Some(n) => Store::init_sharded(&store_dir, n).expect("init sharded store"),
        None => Store::init(&store_dir).expect("init store"),
    };
    mopfuzzer::import_seeds(&mut store, seeds, Provenance::Builtin).expect("import seeds");
    store.save().expect("seed the store");
    let names: Vec<String> = store.entries().iter().map(|e| e.name.clone()).collect();
    drop(store);

    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..tenants {
            let store_dir = store_dir.clone();
            let names = &names;
            scope.spawn(move || {
                let mut store = Store::open(&store_dir).expect("open store");
                // Each tenant walks its own slice of the entry list, so
                // concurrent flushes dirty mostly-disjoint shards.
                let mine: Vec<&String> = names.iter().skip(t).step_by(tenants).collect();
                for i in 0..flushes {
                    let name = mine[i % mine.len()];
                    let stats = EntryStats {
                        schedules: i as u64 + 1,
                        yield_sum: i as f64,
                        faults: 0,
                        bugs: 0,
                    };
                    store.set_stats(name, stats).expect("set stats");
                    store.save().expect("flush store");
                }
            });
        }
    });
    let seconds = start.elapsed().as_secs_f64().max(1e-9);
    let _ = std::fs::remove_dir_all(&dir);
    tenants as f64 * flushes as f64 / seconds
}
