//! Equal-budget tool campaigns for the RQ2 comparisons (Table 6,
//! Figures 2 and 3): MopFuzzer, JITFuzz and Artemis run over the same
//! seed pool with the same JVM-execution budget, producing directly
//! comparable [`CampaignResult`]s.

use crate::artemis::{artemis, ArtemisConfig};
use crate::jitfuzz::{jitfuzz, JitFuzzConfig};
use crate::BaselineOutcome;
use jprofile::Obv;
use jvmsim::{Component, JvmSpec, RunOptions};
use mopfuzzer::campaign::{CampaignResult, FoundBug};
use mopfuzzer::corpus::Seed;
use mopfuzzer::oracle::{differential, OracleVerdict};
use mopfuzzer::variant::Variant;
use std::collections::HashSet;

/// Which tool a campaign runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tool {
    /// MopFuzzer (any variant).
    MopFuzzer(Variant),
    /// The JITFuzz baseline.
    JitFuzz,
    /// The Artemis baseline.
    Artemis,
}

impl std::fmt::Display for Tool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Tool::MopFuzzer(v) => write!(f, "{v}"),
            Tool::JitFuzz => write!(f, "JITFuzz"),
            Tool::Artemis => write!(f, "Artemis"),
        }
    }
}

/// Shared campaign configuration.
#[derive(Debug, Clone)]
pub struct ToolCampaignConfig {
    /// Total JVM-execution budget (the equal-time proxy).
    pub max_executions: u64,
    /// Differential pool.
    pub pool: Vec<JvmSpec>,
    /// MopFuzzer iterations per seed (paper: 50).
    pub mop_iterations: usize,
    /// JITFuzz rounds per seed (paper: 1000; scale with the budget).
    pub jitfuzz_rounds: usize,
    /// Base RNG seed.
    pub rng_seed: u64,
}

impl ToolCampaignConfig {
    /// A budget-limited configuration over the full pool.
    pub fn with_budget(max_executions: u64) -> ToolCampaignConfig {
        ToolCampaignConfig {
            max_executions,
            pool: JvmSpec::differential_pool(),
            mop_iterations: 50,
            jitfuzz_rounds: 58, // equal per-seed executions as MopFuzzer's 50+8
            rng_seed: 99,
        }
    }
}

/// Runs `tool` over `seeds` until the execution budget is exhausted.
///
/// When a `jtelemetry` session is installed on the calling thread (the
/// bench binaries do this under `BENCH_METRICS_OUT`), every round runs
/// under a `tool_round` span and the execution/oracle counters fire from
/// the shared substrate, so tool-comparison runs emit telemetry directly
/// comparable with `mopfuzzer --metrics-out` campaigns.
pub fn tool_campaign(tool: Tool, seeds: &[Seed], config: &ToolCampaignConfig) -> CampaignResult {
    let mut result = CampaignResult::default();
    let mut seen: HashSet<String> = HashSet::new();
    if seeds.is_empty() || config.pool.is_empty() {
        return result;
    }
    let tool_label = tool.to_string();
    let mut round = 0usize;
    while result.executions < config.max_executions {
        jtelemetry::flight(jtelemetry::FlightKind::Round, "tool_round", &tool_label);
        let _round_span = jtelemetry::span("tool_round", || vec![("detail", tool_label.clone())]);
        let seed = &seeds[round % seeds.len()];
        let guidance = config.pool[round % config.pool.len()].clone();
        let rng_seed = config
            .rng_seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(round as u64);
        let (outcome, mutators): (BaselineOutcome, Vec<mopfuzzer::MutatorKind>) = match tool {
            Tool::MopFuzzer(variant) => {
                let cfg = mopfuzzer::FuzzConfig {
                    max_iterations: config.mop_iterations,
                    variant,
                    guidance,
                    rng_seed,
                    weight_scheme: Default::default(),
                    banned: Vec::new(),
                    fault: None,
                };
                let out = mopfuzzer::fuzz(&seed.program, &cfg);
                let history = out.mutator_history();
                (BaselineOutcome::from_fuzz(out), history)
            }
            Tool::JitFuzz => {
                let cfg = JitFuzzConfig {
                    rounds: config.jitfuzz_rounds,
                    guidance,
                    rng_seed,
                };
                (jitfuzz(&seed.program, &cfg), Vec::new())
            }
            Tool::Artemis => {
                let cfg = ArtemisConfig { guidance, rng_seed };
                (artemis(&seed.program, &cfg), Vec::new())
            }
        };
        result.executions += outcome.executions;
        result.steps += outcome.steps;
        result.coverage.merge(&outcome.coverage);
        result
            .final_deltas
            .push(Obv::delta(&outcome.seed_obv, &outcome.final_obv));

        if let Some(report) = &outcome.crash {
            if seen.insert(report.bug_id.clone()) {
                result.bugs.push(FoundBug {
                    id: report.bug_id.clone(),
                    component: report.component,
                    is_crash: true,
                    jvm: String::new(),
                    seed: seed.name.clone(),
                    mutators,
                    at_execs: result.executions,
                    at_steps: result.steps,
                    mutant: outcome.final_mutant.clone(),
                });
            }
            round += 1;
            continue;
        }

        let diff = differential(&outcome.final_mutant, &config.pool, &RunOptions::fuzzing());
        result.executions += diff.executions;
        result.steps += diff.steps;
        result.coverage.merge(&diff.coverage);
        match diff.verdict {
            OracleVerdict::Crash { jvm, report } => {
                if seen.insert(report.bug_id.clone()) {
                    result.bugs.push(FoundBug {
                        id: report.bug_id.clone(),
                        component: report.component,
                        is_crash: true,
                        jvm,
                        seed: seed.name.clone(),
                        mutators,
                        at_execs: result.executions,
                        at_steps: result.steps,
                        mutant: outcome.final_mutant.clone(),
                    });
                }
            }
            OracleVerdict::Miscompile { outputs, culprits } => {
                for id in culprits {
                    if seen.insert(id.clone()) {
                        let component = jvmsim::bugs::library()
                            .into_iter()
                            .find(|b| b.id == id)
                            .map(|b| b.component)
                            .unwrap_or(Component::OtherJit);
                        result.bugs.push(FoundBug {
                            id,
                            component,
                            is_crash: false,
                            jvm: outputs.first().map(|(j, _)| j.clone()).unwrap_or_default(),
                            seed: seed.name.clone(),
                            mutators: mutators.clone(),
                            at_execs: result.executions,
                            at_steps: result.steps,
                            mutant: outcome.final_mutant.clone(),
                        });
                    }
                }
            }
            OracleVerdict::Pass | OracleVerdict::Inconclusive(_) => {}
        }
        round += 1;
    }
    jtelemetry::gauge(jtelemetry::Gauge::RoundsDone, round as f64);
    jtelemetry::gauge(jtelemetry::Gauge::BugsFound, result.bugs.len() as f64);
    result
}

/// [`tool_campaign`] over a persistent corpus store's entries: every tool
/// fuzzes the identical seed set in the identical order, so RQ2 numbers
/// computed over a shared store are directly comparable (and reproducible
/// by re-opening the store).
pub fn tool_campaign_on_store(
    tool: Tool,
    store: &jcorpus::Store,
    config: &ToolCampaignConfig,
) -> CampaignResult {
    let seeds = mopfuzzer::seeds_from_store(store);
    tool_campaign(tool, &seeds, config)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> ToolCampaignConfig {
        ToolCampaignConfig {
            max_executions: 120,
            pool: JvmSpec::differential_pool(),
            mop_iterations: 12,
            jitfuzz_rounds: 12,
            rng_seed: 4,
        }
    }

    #[test]
    fn all_tools_run_within_budget_shape() {
        let seeds = mopfuzzer::corpus::builtin();
        for tool in [Tool::MopFuzzer(Variant::Full), Tool::JitFuzz, Tool::Artemis] {
            let result = tool_campaign(tool, &seeds, &tiny_config());
            assert!(result.executions >= 120, "{tool}: {}", result.executions);
            assert!(!result.final_deltas.is_empty(), "{tool}");
        }
    }

    #[test]
    fn mopfuzzer_campaign_outdeltas_baselines() {
        // The headline RQ2 shape on a small budget: MopFuzzer's median
        // final Δ exceeds both baselines'.
        let seeds = mopfuzzer::corpus::builtin();
        let config = tiny_config();
        let mop = tool_campaign(Tool::MopFuzzer(Variant::Full), &seeds, &config);
        let jit = tool_campaign(Tool::JitFuzz, &seeds, &config);
        let art = tool_campaign(Tool::Artemis, &seeds, &config);
        let (m, j, a) = (mop.median_delta(), jit.median_delta(), art.median_delta());
        assert!(m > j, "MopFuzzer {m} vs JITFuzz {j}");
        assert!(m > a, "MopFuzzer {m} vs Artemis {a}");
    }

    #[test]
    fn store_backed_campaign_matches_seed_list_campaign() {
        let dir = std::env::temp_dir().join(format!(
            "baselines_store_{}_{}",
            std::process::id(),
            line!()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = jcorpus::Store::init(&dir).expect("init store");
        let seeds = mopfuzzer::corpus::builtin();
        mopfuzzer::import_seeds(&mut store, &seeds, jcorpus::Provenance::Builtin).expect("import");
        store.save().expect("save");
        let config = tiny_config();
        let from_store = tool_campaign_on_store(Tool::JitFuzz, &store, &config);
        let from_seeds = tool_campaign(Tool::JitFuzz, &seeds, &config);
        assert_eq!(from_store, from_seeds);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tool_display_names() {
        assert_eq!(Tool::MopFuzzer(Variant::Full).to_string(), "MopFuzzer");
        assert_eq!(Tool::JitFuzz.to_string(), "JITFuzz");
        assert_eq!(Tool::Artemis.to_string(), "Artemis");
    }
}
