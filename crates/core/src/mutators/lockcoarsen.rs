//! LockCoarsening-evoke (paper Table 1): splits the `synchronized` body
//! enclosing the MP into two adjacent bodies over the same lock object —
//! the shape lock coarsening exists to merge back.

use super::{Mutation, Mutator, MutatorKind};
use mjava::path::{enclosing_sync, stmt_at};
use mjava::{Block, Program, Stmt, StmtPath};
use rand::rngs::SmallRng;

/// See module docs.
#[derive(Debug, Clone, Copy, Default)]
pub struct LockCoarseningEvoke;

impl Mutator for LockCoarseningEvoke {
    fn kind(&self) -> MutatorKind {
        MutatorKind::LockCoarsening
    }

    fn is_applicable(&self, program: &Program, mp: &StmtPath) -> bool {
        enclosing_sync(program, mp).is_some()
    }

    fn apply(&self, program: &Program, mp: &StmtPath, _rng: &mut SmallRng) -> Option<Mutation> {
        let sync_path = enclosing_sync(program, mp)?;
        let Some(Stmt::Sync { lock, body }) = stmt_at(program, &sync_path) else {
            return None;
        };
        let (lock, body) = (lock.clone(), body.clone());
        // The statement index within the sync body on the MP's path.
        let level = sync_path.steps.len();
        let split_at = mp.steps.get(level)?.index;
        let (first, second) = body.0.split_at(split_at);
        // Splitting must not separate a declaration from its uses.
        let first_block = Block(first.to_vec());
        let second_block = Block(second.to_vec());
        let declared = jopt::analysis::declared_names(&first_block);
        if !declared.is_empty() && mentions_any(&second_block, &declared) {
            return None;
        }
        let replacement = vec![
            Stmt::Sync {
                lock: lock.clone(),
                body: first_block,
            },
            Stmt::Sync {
                lock,
                body: second_block,
            },
        ];
        let mut mutant = program.clone();
        if !mjava::path::replace_stmt(&mut mutant, &sync_path, replacement) {
            return None;
        }
        // MP: same path, but the enclosing sync is now the *second* one
        // and the in-body index is rebased to the split point.
        let mut new_mp = mp.clone();
        new_mp.steps[level - 1].index += 1;
        new_mp.steps[level].index -= split_at;
        Some(Mutation {
            program: mutant,
            mp: new_mp,
        })
    }
}

/// True when the block reads or assigns any of `names` (any nesting level).
fn mentions_any(block: &Block, names: &[&str]) -> bool {
    let mut found = false;
    jopt::analysis::map_exprs_in_block_ref(block, &mut |e| {
        if let mjava::Expr::Var(v) = e {
            found |= names.contains(&v.as_str());
        }
    });
    jopt::analysis::visit_bindings(block, &mut |name, declared| {
        found |= !declared && names.contains(&name);
    });
    found
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{apply_checked, program_and_mp, rng};
    use super::*;

    const SRC: &str = r#"
        class T {
            static int s;
            static void main() {
                synchronized (T.class) {
                    s = s + 1;
                    s = s + 2;
                    s = s + 3;
                }
                System.out.println(s);
            }
        }
    "#;

    #[test]
    fn splits_sync_body_at_mp() {
        let (program, mp) = program_and_mp(SRC, "s = s + 2;");
        let mutation = apply_checked(&LockCoarseningEvoke, &program, &mp);
        let printed = mjava::print(&mutation.program);
        assert_eq!(
            printed.matches("synchronized (T.class)").count(),
            2,
            "{printed}"
        );
        let stmt = mjava::path::stmt_at(&mutation.program, &mutation.mp).unwrap();
        assert_eq!(mjava::print_stmt(stmt).trim(), "s = s + 2;");
        // Output preserved.
        let out = jexec::run_program(&mutation.program, &jexec::ExecConfig::default()).unwrap();
        assert_eq!(out.output, vec!["6"]);
    }

    #[test]
    fn split_at_first_statement_gives_empty_first_region() {
        let (program, mp) = program_and_mp(SRC, "s = s + 1;");
        let mutation = apply_checked(&LockCoarseningEvoke, &program, &mp);
        let printed = mjava::print(&mutation.program);
        assert_eq!(printed.matches("synchronized").count(), 2, "{printed}");
    }

    #[test]
    fn not_applicable_outside_sync() {
        let (program, mp) = program_and_mp(SRC, "System.out.println");
        assert!(!LockCoarseningEvoke.is_applicable(&program, &mp));
        assert!(LockCoarseningEvoke
            .apply(&program, &mp, &mut rng())
            .is_none());
    }

    #[test]
    fn applies_to_deeply_nested_mp() {
        let src = r#"
            class T {
                static int s;
                static void main() {
                    synchronized (T.class) {
                        if (s < 10) {
                            s = s + 7;
                        }
                    }
                    System.out.println(s);
                }
            }
        "#;
        let (program, mp) = program_and_mp(src, "s = s + 7;");
        let mutation = apply_checked(&LockCoarseningEvoke, &program, &mp);
        // MP still resolves to the same statement inside the second region.
        let stmt = mjava::path::stmt_at(&mutation.program, &mutation.mp).unwrap();
        assert_eq!(mjava::print_stmt(stmt).trim(), "s = s + 7;");
    }

    #[test]
    fn evokes_coarsening_on_jvm() {
        let (program, mp) = program_and_mp(SRC, "s = s + 2;");
        let mutation = apply_checked(&LockCoarseningEvoke, &program, &mp);
        let run = jvmsim::run_jvm(
            &mutation.program,
            &jvmsim::JvmSpec::hotspur(jvmsim::Version::V17).without_bugs(),
            &jvmsim::RunOptions::fuzzing(),
        );
        assert!(
            run.events
                .iter()
                .any(|e| e.kind == jopt::OptEventKind::LockCoarsen),
            "no coarsening events: {:?}",
            run.events
        );
    }
}
