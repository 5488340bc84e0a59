//! Random-plan differential: on wildcard-free plans the event engine and
//! the mps thread runtime must reach the same outcome.
//!
//! The generator builds per-rank plans from matched send/receive pairs and
//! orphan receives (a receive nobody sends to), shuffled per rank, so a
//! good share of the plans deadlock. Each plan runs through
//! [`simrt::try_run_plan`] and through [`mps::try_run`] on
//! [`plan::lower`]. A completed run must match on total counters, span
//! bits, per-rank finish times and metered energy; a deadlocked run must
//! report the same wait-for edges and the same cyclicity.

use std::sync::Arc;

use mps::{RunError, SchedGrant, SchedOp, SchedulerHook, World};
use plan::{CommPlan, Cond, Expr, Op, TagExpr};
use proptest::prelude::*;
use proptest::TestRng;

fn world() -> World {
    World::new(simcluster::system_g(), 2.8e9)
}

#[allow(clippy::cast_possible_wrap)]
fn send(to: usize, tag: u64, bytes: u64) -> Op {
    Op::Send {
        to: Expr::Const(to as i64),
        tag: TagExpr::Expr(Expr::Const(tag as i64)),
        bytes: Expr::Const(bytes as i64),
    }
}

#[allow(clippy::cast_possible_wrap)]
fn recv(from: usize, tag: u64) -> Op {
    Op::Recv {
        from: Expr::Const(from as i64),
        tag: TagExpr::Expr(Expr::Const(tag as i64)),
    }
}

#[allow(clippy::cast_possible_wrap)]
fn per_rank(rank_ops: Vec<Vec<Op>>) -> CommPlan {
    let body = rank_ops
        .into_iter()
        .enumerate()
        .map(|(r, ops)| Op::IfElse {
            cond: Cond::Eq(Expr::Rank, Expr::Const(r as i64)),
            then: ops,
            els: Vec::new(),
        })
        .collect();
    CommPlan::new("random", body)
}

/// Matched pairs (three in four events) and orphan receives, shuffled per
/// rank.
fn random_plan(rng: &mut TestRng, p: usize) -> CommPlan {
    let n_events = rng.next_in_u64(1, 6);
    let mut rank_ops: Vec<Vec<Op>> = vec![Vec::new(); p];
    for _ in 0..n_events {
        let kind = rng.next_in_u64(0, 8);
        let src = rng.next_in_u64(0, p as u64) as usize;
        let mut dst = rng.next_in_u64(0, p as u64 - 1) as usize;
        if dst >= src {
            dst += 1;
        }
        let tag = rng.next_in_u64(0, 3);
        let bytes = 8 * (1 + rng.next_in_u64(0, 4));
        if kind <= 5 {
            rank_ops[src].push(send(dst, tag, bytes));
        }
        rank_ops[dst].push(recv(src, tag));
    }
    for ops in &mut rank_ops {
        for i in (1..ops.len()).rev() {
            let j = rng.next_in_u64(0, i as u64 + 1) as usize;
            ops.swap(i, j);
        }
    }
    per_rank(rank_ops)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn engine_and_thread_runtime_agree_on_random_plans(seed in any::<u64>(), p in 2usize..=5) {
        let mut rng = TestRng::new(seed);
        let plan = random_plan(&mut rng, p);
        let analysis = plan::analyze_plan(&plan, p);
        // Plans that complete with leftover in-flight sends trip the
        // runtimes' unconsumed-message debug_assert by design; the static
        // checker owns that verdict.
        let leftovers = analysis
            .findings
            .iter()
            .any(|f| matches!(f, plan::PlanFinding::UnmatchedSend { .. }));
        prop_assume!(!(analysis.completed && leftovers));

        let w = world();
        let engine = simrt::try_run_plan(&w, p, &plan);
        let thread = mps::try_run(&w, p, |ctx| plan::lower(&plan, ctx));
        match (engine, thread) {
            (Ok(engine), Ok(thread)) => {
                let engine = engine.report;
                prop_assert_eq!(engine.total_counters(), thread.total_counters());
                prop_assert_eq!(engine.span().to_bits(), thread.span().to_bits());
                for (e, t) in engine.ranks.iter().zip(&thread.ranks) {
                    prop_assert_eq!(e.finish_s.to_bits(), t.finish_s.to_bits(), "rank {}", e.rank);
                }
                prop_assert_eq!(engine.energy(&w), thread.energy(&w));
            }
            (Err(RunError::Deadlock(engine)), Err(RunError::Deadlock(thread))) => {
                prop_assert_eq!(&engine.edges, &thread.edges);
                prop_assert_eq!(engine.cyclic, thread.cyclic);
            }
            (engine, thread) => panic!(
                "outcomes differ (seed {seed}, p={p}): engine {:?}, thread runtime {:?}",
                engine.map(|_| "completed"),
                thread.map(|_| "completed")
            ),
        }
    }
}

/// A hook that grants everything; the engine must refuse it rather than
/// run without it.
#[derive(Debug)]
struct GrantAll;

impl SchedulerHook for GrantAll {
    fn permit(&self, _rank: usize, _op: SchedOp) -> SchedGrant {
        SchedGrant::Proceed { source: None }
    }

    fn rank_finished(&self, _rank: usize) {}
}

#[test]
#[should_panic(expected = "verify::Explorer::explore_plan")]
fn a_scheduler_hook_is_rejected() {
    let plan = per_rank(vec![vec![send(1, 0, 8)], vec![recv(0, 0)]]);
    let hooked = world().with_scheduler(Arc::new(GrantAll));
    let _ = simrt::try_run_plan(&hooked, 2, &plan);
}
