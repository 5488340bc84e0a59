//! Deadlock verdicts under oversubscription: 128 rank threads share however
//! few host cores there are, so ranks sit blocked with their envelopes
//! already delivered for as long as the host keeps them off-CPU. The thread
//! runtime's verdict must stay exact anyway: FT completes every time, and a
//! seeded wait cycle at the same `p` is still reported.

use mps::{try_run, RunError, World};
use npb::{ft_plan, Class, FtConfig};
use plan::lower;

const P: usize = 128;

fn world() -> World {
    World::new(simcluster::system_g(), 2.8e9)
}

#[test]
fn ft_at_p_128_never_reports_a_false_deadlock() {
    let w = world();
    let plan = ft_plan(&FtConfig::class(Class::S));
    for run in 0..20 {
        if let Err(err) = try_run(&w, P, |ctx| lower(&plan, ctx)) {
            panic!("run {run}: {err}");
        }
    }
}

#[test]
fn seeded_ring_wait_at_p_128_is_a_deadlock() {
    let w = world();
    let plan = ft_plan(&FtConfig::class(Class::S));
    let err = try_run(&w, P, |ctx| {
        lower(&plan, ctx);
        // Every rank waits on its successor, and nobody sends: a P-cycle.
        let next = (ctx.rank() + 1) % P;
        let _ = ctx.recv::<u64>(next, 7);
    })
    .expect_err("the ring wait must deadlock");
    let RunError::Deadlock(info) = err else {
        panic!("expected Deadlock, got {err}");
    };
    assert!(info.cyclic);
    assert_eq!(info.edges.len(), P);
    assert_eq!(info.edges[0].from_rank, 0, "the walk starts at rank 0");
    assert_eq!(info.comm.len(), P);
}
