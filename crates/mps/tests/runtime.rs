//! Integration tests for the mps runtime: correctness of data movement,
//! collectives, virtual-time accounting, and determinism.

use mps::{run, ReduceOp, World};
use simcluster::{system_g, SegmentKind};

fn world() -> World {
    World::new(system_g(), 2.8e9)
}

#[test]
fn single_rank_runs_and_reports() {
    let w = world();
    let r = run(&w, 1, |ctx| {
        ctx.compute(1e6);
        42u32
    });
    assert_eq!(r.ranks.len(), 1);
    assert_eq!(r.ranks[0].result, 42);
    assert!(r.span() > 0.0);
    assert_eq!(r.ranks[0].stats.wc, 1e6);
}

#[test]
fn compute_time_is_instructions_times_tc() {
    let w = world();
    let tc = w.tc().raw();
    let r = run(&w, 1, |ctx| ctx.compute(1e7));
    assert!((r.span() - 1e7 * tc).abs() / (1e7 * tc) < 1e-9);
}

#[test]
fn alpha_squeezes_wall_time_but_not_work() {
    let w = world().with_alpha(0.8);
    let tc = w.tc().raw();
    let r = run(&w, 1, |ctx| ctx.compute(1e7));
    let expect_wall = 0.8 * 1e7 * tc;
    assert!((r.span() - expect_wall).abs() / expect_wall < 1e-9);
    let work = r.ranks[0].log.work_time(SegmentKind::Compute);
    assert!((work - 1e7 * tc).abs() / (1e7 * tc) < 1e-9);
}

#[test]
fn p2p_send_recv_moves_data_and_time() {
    let w = world();
    let r = run(&w, 2, |ctx| {
        if ctx.rank() == 0 {
            ctx.send(1, 7, vec![1.0f64, 2.0, 3.0]);
            Vec::new()
        } else {
            ctx.recv::<f64>(0, 7)
        }
    });
    assert_eq!(r.ranks[1].result, vec![1.0, 2.0, 3.0]);
    // Receiver waited for the transfer: its finish >= the Hockney time.
    let h = w.hockney();
    assert!(r.ranks[1].finish_s >= h.p2p(24) * 0.999);
    // Sender counted the message and bytes; receiver counted none.
    assert_eq!(r.ranks[0].stats.messages, 1.0);
    assert_eq!(r.ranks[0].stats.bytes, 24.0);
    assert_eq!(r.ranks[1].stats.messages, 0.0);
}

#[test]
fn out_of_order_tags_are_buffered() {
    let w = world();
    let r = run(&w, 2, |ctx| {
        if ctx.rank() == 0 {
            ctx.send(1, 1, vec![10i64]);
            ctx.send(1, 2, vec![20i64]);
            (0, 0)
        } else {
            // Receive in reverse tag order.
            let b = ctx.recv::<i64>(0, 2)[0];
            let a = ctx.recv::<i64>(0, 1)[0];
            (a, b)
        }
    });
    assert_eq!(r.ranks[1].result, (10, 20));
}

#[test]
#[should_panic]
fn type_mismatch_on_recv_panics() {
    let w = world();
    run(&w, 2, |ctx| {
        if ctx.rank() == 0 {
            ctx.send(1, 0, vec![1u8, 2, 3]);
        } else {
            let _ = ctx.recv::<f64>(0, 0);
        }
    });
}

/// A rank's panic surfaces as itself: its blocked peer gets a deadlock
/// verdict and unwinds quietly instead of hanging or masking the panic.
#[test]
#[should_panic(expected = "boom")]
fn rank_panic_propagates_while_a_peer_waits_on_it() {
    let w = world();
    run(&w, 2, |ctx| {
        if ctx.rank() == 0 {
            let _ = ctx.recv::<u64>(1, 0);
        } else {
            panic!("boom");
        }
    });
}

#[test]
fn barrier_synchronizes_clocks() {
    let w = world();
    let r = run(&w, 4, |ctx| {
        // Rank 3 works much longer before the barrier.
        if ctx.rank() == 3 {
            ctx.compute(1e8);
        } else {
            ctx.compute(1e3);
        }
        ctx.barrier();
        ctx.now()
    });
    let slowest_pre = 1e8 * w.tc().raw();
    for rk in &r.ranks {
        assert!(
            rk.result >= slowest_pre,
            "rank {} left the barrier at {} < {}",
            rk.rank,
            rk.result,
            slowest_pre
        );
    }
    // Fast ranks logged waits.
    assert!(r.ranks[0].log.wall_time(SegmentKind::Wait) > 0.0);
}

#[test]
fn allreduce_sum_matches_sequential_for_various_p() {
    for p in [1usize, 2, 3, 4, 5, 7, 8, 16] {
        let w = world();
        let r = run(&w, p, |ctx| {
            let x = vec![ctx.rank() as f64, 1.0, (ctx.rank() * ctx.rank()) as f64];
            ctx.allreduce_sum(&x)
        });
        let n = p as f64;
        let expect = vec![
            n * (n - 1.0) / 2.0,
            n,
            (0..p).map(|i| (i * i) as f64).sum::<f64>(),
        ];
        for rk in &r.ranks {
            for (got, want) in rk.result.iter().zip(&expect) {
                assert!(
                    (got - want).abs() < 1e-9,
                    "p={p} rank={} got {:?} want {:?}",
                    rk.rank,
                    rk.result,
                    expect
                );
            }
        }
    }
}

#[test]
fn allreduce_max_and_min() {
    let w = world();
    let r = run(&w, 6, |ctx| {
        let x = [ctx.rank() as f64];
        (
            ctx.allreduce(&x, ReduceOp::Max)[0],
            ctx.allreduce(&x, ReduceOp::Min)[0],
        )
    });
    for rk in &r.ranks {
        assert_eq!(rk.result, (5.0, 0.0));
    }
}

#[test]
fn reduce_delivers_to_root_only() {
    let w = world();
    let r = run(&w, 8, |ctx| ctx.reduce(3, &[1.0], ReduceOp::Sum));
    for rk in &r.ranks {
        if rk.rank == 3 {
            assert_eq!(rk.result.as_ref().unwrap()[0], 8.0);
        } else {
            assert!(rk.result.is_none());
        }
    }
}

#[test]
fn bcast_distributes_from_any_root() {
    for root in [0usize, 2, 4] {
        let w = world();
        let r = run(&w, 5, |ctx| {
            let data = if ctx.rank() == root {
                vec![3.25f64; 16]
            } else {
                Vec::new()
            };
            ctx.bcast(root, data)
        });
        for rk in &r.ranks {
            assert_eq!(rk.result, vec![3.25f64; 16], "root={root} rank={}", rk.rank);
        }
    }
}

#[test]
fn allgather_collects_in_rank_order() {
    let w = world();
    let r = run(&w, 5, |ctx| ctx.allgather(vec![ctx.rank() as u32 * 10]));
    for rk in &r.ranks {
        let flat: Vec<u32> = rk.result.iter().map(|v| v[0]).collect();
        assert_eq!(flat, vec![0, 10, 20, 30, 40]);
    }
}

#[test]
fn alltoall_is_a_transpose() {
    for p in [2usize, 4, 6, 8] {
        let w = world();
        let r = run(&w, p, |ctx| {
            // chunks[d] = [rank, d]
            let chunks: Vec<Vec<usize>> = (0..ctx.size()).map(|d| vec![ctx.rank(), d]).collect();
            ctx.alltoall(chunks)
        });
        for rk in &r.ranks {
            for (s, chunk) in rk.result.iter().enumerate() {
                assert_eq!(chunk, &vec![s, rk.rank], "p={p}");
            }
        }
    }
}

#[test]
fn alltoall_with_jagged_chunks() {
    let w = world();
    let r = run(&w, 3, |ctx| {
        let chunks: Vec<Vec<u8>> = (0..3).map(|d| vec![ctx.rank() as u8; d + 1]).collect();
        ctx.alltoall(chunks)
    });
    for rk in &r.ranks {
        for (s, chunk) in rk.result.iter().enumerate() {
            assert_eq!(chunk.len(), rk.rank + 1);
            assert!(chunk.iter().all(|&b| b == s as u8));
        }
    }
}

#[test]
fn alltoall_message_counts_match_pairwise_exchange() {
    let p = 8;
    let w = world();
    let r = run(&w, p, |ctx| {
        let chunks: Vec<Vec<f64>> = (0..ctx.size()).map(|_| vec![0.0f64; 128]).collect();
        ctx.alltoall(chunks);
    });
    for rk in &r.ranks {
        assert_eq!(rk.stats.messages, (p - 1) as f64);
        assert_eq!(rk.stats.bytes, (p - 1) as f64 * 128.0 * 8.0);
    }
}

#[test]
fn determinism_same_virtual_times_across_runs() {
    let w = world();
    let go = || {
        run(&w, 8, |ctx| {
            ctx.compute(1e5 * (ctx.rank() as f64 + 1.0));
            let s = ctx.allreduce_scalar(ctx.rank() as f64);
            ctx.barrier();
            ctx.compute(1e4);
            s
        })
    };
    let a = go();
    let b = go();
    assert_eq!(a.span(), b.span());
    for (x, y) in a.ranks.iter().zip(&b.ranks) {
        assert_eq!(x.finish_s, y.finish_s);
        assert_eq!(x.stats, y.stats);
    }
}

#[test]
fn energy_increases_with_more_work() {
    let w = world();
    let small = run(&w, 2, |ctx| ctx.compute(1e6)).energy(&w);
    let large = run(&w, 2, |ctx| ctx.compute(1e8)).energy(&w);
    assert!(large.total() > small.total());
}

#[test]
fn parallel_run_has_energy_overhead_vs_sequential() {
    // The heart of the paper: E0 = Ep - E1 > 0 when parallelization adds
    // communication.
    let w = world();
    let n_instr = 4e7;
    let seq = run(&w, 1, |ctx| ctx.compute(n_instr));
    let e1 = seq.energy(&w).total();
    let p = 4;
    let par = run(&w, p, |ctx| {
        ctx.compute(n_instr / p as f64);
        let chunks: Vec<Vec<f64>> = (0..ctx.size()).map(|_| vec![0.0; 4096]).collect();
        ctx.alltoall(chunks);
    });
    let ep = par.energy(&w).total();
    assert!(
        ep > e1,
        "parallel energy {ep} J should exceed sequential {e1} J"
    );
}

#[test]
fn phase_markers_are_recorded_in_order() {
    let w = world();
    let r = run(&w, 1, |ctx| {
        ctx.phase("init");
        ctx.compute(1e6);
        ctx.phase("main");
        ctx.compute(1e6);
        ctx.phase("done");
    });
    let m = &r.ranks[0].markers;
    assert_eq!(m.len(), 3);
    assert_eq!(m[0].0, "init");
    assert!(m[0].1 <= m[1].1 && m[1].1 <= m[2].1);
    assert!(m[2].1 > 0.0);
}

#[test]
fn mem_access_latency_depends_on_working_set() {
    let w = world();
    let small = run(&w, 1, |ctx| ctx.mem_access(1e6, 16 * 1024));
    let big = run(&w, 1, |ctx| ctx.mem_access(1e6, 256 << 20));
    assert!(
        big.span() > small.span() * 5.0,
        "DRAM-resident working set must be much slower: {} vs {}",
        big.span(),
        small.span()
    );
}

#[test]
fn contention_inflates_collective_time() {
    use netsim::ContentionModel;
    let base = world().with_contention(ContentionModel::none());
    let congested = world().with_contention(ContentionModel::new(2, 1.0));
    let prog = |ctx: &mut mps::Ctx| {
        let chunks: Vec<Vec<f64>> = (0..ctx.size()).map(|_| vec![0.0; 1 << 14]).collect();
        ctx.alltoall(chunks);
    };
    let t_free = run(&base, 8, prog).span();
    let t_cong = run(&congested, 8, prog).span();
    assert!(t_cong > t_free, "{t_cong} vs {t_free}");
}
