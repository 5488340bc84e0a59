//! The discrete-event engine: a global virtual-time event queue driving
//! rank tasks on the caller thread.
//!
//! ## Why the schedule cannot change the answer
//!
//! The engine is a *conservative* discrete-event simulation. Sends are
//! eager (they never block), receives are the only blocking operation, and
//! a rank's virtual clock advances only through its own program order plus
//! the arrival times of the envelopes it consumes. For a wildcard-free
//! plan every receive names its source, and deposits preserve each
//! sender's program order, so the envelope a receive matches — and hence
//! every clock value, counter, and segment — is independent of the order
//! in which the engine happens to resume runnable tasks, and the engine
//! matches the thread runtime bit for bit. The event queue exists for
//! cache locality and a meaningful timeline, not for correctness. For
//! wildcard plans the heap order fixes which sender a wildcard matches,
//! deterministically run-to-run.
//!
//! ## Deadlock
//!
//! Deposits are instantaneous (a send's envelope is buffered at its
//! receiver before the sender's next step executes), so there are never
//! undelivered messages "in flight" between tasks, and the thread
//! runtime's quiescence rule reduces to: an empty event queue with live
//! tasks *is* the terminal wait-for graph. The verdict comes from the same
//! walk as `mps::try_run` ([`DeadlockInfo::from_waits`]), so both report
//! identical edges, cyclicity and per-rank partial traces.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use mps::{DeadlockInfo, RunError, RunReport, WaitEdge, World};
use netsim::Hockney;
use obs::Timeline;
use plan::CommPlan;

use crate::task::{Blocked, Paused, RankTask};
use crate::{EngineConfig, EngineReport, EngineStats};

/// Execute `plan` on `p` rank tasks over `world`.
pub(crate) fn run(
    cfg: &EngineConfig,
    world: &World,
    p: usize,
    plan: &CommPlan,
) -> Result<EngineReport, RunError> {
    let t0 = std::time::Instant::now();
    let detail = cfg.resolve_detail(p);
    let hockney = world.hockney();
    let mut tasks: Vec<RankTask> = (0..p)
        .map(|r| RankTask::new(r, p, world, plan, detail))
        .collect();
    let mut stats = EngineStats::default();
    let mut timeline = Timeline::new(cfg.timeline_capacity);

    event_loop(world, &hockney, &mut tasks, &mut stats, &mut timeline, cfg);

    stats.steps = tasks.iter().map(|t| t.steps).sum();
    stats.sends = tasks.iter().map(|t| t.sends).sum();
    stats.wall_s = t0.elapsed().as_secs_f64();

    if tasks.iter().any(|t| !t.done()) {
        return Err(deadlock(&mut tasks));
    }

    debug_assert!(
        tasks.iter().all(|t| t.inbox.is_empty()),
        "a completed run must have consumed every message"
    );
    let report = RunReport {
        ranks: tasks.into_iter().map(RankTask::into_outcome).collect(),
        f_hz: world.f_hz,
    };
    write_trace_outputs(world, &report, &timeline);
    Ok(EngineReport {
        report,
        timeline,
        stats,
    })
}

/// The event loop: one binary heap ordered by `(resume time,
/// rank)`. Runnable tasks live in the heap; blocked tasks are re-inserted
/// by the deposit that unblocks them, keyed by the virtual time at which
/// their receive completes.
fn event_loop(
    world: &World,
    hockney: &Hockney,
    tasks: &mut [RankTask],
    stats: &mut EngineStats,
    timeline: &mut Timeline,
    cfg: &EngineConfig,
) {
    let p = tasks.len();
    // Non-negative f64 bit patterns order like the floats themselves, so
    // `(time.to_bits(), rank)` is a total virtual-time order with rank as
    // the deterministic tie-break.
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = (0..p).map(|r| Reverse((0u64, r))).collect();
    let mut live = p;
    let mut executed: u64 = 0;
    let mut next_sample = cfg.timeline_every;
    let mut t_hi = 0.0f64;

    while let Some(Reverse((_, r))) = heap.pop() {
        let before = tasks[r].steps;
        let paused = tasks[r].advance(world, hockney);
        executed += tasks[r].steps - before;
        t_hi = t_hi.max(tasks[r].core.now());
        if paused == Paused::Finished {
            live -= 1;
        }
        let outbox = std::mem::take(&mut tasks[r].outbox);
        for (dst, env) in outbox {
            let dst_task = &mut tasks[dst];
            if dst_task.wants(&env) {
                dst_task.blocked = Blocked::No;
                let key = dst_task.core.now().max(env.arrival_s);
                heap.push(Reverse((key.to_bits(), dst)));
                stats.wakes += 1;
            }
            dst_task.inbox.push_back(env);
        }
        if cfg.timeline_every > 0 && executed >= next_sample {
            next_sample += cfg.timeline_every;
            sample(timeline, tasks, t_hi, heap.len(), live);
        }
    }
}

/// Record one timeline sample at virtual time `t_s` (a running maximum,
/// so every series stays monotone for `analyze --trace`).
fn sample(timeline: &mut Timeline, tasks: &[RankTask], t_s: f64, ready: usize, live: usize) {
    let inflight: usize = tasks.iter().map(|t| t.inbox.len()).sum();
    #[allow(clippy::cast_precision_loss)]
    {
        timeline.record("simrt.ready_tasks", "tasks", t_s, ready as f64);
        timeline.record(
            "simrt.blocked_tasks",
            "tasks",
            t_s,
            live.saturating_sub(ready) as f64,
        );
        timeline.record("simrt.inflight_msgs", "", t_s, inflight as f64);
    }
}

/// Assemble the terminal wait-for graph: every live task is parked on a
/// receive that no remaining send can satisfy.
fn deadlock(tasks: &mut [RankTask]) -> RunError {
    let waits: Vec<Option<WaitEdge>> = tasks
        .iter()
        .map(|t| {
            let (on_rank, tag) = match t.blocked {
                Blocked::On { from, tag } => (Some(from), tag),
                Blocked::Any { tag } => (None, tag),
                Blocked::Done => return None,
                Blocked::No => unreachable!("an empty event queue leaves no runnable task"),
            };
            Some(WaitEdge {
                from_rank: t.rank(),
                on_rank,
                tag,
            })
        })
        .collect();
    let comm = tasks
        .iter_mut()
        .map(|t| {
            t.drain_unconsumed();
            std::mem::take(&mut t.comm)
        })
        .collect();
    let info = DeadlockInfo::from_waits(&waits, comm);
    info.record_flight("simrt");
    RunError::Deadlock(info)
}

/// Write the configured trace files at run end, with the engine's
/// timeline attached as counter tracks. Mirrors the thread runtime:
/// output failures go to stderr, never fail the run.
fn write_trace_outputs(world: &World, report: &RunReport<()>, timeline: &Timeline) {
    if !world.obs.trace || (world.obs.perfetto_path.is_none() && world.obs.jsonl_path.is_none()) {
        return;
    }
    let name = format!(
        "{} p={} f={:.2}GHz simrt",
        world.cluster.name,
        report.ranks.len(),
        world.f_hz / 1e9
    );
    let Some(mut trace) = report.trace(&name) else {
        return;
    };
    timeline.attach(&mut trace);
    if let Some(path) = &world.obs.perfetto_path {
        if let Err(e) = obs::perfetto::write_file(&trace, path) {
            eprintln!(
                "simrt: failed to write Perfetto trace {}: {e}",
                path.display()
            );
        }
    }
    if let Some(path) = &world.obs.jsonl_path {
        let result = std::fs::File::create(path).and_then(|f| {
            let mut sink = obs::JsonlSink::new(std::io::BufWriter::new(f));
            trace.emit(&mut sink)
        });
        if let Err(e) = result {
            eprintln!("simrt: failed to write JSONL trace {}: {e}", path.display());
        }
    }
}
