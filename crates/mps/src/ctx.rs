//! Per-rank execution context: work charging and point-to-point messaging.

use std::collections::VecDeque;

use netsim::Hockney;
use simcluster::units::Seconds;

use crate::envelope::{Envelope, INTERNAL_TAG_BASE};
use crate::rankcore::RankCore;
use crate::registry::{Inbox, Registry};
use crate::runtime::RankAbort;
use crate::sched::{SchedGrant, SchedOp};
use crate::stats::Counters;
use crate::trace::{CommEvent, CommLog, CommOp, WaitEdge};
use crate::world::World;

/// The handle a rank's program uses to charge work and communicate.
///
/// Created by [`crate::run`]; one per rank, owned by the rank's thread.
/// All execution-agnostic accounting lives in the embedded
/// [`RankCore`]; this type adds the thread-runtime transport (the rank's
/// inbox, per-source pending buffers, the deadlock-detection registry).
pub struct Ctx<'w> {
    pub(crate) core: RankCore<'w>,
    pub(crate) inbox: Inbox,
    /// `pending[src]`: envelopes from `src` pulled off the inbox but not
    /// yet matched by a receive, in send order.
    pub(crate) pending: Vec<VecDeque<Envelope>>,
    pub(crate) coll_seq: u64,
    pub(crate) hockney: Hockney,
    pub(crate) registry: &'w Registry,
    pub(crate) comm: CommLog,
    pub(crate) vclock: Vec<u64>,
}

impl<'w> Ctx<'w> {
    /// This rank's id, `0..size`.
    pub fn rank(&self) -> usize {
        self.core.rank
    }

    /// Number of ranks in the run.
    pub fn size(&self) -> usize {
        self.core.size
    }

    /// Current virtual time in seconds.
    pub fn now(&self) -> f64 {
        self.core.now()
    }

    /// The world this rank runs in.
    pub fn world(&self) -> &World {
        self.core.world
    }

    /// Counters accumulated so far.
    pub fn counters(&self) -> &Counters {
        &self.core.counters
    }

    // ------------------------------------------------------------------
    // Work charging (delegated to the shared rank core)
    // ------------------------------------------------------------------

    /// Charge `instructions` of on-chip computation (`Wc`): the CPU is busy
    /// for `instructions × tc` with `tc = CPI / f`; wall time is squeezed by
    /// the overlap factor.
    pub fn compute(&mut self, instructions: f64) {
        self.core.compute(instructions);
    }

    /// Charge `accesses` memory accesses against a working set of
    /// `working_set_bytes`.
    ///
    /// The cache model splits the accesses: the on-chip (cache-hit) share is
    /// compute time — the paper's Table 1 defines `tc` as *including on-chip
    /// caches and registers* — and is counted into `Wc` in instruction
    /// equivalents; only the DRAM share is charged as memory time and
    /// counted into `Wm` (that is what Perfmon's off-chip counters see).
    /// Cache latencies are core-clocked, so the on-chip time scales with
    /// `f_nominal / f` under DVFS; DRAM latency does not.
    ///
    /// This is where the simulator is richer than the model's flat `tm`,
    /// and why strong scaling (smaller per-rank working sets) yields the
    /// *negative* parallel memory overheads the paper fits for FT and CG.
    pub fn mem_access(&mut self, accesses: f64, working_set_bytes: u64) {
        self.core.mem_access(accesses, working_set_bytes);
    }

    /// Charge a *streaming* sweep that touches `element_touches` 8-byte-ish
    /// elements of a `working_set_bytes` working set.
    ///
    /// Streaming sweeps (vector updates, FFT passes, CSR traversal) move
    /// whole 64-byte cache lines and enjoy hardware prefetch, so the
    /// *countable* off-chip accesses — what Perfmon's miss counters see and
    /// what the model's `Wm` means — are ≈ 1/8 of the element touches.
    /// Random-access workloads should use [`Ctx::mem_access`] instead.
    pub fn mem_stream(&mut self, element_touches: f64, working_set_bytes: u64) {
        self.core.mem_stream(element_touches, working_set_bytes);
    }

    /// Charge `seconds` of flat local I/O (the paper's `T_IO`; NPB charges
    /// essentially none).
    pub fn io(&mut self, seconds: f64) {
        self.core.io(seconds);
    }

    /// Record a named phase marker at the current virtual time (consumed by
    /// the PowerPack analog for per-phase energy breakdowns). With tracing
    /// enabled the marker also opens a top-level phase span, closing the
    /// previous one.
    pub fn phase(&mut self, name: &str) {
        self.core.phase(name);
    }

    /// Run `body` inside a collective span named `name`, attributing the
    /// messages and bytes it generates to the collective's metrics. With
    /// observability disabled this is one branch on top of `body`.
    pub(crate) fn collective_scope<T>(
        &mut self,
        name: &'static str,
        body: impl FnOnce(&mut Self) -> T,
    ) -> T {
        let scope = self.core.collective_begin(name);
        let out = body(self);
        self.core.collective_end(scope);
        out
    }

    // ------------------------------------------------------------------
    // Point-to-point messaging
    // ------------------------------------------------------------------

    /// Send `data` to rank `to` with a user `tag`.
    ///
    /// Eager semantics: returns after the NIC-busy time; the payload arrives
    /// at the receiver `ts + tw·bytes` after the send started.
    ///
    /// # Panics
    /// Panics on self-sends, out-of-range ranks, or tags ≥ 2³² (reserved
    /// for internal collectives).
    pub fn send<T: Send + 'static>(&mut self, to: usize, tag: u64, data: Vec<T>) {
        assert!(tag < INTERNAL_TAG_BASE, "user tags must be < 2^32");
        self.send_raw(to, tag, data, 2);
    }

    /// Receive the next message from rank `from` carrying `tag`.
    ///
    /// Blocks (in host time) until the message exists; in virtual time the
    /// rank waits — and logs an idle `Wait` segment — only if the arrival
    /// time is in its future.
    ///
    /// # Panics
    /// Panics if the payload's element type does not match `T`, or if the
    /// run deadlocks ([`crate::try_run`] turns that panic into a
    /// [`crate::RunError::Deadlock`] instead).
    pub fn recv<T: Send + 'static>(&mut self, from: usize, tag: u64) -> Vec<T> {
        assert!(tag < INTERNAL_TAG_BASE, "user tags must be < 2^32");
        self.recv_raw(from, tag)
    }

    /// Receive the next message carrying `tag` from *any* rank (the
    /// `MPI_ANY_SOURCE` analog). Returns the matched source and payload.
    ///
    /// Unlike [`Ctx::recv`], which is deterministic (each sender's messages
    /// arrive in send order), the match order of `recv_any` genuinely
    /// depends on the schedule: two concurrent senders can be matched in
    /// either order.
    /// This is exactly the nondeterminism the `verify` crate's
    /// schedule-space explorer enumerates.
    ///
    /// # Panics
    /// Panics on tags ≥ 2³², payload type mismatches, or deadlock (under
    /// [`crate::try_run`] the latter becomes a [`crate::RunError`]).
    pub fn recv_any<T: Send + 'static>(&mut self, tag: u64) -> (usize, Vec<T>) {
        assert!(tag < INTERNAL_TAG_BASE, "user tags must be < 2^32");
        // In a controlled run the scheduler resolves the wildcard to a
        // concrete source whose message is already in flight.
        let source = self.permit(SchedOp::RecvAny { tag });
        self.complete_recv(source, tag)
    }

    /// Exchange with a partner: send `data`, then receive the partner's
    /// message with the same tag. Deadlock-free (sends never block).
    pub fn exchange<T: Send + 'static>(
        &mut self,
        partner: usize,
        tag: u64,
        data: Vec<T>,
    ) -> Vec<T> {
        assert!(tag < INTERNAL_TAG_BASE, "user tags must be < 2^32");
        self.exchange_raw(partner, tag, data, 2)
    }

    pub(crate) fn exchange_raw<T: Send + 'static>(
        &mut self,
        partner: usize,
        tag: u64,
        data: Vec<T>,
        concurrency: usize,
    ) -> Vec<T> {
        self.send_raw(partner, tag, data, concurrency);
        self.recv_raw(partner, tag)
    }

    /// Park in the world's scheduler hook (when installed) until `op` is
    /// granted. Returns the grant's wildcard-source choice. An `Abort`
    /// grant unwinds the rank with its partial trace, exactly like a
    /// deadlock abort; `try_run` reports [`crate::RunError::SchedulerAbort`].
    fn permit(&mut self, op: SchedOp) -> Option<usize> {
        let hook = self.core.world.sched.clone()?;
        match hook.permit(self.core.rank, op) {
            SchedGrant::Proceed { source } => source,
            SchedGrant::Abort => self.abort(),
        }
    }

    pub(crate) fn send_raw<T: Send + 'static>(
        &mut self,
        to: usize,
        tag: u64,
        data: Vec<T>,
        concurrency: usize,
    ) {
        assert!(
            to < self.core.size,
            "send to rank {to} of {}",
            self.core.size
        );
        assert!(
            to != self.core.rank,
            "self-sends are not allowed (rank {to})"
        );
        self.permit(SchedOp::Send { to, tag });
        let bytes = (std::mem::size_of::<T>() * data.len()) as u64;
        let h = self
            .core
            .world
            .contention
            .effective(&self.hockney, concurrency);
        let t_net = Seconds::new(h.p2p(bytes));
        let arrival = self.core.account_send(bytes, t_net);
        self.vclock[self.core.rank] += 1;
        self.comm.events.push(CommEvent {
            op: CommOp::Send { to },
            tag,
            bytes,
            time_s: self.now(),
            waited_s: 0.0,
            vc: self.vclock.clone(),
        });
        let env = Envelope {
            src: self.core.rank,
            tag,
            arrival_s: arrival.raw(), // full link time, not overlap-squeezed
            bytes,
            vc: self.vclock.clone(),
            payload: Box::new(data),
        };
        self.registry.post(to, env);
    }

    pub(crate) fn recv_raw<T: Send + 'static>(&mut self, from: usize, tag: u64) -> Vec<T> {
        assert!(
            from < self.core.size,
            "recv from rank {from} of {}",
            self.core.size
        );
        assert!(from != self.core.rank, "self-receives are not allowed");
        self.permit(SchedOp::Recv { from, tag });
        self.complete_recv(Some(from), tag).1
    }

    /// Take the matching envelope (see [`Self::take_envelope`]), charge
    /// its wait, merge its vector clock and trace the receive. Returns the
    /// source and the payload.
    fn complete_recv<T: Send + 'static>(
        &mut self,
        from: Option<usize>,
        tag: u64,
    ) -> (usize, Vec<T>) {
        let env = self.take_envelope(from, tag);
        let from = env.src;
        let waited = self.core.account_recv(env.arrival_s);
        for (mine, theirs) in self.vclock.iter_mut().zip(&env.vc) {
            *mine = (*mine).max(*theirs);
        }
        self.vclock[self.core.rank] += 1;
        self.comm.events.push(CommEvent {
            op: CommOp::Recv { from },
            tag,
            bytes: env.bytes,
            time_s: self.now(),
            waited_s: waited.raw(),
            vc: self.vclock.clone(),
        });
        let payload = *env.payload.downcast::<Vec<T>>().unwrap_or_else(|_| {
            panic!(
                "rank {}: type mismatch receiving tag {tag} from rank {from} \
                     ({} bytes)",
                self.core.rank, env.bytes
            )
        });
        (from, payload)
    }

    /// Pull the first envelope matching `tag` from `from` (from any rank
    /// when `None`). Earlier pending envelopes are matched first; while none
    /// matches, the rank registers as blocked and waits on its inbox,
    /// buffering each non-matching arrival in `pending`.
    fn take_envelope(&mut self, from: Option<usize>, tag: u64) -> Envelope {
        let sources = from.map_or(0..self.core.size, |f| f..f + 1);
        for src in sources {
            if let Some(pos) = self.pending[src].iter().position(|e| e.tag == tag) {
                return self.pending[src].remove(pos).expect("position exists");
            }
        }
        let wait = WaitEdge {
            from_rank: self.core.rank,
            on_rank: from,
            tag,
        };
        loop {
            self.registry.block(wait);
            // `None` is the registry's abort message: the run is dead.
            let Ok(Some(env)) = self.inbox.recv() else {
                self.abort();
            };
            self.registry.woke(self.core.rank);
            if env.tag == tag && from.is_none_or(|f| f == env.src) {
                return env;
            }
            self.pending[env.src].push_back(env);
        }
    }

    /// Unwind this rank with its partial trace (a deadlock verdict or a
    /// scheduler abort). The payload is caught by [`crate::try_run`].
    fn abort(&mut self) -> ! {
        // Fold buffered-but-unmatched messages into the partial trace: the
        // analyzer infers tag mismatches from them.
        self.drain_unconsumed();
        let comm = std::mem::take(&mut self.comm);
        std::panic::panic_any(RankAbort { comm });
    }

    /// Move everything still in this rank's inbox and pending buffers into
    /// the trace's `unconsumed` list, grouped by source (called by the
    /// runtime after the program returns).
    pub(crate) fn drain_unconsumed(&mut self) {
        for env in self.inbox.try_iter().flatten() {
            self.pending[env.src].push_back(env);
        }
        for env in self.pending.iter_mut().flat_map(|q| q.drain(..)) {
            self.comm.unconsumed.push((env.src, env.tag, env.bytes));
        }
    }

    /// Next internal-collective sequence number (same on every rank because
    /// collectives execute in program order).
    pub(crate) fn next_coll_seq(&mut self) -> u64 {
        let s = self.coll_seq;
        self.coll_seq += 1;
        s
    }
}
