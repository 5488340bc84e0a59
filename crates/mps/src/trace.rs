//! Communication traces: per-rank logs of every send/receive with vector
//! clocks, consumed by the `analyze` crate's communication-graph checker.
//!
//! Every rank maintains a vector clock `vc[0..p]`. Local communication
//! events increment the rank's own component; envelopes carry the sender's
//! clock and receives merge it in (elementwise max) before incrementing.
//! Two events are *concurrent* — neither happened-before the other — iff
//! their clocks are incomparable, which is exactly the condition under
//! which message ordering is scheduler-dependent (a message race).

/// Tags at or above this value are reserved for internal collectives;
/// user-level `send`/`recv` tags are below it.
pub const USER_TAG_LIMIT: u64 = 1 << 32;

/// Direction of a communication event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommOp {
    /// A point-to-point (or internal-collective) send to `to`.
    Send {
        /// Destination rank.
        to: usize,
    },
    /// A completed receive from `from`.
    Recv {
        /// Source rank.
        from: usize,
    },
}

/// One traced communication event.
#[derive(Debug, Clone)]
pub struct CommEvent {
    /// Send or receive, with the peer rank.
    pub op: CommOp,
    /// Message tag (user tags are `< 2^32`; internal collectives above).
    pub tag: u64,
    /// Payload size in bytes.
    pub bytes: u64,
    /// Virtual time at which the event completed, in seconds.
    pub time_s: f64,
    /// How long the event blocked the rank's virtual clock: for receives,
    /// the idle time spent waiting for the message's arrival (0 when it
    /// was already delivered); always 0 for sends, which never block.
    /// The `obs::profile` critical-path reconstruction pivots on this.
    pub waited_s: f64,
    /// The rank's vector clock *after* the event.
    pub vc: Vec<u64>,
}

impl CommEvent {
    /// True when `self` happened strictly before `other` (vector-clock
    /// partial order: `self.vc <= other.vc` elementwise and not equal).
    #[must_use]
    pub fn happened_before(&self, other: &CommEvent) -> bool {
        debug_assert_eq!(self.vc.len(), other.vc.len(), "clocks from different runs");
        let mut strictly = false;
        for (a, b) in self.vc.iter().zip(&other.vc) {
            if a > b {
                return false;
            }
            if a < b {
                strictly = true;
            }
        }
        strictly
    }

    /// True when neither event happened-before the other.
    #[must_use]
    pub fn concurrent_with(&self, other: &CommEvent) -> bool {
        !self.happened_before(other) && !other.happened_before(self)
    }
}

/// The full communication trace of one rank.
#[derive(Debug, Clone, Default)]
pub struct CommLog {
    /// Rank that produced the trace.
    pub rank: usize,
    /// Events in program order.
    pub events: Vec<CommEvent>,
    /// Messages still sitting in this rank's inbox when it finished:
    /// `(source, tag, bytes)` triples that were sent but never received.
    pub unconsumed: Vec<(usize, u64, u64)>,
}

impl CommLog {
    /// An empty trace for `rank`.
    #[must_use]
    pub fn new(rank: usize) -> Self {
        Self {
            rank,
            events: Vec::new(),
            unconsumed: Vec::new(),
        }
    }

    /// Iterate over send events only.
    pub fn sends(&self) -> impl Iterator<Item = &CommEvent> {
        self.events
            .iter()
            .filter(|e| matches!(e.op, CommOp::Send { .. }))
    }

    /// Iterate over receive events only.
    pub fn recvs(&self) -> impl Iterator<Item = &CommEvent> {
        self.events
            .iter()
            .filter(|e| matches!(e.op, CommOp::Recv { .. }))
    }
}

/// An edge in the wait-for graph: `from_rank` is blocked in a receive on
/// `on_rank` with `tag`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitEdge {
    /// The blocked rank.
    pub from_rank: usize,
    /// The rank it waits for a message from; `None` for a wildcard
    /// receive ([`crate::Ctx::recv_any`]), which any rank could satisfy.
    pub on_rank: Option<usize>,
    /// The tag it waits for.
    pub tag: u64,
}

impl std::fmt::Display for WaitEdge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.on_rank {
            Some(on) => write!(
                f,
                "rank {} waits on rank {} (tag {})",
                self.from_rank, on, self.tag
            ),
            None => write!(
                f,
                "rank {} waits on any rank (tag {})",
                self.from_rank, self.tag
            ),
        }
    }
}

/// Why a run could not complete.
#[derive(Debug, Clone)]
pub enum RunError {
    /// The wait-for graph reached a terminal state: either a cycle of
    /// blocked ranks, or a chain ending at a rank that already finished
    /// (so the awaited message can never be sent).
    Deadlock(DeadlockInfo),
    /// An installed [`crate::sched::SchedulerHook`] granted
    /// [`crate::sched::SchedGrant::Abort`]: the controller tore the run
    /// down (schedule-space exploration cutting a branch short, or the
    /// controller's own deadlock verdict). Carries the partial per-rank
    /// communication traces collected up to the teardown.
    SchedulerAbort {
        /// Partial communication traces, indexed by rank.
        comm: Vec<CommLog>,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Deadlock(info) => write!(f, "{info}"),
            RunError::SchedulerAbort { comm } => {
                write!(
                    f,
                    "run aborted by its scheduler hook ({} ranks)",
                    comm.len()
                )
            }
        }
    }
}

impl std::error::Error for RunError {}

/// Details of a detected deadlock.
#[derive(Debug, Clone)]
pub struct DeadlockInfo {
    /// The blocked chain that triggered detection, in wait order. For a
    /// cyclic deadlock the last edge waits on the first edge's rank; for a
    /// stuck chain the last edge waits on a finished rank. A wildcard
    /// wait lists every blocked rank (see [`DeadlockInfo::from_waits`]).
    pub edges: Vec<WaitEdge>,
    /// True when the chain closes into a cycle; false when it ends at a
    /// finished rank.
    pub cyclic: bool,
    /// Partial communication traces collected from every rank (finished
    /// ranks contribute complete traces).
    pub comm: Vec<CommLog>,
}

impl DeadlockInfo {
    /// The verdict on a quiescent run, shared by every executor.
    ///
    /// `waits[r]` is rank `r`'s blocked receive (with `from_rank == r`), or
    /// `None` for a finished rank; `comm` holds the per-rank traces. The
    /// walk starts at the lowest blocked rank and follows `on_rank` until
    /// the chain closes into a cycle (reported trimmed to the cycle),
    /// reaches a finished rank (a stuck chain), or reaches a wildcard
    /// receive. Any rank could satisfy a wildcard, so then every blocked
    /// rank is reported in rank order, cyclic unless it is the only one.
    ///
    /// # Panics
    /// Panics if no rank is blocked.
    #[must_use]
    pub fn from_waits(waits: &[Option<WaitEdge>], comm: Vec<CommLog>) -> Self {
        let mut cur = waits
            .iter()
            .position(Option::is_some)
            .expect("a deadlock has a blocked rank");
        let mut chain: Vec<WaitEdge> = Vec::new();
        let mut on_chain = vec![false; waits.len()];
        let (edges, cyclic) = loop {
            let edge = waits[cur].expect("the walk visits blocked ranks only");
            let Some(on) = edge.on_rank else {
                let blocked: Vec<WaitEdge> = waits.iter().flatten().copied().collect();
                let cyclic = blocked.len() > 1;
                break (blocked, cyclic);
            };
            chain.push(edge);
            on_chain[cur] = true;
            if on_chain[on] {
                let start = chain.iter().position(|e| e.from_rank == on);
                break (chain.split_off(start.expect("cycle entry on chain")), true);
            }
            if waits[on].is_none() {
                break (chain, false);
            }
            cur = on;
        };
        Self {
            edges,
            cyclic,
            comm,
        }
    }

    /// Record the verdict in the flight recorder as `<source>.deadlock`
    /// and dump every thread's recent spans and events.
    pub fn record_flight(&self, source: &str) {
        let edges: Vec<String> = self.edges.iter().map(|e| format!("{e:?}")).collect();
        obs::flight::record(
            &format!("{source}.deadlock"),
            "event",
            0.0,
            &[
                ("cyclic", self.cyclic.to_string()),
                ("edges", edges.join(";")),
            ],
        );
        let _ = obs::flight::dump(&format!("{source}-deadlock"));
    }
}

impl std::fmt::Display for DeadlockInfo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.cyclic {
            write!(f, "deadlock cycle: ")?;
        } else {
            write!(f, "ranks stuck waiting on a finished rank: ")?;
        }
        for (i, e) in self.edges.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{e}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(vc: &[u64]) -> CommEvent {
        CommEvent {
            op: CommOp::Send { to: 0 },
            tag: 0,
            bytes: 0,
            time_s: 0.0,
            waited_s: 0.0,
            vc: vc.to_vec(),
        }
    }

    #[test]
    fn happened_before_is_strict_partial_order() {
        let a = ev(&[1, 0]);
        let b = ev(&[2, 1]);
        assert!(a.happened_before(&b));
        assert!(!b.happened_before(&a));
        assert!(!a.happened_before(&a));
    }

    #[test]
    fn incomparable_clocks_are_concurrent() {
        let a = ev(&[2, 0]);
        let b = ev(&[0, 2]);
        assert!(a.concurrent_with(&b));
        assert!(b.concurrent_with(&a));
    }

    #[test]
    fn equal_clocks_are_concurrent_but_not_ordered() {
        let a = ev(&[1, 1]);
        let b = ev(&[1, 1]);
        assert!(!a.happened_before(&b));
        assert!(a.concurrent_with(&b));
    }

    #[test]
    fn wait_edge_displays_ranks_and_tag() {
        let e = WaitEdge {
            from_rank: 1,
            on_rank: Some(0),
            tag: 7,
        };
        assert_eq!(e.to_string(), "rank 1 waits on rank 0 (tag 7)");
    }

    #[test]
    fn wildcard_wait_edge_displays_any() {
        let e = WaitEdge {
            from_rank: 2,
            on_rank: None,
            tag: 3,
        };
        assert_eq!(e.to_string(), "rank 2 waits on any rank (tag 3)");
    }
}
