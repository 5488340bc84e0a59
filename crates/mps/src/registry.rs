//! Shared run state: the ranks' inboxes and exact deadlock detection.
//!
//! Sends never block, so a run is deadlocked exactly when it is
//! *quiescent*: every rank is blocked in a receive or finished, at least
//! one is blocked, and no envelope is in flight to a blocked rank. The
//! [`Registry`] keeps, under one mutex, each rank's blocked receive, the
//! number of finished ranks and the number of envelopes sent to each rank
//! but not yet pulled from its inbox. A sender counts an envelope before
//! pushing it; the receiver uncounts it in the same critical section that
//! unregisters its blocked receive. A rank holding its envelope but not yet
//! unregistered therefore still has the envelope counted, and never reads
//! as blocked and starved, however long the host keeps it off-CPU.
//!
//! Quiescence can only begin when a rank blocks or finishes, so those two
//! transitions check for it. The check is exact, needs no timeout, and its
//! verdict does not depend on how the host schedules threads. On a verdict
//! the registry wakes every blocked rank with an abort message in its
//! inbox.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Mutex, MutexGuard};

use crate::envelope::Envelope;
use crate::trace::WaitEdge;

/// A rank's inbox. `None` is the abort message a deadlock verdict sends.
pub(crate) type Inbox = Receiver<Option<Envelope>>;

/// Shared (across ranks of one run) transport and deadlock state.
pub(crate) struct Registry {
    /// One sender per rank's inbox. Held here for the whole run, so an
    /// inbox never disconnects while its rank waits on it.
    inboxes: Vec<Sender<Option<Envelope>>>,
    state: Mutex<State>,
}

struct State {
    /// `waits[r]` is rank `r`'s receive while `r` is blocked in it.
    waits: Vec<Option<WaitEdge>>,
    /// `inflight[r]`: envelopes sent to rank `r` that it has not pulled.
    inflight: Vec<usize>,
    /// Number of `Some` entries in `waits`.
    blocked: usize,
    /// Number of ranks whose program returned or unwound.
    finished: usize,
    /// The blocked receives at the moment the run was declared dead
    /// (`None` for finished ranks).
    verdict: Option<Vec<Option<WaitEdge>>>,
}

impl Registry {
    /// A registry for `p` ranks, plus each rank's inbox.
    pub(crate) fn new(p: usize) -> (Self, Vec<Inbox>) {
        let (inboxes, receivers) = (0..p).map(|_| channel()).unzip();
        let state = State {
            waits: vec![None; p],
            inflight: vec![0; p],
            blocked: 0,
            finished: 0,
            verdict: None,
        };
        let registry = Self {
            inboxes,
            state: Mutex::new(state),
        };
        (registry, receivers)
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("registry poisoned")
    }

    /// Deliver `env` to rank `to`'s inbox.
    ///
    /// # Panics
    /// Panics if rank `to` already exited.
    pub(crate) fn post(&self, to: usize, env: Envelope) {
        self.lock().inflight[to] += 1;
        if self.inboxes[to].send(Some(env)).is_err() {
            panic!("receiver rank {to} already exited");
        }
    }

    /// Register `wait.from_rank` as blocked in `wait`, declaring the run
    /// dead if that makes it quiescent.
    pub(crate) fn block(&self, wait: WaitEdge) {
        let mut st = self.lock();
        st.waits[wait.from_rank] = Some(wait);
        st.blocked += 1;
        self.settle(&mut st);
    }

    /// Rank `rank` pulled an envelope off its inbox while blocked.
    pub(crate) fn woke(&self, rank: usize) {
        let mut st = self.lock();
        st.inflight[rank] -= 1;
        st.waits[rank] = None;
        st.blocked -= 1;
    }

    /// A rank's program returned or unwound. A rank unwinding from a
    /// verdict is still registered as blocked; the verdict is already
    /// final by then.
    pub(crate) fn finish(&self) {
        let mut st = self.lock();
        st.finished += 1;
        self.settle(&mut st);
    }

    /// The blocked receives at the verdict, if the run was declared dead.
    pub(crate) fn verdict(&self) -> Option<Vec<Option<WaitEdge>>> {
        self.lock().verdict.clone()
    }

    /// Declare the run dead if it is quiescent, and wake every blocked rank
    /// with an abort message.
    fn settle(&self, st: &mut State) {
        let quiescent = st.verdict.is_none()
            && st.blocked > 0
            && st.blocked + st.finished == self.inboxes.len()
            && st
                .waits
                .iter()
                .zip(&st.inflight)
                .all(|(w, &n)| w.is_none() || n == 0);
        if !quiescent {
            return;
        }
        for (rank, wait) in st.waits.iter().enumerate() {
            if wait.is_some() {
                // A blocked rank still owns its inbox, so the push lands.
                let _ = self.inboxes[rank].send(None);
            }
        }
        st.verdict = Some(st.waits.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::DeadlockInfo;

    fn wait(from_rank: usize, on_rank: usize, tag: u64) -> WaitEdge {
        WaitEdge {
            from_rank,
            on_rank: Some(on_rank),
            tag,
        }
    }

    fn envelope(src: usize) -> Envelope {
        Envelope {
            src,
            tag: 0,
            arrival_s: 0.0,
            bytes: 0,
            vc: Vec::new(),
            payload: Box::new(()),
        }
    }

    fn verdict(r: &Registry) -> Option<DeadlockInfo> {
        r.verdict()
            .map(|waits| DeadlockInfo::from_waits(&waits, Vec::new()))
    }

    #[test]
    fn two_cycle_is_reported_from_the_lowest_rank() {
        let (r, inboxes) = Registry::new(2);
        r.block(wait(1, 0, 6));
        assert!(verdict(&r).is_none(), "rank 0 still runs");
        r.block(wait(0, 1, 5));
        let v = verdict(&r).expect("cycle");
        assert!(v.cyclic);
        assert_eq!(v.edges, vec![wait(0, 1, 5), wait(1, 0, 6)]);
        for inbox in &inboxes {
            assert!(matches!(inbox.try_recv(), Ok(None)), "abort wake-up");
        }
    }

    #[test]
    fn chain_into_a_cycle_is_reported_as_just_the_cycle() {
        let (r, _inboxes) = Registry::new(3);
        r.block(wait(0, 1, 1));
        r.block(wait(1, 2, 2));
        r.block(wait(2, 1, 3));
        let v = verdict(&r).expect("cycle");
        assert!(v.cyclic);
        assert_eq!(v.edges, vec![wait(1, 2, 2), wait(2, 1, 3)]);
    }

    #[test]
    fn in_flight_envelope_suppresses_the_verdict() {
        // Rank 1 sent to rank 0, then blocked on rank 0; rank 0 is blocked
        // on rank 1 but has not pulled the envelope. The apparent cycle is
        // not a deadlock until rank 0 pulls it and blocks again.
        let (r, inboxes) = Registry::new(2);
        r.block(wait(0, 1, 5));
        r.post(0, envelope(1));
        r.block(wait(1, 0, 6));
        assert!(verdict(&r).is_none(), "in-flight envelope into rank 0");
        assert!(matches!(inboxes[0].try_recv(), Ok(Some(_))));
        r.woke(0);
        r.block(wait(0, 1, 5));
        assert!(verdict(&r).expect("cycle is real").cyclic);
    }

    #[test]
    fn wait_on_a_finished_rank_is_a_stuck_chain() {
        let (r, _inboxes) = Registry::new(2);
        r.finish();
        r.block(wait(1, 0, 7));
        let v = verdict(&r).expect("stuck");
        assert!(!v.cyclic);
        assert_eq!(v.edges, vec![wait(1, 0, 7)]);
    }

    #[test]
    fn a_running_rank_means_no_verdict() {
        let (r, _inboxes) = Registry::new(3);
        r.block(wait(0, 1, 1));
        r.finish();
        assert!(verdict(&r).is_none(), "rank 1 runs");
    }

    #[test]
    fn a_rank_holding_its_envelope_is_not_starved() {
        // Rank 0 waits on rank 1; rank 1 sends and finishes. Rank 0 has
        // pulled the envelope off its inbox but not yet unregistered: the
        // envelope is still counted, so rank 1 finishing is no verdict.
        let (r, inboxes) = Registry::new(2);
        r.block(wait(0, 1, 0));
        r.post(0, envelope(1));
        assert!(matches!(inboxes[0].recv(), Ok(Some(_))));
        r.finish();
        assert!(verdict(&r).is_none(), "rank 0 is about to return");
        r.woke(0);
        r.finish();
        assert!(verdict(&r).is_none(), "both ranks completed");
    }

    #[test]
    fn wildcard_wait_reports_every_blocked_rank() {
        let (r, _inboxes) = Registry::new(3);
        let any = WaitEdge {
            from_rank: 1,
            on_rank: None,
            tag: 4,
        };
        r.block(any);
        r.block(wait(2, 1, 9));
        r.block(wait(0, 1, 8));
        let v = verdict(&r).expect("global deadlock");
        assert!(v.cyclic);
        assert_eq!(v.edges, vec![wait(0, 1, 8), any, wait(2, 1, 9)]);
    }
}
