//! A Wing & Gong linearizability checker with Lowe-style memoization.
//!
//! Given a complete history (every operation has returned), the checker
//! searches for a total order of the operations that (a) extends the
//! real-time partial order and (b) is a legal execution of the sequential
//! deque specification producing exactly the recorded responses. This is
//! the *definition* of linearizability from Herlihy & Wing, which the
//! paper adopts as its correctness condition.
//!
//! The search is exponential in the worst case but fast in practice for
//! the history sizes our stress driver produces; visited
//! (linearized-set, abstract-state) pairs are memoized so equivalent
//! search prefixes are explored once (P. G. Lowe, *Testing for
//! linearizability*, 2017).

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::history::Completed;
use crate::spec::SeqDeque;

/// Search nodes between two publications of the running counts: often
/// enough for a watchdog to see a stalled search grow, rare enough that
/// the stores cost nothing next to the search itself.
const PUBLISH_EVERY: u64 = 1024;

/// The size of one [`linearization_final_states_observed`] search,
/// published while it runs so another thread (a test watchdog) can tell
/// a slow window from a wedged workload and see how far it has got.
#[derive(Debug, Default)]
pub struct SearchProgress {
    start_states: AtomicU64,
    nodes: AtomicU64,
    memo_entries: AtomicU64,
}

/// A snapshot of a [`SearchProgress`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchCounts {
    /// Abstract states carried into the window; the search runs once
    /// from each.
    pub start_states: u64,
    /// Search nodes visited: (linearized set, state) pairs pushed on the
    /// depth-first stack, the start states included.
    pub nodes: u64,
    /// Entries in the memo table shared by all start states.
    pub memo_entries: u64,
}

impl SearchProgress {
    /// The counts last published (exact once the search has returned).
    pub fn counts(&self) -> SearchCounts {
        SearchCounts {
            start_states: self.start_states.load(Ordering::Relaxed),
            nodes: self.nodes.load(Ordering::Relaxed),
            memo_entries: self.memo_entries.load(Ordering::Relaxed),
        }
    }

    fn publish(&self, nodes: u64, memo_entries: usize) {
        self.nodes.store(nodes, Ordering::Relaxed);
        self.memo_entries.store(memo_entries as u64, Ordering::Relaxed);
    }
}

/// Result of a failed check, for diagnostics.
#[derive(Debug)]
pub struct Violation {
    /// Index (into the completed-op list) of operations linearized on the
    /// deepest path the search reached before exhausting candidates.
    pub deepest_prefix: Vec<usize>,
}

/// Checks whether `ops` (a complete history) is linearizable with respect
/// to the sequential deque `initial`.
///
/// Returns `Ok(())` with a witness existing, or `Err(Violation)` if no
/// linearization exists.
pub fn check_linearizable(initial: SeqDeque, ops: &[Completed]) -> Result<(), Violation> {
    if ops.len() > 64 {
        // The memo key packs the linearized set into a u64 bitmask.
        // Check longer histories in windows at the driver level instead.
        panic!("checker supports at most 64 operations per history, got {}", ops.len());
    }
    let all_mask: u64 = if ops.len() == 64 { !0 } else { (1u64 << ops.len()) - 1 };

    let mut memo: HashSet<(u64, Vec<u64>)> = HashSet::new();
    let mut deepest: Vec<usize> = Vec::new();

    // Iterative DFS over (mask of linearized ops, abstract state).
    struct Frame {
        state: SeqDeque,
        mask: u64,
        next_candidate: usize,
        chosen: Option<usize>,
    }
    let mut stack = vec![Frame { state: initial, mask: 0, next_candidate: 0, chosen: None }];
    let mut path: Vec<usize> = Vec::new();

    while let Some(frame) = stack.last_mut() {
        if frame.mask == all_mask {
            return Ok(());
        }
        // An op may linearize first among the remaining ones iff its
        // invocation precedes every remaining op's response; equivalently
        // iff it is invoked before the minimal remaining response.
        let min_resp = ops
            .iter()
            .enumerate()
            .filter(|(i, _)| frame.mask & (1 << i) == 0)
            .map(|(_, c)| c.respond_ts)
            .min()
            .expect("non-full mask has remaining ops");

        let mut advanced = false;
        while frame.next_candidate < ops.len() {
            let i = frame.next_candidate;
            frame.next_candidate += 1;
            if frame.mask & (1 << i) != 0 {
                continue;
            }
            if ops[i].invoke_ts > min_resp {
                continue;
            }
            let (ret, next_state) = frame.state.peek_apply(ops[i].op);
            if ret != ops[i].ret {
                continue;
            }
            let next_mask = frame.mask | (1 << i);
            let key = (next_mask, next_state.items().collect::<Vec<_>>());
            if !memo.insert(key) {
                continue;
            }
            path.push(i);
            if path.len() > deepest.len() {
                deepest = path.clone();
            }
            stack.push(Frame {
                state: next_state,
                mask: next_mask,
                next_candidate: 0,
                chosen: Some(i),
            });
            advanced = true;
            break;
        }
        if !advanced && stack.pop().and_then(|f| f.chosen).is_some() {
            path.pop();
        }
    }
    Err(Violation { deepest_prefix: deepest })
}

/// Enumerates **every** abstract state the sequential specification can be
/// left in by a linearization of `ops`, starting from *any* of the
/// `initials` states.
///
/// This is the carry primitive of the windowed (online) checking mode:
/// when a long history is audited window by window, the state at a window
/// boundary is generally not unique — e.g. two concurrent `pushLeft`s
/// admit two witness orders with different final sequences — so the next
/// window must be checked from the full set of reachable states, not the
/// first witness found. Returns the deduplicated set (never empty) or the
/// same [`Violation`] diagnostics as [`check_linearizable`] if **no**
/// initial state admits a linearization.
///
/// Complexity: same memoized search as [`check_linearizable`], but
/// without the early exit on the first witness; the memo table bounds the
/// work by the number of distinct (linearized-set, state) pairs.
pub fn linearization_final_states(
    initials: &[SeqDeque],
    ops: &[Completed],
) -> Result<Vec<SeqDeque>, Violation> {
    linearization_final_states_observed(initials, ops, &SearchProgress::default())
}

/// [`linearization_final_states`], publishing the search's size to
/// `progress` as it goes: the number of start states up front, then the
/// node and memo counts every [`PUBLISH_EVERY`] nodes and on return.
pub fn linearization_final_states_observed(
    initials: &[SeqDeque],
    ops: &[Completed],
    progress: &SearchProgress,
) -> Result<Vec<SeqDeque>, Violation> {
    assert!(!initials.is_empty(), "need at least one initial state");
    progress.start_states.store(initials.len() as u64, Ordering::Relaxed);
    progress.publish(0, 0);
    if ops.len() > 64 {
        panic!("checker supports at most 64 operations per history, got {}", ops.len());
    }
    if ops.is_empty() {
        let mut out: Vec<SeqDeque> = Vec::new();
        for s in initials {
            if !out.contains(s) {
                out.push(s.clone());
            }
        }
        return Ok(out);
    }
    let all_mask: u64 = if ops.len() == 64 { !0 } else { (1u64 << ops.len()) - 1 };

    // Shared across initial states: a (mask, state) pair reached from two
    // different initials has identical continuations.
    let mut memo: HashSet<(u64, Vec<u64>)> = HashSet::new();
    let mut finals: Vec<SeqDeque> = Vec::new();
    let mut deepest: Vec<usize> = Vec::new();
    let mut nodes = 0u64;

    struct Frame {
        state: SeqDeque,
        mask: u64,
        next_candidate: usize,
        chosen: Option<usize>,
    }

    for initial in initials {
        nodes += 1;
        let mut stack =
            vec![Frame { state: initial.clone(), mask: 0, next_candidate: 0, chosen: None }];
        let mut path: Vec<usize> = Vec::new();
        while let Some(frame) = stack.last_mut() {
            if frame.mask == all_mask {
                if !finals.contains(&frame.state) {
                    finals.push(frame.state.clone());
                }
                // Keep searching for other witnesses' final states.
                if stack.pop().and_then(|f| f.chosen).is_some() {
                    path.pop();
                }
                continue;
            }
            let min_resp = ops
                .iter()
                .enumerate()
                .filter(|(i, _)| frame.mask & (1 << i) == 0)
                .map(|(_, c)| c.respond_ts)
                .min()
                .expect("non-full mask has remaining ops");

            let mut advanced = false;
            while frame.next_candidate < ops.len() {
                let i = frame.next_candidate;
                frame.next_candidate += 1;
                if frame.mask & (1 << i) != 0 {
                    continue;
                }
                if ops[i].invoke_ts > min_resp {
                    continue;
                }
                let (ret, next_state) = frame.state.peek_apply(ops[i].op);
                if ret != ops[i].ret {
                    continue;
                }
                let next_mask = frame.mask | (1 << i);
                let key = (next_mask, next_state.items().collect::<Vec<_>>());
                if !memo.insert(key) {
                    continue;
                }
                path.push(i);
                if path.len() > deepest.len() {
                    deepest = path.clone();
                }
                nodes += 1;
                if nodes.is_multiple_of(PUBLISH_EVERY) {
                    progress.publish(nodes, memo.len());
                }
                stack.push(Frame {
                    state: next_state,
                    mask: next_mask,
                    next_candidate: 0,
                    chosen: Some(i),
                });
                advanced = true;
                break;
            }
            if !advanced && stack.pop().and_then(|f| f.chosen).is_some() {
                path.pop();
            }
        }
    }
    progress.publish(nodes, memo.len());
    if finals.is_empty() {
        Err(Violation { deepest_prefix: deepest })
    } else {
        Ok(finals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{DequeOp, DequeRet};

    fn op(invoke_ts: u64, respond_ts: u64, op: DequeOp, ret: DequeRet) -> Completed {
        Completed { invoke_ts, respond_ts, op, ret }
    }

    #[test]
    fn empty_history_is_linearizable() {
        assert!(check_linearizable(SeqDeque::unbounded(), &[]).is_ok());
    }

    #[test]
    fn sequential_legal_history() {
        let ops = vec![
            op(0, 1, DequeOp::PushRight(5), DequeRet::Okay),
            op(2, 3, DequeOp::PopLeft, DequeRet::Value(5)),
            op(4, 5, DequeOp::PopLeft, DequeRet::Empty),
        ];
        assert!(check_linearizable(SeqDeque::unbounded(), &ops).is_ok());
    }

    #[test]
    fn sequential_illegal_history() {
        // Pop returns a value that was never pushed.
        let ops = vec![
            op(0, 1, DequeOp::PushRight(5), DequeRet::Okay),
            op(2, 3, DequeOp::PopLeft, DequeRet::Value(6)),
        ];
        assert!(check_linearizable(SeqDeque::unbounded(), &ops).is_err());
    }

    #[test]
    fn real_time_order_is_respected() {
        // Sequentially: pop (returns empty) strictly before push. A
        // checker ignoring real time would reorder them.
        let ops = vec![
            op(0, 1, DequeOp::PopLeft, DequeRet::Value(5)),
            op(2, 3, DequeOp::PushRight(5), DequeRet::Okay),
        ];
        assert!(check_linearizable(SeqDeque::unbounded(), &ops).is_err());
    }

    #[test]
    fn overlapping_ops_may_reorder() {
        // The same pair, but overlapping: pop(→5) concurrent with
        // push(5) is linearizable as push;pop.
        let ops = vec![
            op(0, 3, DequeOp::PopLeft, DequeRet::Value(5)),
            op(1, 2, DequeOp::PushRight(5), DequeRet::Okay),
        ];
        assert!(check_linearizable(SeqDeque::unbounded(), &ops).is_ok());
    }

    #[test]
    fn stolen_last_element_scenario() {
        // Figure 6 of the paper: popRight and popLeft race for the last
        // element; one gets it, the other reports empty.
        let ops = vec![
            op(0, 1, DequeOp::PushRight(7), DequeRet::Okay),
            op(2, 5, DequeOp::PopRight, DequeRet::Empty),
            op(3, 4, DequeOp::PopLeft, DequeRet::Value(7)),
        ];
        assert!(check_linearizable(SeqDeque::unbounded(), &ops).is_ok());
        // But both claiming the single element is a violation.
        let ops = vec![
            op(0, 1, DequeOp::PushRight(7), DequeRet::Okay),
            op(2, 5, DequeOp::PopRight, DequeRet::Value(7)),
            op(3, 4, DequeOp::PopLeft, DequeRet::Value(7)),
        ];
        assert!(check_linearizable(SeqDeque::unbounded(), &ops).is_err());
    }

    #[test]
    fn full_boundary_with_bounded_spec() {
        let ops = vec![
            op(0, 1, DequeOp::PushRight(1), DequeRet::Okay),
            op(2, 3, DequeOp::PushLeft(2), DequeRet::Full),
            op(4, 5, DequeOp::PopRight, DequeRet::Value(1)),
            op(6, 7, DequeOp::PushLeft(2), DequeRet::Okay),
        ];
        assert!(check_linearizable(SeqDeque::bounded(1), &ops).is_ok());
        // The same history against capacity 2 is a violation (the Full
        // response is impossible).
        assert!(check_linearizable(SeqDeque::bounded(2), &ops).is_err());
    }

    #[test]
    fn lost_element_detected() {
        // Two concurrent pushes, but only one value ever pops out and the
        // deque then claims empty forever: the second push was lost.
        let ops = vec![
            op(0, 3, DequeOp::PushRight(1), DequeRet::Okay),
            op(1, 2, DequeOp::PushRight(2), DequeRet::Okay),
            op(4, 5, DequeOp::PopLeft, DequeRet::Value(1)),
            op(6, 7, DequeOp::PopLeft, DequeRet::Empty),
            op(8, 9, DequeOp::PopRight, DequeRet::Empty),
        ];
        assert!(check_linearizable(SeqDeque::unbounded(), &ops).is_err());
    }

    #[test]
    fn duplicated_element_detected() {
        let ops = vec![
            op(0, 1, DequeOp::PushRight(9), DequeRet::Okay),
            op(2, 5, DequeOp::PopRight, DequeRet::Value(9)),
            op(3, 4, DequeOp::PopLeft, DequeRet::Value(9)),
        ];
        assert!(check_linearizable(SeqDeque::unbounded(), &ops).is_err());
    }

    #[test]
    fn final_states_enumerates_all_witness_orders() {
        // Two fully-concurrent pushLefts: both <1,2> and <2,1> are
        // reachable, and a checker that carried only one of them would
        // mis-judge a later window.
        let ops = vec![
            op(0, 10, DequeOp::PushLeft(1), DequeRet::Okay),
            op(1, 9, DequeOp::PushLeft(2), DequeRet::Okay),
        ];
        let finals =
            linearization_final_states(&[SeqDeque::unbounded()], &ops).unwrap();
        let mut seqs: Vec<Vec<u64>> =
            finals.iter().map(|s| s.items().collect()).collect();
        seqs.sort();
        assert_eq!(seqs, vec![vec![1, 2], vec![2, 1]]);
    }

    #[test]
    fn final_states_from_multiple_initials() {
        // popLeft -> 7 linearizes from the initial state <7> but not from
        // <8>; the union keeps only the reachable outcome.
        let mut with7 = SeqDeque::unbounded();
        with7.apply(DequeOp::PushRight(7));
        let mut with8 = SeqDeque::unbounded();
        with8.apply(DequeOp::PushRight(8));
        let ops = vec![op(0, 1, DequeOp::PopLeft, DequeRet::Value(7))];
        let finals = linearization_final_states(&[with7, with8.clone()], &ops).unwrap();
        assert_eq!(finals.len(), 1);
        assert!(finals[0].is_empty());
        // From <8> alone the history is a violation.
        assert!(linearization_final_states(&[with8], &ops).is_err());
    }

    #[test]
    fn final_states_empty_history_returns_initials() {
        let a = SeqDeque::unbounded();
        let finals = linearization_final_states(&[a.clone(), a], &[]).unwrap();
        assert_eq!(finals.len(), 1);
    }

    #[test]
    fn final_states_rejects_what_checker_rejects() {
        let ops = vec![
            op(0, 1, DequeOp::PushRight(5), DequeRet::Okay),
            op(2, 3, DequeOp::PopLeft, DequeRet::Value(6)),
        ];
        assert!(linearization_final_states(&[SeqDeque::unbounded()], &ops).is_err());
    }

    #[test]
    fn wide_concurrency_window_searches() {
        // Fully-overlapping ops stress the memoized search. (Kept small:
        // a non-linearizable fully-overlapping history forces the checker
        // to exhaust an intrinsically factorial space.)
        let mut ops = Vec::new();
        for i in 0..7u64 {
            ops.push(op(0, 100, DequeOp::PushRight(i), DequeRet::Okay));
        }
        for _ in 0..7 {
            ops.push(op(0, 100, DequeOp::PopLeft, DequeRet::Value(0)));
        }
        // Only value 0 pops — impossible since all seven distinct values
        // were pushed.
        assert!(check_linearizable(SeqDeque::unbounded(), &ops).is_err());

        let mut ops = Vec::new();
        for i in 0..10u64 {
            ops.push(op(0, 100, DequeOp::PushRight(i), DequeRet::Okay));
            ops.push(op(0, 100, DequeOp::PopLeft, DequeRet::Value(i)));
        }
        assert!(check_linearizable(SeqDeque::unbounded(), &ops).is_ok());
    }
}
