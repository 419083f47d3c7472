//! Windowed (bounded, online-capable) linearizability checking.
//!
//! The Wing & Gong search of [`checker`](crate::checker) is exponential,
//! so it caps histories at 64 operations. Long recorded runs — and *live*
//! runs, audited while the deque is still being hammered — are instead
//! checked window by window:
//!
//! 1. completed operations are buffered in invocation order;
//! 2. the buffer is split at **quiescent cuts** — timestamps that no
//!    operation's interval spans. Because every thread runs its
//!    operations sequentially, at most `threads` operations are open at
//!    any instant and such cuts occur constantly in practice;
//! 3. each window of at most `max_window` operations is checked by
//!    [`linearization_final_states`], carrying the **full set** of
//!    abstract states reachable at the cut into the next window (a
//!    single witness would make the split unsound: concurrent operations
//!    inside a window can leave the deque in several distinct states).
//!
//! Splitting at quiescent cuts with full state-set carry is exact: the
//! windowed check accepts a history **iff** the monolithic check does.
//! The online caveat is operations still in flight — a cut is only taken
//! below `safe_ts`, the caller's bound on the earliest timestamp a
//! not-yet-buffered invocation might carry.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::checker::{linearization_final_states_observed, SearchCounts, SearchProgress, Violation};
use crate::dump::format_window;
use crate::history::Completed;
use crate::spec::SeqDeque;

/// Why a windowed check failed or could not proceed.
#[derive(Debug)]
pub enum WindowError {
    /// A window admitted no linearization from any carried state.
    Violation {
        /// Zero-based index of the offending window.
        window: usize,
        /// The operations of the offending window.
        ops: Vec<Completed>,
        /// Diagnostics from the underlying checker.
        violation: Violation,
    },
    /// More than `max_window` buffered operations accumulated without a
    /// quiescent cut (pathological overlap chain); raise `max_window` or
    /// lower the contention of the recorded run.
    Overflow {
        /// Operations buffered when the limit was hit.
        buffered: usize,
        /// The configured window limit.
        max_window: usize,
    },
}

impl std::fmt::Display for WindowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WindowError::Violation { window, ops, violation } => write!(
                f,
                "window {window} of {} ops is NOT linearizable (deepest prefix \
                 {:?});\nops: {:#?}",
                ops.len(),
                violation.deepest_prefix,
                ops
            ),
            WindowError::Overflow { buffered, max_window } => write!(
                f,
                "no quiescent cut within {buffered} buffered ops \
                 (max_window {max_window})"
            ),
        }
    }
}

/// Summary of a completed windowed check.
#[derive(Debug)]
pub struct WindowReport {
    /// Windows checked.
    pub windows: usize,
    /// Total operations checked across all windows.
    pub ops_checked: usize,
    /// Abstract states reachable after the final window.
    pub final_states: Vec<SeqDeque>,
}

/// The window a [`WindowedChecker`] is checking, shared so that another
/// thread (a test watchdog) can report a window that stalls the search:
/// its index, size, search counts and a dump of its contents.
#[derive(Debug, Default)]
pub struct WindowProgress {
    window: AtomicUsize,
    window_ops: AtomicUsize,
    searching: AtomicBool,
    search: SearchProgress,
    /// The window's carried start states (shared with the checker, not
    /// copied: there can be thousands) and operations.
    contents: Mutex<(Arc<Vec<SeqDeque>>, Vec<Completed>)>,
}

impl WindowProgress {
    /// Zero-based index of the window being (or last) checked.
    pub fn window(&self) -> usize {
        self.window.load(Ordering::Relaxed)
    }

    /// Whether that window's search is still running.
    pub fn searching(&self) -> bool {
        self.searching.load(Ordering::Relaxed)
    }

    /// The search counts of that window.
    pub fn counts(&self) -> SearchCounts {
        self.search.counts()
    }

    /// A one-line summary: window index and size, and the search counts.
    pub fn describe(&self) -> String {
        let c = self.counts();
        format!(
            "window {} ({} ops, {} carried start states): {} search nodes, {} memo entries{}",
            self.window(),
            self.window_ops.load(Ordering::Relaxed),
            c.start_states,
            c.nodes,
            c.memo_entries,
            if self.searching() { ", still searching" } else { "" }
        )
    }

    /// The window's start states and operations in the
    /// [`dump`](crate::dump) format. Never blocks: `None` while the
    /// checker is replacing the contents.
    pub fn dump(&self) -> Option<String> {
        let contents = self.contents.try_lock().ok()?;
        Some(format_window(&contents.0, &contents.1))
    }

    fn begin(&self, window: usize, starts: &Arc<Vec<SeqDeque>>, ops: &[Completed]) {
        *self.contents.lock().expect("only `begin` locks to write, and it cannot panic") =
            (Arc::clone(starts), ops.to_vec());
        self.window.store(window, Ordering::Relaxed);
        self.window_ops.store(ops.len(), Ordering::Relaxed);
        self.searching.store(true, Ordering::Relaxed);
    }
}

/// Incremental windowed checker. Feed completed operations as they are
/// observed; call [`advance`](WindowedChecker::advance) to check every
/// window already closed by a quiescent cut, and
/// [`finish`](WindowedChecker::finish) once the run is over.
#[derive(Debug)]
pub struct WindowedChecker {
    states: Arc<Vec<SeqDeque>>,
    buf: Vec<Completed>,
    max_window: usize,
    windows: usize,
    ops_checked: usize,
    progress: Arc<WindowProgress>,
}

impl WindowedChecker {
    /// Creates a checker starting from `initial` that checks windows of
    /// at most `max_window` operations (capped at the underlying
    /// checker's limit of 64).
    pub fn new(initial: SeqDeque, max_window: usize) -> Self {
        Self::with_progress(initial, max_window, Arc::default())
    }

    /// Like [`new`](Self::new), publishing each window's search to
    /// `progress` as it is checked.
    pub fn with_progress(
        initial: SeqDeque,
        max_window: usize,
        progress: Arc<WindowProgress>,
    ) -> Self {
        let max_window = max_window.clamp(1, 64);
        WindowedChecker {
            states: Arc::new(vec![initial]),
            buf: Vec::new(),
            max_window,
            windows: 0,
            ops_checked: 0,
            progress,
        }
    }

    /// Buffers completed operations (any order; they are sorted by
    /// invocation timestamp internally).
    pub fn feed<I: IntoIterator<Item = Completed>>(&mut self, ops: I) {
        self.buf.extend(ops);
        self.buf.sort_by_key(|c| c.invoke_ts);
    }

    /// Operations buffered but not yet absorbed into a checked window.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Windows checked so far.
    pub fn windows(&self) -> usize {
        self.windows
    }

    /// Operations checked so far.
    pub fn ops_checked(&self) -> usize {
        self.ops_checked
    }

    /// Checks every buffered window closed by a quiescent cut whose cut
    /// timestamp lies strictly below `safe_ts`.
    ///
    /// `safe_ts` is the caller's guarantee that every operation *not yet
    /// fed* (in flight, or completed but unread) has an invocation
    /// timestamp `>= safe_ts`; pass the minimum invocation timestamp of
    /// the currently pending operations, or `u64::MAX` after the run has
    /// quiesced. Returns the number of windows checked by this call.
    pub fn advance(&mut self, safe_ts: u64) -> Result<usize, WindowError> {
        let mut checked = 0;
        loop {
            match self.find_cut(safe_ts)? {
                None => return Ok(checked),
                Some(end) => {
                    self.check_window(end)?;
                    checked += 1;
                }
            }
        }
    }

    /// Consumes the checker after the run has quiesced (every operation
    /// fed), checking all remaining buffered operations.
    pub fn finish(mut self) -> Result<WindowReport, WindowError> {
        loop {
            match self.find_cut(u64::MAX)? {
                None => break,
                Some(end) => self.check_window(end)?,
            }
        }
        Ok(WindowReport {
            windows: self.windows,
            ops_checked: self.ops_checked,
            final_states: Arc::unwrap_or_clone(self.states),
        })
    }

    /// Finds the smallest prefix `buf[..end]` closed by a quiescent cut:
    /// every prefix operation responded before both (a) the next buffered
    /// operation's invocation and (b) `safe_ts`. The `safe_ts` bound
    /// alone closes the tail of the buffer — no yet-unseen operation can
    /// overlap it.
    ///
    /// `Overflow` is only raised when a **certified** cutless stretch
    /// exceeds the window: more than `max_window` operations all
    /// responded below `safe_ts` with no cut among them. Buffered
    /// operations at or beyond `safe_ts` never count toward overflow —
    /// a still-unseen invocation may yet land between them and produce
    /// a cut once `safe_ts` advances, so a live poll mid-burst merely
    /// keeps buffering instead of failing spuriously.
    fn find_cut(&self, safe_ts: u64) -> Result<Option<usize>, WindowError> {
        if self.buf.is_empty() {
            return Ok(None);
        }
        let mut max_respond = 0u64;
        let scan = self.buf.len().min(self.max_window + 1);
        let mut stable = 0usize;
        for i in 0..scan {
            max_respond = max_respond.max(self.buf[i].respond_ts);
            if max_respond >= safe_ts {
                break;
            }
            stable = i + 1;
            let cut = self.buf.get(i + 1).is_none_or(|c| max_respond < c.invoke_ts);
            if cut && i < self.max_window {
                return Ok(Some(i + 1));
            }
        }
        if stable > self.max_window {
            return Err(WindowError::Overflow {
                buffered: self.buf.len(),
                max_window: self.max_window,
            });
        }
        Ok(None)
    }

    fn check_window(&mut self, end: usize) -> Result<(), WindowError> {
        let window: Vec<Completed> = self.buf.drain(..end).collect();
        self.progress.begin(self.windows, &self.states, &window);
        let result =
            linearization_final_states_observed(&self.states, &window, &self.progress.search);
        self.progress.searching.store(false, Ordering::Relaxed);
        match result {
            Ok(states) => {
                self.states = Arc::new(states);
                self.windows += 1;
                self.ops_checked += window.len();
                Ok(())
            }
            Err(violation) => Err(WindowError::Violation {
                window: self.windows,
                ops: window,
                violation,
            }),
        }
    }
}

/// One-shot convenience: windowed check of a complete history.
pub fn check_windowed(
    initial: SeqDeque,
    ops: &[Completed],
    max_window: usize,
) -> Result<WindowReport, WindowError> {
    let mut w = WindowedChecker::new(initial, max_window);
    w.feed(ops.iter().copied());
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{DequeOp, DequeRet};

    fn op(invoke_ts: u64, respond_ts: u64, op: DequeOp, ret: DequeRet) -> Completed {
        Completed { invoke_ts, respond_ts, op, ret }
    }

    #[test]
    fn long_sequential_history_checks_in_many_windows() {
        // 300 ops — far beyond the monolithic checker's 64-op cap.
        let mut ops = Vec::new();
        let mut ts = 0;
        for i in 0..150u64 {
            ops.push(op(ts, ts + 1, DequeOp::PushRight(i), DequeRet::Okay));
            ts += 2;
        }
        for i in 0..150u64 {
            ops.push(op(ts, ts + 1, DequeOp::PopLeft, DequeRet::Value(i)));
            ts += 2;
        }
        let report = check_windowed(SeqDeque::unbounded(), &ops, 8).unwrap();
        assert_eq!(report.ops_checked, 300);
        assert!(report.windows >= 300 / 8);
        assert_eq!(report.final_states.len(), 1);
        assert!(report.final_states[0].is_empty());
    }

    #[test]
    fn ambiguous_cut_state_is_carried_exactly() {
        // Window 1: two concurrent pushLefts (final state <1,2> or
        // <2,1>). Window 2 resolves the ambiguity to <2,1>: a checker
        // carrying a single witness state would flag a false violation
        // roughly half the time.
        let ops = vec![
            op(0, 10, DequeOp::PushLeft(1), DequeRet::Okay),
            op(1, 9, DequeOp::PushLeft(2), DequeRet::Okay),
            op(20, 21, DequeOp::PopLeft, DequeRet::Value(2)),
            op(22, 23, DequeOp::PopLeft, DequeRet::Value(1)),
            op(24, 25, DequeOp::PopLeft, DequeRet::Empty),
        ];
        // max_window 2 forces the cut between the push pair and the pops.
        let report = check_windowed(SeqDeque::unbounded(), &ops, 2).unwrap();
        assert!(report.windows >= 2);
        assert_eq!(report.final_states.len(), 1);
        assert!(report.final_states[0].is_empty());
    }

    #[test]
    fn progress_counts_the_search_and_dumps_the_window() {
        use crate::checker::linearization_final_states;
        use crate::dump::parse_window;
        // Window 0: two concurrent pushLefts, leaving two possible
        // states. Window 1 starts from both and resolves them.
        let ops = [
            op(0, 10, DequeOp::PushLeft(1), DequeRet::Okay),
            op(1, 9, DequeOp::PushLeft(2), DequeRet::Okay),
            op(20, 23, DequeOp::PopLeft, DequeRet::Value(2)),
            op(21, 22, DequeOp::PushRight(3), DequeRet::Okay),
        ];
        let progress = Arc::new(WindowProgress::default());
        let mut w = WindowedChecker::with_progress(SeqDeque::unbounded(), 2, progress.clone());
        w.feed(ops.iter().copied());
        w.finish().unwrap();

        assert_eq!(progress.window(), 1);
        assert!(!progress.searching());
        let c = progress.counts();
        assert_eq!(c.start_states, 2);
        assert!(c.nodes > 0 && c.memo_entries > 0, "{c:?}");
        assert!(progress.describe().starts_with("window 1 (2 ops, 2 carried start states)"));

        let dump = progress.dump().unwrap();
        let (starts, window) = parse_window(&dump).unwrap();
        assert_eq!(format_window(&starts, &window), dump);
        let mut items: Vec<Vec<u64>> = starts.iter().map(|s| s.items().collect()).collect();
        items.sort();
        assert_eq!(items, vec![vec![1, 2], vec![2, 1]]);
        assert_eq!(window.len(), 2);
        assert_eq!(window[0].invoke_ts, 20);
        // The dumped window replays: it checks from its carried states.
        let finals = linearization_final_states(&starts, &window).unwrap();
        assert_eq!(finals.iter().map(|s| s.items().collect()).collect::<Vec<Vec<u64>>>(), [[1, 3]]);
    }

    #[test]
    fn violation_in_a_late_window_is_reported() {
        let mut ops = Vec::new();
        let mut ts = 0;
        for i in 0..40u64 {
            ops.push(op(ts, ts + 1, DequeOp::PushRight(i), DequeRet::Okay));
            ts += 2;
        }
        // Pop a value that was never pushed.
        ops.push(op(ts, ts + 1, DequeOp::PopLeft, DequeRet::Value(999)));
        let err = check_windowed(SeqDeque::unbounded(), &ops, 8).unwrap_err();
        match err {
            WindowError::Violation { window, .. } => assert!(window >= 4),
            other => panic!("expected violation, got {other:?}"),
        }
    }

    #[test]
    fn overflow_without_quiescent_cut() {
        // Five pairwise-overlapping ops with max_window 4: no cut exists.
        let ops: Vec<Completed> = (0..5u64)
            .map(|i| op(i, 100 + i, DequeOp::PushRight(i), DequeRet::Okay))
            .collect();
        let err = check_windowed(SeqDeque::unbounded(), &ops, 4).unwrap_err();
        assert!(matches!(err, WindowError::Overflow { buffered: 5, max_window: 4 }));
    }

    #[test]
    fn advance_respects_safe_ts() {
        let mut w = WindowedChecker::new(SeqDeque::unbounded(), 8);
        w.feed([op(0, 1, DequeOp::PushRight(1), DequeRet::Okay)]);
        // An unread op may still carry invoke_ts >= 1: no cut usable.
        assert_eq!(w.advance(1).unwrap(), 0);
        assert_eq!(w.buffered(), 1);
        // Once the caller vouches for ts < 10, the window closes.
        assert_eq!(w.advance(10).unwrap(), 1);
        assert_eq!(w.buffered(), 0);
        let report = w.finish().unwrap();
        assert_eq!(report.ops_checked, 1);
    }

    #[test]
    fn windowed_agrees_with_monolithic_on_small_histories() {
        use crate::checker::check_linearizable;
        // The stolen-last-element shapes from the checker tests.
        let good = vec![
            op(0, 1, DequeOp::PushRight(7), DequeRet::Okay),
            op(2, 5, DequeOp::PopRight, DequeRet::Empty),
            op(3, 4, DequeOp::PopLeft, DequeRet::Value(7)),
        ];
        assert!(check_linearizable(SeqDeque::unbounded(), &good).is_ok());
        assert!(check_windowed(SeqDeque::unbounded(), &good, 64).is_ok());
        let bad = vec![
            op(0, 1, DequeOp::PushRight(7), DequeRet::Okay),
            op(2, 5, DequeOp::PopRight, DequeRet::Value(7)),
            op(3, 4, DequeOp::PopLeft, DequeRet::Value(7)),
        ];
        assert!(check_linearizable(SeqDeque::unbounded(), &bad).is_err());
        assert!(check_windowed(SeqDeque::unbounded(), &bad, 64).is_err());
    }
}
