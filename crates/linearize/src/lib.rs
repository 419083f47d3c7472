//! Linearizability machinery for the DCAS deques reproduction.
//!
//! The paper's correctness condition (Section 2) is **linearizability**
//! against the sequential deque specification of Section 2.2. The paper
//! discharges it with a mechanical theorem prover; this crate provides the
//! complementary *testing* oracle:
//!
//! * [`spec`] — the sequential bounded/unbounded deque state machine,
//!   exactly as specified in Section 2.2 (and consistent with the deque
//!   axioms of the paper's Figure 35, which are property-tested against
//!   it).
//! * [`history`] — low-overhead recording of concurrent invocation /
//!   response histories, with conservatively-ordered timestamps.
//! * [`checker`] — a Wing & Gong linearizability checker with Lowe-style
//!   memoization: decides whether a recorded history has *some*
//!   linearization consistent with its real-time order.
//! * [`dump`] — a plain-text dump of one checker window, so a window
//!   that stalls the search can be saved and replayed as a fixture.
//! * [`window`] — windowed checking for histories longer than the
//!   monolithic checker's 64-op cap: splits at quiescent cuts and carries
//!   the full set of reachable abstract states between windows, enabling
//!   bounded *online* auditing of live runs.
//! * [`driver`] — a stress driver that runs randomized mixed workloads
//!   over any [`ConcurrentDeque`](dcas_deque::ConcurrentDeque), records
//!   the history, and checks it.

#![warn(missing_docs)]

pub mod checker;
pub mod driver;
pub mod dump;
pub mod history;
pub mod spec;
pub mod window;

pub use checker::{
    check_linearizable, linearization_final_states, linearization_final_states_observed,
    SearchCounts, SearchProgress,
};
pub use driver::{
    stress_and_check, stress_owner_steal, OwnerStealDeque, StressConfig, StressReport,
};
pub use history::{Completed, Event, EventKind, History, Recorder};
pub use spec::{Batch, DequeOp, DequeRet, SeqDeque};
pub use dump::{format_window, parse_window};
pub use window::{check_windowed, WindowProgress, WindowReport, WindowedChecker, WindowError};
