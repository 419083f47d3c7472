//! Edge-case tests for [`TieredDeque`]: the seams between the private
//! tier, the staging buffer, and the shared linearizable level.
//!
//! The interesting states all live at tier boundaries — a tier exactly
//! at its spill threshold, a refill racing a thief, an empty tier
//! falling through to the shared level — and a property test checks the
//! whole single-owner surface against a sequential `VecDeque` oracle.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

use dcas_baselines::MutexDeque;
use dcas_deque::{ConcurrentDeque, ListDeque, MAX_BATCH};
use dcas_workstealing::{TieredDeque, RING_CAP};
use proptest::prelude::*;

type ClTiered = TieredDeque<u64, ListDeque<u64>>;

fn cl_tiered() -> ClTiered {
    TieredDeque::new(ListDeque::new())
}

// ---------------------------------------------------------------------
// Deterministic boundary cases
// ---------------------------------------------------------------------

#[test]
fn empty_tier_pop_falls_through_to_shared() {
    // Work sitting only in the shared level (as after a cross-worker
    // steal_half re-queue... or here, planted directly) must be
    // reachable through `pop` via the refill path.
    let d = cl_tiered();
    for v in 0..10u64 {
        d.shared().push_right(v).unwrap();
    }
    // Refill pulls a chunk from the shared right end; pop order within
    // what was a right-end run is newest-first (LIFO), and conservation
    // is exact.
    let mut got = Vec::new();
    while let Some(v) = d.pop() {
        got.push(v);
    }
    got.sort_unstable();
    assert_eq!(got, (0..10).collect::<Vec<_>>());
}

#[test]
fn capacity_boundary_spill_preserves_oldest_first() {
    // Pushing one past RING_CAP onto an empty shared level must spill
    // exactly one MAX_BATCH chunk of the *oldest* values to it, leaving
    // the newest in the private tier.
    let d = cl_tiered();
    for v in 0..(RING_CAP as u64 + 1) {
        d.push(v).unwrap();
    }
    // The shared level now holds the oldest chunk, oldest at the left.
    let spilled = d.shared().pop_left_n(MAX_BATCH);
    assert_eq!(spilled, (0..MAX_BATCH as u64).collect::<Vec<_>>());
    assert!(d.shared().pop_left().is_none(), "exactly one chunk spills");
    // Owner still pops the rest LIFO.
    assert_eq!(d.pop(), Some(RING_CAP as u64));
}

#[test]
fn chaselev_tier_steal_without_spill() {
    // The whole point of the Chase-Lev tier: work is stealable *before*
    // any spill. Oldest value first, provenance counted as private.
    let d = cl_tiered();
    for v in 0..4u64 {
        d.push(v).unwrap();
    }
    assert_eq!(d.steal(), Some(0));
    assert_eq!(d.steal(), Some(1));
    let (private, shared) = d.tier_steals();
    assert_eq!((private, shared), (2, 0));
    assert_eq!(d.pop(), Some(3), "owner end untouched by steals");
}

#[test]
fn steal_half_prefers_shared_then_private() {
    let d = cl_tiered();
    let n = (RING_CAP + MAX_BATCH) as u64;
    for v in 0..n {
        d.push(v).unwrap();
    }
    // The first spill put the oldest chunk in the shared level; the rest
    // sits in the private tier. Steals drain the shared level first, then
    // the tier, oldest-first on both. Each call's bound holds on either
    // level, and nothing taken is dropped: every steal continues where
    // the last one stopped.
    let mut got = Vec::new();
    for max in [MAX_BATCH, 1, 2].into_iter().cycle() {
        let batch = d.steal_half(max);
        assert!(batch.len() <= max, "steal_half({max}) returned {}", batch.len());
        if batch.is_empty() {
            break;
        }
        got.extend(batch);
    }
    assert_eq!(got, (0..n).collect::<Vec<_>>(), "every value stolen once, oldest first");
    let (private, shared) = d.tier_steals();
    assert_eq!(shared, MAX_BATCH as u64, "exactly the spilled chunk comes from the shared level");
    assert_eq!(private, n - MAX_BATCH as u64);
}

#[test]
fn steal_races_inflight_refill_conserves_values() {
    // One owner cycles values through push/pop (triggering spills and
    // refills at the tier boundary) while a thief steals continuously.
    // Every value must come out exactly once, across both exits.
    for trial in 0..20u64 {
        let d = cl_tiered();
        let n = 4 * RING_CAP as u64;
        let stop = AtomicBool::new(false);
        let start = Barrier::new(2);
        let (owner_got, thief_got) = std::thread::scope(|s| {
            let owner = s.spawn(|| {
                let mut got = Vec::new();
                start.wait();
                for v in 0..n {
                    d.push(v + trial * n).unwrap();
                    // Pop roughly half back, creating refill traffic.
                    if v % 2 == 0 {
                        if let Some(x) = d.pop() {
                            got.push(x);
                        }
                    }
                }
                // Drain what's left from the owner end.
                while let Some(x) = d.pop() {
                    got.push(x);
                }
                stop.store(true, Ordering::Release);
                got
            });
            let thief = s.spawn(|| {
                let mut got = Vec::new();
                start.wait();
                while !stop.load(Ordering::Acquire) {
                    got.extend(d.steal_half(MAX_BATCH));
                }
                got
            });
            (owner.join().unwrap(), thief.join().unwrap())
        });
        // Post-join sweep: values can be parked in the shared level or
        // the tier after the owner's last pop returned None (a thief
        // may have re-ordered the race).
        let mut rest = d.flush_local();
        loop {
            let batch = d.steal_half(MAX_BATCH);
            if batch.is_empty() {
                break;
            }
            rest.extend(batch);
        }
        let mut all: Vec<u64> = owner_got;
        all.extend(thief_got);
        all.extend(rest);
        all.sort_unstable();
        let expect: Vec<u64> = (trial * n..(trial + 1) * n).collect();
        assert_eq!(all, expect, "trial {trial}: conservation violated");
    }
}

// ---------------------------------------------------------------------
// Property test: single-owner surface vs a sequential oracle
// ---------------------------------------------------------------------

/// With no thieves, a `TieredDeque` is observationally a plain LIFO
/// stack for the owner, whatever the internal spill/refill traffic.
/// The oracle is a sequential `VecDeque` used stack-wise.
#[derive(Debug, Clone)]
enum Op {
    Push(u64),
    Pop,
    /// Drain the deque through `flush_local` + shared pops and compare
    /// the *set* of survivors, then stop (terminal op).
    FlushCompare,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Unweighted union: repeat arms to bias (4 push : 2 pop : 1 flush).
    prop_oneof![
        any::<u64>().prop_map(Op::Push),
        any::<u64>().prop_map(Op::Push),
        any::<u64>().prop_map(Op::Push),
        any::<u64>().prop_map(Op::Push),
        Just(Op::Pop),
        Just(Op::Pop),
        Just(Op::FlushCompare),
    ]
}

fn run_against_oracle(d: &TieredDeque<u64, MutexDeque<u64>>, ops: &[Op]) {
    let mut oracle: Vec<u64> = Vec::new();
    for op in ops {
        match op {
            Op::Push(v) => {
                d.push(*v).unwrap();
                oracle.push(*v);
            }
            Op::Pop => {
                // Single-owner, no thieves: pop must agree with LIFO.
                assert_eq!(d.pop(), oracle.pop());
            }
            Op::FlushCompare => {
                let mut rest = d.flush_local();
                rest.extend(std::iter::from_fn(|| d.shared().pop_left()));
                rest.sort_unstable();
                oracle.sort_unstable();
                assert_eq!(rest, oracle, "drain mismatch");
                return;
            }
        }
    }
    // Final conservation check even without an explicit flush op.
    let mut rest = d.flush_local();
    rest.extend(std::iter::from_fn(|| d.shared().pop_left()));
    rest.sort_unstable();
    oracle.sort_unstable();
    assert_eq!(rest, oracle, "final drain mismatch");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn chaselev_tier_matches_sequential_oracle(
        ops in proptest::collection::vec(op_strategy(), 1..400)
    ) {
        let d = TieredDeque::new(MutexDeque::new());
        run_against_oracle(&d, &ops);
    }
}
