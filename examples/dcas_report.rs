//! Observability tour: record a real multi-threaded deque run, audit it
//! for linearizability, and export a metrics report.
//!
//! Run with `cargo run --release --example dcas_report`, or with
//! `--features obs-stats` to populate the DCAS-strategy and scheduler
//! counter sections with live numbers instead of zeros.
//!
//! The report covers, among other sections:
//!
//! 1. per-op-kind counters and latency histograms from a [`Recorded`]
//!    array deque driven by four threads,
//! 2. the post-hoc linearizability audit of that same trace,
//! 3. DCAS strategy counters ([`dcas::StrategyStats`]),
//! 4. work-stealing scheduler counters from small fork-join runs on the
//!    flat and the two-level Chase-Lev tiered deque,
//! 5. reclamation gauges: live/high-water garbage per backend (epoch vs
//!    hazard pointers), the hazard backend's static garbage bound, and
//!    the epoch shim's stalled-collection diagnostic. These are
//!    snapshot-time gauges, reported with or without `obs-stats`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dcas_deques::deque::{ArrayDeque, ConcurrentDeque};
use dcas_deques::linearize::SeqDeque;
use dcas_deques::obs::{audit, Json, MetricsRegistry, Recorded};
use dcas_deques::workstealing::{ArrayWorkDeque, Scheduler, TieredChaseLevWorkDeque};

const THREADS: usize = 4;
const OPS_PER_THREAD: usize = 5_000;
const CAPACITY: usize = 256;
/// Ops between barrier pulses. Windowed linearizability auditing can
/// only close a window at a *quiescent cut* — a real-time point with no
/// operation in flight. A run that saturates the deque from all threads
/// for its whole lifetime has no such points, so the checker would have
/// to buffer the entire trace (it reports `Overflow` instead). Pulsing
/// the workload guarantees a cut at every round boundary, bounding both
/// checker memory and violation-detection latency; this mirrors how the
/// online auditor is meant to be deployed on phased workloads.
const ROUND: usize = 8;

fn main() {
    let mut reg = MetricsRegistry::new();

    let deque = recorded_workload(&mut reg);
    audit_section(&deque, &mut reg);
    strategy_section(&deque, &mut reg);
    scheduler_section(&mut reg);
    overhead_section(&mut reg);
    reclaim_section(&mut reg);
    alloc_section(&mut reg);

    println!("{}", reg.pretty());
    println!("--- JSON export ---");
    println!("{}", reg.to_json());
}

/// Measures what the recording layer costs: single-threaded push/pop
/// pairs on a plain array deque vs. the same deque behind [`Recorded`]
/// (ring write + timestamp + latency histogram per op).
fn overhead_section(reg: &mut MetricsRegistry) {
    const PAIRS: u64 = 200_000;
    let ns_per_op = |f: &dyn Fn()| -> f64 {
        let start = std::time::Instant::now();
        f();
        start.elapsed().as_nanos() as f64 / (2 * PAIRS) as f64
    };

    let plain = ArrayDeque::<u64>::new(CAPACITY);
    let plain_ns = ns_per_op(&|| {
        for i in 0..PAIRS {
            let _ = plain.push_right(i);
            let _ = plain.pop_left();
        }
    });
    let recorded = Recorded::with_atomic_batches(ArrayDeque::<u64>::new(CAPACITY), 1, 1024);
    let recorded_ns = ns_per_op(&|| {
        for i in 0..PAIRS {
            let _ = recorded.push_right(i);
            let _ = recorded.pop_left();
        }
    });

    reg.section(
        "recording_overhead",
        Json::Obj(vec![
            ("plain_ns_per_op".into(), Json::F64(plain_ns)),
            ("recorded_ns_per_op".into(), Json::F64(recorded_ns)),
            (
                "overhead_ns_per_op".into(),
                Json::F64(recorded_ns - plain_ns),
            ),
        ]),
    );
}

/// Drives a recorded array deque with a seeded mixed workload (singles
/// and chunk-atomic batches from both ends) and registers its op
/// counters and latency histograms.
fn recorded_workload(reg: &mut MetricsRegistry) -> Recorded<ArrayDeque<u64>> {
    let deque = Recorded::with_atomic_batches(
        ArrayDeque::<u64>::new(CAPACITY),
        THREADS,
        2 * OPS_PER_THREAD,
    );

    // Unique values: thread t contributes t * 1e6 + i. (Uniqueness is
    // not required by the checker, but makes violations crisp.)
    let barrier = std::sync::Barrier::new(THREADS);
    std::thread::scope(|s| {
        for t in 0..THREADS as u64 {
            let deque = &deque;
            let barrier = &barrier;
            s.spawn(move || {
                let mut rng = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(t + 1);
                let mut next = t * 1_000_000;
                for i in 0..OPS_PER_THREAD {
                    if i % ROUND == 0 {
                        barrier.wait();
                    }
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    match rng % 6 {
                        0 => {
                            let _ = deque.push_right(next);
                            next += 1;
                        }
                        1 => {
                            let _ = deque.push_left(next);
                            next += 1;
                        }
                        2 => {
                            let _ = deque.pop_right();
                        }
                        3 => {
                            let _ = deque.pop_left();
                        }
                        4 => {
                            let n = 1 + (rng >> 32) % 6;
                            let vals: Vec<u64> = (next..next + n).collect();
                            next += n;
                            let _ = deque.push_right_n(vals);
                        }
                        _ => {
                            let _ = deque.pop_left_n(1 + (rng >> 32) as usize % 5);
                        }
                    }
                }
            });
        }
    });

    deque.metrics().register_into(reg);
    deque
}

/// Converts the captured trace into a linearize history and checks it.
fn audit_section(deque: &Recorded<ArrayDeque<u64>>, reg: &mut MetricsRegistry) {
    let report = audit(deque.recorder(), SeqDeque::bounded(CAPACITY), 32)
        .expect("recorded array-deque trace must linearize");
    reg.section(
        "linearizability_audit",
        Json::Obj(vec![
            (
                "ops_checked".into(),
                Json::U64(report.window.ops_checked as u64),
            ),
            ("windows".into(), Json::U64(report.window.windows as u64)),
            (
                "in_flight_excluded".into(),
                Json::U64(report.trace.in_flight_excluded as u64),
            ),
            ("verdict".into(), Json::Str("linearizable".into())),
        ]),
    );
}

/// DCAS strategy counters from the deque the recorded run used. All
/// zeros unless built with `--features obs-stats` (which turns on the
/// `dcas/stats` counters).
fn strategy_section(deque: &Recorded<ArrayDeque<u64>>, reg: &mut MetricsRegistry) {
    reg.strategy_stats("dcas_strategy", &deque.inner().strategy().stats());
}

/// Reclamation gauges per backend. A short list-deque churn on the
/// hazard-backed strategy gives the hazard gauges real traffic (the
/// epoch gauges already saw every other section's work); the hazard
/// backend's `strategy_stats` row also lands in the registry, where the
/// `live_descriptors` / `retired_pending` / `garbage_high_water` /
/// `stalled_collections` gauge fields report regardless of features.
fn reclaim_section(reg: &mut MetricsRegistry) {
    use dcas_deques::dcas::{EpochReclaimer, HazardReclaimer, Reclaimer};
    use dcas_deques::deque::ListDeque;

    let deque: ListDeque<u64, dcas_deques::dcas::HarrisMcasHazard> = ListDeque::new();
    for i in 0..2_000u64 {
        deque.push_right(i).unwrap();
        deque.pop_left();
    }
    reg.strategy_stats("dcas_strategy_hazard", &deque.strategy().stats());

    reg.section(
        "reclamation",
        Json::Obj(vec![
            (
                "epoch_live_garbage".into(),
                Json::U64(EpochReclaimer::live_garbage()),
            ),
            (
                "epoch_garbage_high_water".into(),
                Json::U64(EpochReclaimer::garbage_high_water()),
            ),
            (
                "epoch_stalled_collections".into(),
                Json::U64(EpochReclaimer::stalled_collections()),
            ),
            (
                "hazard_live_garbage".into(),
                Json::U64(HazardReclaimer::live_garbage()),
            ),
            (
                "hazard_garbage_high_water".into(),
                Json::U64(HazardReclaimer::garbage_high_water()),
            ),
            (
                "hazard_static_garbage_bound".into(),
                Json::U64(dcas_deques::dcas::reclaim::hazard::static_garbage_bound()),
            ),
            (
                "live_descriptors".into(),
                Json::U64(dcas_deques::dcas::live_descriptors()),
            ),
        ]),
    );
}

/// Node-allocator census: the aggregate page-pool gauges plus one row
/// per registered pool (every linked deque family the report touched).
/// Pages are immortal, so `pages_allocated` is simultaneously the
/// resident-memory figure and its high-water mark; `nodes_outstanding`
/// is the alloc/free balance the reclamation section's gauges feed.
fn alloc_section(reg: &mut MetricsRegistry) {
    use dcas_deques::dcas::alloc;

    let pools = alloc::census()
        .into_iter()
        .map(|(name, pages, outstanding, remote_frees)| {
            Json::Obj(vec![
                ("pool".into(), Json::Str(name.into())),
                ("pages".into(), Json::U64(pages)),
                ("resident_kib".into(), Json::U64(pages * 4)),
                ("nodes_outstanding".into(), Json::U64(outstanding)),
                ("remote_frees".into(), Json::U64(remote_frees)),
            ])
        })
        .collect();
    reg.section(
        "node_alloc",
        Json::Obj(vec![
            (
                "pages_allocated".into(),
                Json::U64(alloc::pages_allocated()),
            ),
            (
                "nodes_outstanding".into(),
                Json::U64(alloc::nodes_outstanding()),
            ),
            ("remote_frees".into(), Json::U64(alloc::remote_frees())),
            ("pools".into(), Json::Arr(pools)),
        ]),
    );
}

/// A recursive fork-join sum on the work-stealing scheduler — the
/// divide step leaves half the range stealable at every level, so the
/// steal counters see real traffic. Live numbers need
/// `--features obs-stats`, which enables `dcas-workstealing/stats`.
fn scheduler_section(reg: &mut MetricsRegistry) {
    fn sum_range(
        h: &dcas_deques::workstealing::WorkerHandle<'_, dcas_deques::workstealing::DynDeque>,
        lo: u64,
        hi: u64,
        total: Arc<AtomicU64>,
    ) {
        if hi - lo <= 64 {
            // Leaf work heavy enough (~microseconds) that the run
            // outlives worker wake-up, so steals actually occur.
            let mut acc = 0u64;
            for v in lo..hi {
                for i in 0..200 {
                    acc = std::hint::black_box(acc ^ v.rotate_left(i as u32 % 63));
                }
            }
            std::hint::black_box(acc);
            total.fetch_add((lo..hi).sum(), Ordering::Relaxed);
            return;
        }
        let mid = lo + (hi - lo) / 2;
        let right = Arc::clone(&total);
        h.spawn(move |h| sum_range(h, mid, hi, right));
        sum_range(h, lo, mid, total);
    }

    const N: u64 = 100_000;
    let total = Arc::new(AtomicU64::new(0));
    let scheduler = Scheduler::<ArrayWorkDeque>::new(THREADS);
    let t2 = Arc::clone(&total);
    let report = scheduler.run_report(move |h| sum_range(h, 0, N, t2));
    assert_eq!(total.load(Ordering::SeqCst), N * (N - 1) / 2);
    reg.sched_stats("scheduler", &report.stats);

    // The same run on the two-level tiered deque: thieves can take from
    // the owner's Chase-Lev tier directly, and the steal-provenance
    // split (`steals_private_tier` vs `steals_shared_tier`) shows most
    // steals landing there, because demand-driven spilling keeps the
    // shared level near-empty.
    let total = Arc::new(AtomicU64::new(0));
    let scheduler = Scheduler::<TieredChaseLevWorkDeque>::new(THREADS);
    let t2 = Arc::clone(&total);
    let report = scheduler.run_report(move |h| sum_range(h, 0, N, t2));
    assert_eq!(total.load(Ordering::SeqCst), N * (N - 1) / 2);
    reg.sched_stats("scheduler_chaselev", &report.stats);
}
