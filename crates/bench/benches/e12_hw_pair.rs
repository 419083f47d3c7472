//! E12 — padding ablation and the two-level owner-biased scheduler
//! deque.
//!
//! Two phases (a third, pair-dcas, priced a hardware 128-bit pair CAS
//! against the descriptor protocol; it was retired with that hardware
//! route, and its rows in `BENCH_e12.json` are historical):
//!
//! 1. **padding** — each of 4 threads hammering its *own* `AtomicU64`,
//!    with the counters packed into one cache line vs `CachePadded`
//!    apart. On a multi-core host this isolates false sharing; in this
//!    single-CPU container threads never run concurrently, so the arm
//!    mostly bounds the padding's instruction-path cost (see the
//!    EXPERIMENTS.md §E12 caveat).
//! 2. **fork-join** — the E6/E11 spawn tree on the work-stealing
//!    scheduler, adding the two-level `tiered-chaselev` deque next to
//!    the flat adapters and the ABP baseline. It keeps the owner's
//!    push/pop on a private Chase–Lev tier and spills/refills the
//!    paper's list deque in chunk-atomic batches of 8, so the amortised
//!    DCAS cost per task collapses; the acceptance bar is ≥ 10× the flat
//!    E11 list-dcas row. (The spill-only ring arms `tiered-list-dcas` /
//!    `tiered-array-dcas` in `BENCH_e12.json` are historical.)
//!
//! Runs as a plain binary (`harness = false`), prints a table, and —
//! unless `E12_SMOKE` is set (the CI smoke mode, which shrinks every
//! phase and skips the file write) — records the measurements in
//! `BENCH_e12.json` at the workspace root.
//!
//! In both modes the binary enforces a generous perf guardrail: the
//! tiered fork-join arm must stay above a small fraction of the ABP
//! baseline (catching "the fast path silently stopped engaging"
//! regressions, not chasing exact ratios), exiting nonzero with a
//! replay command otherwise — that is what CI's `perf-smoke` job runs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use crossbeam_utils::CachePadded;
use dcas_workstealing::{
    AbpWorkDeque, ArrayWorkDeque, DynDeque, ListWorkDeque, Scheduler, TieredChaseLevWorkDeque,
    WorkDeque, WorkerHandle,
};

/// Flat list-dcas fork-join throughput recorded in BENCH_e11.json — the
/// baseline the tiered arm must beat by 10×.
const E11_LIST_EPS: f64 = 134_562.0;

/// Guardrail floor: the tiered arm as a fraction of abp-cas. E11's
/// *flat* arms sat at 0.033×; anything below that means the two-level
/// structure stopped working entirely.
const GUARDRAIL_FLOOR: f64 = 0.02;

struct Measurement {
    phase: &'static str,
    arm: String,
    threads: usize,
    elems: u64,
    nanos: u128,
    speedup: f64,
}

impl Measurement {
    fn elems_per_sec(&self) -> f64 {
        self.elems as f64 / (self.nanos as f64 / 1e9)
    }
}

fn median(mut runs: Vec<Duration>) -> Duration {
    runs.sort();
    runs[runs.len() / 2]
}

/// Phase 1 driver: `threads` threads, each incrementing its own counter
/// `incs` times; the two arms differ only in whether neighbouring
/// counters share a cache line.
fn counter_storm(padded: bool, threads: usize, incs: u64) -> Duration {
    let packed: Vec<AtomicU64> = (0..threads).map(|_| AtomicU64::new(0)).collect();
    let spaced: Vec<CachePadded<AtomicU64>> =
        (0..threads).map(|_| CachePadded::new(AtomicU64::new(0))).collect();
    let barrier = Barrier::new(threads + 1);
    std::thread::scope(|s| {
        for t in 0..threads {
            let (barrier, packed, spaced) = (&barrier, &packed, &spaced);
            s.spawn(move || {
                let counter: &AtomicU64 = if padded { &spaced[t] } else { &packed[t] };
                barrier.wait();
                for _ in 0..incs {
                    counter.fetch_add(1, Ordering::Relaxed);
                }
                barrier.wait();
            });
        }
        barrier.wait();
        let start = Instant::now();
        barrier.wait();
        start.elapsed()
    })
}

fn spawn_tree(w: &WorkerHandle<'_, DynDeque>, depth: u32, leaves: Arc<AtomicU64>) {
    if depth == 0 {
        leaves.fetch_add(1, Ordering::Relaxed);
        return;
    }
    let l = leaves.clone();
    w.spawn(move |w| spawn_tree(w, depth - 1, l));
    let r = leaves.clone();
    w.spawn(move |w| spawn_tree(w, depth - 1, r));
}

/// Phase 2 driver: fork-join spawn tree (identical to E11's so the rows
/// are directly comparable).
fn fork_join<D: WorkDeque>(workers: usize, depth: u32) -> Duration {
    let leaves = Arc::new(AtomicU64::new(0));
    let sched: Scheduler<D> = Scheduler::with_capacity(workers, 1 << 14);
    let l = leaves.clone();
    let start = Instant::now();
    sched.run(move |w| spawn_tree(w, depth, l));
    let elapsed = start.elapsed();
    assert_eq!(leaves.load(Ordering::SeqCst), 1u64 << depth);
    elapsed
}

fn main() {
    let smoke = std::env::var_os("E12_SMOKE").is_some();
    let repeats: usize = if smoke { 1 } else { 7 };
    let pad_incs: u64 = if smoke { 50_000 } else { 1_000_000 };
    let pad_threads = 4usize;
    let fj_depth: u32 = if smoke { 7 } else { 11 };
    // At least the E12 reference width of 4 so historical rows stay
    // comparable; wider hosts get their real parallelism.
    let fj_workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4).max(4);

    let mut results: Vec<Measurement> = Vec::new();

    // ---- Phase 1: per-thread counters, packed vs padded ----------------
    // Repeats are interleaved across arms (as in E11) so machine-wide
    // drift lands on every arm equally and cancels in the medians.
    {
        let mut runs: [Vec<Duration>; 2] = [Vec::new(), Vec::new()];
        for _ in 0..repeats {
            runs[0].push(counter_storm(false, pad_threads, pad_incs));
            runs[1].push(counter_storm(true, pad_threads, pad_incs));
        }
        let base = median(runs[0].clone()).as_nanos();
        for (arm, i) in [("packed", 0usize), ("padded", 1)] {
            let nanos = median(runs[i].clone()).as_nanos();
            results.push(Measurement {
                phase: "padding",
                arm: arm.to_owned(),
                threads: pad_threads,
                elems: pad_incs * pad_threads as u64,
                nanos,
                speedup: base as f64 / nanos as f64,
            });
        }
    }

    // ---- Phase 2: fork-join, flat vs tiered deques ---------------------
    {
        let leaves = 1u64 << fj_depth;
        let mut runs: [Vec<Duration>; 4] = Default::default();
        for _ in 0..repeats {
            runs[0].push(fork_join::<AbpWorkDeque>(fj_workers, fj_depth));
            runs[1].push(fork_join::<ListWorkDeque>(fj_workers, fj_depth));
            runs[2].push(fork_join::<ArrayWorkDeque>(fj_workers, fj_depth));
            runs[3].push(fork_join::<TieredChaseLevWorkDeque>(fj_workers, fj_depth));
        }
        let base = median(runs[0].clone()).as_nanos();
        let arms = ["abp-cas", "list-dcas", "array-dcas", "tiered-chaselev"];
        for (arm, r) in arms.iter().zip(runs.iter()) {
            let nanos = median(r.clone()).as_nanos();
            results.push(Measurement {
                phase: "fork-join",
                arm: (*arm).to_owned(),
                threads: fj_workers,
                elems: leaves,
                nanos,
                speedup: base as f64 / nanos as f64,
            });
        }
    }

    println!();
    println!(
        "{:<12} {:<18} {:>8} {:>14} {:>12}",
        "phase", "arm", "threads", "elems/sec", "vs base"
    );
    for m in &results {
        println!(
            "{:<12} {:<18} {:>8} {:>14.0} {:>11.2}x",
            m.phase,
            m.arm,
            m.threads,
            m.elems_per_sec(),
            m.speedup,
        );
    }

    let tiered = results.iter().find(|m| m.arm == "tiered-chaselev").unwrap().elems_per_sec();

    // Full-mode progress report against the E11 flat baseline (the
    // smoke workload is too small for the numbers to mean anything).
    if !smoke {
        println!(
            "tiered-chaselev: {tiered:.0} elems/s = {:.1}x the flat E11 list-dcas row \
             ({E11_LIST_EPS:.0})",
            tiered / E11_LIST_EPS
        );
    }

    // Perf guardrail (both modes): the tiered arm must hold a generous
    // floor relative to abp-cas. This is the check CI's perf-smoke job
    // relies on.
    let abp = results
        .iter()
        .find(|m| m.phase == "fork-join" && m.arm == "abp-cas")
        .unwrap()
        .elems_per_sec();
    let ratio = tiered / abp;
    let guardrail_ok = ratio >= GUARDRAIL_FLOOR;
    if !guardrail_ok {
        eprintln!(
            "PERF GUARDRAIL FAILED: fork-join/tiered-chaselev at {ratio:.4}x of abp-cas \
             (floor {GUARDRAIL_FLOOR}); replay with:\n  \
             E12_SMOKE=1 cargo bench -p dcas-bench --bench e12_hw_pair"
        );
    }

    if smoke {
        println!("\nE12_SMOKE set: skipping BENCH_e12.json");
        if !guardrail_ok {
            std::process::exit(1);
        }
        return;
    }

    // Hand-rolled JSON (the workspace deliberately has no serde).
    let rows: Vec<String> = results
        .iter()
        .map(|m| {
            format!(
                "    {{\"phase\": \"{}\", \"arm\": \"{}\", \"threads\": {}, \"elems\": {}, \"nanos\": {}, \"elems_per_sec\": {:.0}, \"speedup_vs_baseline\": {:.3}}}",
                m.phase,
                m.arm,
                m.threads,
                m.elems,
                m.nanos,
                m.elems_per_sec(),
                m.speedup,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"experiment\": \"e12_hw_pair\",\n  {},\n  \"oversubscribed\": {},\n  \"repeats\": {repeats},\n  \"measurements\": [\n{}\n  ]\n}}\n",
        dcas_bench::host_info_json(),
        dcas_bench::print_oversubscription_caveat(pad_threads.max(fj_workers)),
        rows.join(",\n")
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_e12.json");
    std::fs::write(out, json).expect("write BENCH_e12.json");
    println!("\nwrote {out}");
    if !guardrail_ok {
        std::process::exit(1);
    }
}
