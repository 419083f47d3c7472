//! E13 — N-core scaling curves for the fork-join executor and the
//! Chase-Lev private tier (the PR-6 throughput levers).
//!
//! A matrix of **thread counts × deque arms × workloads**:
//!
//! * Thread counts: 1, 2, 4, 8 (plus `available_parallelism` when it
//!   exceeds 8). On a single-CPU container every count above 1 is
//!   oversubscribed — the curves then measure contention overhead, not
//!   parallel speedup; see the EXPERIMENTS.md §E13 caveat.
//! * Arms: the flat paper deque (`list-dcas`), the two-level deque with
//!   the stealable Chase-Lev tier (`tiered-chaselev`), and the CAS-only
//!   ABP baseline (`abp-cas`). The spill-only ring arm
//!   (`tiered-list-dcas`) in `BENCH_e13.json` is historical.
//! * Workloads: a **flat** task list (one root spawning N trivial
//!   tasks — pure deque throughput, the steal path under maximum
//!   contention), recursive **fib** via `WorkerHandle::join` (deep
//!   dependency chains, the joiner helping while blocked), and parallel
//!   **quicksort** via `join` on borrowed sub-slices (irregular task
//!   sizes).
//!
//! One **sustained** run closes the bench: a million-task flat list on
//! `tiered-chaselev` and `abp-cas`, long enough for spill/refill and
//! buffer-growth steady state to dominate over startup effects.
//!
//! Runs as a plain binary (`harness = false`), prints a table with
//! per-arm elems/s and speedup-vs-abp columns, and — unless `E13_SMOKE`
//! is set (CI smoke mode: two thread counts, small workloads, no file
//! write) — records everything in `BENCH_e13.json` at the workspace
//! root.
//!
//! Both modes enforce a perf guardrail, exiting nonzero with a replay
//! command on failure. Full mode holds the acceptance bar: the
//! flat-workload `tiered-chaselev` row must stay at or above `abp-cas`
//! at every measured thread count. Smoke mode only checks a generous
//! floor (the structure still engages at all).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dcas_workstealing::{
    AbpWorkDeque, DynDeque, ListWorkDeque, Scheduler, TieredChaseLevWorkDeque, WorkDeque,
    WorkerHandle,
};

/// Guardrail floor for smoke mode: tiered-chaselev as a fraction of
/// abp-cas on the flat workload. Deliberately generous — it catches
/// "the tier stopped engaging", not ratio drift.
const SMOKE_FLOOR: f64 = 0.02;

/// Sequential cutoff for the recursive workloads.
const FIB_CUTOFF: u64 = 10;
const SORT_CUTOFF: usize = 64;

struct Measurement {
    workload: &'static str,
    arm: &'static str,
    threads: usize,
    elems: u64,
    nanos: u128,
    /// elems/s relative to the abp-cas row of the same (workload,
    /// threads) cell; 1.0 for abp-cas itself.
    speedup_vs_abp: f64,
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

// ---- Workload drivers -------------------------------------------------

/// Flat: one root task spawns `n` trivial tasks. Thieves hit the owner's
/// deque continuously — this is the pure deque-throughput row.
fn flat_tasklist<D: WorkDeque>(workers: usize, n: u64) -> Duration {
    let done = Arc::new(AtomicU64::new(0));
    let sched: Scheduler<D> = Scheduler::new(workers);
    let d = done.clone();
    let start = Instant::now();
    sched.run(move |w| {
        for _ in 0..n {
            let d = d.clone();
            w.spawn(move |_| {
                d.fetch_add(1, Ordering::Relaxed);
            });
        }
    });
    let elapsed = start.elapsed();
    assert_eq!(done.load(Ordering::SeqCst), n);
    elapsed
}

fn fib_seq(n: u64) -> u64 {
    if n < 2 {
        n
    } else {
        fib_seq(n - 1) + fib_seq(n - 2)
    }
}

fn fib(w: &WorkerHandle<'_, DynDeque>, n: u64) -> u64 {
    if n < FIB_CUTOFF {
        return fib_seq(n);
    }
    let (a, b) = w.join(|w| fib(w, n - 1), |w| fib(w, n - 2));
    a + b
}

/// Join-forked task count for `fib(n)`: each join above the cutoff
/// forks exactly one task (the b side), plus the root.
fn fib_tasks(n: u64) -> u64 {
    if n < FIB_CUTOFF {
        0
    } else {
        1 + fib_tasks(n - 1) + fib_tasks(n - 2)
    }
}

fn fib_forkjoin<D: WorkDeque>(workers: usize, n: u64) -> Duration {
    let out = Arc::new(AtomicU64::new(0));
    let sched: Scheduler<D> = Scheduler::new(workers);
    let o = out.clone();
    let start = Instant::now();
    sched.run(move |w| {
        o.store(fib(w, n), Ordering::SeqCst);
    });
    let elapsed = start.elapsed();
    assert_eq!(out.load(Ordering::SeqCst), fib_seq(n));
    elapsed
}

fn quicksort(w: &WorkerHandle<'_, DynDeque>, v: &mut [u64]) {
    if v.len() <= SORT_CUTOFF {
        v.sort_unstable();
        return;
    }
    let pivot = v[v.len() / 2];
    let mut i = 0;
    for j in 0..v.len() {
        if v[j] < pivot {
            v.swap(i, j);
            i += 1;
        }
    }
    if i == 0 {
        // Pivot is the minimum: park its copies up front so the
        // recursion shrinks.
        for j in 0..v.len() {
            if v[j] == pivot {
                v.swap(i, j);
                i += 1;
            }
        }
        quicksort(w, &mut v[i..]);
        return;
    }
    let (lo, hi) = v.split_at_mut(i);
    w.join(|w| quicksort(w, lo), |w| quicksort(w, hi));
}

fn quicksort_forkjoin<D: WorkDeque>(workers: usize, len: usize) -> Duration {
    let data: Vec<u64> =
        (0..len as u64).map(|i| i.wrapping_mul(0x9E3779B97F4A7C15) >> 16).collect();
    let shared = Arc::new(Mutex::new(data));
    let sched: Scheduler<D> = Scheduler::new(workers);
    let s2 = shared.clone();
    let start = Instant::now();
    sched.run(move |w| {
        let mut guard = s2.lock().unwrap();
        quicksort(w, &mut guard[..]);
    });
    let elapsed = start.elapsed();
    let sorted = shared.lock().unwrap();
    assert!(sorted.windows(2).all(|p| p[0] <= p[1]), "quicksort produced unsorted output");
    elapsed
}

// ---- Matrix driver ----------------------------------------------------

type Driver = fn(usize, u64) -> Duration;

fn arm_driver<D: WorkDeque>(workload: &str) -> Driver {
    match workload {
        "flat" => |w, n| flat_tasklist::<D>(w, n),
        "fib" => |w, n| fib_forkjoin::<D>(w, n),
        "quicksort" => |w, n| quicksort_forkjoin::<D>(w, n as usize),
        _ => unreachable!(),
    }
}

const ARMS: [&str; 3] = ["abp-cas", "list-dcas", "tiered-chaselev"];

fn drivers_for(workload: &str) -> [Driver; 3] {
    [
        arm_driver::<AbpWorkDeque>(workload),
        arm_driver::<ListWorkDeque>(workload),
        arm_driver::<TieredChaseLevWorkDeque>(workload),
    ]
}

fn main() {
    let smoke = std::env::var_os("E13_SMOKE").is_some();
    let repeats: usize = if smoke { 1 } else { 7 };

    let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut thread_counts: Vec<usize> = if smoke { vec![1, 4] } else { vec![1, 2, 4, 8] };
    if !smoke && hw > 8 {
        thread_counts.push(hw);
    }

    // (workload, parameter, elems-per-run)
    let flat_n: u64 = if smoke { 4_000 } else { 65_536 };
    let fib_n: u64 = if smoke { 16 } else { 24 };
    let sort_len: u64 = if smoke { 4_096 } else { 65_536 };
    let workloads: [(&'static str, u64, u64); 3] = [
        ("flat", flat_n, flat_n),
        ("fib", fib_n, fib_tasks(fib_n) + 1),
        ("quicksort", sort_len, sort_len),
    ];

    let mut results: Vec<Measurement> = Vec::new();

    for &(workload, param, elems) in &workloads {
        let drivers = drivers_for(workload);
        for &threads in &thread_counts {
            // Interleave repeats across arms (E10/E11/E12 convention) so
            // machine-wide drift lands on every arm and cancels in the
            // medians — but precede every timed run with an untimed run
            // of the *same* arm. The arms share one heap and the
            // list-deque arms churn ~n list nodes per run, so whichever
            // arm runs next inherits a fragmented allocator; the
            // adjacent warmup repopulates the arm's pools (and faults in
            // its arenas) so the timed run measures the deque, not the
            // neighbour's leftovers. Without it the Chase-Lev arm loses
            // ~80ns/task at n=65536 purely from run ordering.
            let mut runs: [Vec<Duration>; 3] = Default::default();
            for _ in 0..repeats {
                for (i, drive) in drivers.iter().enumerate() {
                    drive(threads, param);
                    runs[i].push(drive(threads, param));
                }
            }
            let abp_nanos = median(runs[0].clone()).as_nanos();
            for (i, arm) in ARMS.iter().enumerate() {
                let nanos = median(runs[i].clone()).as_nanos();
                results.push(Measurement {
                    workload,
                    arm,
                    threads,
                    elems,
                    nanos,
                    speedup_vs_abp: abp_nanos as f64 / nanos as f64,
                });
            }
        }
    }

    // ---- Sustained million-task run (full mode only) -------------------
    if !smoke {
        let n = 1_000_000u64;
        for (arm, run) in [
            ("tiered-chaselev", flat_tasklist::<TieredChaseLevWorkDeque> as Driver),
            ("abp-cas", flat_tasklist::<AbpWorkDeque> as Driver),
        ] {
            run(4, n / 10); // warmup (same allocator-hygiene rationale)
            let d = run(4, n);
            results.push(Measurement {
                workload: "sustained-1M",
                arm,
                threads: 4,
                elems: n,
                nanos: d.as_nanos(),
                speedup_vs_abp: 1.0, // filled below
            });
        }
        let abp = results
            .iter()
            .find(|m| m.workload == "sustained-1M" && m.arm == "abp-cas")
            .map(|m| m.nanos)
            .unwrap();
        for m in results.iter_mut().filter(|m| m.workload == "sustained-1M") {
            m.speedup_vs_abp = abp as f64 / m.nanos as f64;
        }
    }

    println!();
    println!(
        "{:<14} {:<18} {:>8} {:>14} {:>10}",
        "workload", "arm", "threads", "elems/sec", "vs abp"
    );
    for m in &results {
        println!(
            "{:<14} {:<18} {:>8} {:>14.0} {:>9.2}x",
            m.workload,
            m.arm,
            m.threads,
            m.elems_per_sec(),
            m.speedup_vs_abp,
        );
    }

    // ---- Guardrails ----------------------------------------------------
    let replay = "cargo bench -p dcas-bench --bench e13_scaling";
    let mut ok = true;
    if smoke {
        for &threads in &thread_counts {
            let cl = results
                .iter()
                .find(|m| m.workload == "flat" && m.arm == "tiered-chaselev" && m.threads == threads)
                .unwrap();
            if cl.speedup_vs_abp < SMOKE_FLOOR {
                ok = false;
                eprintln!(
                    "PERF GUARDRAIL FAILED: flat/tiered-chaselev x{threads} at \
                     {:.4}x of abp-cas (smoke floor {SMOKE_FLOOR}); replay with:\n  {replay}",
                    cl.speedup_vs_abp
                );
            }
        }
    } else {
        // Acceptance bar: flat tiered-chaselev >= abp-cas at every
        // measured thread count.
        for &threads in &thread_counts {
            let cl = results
                .iter()
                .find(|m| m.workload == "flat" && m.arm == "tiered-chaselev" && m.threads == threads)
                .unwrap();
            if cl.speedup_vs_abp < 1.0 {
                ok = false;
                eprintln!(
                    "PERF GUARDRAIL FAILED: flat/tiered-chaselev x{threads} at \
                     {:.3}x of abp-cas (bar: >= 1.0); replay with:\n  {replay}",
                    cl.speedup_vs_abp
                );
            }
        }
    }

    if smoke {
        println!("\nE13_SMOKE set: skipping BENCH_e13.json");
        if !ok {
            std::process::exit(1);
        }
        return;
    }

    // Hand-rolled JSON (the workspace deliberately has no serde).
    let rows: Vec<String> = results
        .iter()
        .map(|m| {
            format!(
                "    {{\"workload\": \"{}\", \"arm\": \"{}\", \"threads\": {}, \"elems\": {}, \"nanos\": {}, \"elems_per_sec\": {:.0}, \"speedup_vs_abp\": {:.3}}}",
                m.workload,
                m.arm,
                m.threads,
                m.elems,
                m.nanos,
                m.elems_per_sec(),
                m.speedup_vs_abp,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"experiment\": \"e13_scaling\",\n  {},\n  \"oversubscribed\": {},\n  \"repeats\": {repeats},\n  \"hw_threads\": {hw},\n  \"measurements\": [\n{}\n  ]\n}}\n",
        dcas_bench::host_info_json(),
        dcas_bench::print_oversubscription_caveat(thread_counts.iter().copied().max().unwrap_or(1)),
        rows.join(",\n")
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_e13.json");
    std::fs::write(out, json).expect("write BENCH_e13.json");
    println!("\nwrote {out}");
    if !ok {
        std::process::exit(1);
    }
}
