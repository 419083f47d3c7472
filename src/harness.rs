//! Shared stress-test harness: a progress **watchdog** with diagnostic
//! dumps, and deterministic, replayable **torture seeds**.
//!
//! Non-blocking progress claims are only as good as the harness that
//! checks them: a stress test that simply hangs on a livelock tells you
//! nothing (and stalls CI for the full test-runner timeout with no
//! diagnostics). Every long-running test in `tests/` arms a [`Watchdog`]
//! with a deadline; if the test fails to disarm it in time, the watchdog
//! prints every registered diagnostic (last fault-injection point hit,
//! strategy counters, values moved so far, …) plus a one-line
//! `TORTURE_SEED=… cargo test …` replay command, then aborts the whole
//! process so the hang is loud and attributable.
//!
//! Seeds come from [`torture_seed`] (or [`trace_seed`] for the
//! record-and-verify suite): honoring a `TORTURE_SEED` / `TRACE_SEED`
//! environment variable when set (exact replay), otherwise derived from
//! the clock — and always echoed to stderr so *any* failure, watchdog or
//! assertion, can be replayed deterministically.

use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A deferred diagnostic: evaluated only if the watchdog fires.
pub type Diagnostic = Box<dyn Fn() -> String + Send>;

/// Aborts the process with a diagnostic dump if the owning test does not
/// finish (drop the watchdog) before the deadline.
///
/// The monitor runs on its own detached thread, so it fires even when
/// every test thread is wedged — including threads deliberately frozen
/// by the fault-injection substrate.
///
/// ```no_run
/// use dcas_deques::harness::Watchdog;
/// use std::time::Duration;
///
/// let seed = dcas_deques::harness::torture_seed("my_test");
/// let dog = Watchdog::arm("my_test", seed, Duration::from_secs(60));
/// dog.diagnostic("phase", || "draining".to_string());
/// // ... run the stress workload ...
/// drop(dog); // disarms
/// ```
pub struct Watchdog {
    inner: Arc<Inner>,
}

struct Inner {
    name: String,
    seed_var: &'static str,
    seed: u64,
    deadline: Duration,
    finished: AtomicBool,
    diagnostics: Mutex<Vec<(String, Diagnostic)>>,
}

impl Watchdog {
    /// Arms a watchdog named after the owning test. `seed` is echoed in
    /// the abort banner so the failure replays with `TORTURE_SEED=seed`.
    pub fn arm(name: &str, seed: u64, deadline: Duration) -> Watchdog {
        Self::arm_with_seed_var(name, "TORTURE_SEED", seed, deadline)
    }

    /// Like [`Watchdog::arm`], but the abort banner's replay line names
    /// `seed_var` instead of `TORTURE_SEED` — so tests seeded via
    /// [`trace_seed`] print a `TRACE_SEED=… cargo test …` recipe that
    /// matches the variable they actually read.
    pub fn arm_with_seed_var(
        name: &str,
        seed_var: &'static str,
        seed: u64,
        deadline: Duration,
    ) -> Watchdog {
        let inner = Arc::new(Inner {
            name: name.to_string(),
            seed_var,
            seed,
            deadline,
            finished: AtomicBool::new(false),
            diagnostics: Mutex::new(Vec::new()),
        });
        let monitor = Arc::clone(&inner);
        std::thread::spawn(move || {
            let end = Instant::now() + monitor.deadline;
            while Instant::now() < end {
                if monitor.finished.load(Ordering::Acquire) {
                    return;
                }
                std::thread::sleep(Duration::from_millis(50));
            }
            if monitor.finished.load(Ordering::Acquire) {
                return;
            }
            monitor.dump_and_abort();
        });
        Watchdog { inner }
    }

    /// Registers a diagnostic closure, printed (label first) if the
    /// watchdog fires. Closures must not block: they run while the rest
    /// of the process is presumed wedged.
    pub fn diagnostic<F>(&self, label: &str, f: F)
    where
        F: Fn() -> String + Send + 'static,
    {
        self.inner
            .diagnostics
            .lock()
            .unwrap()
            .push((label.to_string(), Box::new(f)));
    }

    /// Registers a diagnostic that dumps the last `k` recorded events of
    /// every thread in `rec` — so a stalled recorded run shows *which
    /// operations* each thread last completed (and any still in flight)
    /// alongside the usual counters.
    ///
    /// Holds only a [`std::sync::Weak`]: the watchdog does not keep the
    /// recorder (and its rings) alive past the test.
    #[cfg(feature = "obs")]
    pub fn attach_recorder(&self, rec: &Arc<dcas_obs::OpRecorder>, k: usize) {
        let weak = Arc::downgrade(rec);
        self.diagnostic("recorder tail", move || match weak.upgrade() {
            Some(rec) => {
                let dump = rec.dump_tails(k);
                // Indent under the diagnostic label so the banner stays
                // scannable.
                let mut out = String::new();
                for line in dump.lines() {
                    out.push_str("\n    ");
                    out.push_str(line);
                }
                out
            }
            None => "(recorder dropped)".to_string(),
        });
    }

    /// Explicitly disarms the watchdog (equivalent to dropping it).
    pub fn disarm(self) {}
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.inner.finished.store(true, Ordering::Release);
    }
}

impl Inner {
    /// Writes the banner straight to the process's stderr: the monitor
    /// thread inherits the test harness's output capture, so `eprintln!`
    /// would buffer the banner in memory and the abort would discard it.
    fn dump_and_abort(&self) -> ! {
        let mut banner = format!(
            "\n==== WATCHDOG `{}`: no completion within {:?} — progress appears stalled ====\n",
            self.name, self.deadline
        );
        match self.diagnostics.lock() {
            Ok(diags) => {
                for (label, f) in diags.iter() {
                    banner.push_str(&format!("  {label}: {}\n", f()));
                }
            }
            Err(_) => banner.push_str("  (diagnostics poisoned)\n"),
        }
        banner.push_str(&format!(
            "  replay: {}={} cargo test {}\n==== aborting process ====\n",
            self.seed_var, self.seed, self.name
        ));
        let _ = std::io::stderr().write_all(banner.as_bytes());
        std::process::abort();
    }
}

/// Resolves this run's torture seed: `TORTURE_SEED` from the environment
/// when set (deterministic replay), otherwise clock-derived. Always
/// prints the replay command to stderr, so any later failure — watchdog
/// abort or plain assertion — carries its reproduction recipe.
pub fn torture_seed(test: &str) -> u64 {
    seed_from_env("TORTURE_SEED", test)
}

/// Seed for the record-and-verify suite (`tests/recorded_*.rs`): same
/// contract as [`torture_seed`] but reads/echoes `TRACE_SEED`, so replay
/// recipes for trace-audit failures are distinguishable from torture
/// ones.
pub fn trace_seed(test: &str) -> u64 {
    seed_from_env("TRACE_SEED", test)
}

/// Resolves a replayable seed from the named environment variable, or
/// derives one from the clock, and echoes the replay command to stderr.
pub fn seed_from_env(var: &str, test: &str) -> u64 {
    let seed = match std::env::var(var) {
        Ok(s) => s
            .trim()
            .parse::<u64>()
            .unwrap_or_else(|e| panic!("{var}={s:?} is not a u64: {e}")),
        Err(_) => {
            let now = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap_or_default();
            // SplitMix64 finalizer over the nanosecond clock: adjacent
            // runs get well-scattered seeds.
            let mut z = (now.as_nanos() as u64).wrapping_add(0x9E3779B97F4A7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        }
    };
    eprintln!("{test}: {var}={seed} cargo test {test}   # replay");
    seed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watchdog_disarms_on_drop() {
        let dog = Watchdog::arm("watchdog_disarms_on_drop", 1, Duration::from_millis(100));
        dog.diagnostic("state", || "fine".into());
        drop(dog);
        // Give the monitor time to observe `finished` and exit; if the
        // disarm were broken the process would abort here.
        std::thread::sleep(Duration::from_millis(250));
    }

    #[test]
    fn seed_env_roundtrip() {
        // Avoid mutating the process environment (other tests run
        // concurrently); just check the parse path via the public
        // contract: no env var set -> nonzero clock-derived seed.
        let a = torture_seed("seed_env_roundtrip");
        assert!(std::env::var("TORTURE_SEED").is_ok() || a != 0);
    }

    #[test]
    fn trace_seed_reads_its_own_var() {
        let a = trace_seed("trace_seed_reads_its_own_var");
        assert!(std::env::var("TRACE_SEED").is_ok() || a != 0);
    }

    #[cfg(feature = "obs")]
    #[test]
    fn attach_recorder_dumps_tail_without_keeping_recorder_alive() {
        use dcas_obs::{OpKind, Outcome};
        let rec = Arc::new(dcas_obs::OpRecorder::new(1, 8));
        rec.begin(OpKind::PushRight, 1, &[7]);
        rec.finish(Outcome::Okay, &[]);
        let dog = Watchdog::arm_with_seed_var(
            "attach_recorder_dumps_tail",
            "TRACE_SEED",
            1,
            Duration::from_secs(60),
        );
        dog.attach_recorder(&rec, 4);
        // The diagnostic must not extend the recorder's lifetime.
        assert_eq!(Arc::strong_count(&rec), 1);
        // Evaluate the registered closure directly (the watchdog only
        // runs it on abort): it renders the tail while alive, and
        // degrades gracefully once the recorder is gone.
        let diags = dog.inner.diagnostics.lock().unwrap();
        let (label, f) = &diags[0];
        assert_eq!(label, "recorder tail");
        assert!(f().contains("thread 0"));
        drop(rec);
        assert_eq!(f(), "(recorder dropped)");
    }
}
