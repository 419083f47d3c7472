//! The work-deque abstraction and its implementations.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use dcas::HarrisMcas;
use dcas_baselines::{AbpDeque, MutexDeque, Steal};
use dcas_deque::value::{Boxed, WordValue};
use dcas_deque::{ArrayDeque, ConcurrentDeque, ListDeque, SundellDeque, MAX_BATCH};

use crate::chaselev::{ChaseLev, Steal as ClSteal};
use crate::scheduler::Task;

/// Result of a steal attempt.
pub enum StealOutcome {
    /// The victim's deque was observed empty.
    Empty,
    /// Lost a race; try another victim.
    Retry,
    /// A task was stolen.
    Stolen(Task),
}

/// A per-worker deque of tasks. `push`/`pop` are called only by the
/// owning worker; `steal`/`steal_half` by anyone.
pub trait WorkDeque: Send + Sync + 'static {
    /// Creates a deque able to hold at least `capacity` tasks (bounded
    /// implementations may refuse pushes beyond it).
    fn with_capacity(capacity: usize) -> Self;
    /// Owner: pushes a task; returns it back if the deque is full (the
    /// caller then runs it inline).
    fn push(&self, t: Task) -> Result<(), Task>;
    /// Owner: pops the most recently pushed task (LIFO, for locality).
    fn pop(&self) -> Option<Task>;
    /// Thief: takes the oldest task (FIFO, largest work first).
    fn steal(&self) -> StealOutcome;
    /// Implementation name for reporting.
    fn name() -> &'static str;

    /// Thief: takes up to roughly **half** of the victim's tasks, oldest
    /// first, amortising the steal's synchronisation over several tasks
    /// (the "steal-half" policy of Hendler & Shavit's non-blocking
    /// steal-half work queues).
    ///
    /// Returns stolen tasks oldest-first; empty means nothing was taken
    /// (empty victim or lost race). The default degenerates to a single
    /// [`steal`](Self::steal); the batched deques override it with one
    /// chunk-atomic multi-pop.
    fn steal_half(&self) -> Vec<Task> {
        match self.steal() {
            StealOutcome::Stolen(t) => vec![t],
            _ => Vec::new(),
        }
    }

    /// Owner: pushes a batch of tasks in order, returning any rejected
    /// tail (bounded implementations at capacity; the caller runs those
    /// inline). Used by the scheduler to re-queue the surplus of a
    /// [`steal_half`](Self::steal_half).
    fn push_batch(&self, tasks: Vec<Task>) -> Vec<Task> {
        let mut it = tasks.into_iter();
        let mut rejected = Vec::new();
        while let Some(t) = it.next() {
            if let Err(t) = self.push(t) {
                rejected.push(t);
                rejected.extend(it);
                break;
            }
        }
        rejected
    }

    /// Owner: publishes any privately buffered tasks into steal-visible
    /// storage, returning the ones that could not be published (bounded
    /// shared level at capacity; the caller must run those itself).
    ///
    /// Flat deques have no private buffer, so the default is a no-op;
    /// [`TieredChaseLevWorkDeque`] overrides it. The scheduler calls
    /// this when a worker dies so its private tier and any mid-spill
    /// chunk reach the shared level instead of stranding `pending`
    /// above zero.
    fn flush_local(&self) -> Vec<Task> {
        Vec::new()
    }

    /// Steal provenance since construction: `(tasks thieves took from
    /// the owner-private tier, tasks thieves took from the shared
    /// level)`. Flat deques have a single level and report zeros.
    fn tier_steals(&self) -> (u64, u64) {
        (0, 0)
    }
}

/// Best-effort size hint maintained *outside* the deque: the owner and
/// thieves bump it around their operations, so it lags reality by the
/// operations in flight. That is fine — `steal_half` only needs an
/// estimate to size its batch, and clamps to `1..=MAX_BATCH` anyway.
struct LenHint(AtomicUsize);

impl LenHint {
    fn new() -> Self {
        LenHint(AtomicUsize::new(0))
    }

    fn add(&self, n: usize) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    fn sub(&self, n: usize) {
        // Saturating: a racing pop may decrement before the matching
        // push's increment lands.
        let _ = self.0.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
            Some(v.saturating_sub(n))
        });
    }

    /// Batch size for stealing about half the (estimated) content.
    fn half_batch(&self) -> usize {
        (self.0.load(Ordering::Relaxed) / 2).clamp(1, MAX_BATCH)
    }

    /// Whether the hinted size is zero. A hint, not truth: a stale
    /// nonzero reading merely skips one restock (thieves can still
    /// reach the private tier directly), a stale zero merely spills one
    /// batch early.
    fn is_empty_hint(&self) -> bool {
        self.0.load(Ordering::Relaxed) == 0
    }
}

/// Work deque over the paper's unbounded linked-list deque.
pub struct ListWorkDeque {
    inner: ListDeque<Task, HarrisMcas>,
    len: LenHint,
}

impl WorkDeque for ListWorkDeque {
    fn with_capacity(_capacity: usize) -> Self {
        ListWorkDeque { inner: ListDeque::new(), len: LenHint::new() }
    }

    fn push(&self, t: Task) -> Result<(), Task> {
        self.inner.push_right(t).map_err(|e| e.into_inner())?;
        self.len.add(1);
        Ok(())
    }

    fn pop(&self) -> Option<Task> {
        let t = self.inner.pop_right()?;
        self.len.sub(1);
        Some(t)
    }

    fn steal(&self) -> StealOutcome {
        match self.inner.pop_left() {
            Some(t) => {
                self.len.sub(1);
                StealOutcome::Stolen(t)
            }
            None => StealOutcome::Empty,
        }
    }

    fn steal_half(&self) -> Vec<Task> {
        let tasks = self.inner.pop_left_n(self.len.half_batch());
        self.len.sub(tasks.len());
        tasks
    }

    fn push_batch(&self, tasks: Vec<Task>) -> Vec<Task> {
        let n = tasks.len();
        match self.inner.push_right_n(tasks) {
            Ok(()) => {
                self.len.add(n);
                Vec::new()
            }
            Err(full) => {
                let rest = full.into_inner();
                self.len.add(n - rest.len());
                rest
            }
        }
    }

    fn name() -> &'static str {
        "list-dcas"
    }
}

/// Work deque over the paper's bounded array deque.
pub struct ArrayWorkDeque {
    inner: ArrayDeque<Task, HarrisMcas>,
    len: LenHint,
}

impl WorkDeque for ArrayWorkDeque {
    fn with_capacity(capacity: usize) -> Self {
        ArrayWorkDeque { inner: ArrayDeque::new(capacity.max(1)), len: LenHint::new() }
    }

    fn push(&self, t: Task) -> Result<(), Task> {
        self.inner.push_right(t).map_err(|e| e.into_inner())?;
        self.len.add(1);
        Ok(())
    }

    fn pop(&self) -> Option<Task> {
        let t = self.inner.pop_right()?;
        self.len.sub(1);
        Some(t)
    }

    fn steal(&self) -> StealOutcome {
        match self.inner.pop_left() {
            Some(t) => {
                self.len.sub(1);
                StealOutcome::Stolen(t)
            }
            None => StealOutcome::Empty,
        }
    }

    fn steal_half(&self) -> Vec<Task> {
        let tasks = self.inner.pop_left_n(self.len.half_batch());
        self.len.sub(tasks.len());
        tasks
    }

    fn push_batch(&self, tasks: Vec<Task>) -> Vec<Task> {
        let n = tasks.len();
        match self.inner.push_right_n(tasks) {
            Ok(()) => {
                self.len.add(n);
                Vec::new()
            }
            Err(full) => {
                let rest = full.into_inner();
                self.len.add(n - rest.len());
                rest
            }
        }
    }

    fn name() -> &'static str {
        "array-dcas"
    }
}

/// Spill threshold of a [`TieredDeque`]: the owner-private tier spills
/// its oldest [`MAX_BATCH`] tasks to the shared level once it holds
/// more than this many *and* the shared level looks empty. It bounds
/// no storage (the Chase–Lev tier grows); it is the point at which an
/// owner-local burst starts restocking the linearizable steal channel.
pub const RING_CAP: usize = 4 * MAX_BATCH;

/// Two-level owner-biased work deque: a growable [`ChaseLev`] deque as
/// the owner-private tier for the `push`/`pop` hot path, backed by one
/// of the paper's linearizable DCAS deques as the shared level `D`.
///
/// The fork-join access pattern is overwhelmingly owner-local — a worker
/// pushes a task and pops it back moments later — yet the flat adapters
/// pay a full DCAS (descriptor install + helping protocol under the
/// Harris substrate) for every one of those operations. Here the owner
/// touches only the Chase–Lev tier (one release fence per push), and
/// thieves can steal that tier's top directly, so forked work is
/// stealable without the owner publishing it. Spilling therefore only
/// keeps the shared level *stocked* as the preferred steal channel: see
/// [`push`](Self::push). Refill is the mirror image: an empty tier
/// pulls the newest [`MAX_BATCH`] tasks back with one `pop_right_n`.
///
/// Ordering invariant: the shared deque (left→right) followed by the
/// private tier (oldest→newest) is always oldest→newest, because spills
/// move the tier's *oldest* prefix to the shared *right* end and refills
/// take the shared *newest* suffix back. Owner pops remain globally
/// LIFO; steals drain globally FIFO through the shared level, then
/// oldest-first from the private tier.
///
/// Spills stage their chunk in an owner-private `staged` buffer between
/// draining the tier and the shared-level push, so a worker killed
/// mid-spill strands nothing: [`flush_local`](Self::flush_local)
/// publishes `staged` along with the tier.
///
/// # Safety contract
///
/// `push`/`pop`/`flush_local` are owner-only (the [`WorkDeque`]
/// contract), with cross-thread ownership handoff (scheduler
/// startup/teardown) synchronised by thread spawn/join.
/// `steal`/`steal_half` touch only the shared level and the private
/// tier's thief-safe top end.
pub struct TieredDeque<T, D> {
    private: ChaseLev<T>,
    /// Mid-spill staging: the chunk drained from the private tier but
    /// not yet pushed to the shared level. Owner-only.
    staged: std::cell::UnsafeCell<Vec<T>>,
    shared: D,
    /// Size hint for the shared level only.
    len: LenHint,
    /// Steal provenance: tasks thieves took from the private tier vs
    /// the shared level (relaxed counters, surfaced in `SchedStats`).
    steals_private: AtomicU64,
    steals_shared: AtomicU64,
}

// SAFETY: `staged` is owner-only per the `WorkDeque` contract (see the
// type-level safety contract above); everything else is `Send + Sync`.
unsafe impl<T: Send, D: Send + Sync> Send for TieredDeque<T, D> {}
unsafe impl<T: Send, D: Send + Sync> Sync for TieredDeque<T, D> {}

impl<T: Send, D: ConcurrentDeque<T>> TieredDeque<T, D> {
    /// Wraps `shared` as the steal-visible level under a fresh, empty
    /// private tier.
    pub fn new(shared: D) -> Self {
        TieredDeque {
            private: ChaseLev::new(),
            staged: std::cell::UnsafeCell::new(Vec::new()),
            shared,
            len: LenHint::new(),
            steals_private: AtomicU64::new(0),
            steals_shared: AtomicU64::new(0),
        }
    }

    /// The shared level (e.g. to read its recorder or stats).
    pub fn shared(&self) -> &D {
        &self.shared
    }

    /// Steal provenance counters: `(from the private tier, from the
    /// shared level)`.
    pub fn tier_steals(&self) -> (u64, u64) {
        (
            self.steals_private.load(Ordering::Relaxed),
            self.steals_shared.load(Ordering::Relaxed),
        )
    }

    /// Owner-only: the mid-spill staging buffer.
    #[allow(clippy::mut_from_ref)]
    fn staged(&self) -> &mut Vec<T> {
        // SAFETY: owner-only methods are never called concurrently (see
        // the type-level safety contract).
        unsafe { &mut *self.staged.get() }
    }

    /// Takes the private tier's oldest value through the thief protocol
    /// (the owner drains its own tier this way too). `Retry` means a
    /// concurrent thief or the owner won the index — someone made
    /// progress — so looping is livelock-free; `None` means the tier
    /// was observed empty.
    fn steal_private(&self) -> Option<T> {
        loop {
            match self.private.steal() {
                ClSteal::Stolen(v) => return Some(v),
                ClSteal::Retry => std::hint::spin_loop(),
                ClSteal::Empty => return None,
            }
        }
    }

    /// Up to `n` of the private tier's **oldest** values, oldest-first.
    fn take_oldest(&self, n: usize) -> Vec<T> {
        std::iter::from_fn(|| self.steal_private()).take(n).collect()
    }

    /// Owner-only: pushes `batch` (oldest-first, all newer than the
    /// shared level's content) at the shared right end. `Err` returns
    /// the tail a bounded shared level rejected.
    fn publish(&self, batch: Vec<T>) -> Result<(), Vec<T>> {
        let n = batch.len();
        let rejected = match self.shared.push_right_n(batch) {
            Ok(()) => Vec::new(),
            Err(full) => full.into_inner(),
        };
        self.len.add(n - rejected.len());
        if rejected.is_empty() {
            Ok(())
        } else {
            Err(rejected)
        }
    }

    /// Owner-only: spills the tier's oldest batch to the shared right
    /// end (it is newer than everything already there, so global order
    /// holds). `Err` returns what a bounded shared level rejected.
    fn spill(&self) -> Result<(), Vec<T>> {
        let staged = self.staged();
        debug_assert!(staged.is_empty());
        *staged = self.take_oldest(MAX_BATCH);
        // Death-flush window: a worker killed between the drain above
        // and the shared push below leaves the chunk in `staged`, which
        // `flush_local` publishes — no task is stranded.
        #[cfg(feature = "fault-inject")]
        dcas::fault::hit(dcas::fault::FaultPoint::SpillStaged, true);
        self.publish(std::mem::take(staged))
    }

    /// Owner-only: pushes a value. `Err` hands a task back when the
    /// shared level is bounded and at capacity (normally the one just
    /// pushed; under a thief race, the newest remaining one) — the
    /// caller runs it inline, the standard overflow policy.
    ///
    /// Spill policy: every task in the private tier is already visible
    /// to thieves, so the only job left for spilling is to keep the
    /// shared linearizable level *stocked* as the preferred steal
    /// channel. The owner spills its oldest [`MAX_BATCH`] tasks only
    /// when the tier holds more than [`RING_CAP`] and the shared level
    /// is observed empty. An owner-local burst therefore stays entirely
    /// in the Chase–Lev arrays (which grow) instead of paying one DCAS
    /// round-trip per [`MAX_BATCH`] pushes.
    pub fn push(&self, t: T) -> Result<(), T> {
        self.private.push(t);
        if self.private.len() > RING_CAP && self.len.is_empty_hint() {
            if let Err(rest) = self.spill() {
                // Bounded shared level at capacity: reclaim the newest
                // task for the caller to run inline, and re-push the
                // unspilled tail at the bottom (its relative age is
                // scrambled, but every value stays in the deque —
                // conservation over ordering).
                let give_back = self.private.pop();
                for v in rest {
                    self.private.push(v);
                }
                match give_back {
                    Some(t) => return Err(t),
                    // Thieves drained the tier past the value we just
                    // pushed; it is already on its way to execution.
                    None => return Ok(()),
                }
            }
        }
        Ok(())
    }

    /// Owner-only: pops the newest value (globally LIFO), refilling the
    /// tier from the shared level's newest batch when empty.
    pub fn pop(&self) -> Option<T> {
        if let Some(t) = self.private.pop() {
            return Some(t);
        }
        // Tier empty: pull the newest shared batch back. `pop_right_n`
        // returns rightmost (newest) first; reversed, the chunk enters
        // the tier oldest→newest so its newest end stays the global
        // newest task.
        let chunk = self.shared.pop_right_n(MAX_BATCH);
        self.len.sub(chunk.len());
        for v in chunk.into_iter().rev() {
            self.private.push(v);
        }
        // The refilled tasks are immediately fair game for thieves, so
        // this pop can still come back empty — the caller retries or
        // steals elsewhere, same as any lost race.
        self.private.pop()
    }

    /// Thief: takes the globally oldest *published* value, falling back
    /// to the top of the private tier when the shared level is empty.
    pub fn steal(&self) -> Option<T> {
        if let Some(t) = self.shared.pop_left() {
            self.len.sub(1);
            self.steals_shared.fetch_add(1, Ordering::Relaxed);
            return Some(t);
        }
        let t = self.steal_private()?;
        self.steals_private.fetch_add(1, Ordering::Relaxed);
        Some(t)
    }

    /// Thief: takes about half of the shared level, oldest first; when
    /// that is empty, about half of the private tier. Never more than
    /// `max` values (nor more than [`MAX_BATCH`]), so a caller asking
    /// for fewer loses nothing to truncation.
    pub fn steal_half(&self, max: usize) -> Vec<T> {
        let tasks = self.shared.pop_left_n(self.len.half_batch().min(max));
        if !tasks.is_empty() {
            self.len.sub(tasks.len());
            self.steals_shared.fetch_add(tasks.len() as u64, Ordering::Relaxed);
            return tasks;
        }
        let want = (self.private.len() / 2).clamp(1, MAX_BATCH).min(max);
        let out = self.take_oldest(want);
        if !out.is_empty() {
            self.steals_private.fetch_add(out.len() as u64, Ordering::Relaxed);
        }
        out
    }

    /// Owner-only: publishes any staged mid-spill chunk plus the whole
    /// private tier to the shared level, returning whatever a bounded
    /// shared level rejects.
    pub fn flush_local(&self) -> Vec<T> {
        let mut batch = std::mem::take(self.staged());
        batch.extend(self.take_oldest(usize::MAX));
        if batch.is_empty() {
            return Vec::new();
        }
        self.publish(batch).err().unwrap_or_default()
    }
}

/// Two-level work deque with a [`ChaseLev`] private tier over the
/// paper's unbounded list deque: owner ops stay (nearly) free, and
/// thieves steal the Chase–Lev top directly once the shared level runs
/// dry. The owner spills only to restock an empty shared level.
pub struct TieredChaseLevWorkDeque(TieredDeque<Task, ListDeque<Task, HarrisMcas>>);

impl WorkDeque for TieredChaseLevWorkDeque {
    fn with_capacity(_capacity: usize) -> Self {
        TieredChaseLevWorkDeque(TieredDeque::new(ListDeque::new()))
    }

    fn push(&self, t: Task) -> Result<(), Task> {
        self.0.push(t)
    }

    fn pop(&self) -> Option<Task> {
        self.0.pop()
    }

    fn steal(&self) -> StealOutcome {
        match self.0.steal() {
            Some(t) => StealOutcome::Stolen(t),
            None => StealOutcome::Empty,
        }
    }

    fn steal_half(&self) -> Vec<Task> {
        self.0.steal_half(MAX_BATCH)
    }

    fn flush_local(&self) -> Vec<Task> {
        self.0.flush_local()
    }

    fn tier_steals(&self) -> (u64, u64) {
        self.0.tier_steals()
    }

    fn name() -> &'static str {
        "tiered-chaselev"
    }
}

/// Work deque over the CAS-only Sundell–Tsigas deque: like
/// [`ListWorkDeque`] it is unbounded and two-ended (owner LIFO at the
/// right, thieves FIFO at the left), but every operation is built from
/// single-word CAS instead of DCAS — the scheduler-level half of the
/// E16 DCAS-vs-CAS comparison.
pub struct SundellWorkDeque {
    inner: SundellDeque<Task>,
    len: LenHint,
}

impl WorkDeque for SundellWorkDeque {
    fn with_capacity(_capacity: usize) -> Self {
        SundellWorkDeque { inner: SundellDeque::new(), len: LenHint::new() }
    }

    fn push(&self, t: Task) -> Result<(), Task> {
        self.inner.push_right(t).map_err(|e| e.into_inner())?;
        self.len.add(1);
        Ok(())
    }

    fn pop(&self) -> Option<Task> {
        let t = self.inner.pop_right()?;
        self.len.sub(1);
        Some(t)
    }

    fn steal(&self) -> StealOutcome {
        match self.inner.pop_left() {
            Some(t) => {
                self.len.sub(1);
                StealOutcome::Stolen(t)
            }
            None => StealOutcome::Empty,
        }
    }

    fn steal_half(&self) -> Vec<Task> {
        // No chunk-atomic multi-pop without DCAS: amortise the steal by
        // looping single `pop_left`s up to the half-batch estimate.
        // Each element is individually linearizable; conservation holds,
        // only the chunk-atomicity of the DCAS deques is lost.
        let want = self.len.half_batch();
        let mut out = Vec::new();
        while out.len() < want {
            match self.inner.pop_left() {
                Some(t) => out.push(t),
                None => break,
            }
        }
        self.len.sub(out.len());
        out
    }

    fn name() -> &'static str {
        "sundell-cas"
    }
}

/// Work deque over the CAS-only ABP deque (the baseline built for this
/// exact access pattern).
pub struct AbpWorkDeque(AbpDeque);

impl WorkDeque for AbpWorkDeque {
    fn with_capacity(capacity: usize) -> Self {
        AbpWorkDeque(AbpDeque::new(capacity.max(1)))
    }

    fn push(&self, t: Task) -> Result<(), Task> {
        let w = Boxed::new(t).encode();
        if self.0.push_bottom(w) {
            Ok(())
        } else {
            // SAFETY: `w` was just encoded and rejected; we reclaim it.
            Err(unsafe { Boxed::<Task>::decode(w) }.into_inner())
        }
    }

    fn pop(&self) -> Option<Task> {
        // SAFETY: words in the deque are exactly the `Boxed<Task>`
        // encodings pushed above, consumed once.
        self.0.pop_bottom().map(|w| unsafe { Boxed::<Task>::decode(w) }.into_inner())
    }

    fn steal(&self) -> StealOutcome {
        match self.0.steal() {
            // SAFETY: as above.
            Steal::Success(w) => {
                StealOutcome::Stolen(unsafe { Boxed::<Task>::decode(w) }.into_inner())
            }
            Steal::Empty => StealOutcome::Empty,
            Steal::Abort => StealOutcome::Retry,
        }
    }

    fn name() -> &'static str {
        "abp-cas"
    }
}

impl Drop for AbpWorkDeque {
    fn drop(&mut self) {
        // Reclaim any tasks left behind (scheduler aborts, panics).
        while let Some(w) = self.0.pop_bottom() {
            // SAFETY: as in `pop`.
            drop(unsafe { Boxed::<Task>::decode(w) });
        }
    }
}

/// Work deque over the lock-based baseline.
pub struct MutexWorkDeque(MutexDeque<Task>);

impl WorkDeque for MutexWorkDeque {
    fn with_capacity(_capacity: usize) -> Self {
        MutexWorkDeque(MutexDeque::new())
    }

    fn push(&self, t: Task) -> Result<(), Task> {
        ConcurrentDeque::push_right(&self.0, t).map_err(|e| e.into_inner())
    }

    fn pop(&self) -> Option<Task> {
        ConcurrentDeque::pop_right(&self.0)
    }

    fn steal(&self) -> StealOutcome {
        match ConcurrentDeque::pop_left(&self.0) {
            Some(t) => StealOutcome::Stolen(t),
            None => StealOutcome::Empty,
        }
    }

    fn name() -> &'static str {
        "mutex"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noop() -> Task {
        Box::new(|_| {})
    }

    /// All tasks pushed are retrieved exactly once through a mix of
    /// `steal_half` and owner pops, across every implementation.
    fn steal_half_conserves<D: WorkDeque>() {
        let d = D::with_capacity(64);
        for _ in 0..20 {
            assert!(d.push(noop()).is_ok(), "{}", D::name());
        }
        let stolen = d.steal_half();
        assert!(
            !stolen.is_empty() && stolen.len() <= MAX_BATCH,
            "{}: steal_half took {}",
            D::name(),
            stolen.len()
        );
        let mut total = stolen.len();
        loop {
            let s = d.steal_half();
            if s.is_empty() {
                break;
            }
            total += s.len();
        }
        while d.pop().is_some() {
            total += 1;
        }
        assert_eq!(total, 20, "{}: tasks lost or duplicated", D::name());
    }

    #[test]
    fn steal_half_conserves_all_impls() {
        steal_half_conserves::<ListWorkDeque>();
        steal_half_conserves::<ArrayWorkDeque>();
        steal_half_conserves::<SundellWorkDeque>();
        steal_half_conserves::<AbpWorkDeque>();
        steal_half_conserves::<MutexWorkDeque>();
    }

    /// Thieves drain both levels of a tiered deque in batches of at
    /// most `MAX_BATCH`, and every task comes out exactly once.
    #[test]
    fn tiered_conserves() {
        let d = TieredChaseLevWorkDeque::with_capacity(256);
        const N: usize = 100;
        for _ in 0..N {
            assert!(d.push(noop()).is_ok());
        }
        let mut total = 0;
        loop {
            let s = d.steal_half();
            if s.is_empty() {
                break;
            }
            assert!(s.len() <= MAX_BATCH);
            total += s.len();
        }
        assert!(total > 0, "pushed tasks must be stealable");
        while d.pop().is_some() {
            total += 1;
        }
        assert_eq!(total, N, "tasks lost or duplicated");
    }

    #[test]
    fn chaselev_tier_is_stealable_before_any_spill() {
        let d = TieredChaseLevWorkDeque::with_capacity(0);
        for _ in 0..4 {
            assert!(d.push(noop()).is_ok());
        }
        // Nothing has spilled (4 < RING_CAP), yet a thief finds work
        // on the private tier.
        assert!(matches!(d.steal(), StealOutcome::Stolen(_)));
        assert_eq!(d.tier_steals(), (1, 0));
        let mut total = 1;
        while d.pop().is_some() {
            total += 1;
        }
        assert_eq!(total, 4);
    }

    #[test]
    fn tiered_steal_provenance_counts_both_levels() {
        let d = TieredChaseLevWorkDeque::with_capacity(0);
        // Enough pushes to force at least one spill, with a remainder
        // left in the private tier.
        let n = RING_CAP + MAX_BATCH;
        for _ in 0..n {
            assert!(d.push(noop()).is_ok());
        }
        let mut stolen = 0usize;
        loop {
            let s = d.steal_half();
            if s.is_empty() {
                break;
            }
            stolen += s.len();
        }
        assert_eq!(stolen, n, "steals must drain both levels");
        let (private, shared) = d.tier_steals();
        assert_eq!(private + shared, stolen as u64);
        assert!(shared > 0, "spilled tasks come from the shared level");
        assert!(private > 0, "unspilled tasks come from the chaselev tier");
    }

    #[test]
    fn tiered_pop_refills_from_shared_in_lifo_order() {
        // Tasks are opaque closures, so order is observed through a
        // drop-guard each task captures: popping and dropping a task
        // appends its index to the log.
        use std::sync::{Arc, Mutex};
        struct Tag(usize, Arc<Mutex<Vec<usize>>>);
        impl Drop for Tag {
            fn drop(&mut self) {
                self.1.lock().unwrap().push(self.0);
            }
        }
        let log: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
        let tagged = |i: usize| -> Task {
            let guard = Tag(i, log.clone());
            Box::new(move |_| {
                let _ = &guard;
            })
        };
        let d = TieredChaseLevWorkDeque::with_capacity(0);
        const N: usize = RING_CAP + 2 * MAX_BATCH;
        for i in 0..N {
            assert!(d.push(tagged(i)).is_ok());
        }
        // Owner pops must return newest-first across the spill boundary:
        // the private tier drains, then a refill pulls the spilled batch
        // back.
        while let Some(t) = d.pop() {
            drop(t);
        }
        assert_eq!(*log.lock().unwrap(), (0..N).rev().collect::<Vec<_>>());
    }

    #[test]
    fn tiered_bounded_shared_level_rejects_spill_and_gives_back() {
        // A shared level smaller than one spill chunk rejects every
        // spill whole: `push` must hand the newest value back for the
        // caller to run inline, keep the unspilled tail, and lose
        // nothing.
        let d = TieredDeque::new(ArrayDeque::<u64>::new(MAX_BATCH / 2));
        let n = (RING_CAP + 3 * MAX_BATCH) as u64;
        let mut all = Vec::new();
        for v in 0..n {
            if let Err(back) = d.push(v) {
                assert_eq!(back, v, "without thieves the value just pushed comes back");
                all.push(back);
            }
        }
        assert_eq!(all.first(), Some(&(RING_CAP as u64)), "first spill past RING_CAP rejects");
        while let Some(v) = d.pop() {
            all.push(v);
        }
        all.sort_unstable();
        assert_eq!(all, (0..n).collect::<Vec<_>>(), "values lost or duplicated");
    }

    #[test]
    fn push_batch_returns_overflow() {
        let d = ArrayWorkDeque::with_capacity(16);
        let rejected = d.push_batch((0..30).map(|_| noop()).collect());
        let mut held = 0;
        while d.pop().is_some() {
            held += 1;
        }
        assert_eq!(held + rejected.len(), 30, "tasks lost in push_batch");
        assert!(held <= 16);
        // Unbounded list deque never rejects.
        let d = ListWorkDeque::with_capacity(0);
        assert!(d.push_batch((0..30).map(|_| noop()).collect()).is_empty());
        let mut held = 0;
        while d.pop().is_some() {
            held += 1;
        }
        assert_eq!(held, 30);
    }

    #[test]
    fn steal_half_scales_with_size_hint() {
        let d = ListWorkDeque::with_capacity(0);
        // Two tasks: half is one.
        assert!(d.push(noop()).is_ok());
        assert!(d.push(noop()).is_ok());
        assert_eq!(d.steal_half().len(), 1);
        // A big pile: half clamps to MAX_BATCH.
        for _ in 0..100 {
            assert!(d.push(noop()).is_ok());
        }
        assert_eq!(d.steal_half().len(), MAX_BATCH);
    }
}
