//! A growable circular-array **Chase–Lev** work-stealing deque.
//!
//! This is the classic single-owner deque from Chase & Lev, *Dynamic
//! Circular Work-Stealing Deque* (SPAA 2005), with the C11 memory
//! orderings from Lê, Pop, Cohen & Zappa Nardelli, *Correct and
//! Efficient Work-Stealing for Weak Memory Models* (PPoPP 2013):
//!
//! * **Owner** operations (`push`, `pop`) touch only the *bottom* end.
//!   The push fast path is a plain slot write followed by a single
//!   `Release` fence and a relaxed bottom store — no CAS, no RMW.
//! * **Thieves** (`steal`) take from the *top* end with one `SeqCst`
//!   compare-and-swap; a lost race reports [`Steal::Retry`] rather than
//!   spinning internally, so callers choose their own back-off.
//! * The array is a power-of-two **circular buffer** that grows by
//!   doubling. Growth copies only the live window `[top, bottom)` —
//!   stale slots are never touched — and publishes the new buffer with
//!   a single `Release` store of the buffer pointer.
//!
//! # Memory reclamation without an epoch scheme
//!
//! A thief may hold a pointer to a buffer the owner has since replaced.
//! Rather than pulling in epoch-based reclamation, retired buffers are
//! parked on an owner-private list and freed only when the deque itself
//! drops (the oflux `CircularWorkStealingDeque` approach). A deque that
//! grew from 64 to 2²ᵏ slots wastes one extra array's worth of memory
//! (the geometric series of smaller retired buffers sums to less than
//! the final buffer), which is the documented Chase–Lev trade-off for
//! keeping steals wait-free.
//!
//! # Why a stale buffer read is still correct
//!
//! A thief reads `slots[t % cap]` from whatever buffer pointer it
//! loaded, *then* CASes `top: t -> t+1`. If the CAS succeeds, index `t`
//! was still ≥ `top` when the copy was made (growth copies `[top,
//! bottom)` and the owner never rewrites index `t` while `bottom - t <
//! cap - 1` holds), so the old and new buffers hold identical bytes for
//! index `t`. If the CAS fails, the speculatively copied bytes may be
//! torn garbage — which is why the read lands in a [`MaybeUninit`] that
//! is only `assume_init`-ed after the CAS succeeds (the crossbeam-deque
//! discipline for non-`Copy` payloads).

use std::cell::UnsafeCell;
use std::fmt;
use std::mem::MaybeUninit;
use std::ptr;
use std::sync::atomic::Ordering::{Acquire, Relaxed, Release, SeqCst};
use std::sync::atomic::{fence, AtomicI64, AtomicPtr};

use crossbeam_utils::CachePadded;

/// Smallest buffer ever allocated; keeps the growth path off the fast
/// path for shallow recursions.
const MIN_CAP: usize = 64;

/// Outcome of a [`ChaseLev::steal`] attempt.
#[derive(Debug, PartialEq, Eq)]
pub enum Steal<T> {
    /// The deque was observed empty.
    Empty,
    /// Lost a race with the owner's last-element pop or another thief;
    /// the deque may or may not still hold work.
    Retry,
    /// Successfully claimed the oldest element.
    Stolen(T),
}

/// One circular buffer generation. `cap` is always a power of two so
/// the index wrap is a mask, as in the oflux circular deque.
struct Buffer<T> {
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    mask: usize,
}

impl<T> Buffer<T> {
    fn alloc(cap: usize) -> Box<Buffer<T>> {
        debug_assert!(cap.is_power_of_two());
        let slots = (0..cap)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Box::new(Buffer { slots, mask: cap - 1 })
    }

    fn cap(&self) -> usize {
        self.mask + 1
    }

    /// Raw pointer to the slot for global index `i`.
    ///
    /// # Safety
    /// `i` must be interpreted under this buffer's capacity; the caller
    /// is responsible for the owner/thief access protocol.
    unsafe fn slot(&self, i: i64) -> *mut MaybeUninit<T> {
        self.slots[(i as usize) & self.mask].get()
    }

    /// Speculatively copies the bytes at global index `i`. The result
    /// must only be `assume_init`-ed once the caller has *claimed* the
    /// index (owner protocol or a successful top CAS).
    unsafe fn read(&self, i: i64) -> MaybeUninit<T> {
        ptr::read(self.slot(i))
    }

    /// Writes `v` into the slot for global index `i` without dropping
    /// whatever stale bytes were there.
    unsafe fn write(&self, i: i64, v: T) {
        ptr::write(self.slot(i), MaybeUninit::new(v));
    }
}

/// The growable Chase–Lev deque. Single owner (`push`/`pop`), any
/// number of thieves (`steal`).
///
/// `top` and `bottom` are `i64` indices that only ever increase (except
/// for the owner's transient bottom decrement during `pop`), so ABA on
/// the top CAS is a non-issue for any realistic run length.
pub struct ChaseLev<T> {
    /// Owner's end. Written only by the owner; read by thieves.
    bottom: CachePadded<AtomicI64>,
    /// Thieves' end. CASed by thieves and by the owner's last-element
    /// pop.
    top: CachePadded<AtomicI64>,
    /// Current buffer generation. Replaced (Release) only by the owner.
    buf: AtomicPtr<Buffer<T>>,
    /// Retired generations, owner-private; freed on drop. Thieves may
    /// still be reading these, so they must stay allocated — and boxed,
    /// so each keeps a stable address when this list reallocates.
    #[allow(clippy::vec_box)]
    retired: UnsafeCell<Vec<Box<Buffer<T>>>>,
}

// SAFETY: the owner/thief protocol is what makes the raw slot accesses
// sound; the type itself only needs the payload to be sendable.
unsafe impl<T: Send> Send for ChaseLev<T> {}
unsafe impl<T: Send> Sync for ChaseLev<T> {}

impl<T> Default for ChaseLev<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> ChaseLev<T> {
    /// Creates an empty deque with the default minimum capacity.
    pub fn new() -> Self {
        Self::with_min_capacity(MIN_CAP)
    }

    /// Creates an empty deque whose first buffer holds at least `cap`
    /// elements, rounded up to a power of two (floor 2, so tests can
    /// start tiny and force growth cheaply).
    pub fn with_min_capacity(cap: usize) -> Self {
        let cap = cap.max(2).next_power_of_two();
        let buf = Box::into_raw(Buffer::alloc(cap));
        ChaseLev {
            bottom: CachePadded::new(AtomicI64::new(0)),
            top: CachePadded::new(AtomicI64::new(0)),
            buf: AtomicPtr::new(buf),
            retired: UnsafeCell::new(Vec::new()),
        }
    }

    /// Approximate number of elements (exact when quiescent). May be
    /// momentarily stale under concurrent steals.
    pub fn len(&self) -> usize {
        let b = self.bottom.load(Relaxed);
        let t = self.top.load(Relaxed);
        (b - t).max(0) as usize
    }

    /// `len() == 0` under the same staleness caveat.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Owner: pushes `v` at the bottom. Never fails — the buffer grows
    /// by doubling when full. Fast path: slot write, `Release` fence,
    /// relaxed bottom store.
    ///
    /// # Safety contract (enforced by the owning wrapper)
    /// Must only be called from the single owner thread.
    pub fn push(&self, v: T) {
        let b = self.bottom.load(Relaxed);
        let t = self.top.load(Acquire);
        let mut a = self.buf.load(Relaxed);
        // SAFETY: `a` is the current buffer; only the owner replaces it.
        if b - t >= unsafe { (*a).cap() } as i64 - 1 {
            a = self.grow(t, b);
        }
        unsafe { (*a).write(b, v) };
        // Publish the slot before the new bottom becomes visible to a
        // thief's `Acquire` bottom load (paired via this fence).
        fence(Release);
        self.bottom.store(b + 1, Relaxed);
    }

    /// Owner: pops from the bottom (LIFO). Competes with thieves only
    /// for the very last element, via a CAS on `top`.
    ///
    /// # Safety contract (enforced by the owning wrapper)
    /// Must only be called from the single owner thread.
    pub fn pop(&self) -> Option<T> {
        let b = self.bottom.load(Relaxed) - 1;
        let a = self.buf.load(Relaxed);
        self.bottom.store(b, Relaxed);
        // Order the bottom decrement before the top read: a concurrent
        // thief must either see the reduced bottom or lose the top CAS.
        fence(SeqCst);
        let t = self.top.load(Relaxed);
        if t <= b {
            if t == b {
                // Last element: race thieves via the top CAS.
                let won = self
                    .top
                    .compare_exchange(t, t + 1, SeqCst, Relaxed)
                    .is_ok();
                self.bottom.store(b + 1, Relaxed);
                if won {
                    // SAFETY: the CAS claimed index b for the owner.
                    return Some(unsafe { (*a).read(b).assume_init() });
                }
                None
            } else {
                // SAFETY: t < b, so index b cannot be claimed by any
                // thief (a thief would first have to CAS top past b,
                // which requires observing bottom > b after our fence).
                Some(unsafe { (*a).read(b).assume_init() })
            }
        } else {
            // Deque was empty; restore bottom.
            self.bottom.store(b + 1, Relaxed);
            None
        }
    }

    /// Thief: attempts to steal the oldest element (FIFO end). Also
    /// usable by the owner to drain itself oldest-first (spill paths).
    pub fn steal(&self) -> Steal<T> {
        let t = self.top.load(Acquire);
        // Order the top read before the bottom read (pairs with the
        // owner's pop fence).
        fence(SeqCst);
        let b = self.bottom.load(Acquire);
        if b - t <= 0 {
            return Steal::Empty;
        }
        // Load the buffer *after* establishing t < b; Acquire pairs with
        // the owner's Release publish of a grown buffer.
        let a = self.buf.load(Acquire);
        // SAFETY: speculative byte copy; only materialized below if the
        // CAS proves index t was still ours to claim (see module docs
        // for why a stale buffer still holds the correct bytes then).
        let v = unsafe { (*a).read(t) };
        if self.top.compare_exchange(t, t + 1, SeqCst, Relaxed).is_ok() {
            Steal::Stolen(unsafe { v.assume_init() })
        } else {
            // Lost the race: drop the MaybeUninit without materializing
            // the (possibly torn) payload.
            Steal::Retry
        }
    }

    /// Current buffer capacity in slots. Exact for the owner; a thief
    /// may observe the previous generation's capacity around a growth.
    pub fn capacity(&self) -> usize {
        // SAFETY: the pointer is always a live buffer — growth retires
        // old generations instead of freeing them (see module docs).
        unsafe { (*self.buf.load(Acquire)).cap() }
    }

    /// Owner: how many buffer generations growth has retired so far.
    /// Retired buffers stay allocated until the deque drops, so after
    /// `g` growths from initial capacity `c` the live buffer holds
    /// `c << g` slots — tests audit reclamation against exactly that.
    ///
    /// # Safety contract (enforced by the owning wrapper)
    /// Must only be called from the single owner thread (the retired
    /// list is owner-private, like `grow`).
    pub fn retired_buffers(&self) -> usize {
        // SAFETY: owner-only access to the owner-private list.
        unsafe { (*self.retired.get()).len() }
    }

    /// Owner: doubles the buffer, copying only the live window
    /// `[t, b)`. The old buffer is retired (kept allocated for thieves
    /// still reading it) and the new one published with `Release`.
    #[cold]
    fn grow(&self, t: i64, b: i64) -> *mut Buffer<T> {
        let old = self.buf.load(Relaxed);
        // SAFETY: owner-only path; `old` is the current buffer.
        let new = unsafe {
            let new = Buffer::alloc((*old).cap() * 2);
            for i in t..b {
                ptr::copy_nonoverlapping((*old).slot(i), new.slot(i), 1);
            }
            Box::into_raw(new)
        };
        self.buf.store(new, Release);
        // SAFETY: `retired` is owner-private; reconstitute the old
        // buffer's box so drop frees it with the deque.
        unsafe { (*self.retired.get()).push(Box::from_raw(old)) };
        new
    }
}

impl<T> Drop for ChaseLev<T> {
    fn drop(&mut self) {
        // Exclusive access: drop the live window, then free buffers.
        let b = self.bottom.load(Relaxed);
        let t = self.top.load(Relaxed);
        let a = *self.buf.get_mut();
        unsafe {
            for i in t..b {
                ptr::drop_in_place((*a).slot(i).cast::<T>());
            }
            drop(Box::from_raw(a));
        }
        // `retired` (and its boxes) drop normally — their slots hold
        // only stale bytes, never live values.
    }
}

impl<T> fmt::Debug for ChaseLev<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChaseLev")
            .field("bottom", &self.bottom.load(Relaxed))
            .field("top", &self.top.load(Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Mutex;

    #[test]
    fn lifo_for_owner() {
        let d = ChaseLev::new();
        for i in 0..10u64 {
            d.push(i);
        }
        for i in (0..10u64).rev() {
            assert_eq!(d.pop(), Some(i));
        }
        assert_eq!(d.pop(), None);
        assert_eq!(d.pop(), None, "empty pop restores bottom");
    }

    #[test]
    fn fifo_for_thief() {
        let d = ChaseLev::new();
        for i in 0..10u64 {
            d.push(i);
        }
        for i in 0..10u64 {
            assert_eq!(d.steal(), Steal::Stolen(i));
        }
        assert_eq!(d.steal(), Steal::Empty);
    }

    #[test]
    fn growth_preserves_live_window_and_order() {
        // Start at cap 2 and interleave pops so top is well past zero
        // when growth fires: checks the [t, b) copy uses global indices.
        let d = ChaseLev::with_min_capacity(2);
        let mut expect = std::collections::VecDeque::new();
        let mut next = 0u64;
        for round in 0..6 {
            for _ in 0..(1 << round) {
                d.push(next);
                expect.push_back(next);
                next += 1;
            }
            for _ in 0..(1 << round) / 2 {
                assert_eq!(d.pop(), expect.pop_back());
            }
            match d.steal() {
                Steal::Stolen(v) => assert_eq!(Some(v), expect.pop_front()),
                other => assert_eq!(expect.front(), None, "got {other:?}"),
            }
        }
        while let Some(v) = expect.pop_back() {
            assert_eq!(d.pop(), Some(v));
        }
        assert_eq!(d.pop(), None);
        assert!(!unsafe { &*d.retired.get() }.is_empty(), "growth never fired");
    }

    #[test]
    fn drop_releases_live_elements_exactly_once() {
        static LIVE: AtomicU64 = AtomicU64::new(0);
        #[derive(Debug)]
        struct Tag;
        impl Tag {
            fn new() -> Tag {
                LIVE.fetch_add(1, SeqCst);
                Tag
            }
        }
        impl Drop for Tag {
            fn drop(&mut self) {
                LIVE.fetch_sub(1, SeqCst);
            }
        }
        let d = ChaseLev::with_min_capacity(2);
        for _ in 0..33 {
            d.push(Tag::new()); // forces several growths
        }
        drop(d.pop());
        match d.steal() {
            Steal::Stolen(t) => drop(t),
            other => panic!("expected steal, got {other:?}"),
        }
        drop(d);
        assert_eq!(LIVE.load(SeqCst), 0, "leaked or double-dropped payloads");
    }

    #[test]
    fn concurrent_owner_and_thieves_conserve_values() {
        const PER_ROUND: u64 = 2_000;
        const THIEVES: usize = 3;
        let d = ChaseLev::with_min_capacity(2); // force growth under fire
        let taken: Mutex<Vec<u64>> = Mutex::new(Vec::new());
        let done = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..THIEVES {
                s.spawn(|| {
                    let mut got = Vec::new();
                    loop {
                        match d.steal() {
                            Steal::Stolen(v) => got.push(v),
                            Steal::Retry => std::hint::spin_loop(),
                            Steal::Empty => {
                                if done.load(SeqCst) == 1 {
                                    break;
                                }
                                std::hint::spin_loop();
                            }
                        }
                    }
                    taken.lock().unwrap().extend(got);
                });
            }
            let mut kept = Vec::new();
            for i in 0..PER_ROUND {
                d.push(i);
                if i % 3 == 0 {
                    if let Some(v) = d.pop() {
                        kept.push(v);
                    }
                }
            }
            while let Some(v) = d.pop() {
                kept.push(v);
            }
            done.store(1, SeqCst);
            taken.lock().unwrap().extend(kept);
        });
        let mut all = taken.into_inner().unwrap();
        all.sort_unstable();
        let expect: Vec<u64> = (0..PER_ROUND).collect();
        assert_eq!(all, expect, "values lost or duplicated under contention");
    }
}
