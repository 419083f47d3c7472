//! Allocation-regression test for the pooled DCAS hot path (requires
//! `--features stats`): after a warmup that primes the descriptor
//! freelist, a single-threaded `dcas`/`dcas_strong` loop must be served
//! entirely from the pool — a 100% hit rate, i.e. **zero steady-state
//! heap allocations** for descriptors. A regression in the pool, in the
//! epoch collector's release cadence, or an accidental extra descriptor
//! acquisition shows up here as a nonzero `descriptor_allocs` delta.
#![cfg(feature = "stats")]

use dcas::{DcasStrategy, DcasWord, EpochReclaimer, HarrisMcas, Reclaimer};

/// Primes the pool: runs `ops` successful DCASes (building inventory via
/// fallback allocations), then flushes the epoch collector so every
/// retired descriptor has been released to the freelist.
fn warmup(s: &HarrisMcas, a: &DcasWord, b: &DcasWord, x: &mut u64, ops: u64) {
    for _ in 0..ops {
        assert!(s.dcas(a, b, *x, *x + 4, *x + 8, *x + 12));
        *x += 8;
    }
    // Each flush attempts one epoch advance; repeated passes age every
    // queued release past the two-epoch grace period and run it.
    for _ in 0..4 {
        EpochReclaimer::flush();
    }
}

#[test]
fn steady_state_dcas_is_allocation_free() {
    let s = HarrisMcas::new();
    let (a, b) = (&DcasWord::new(0), &DcasWord::new(4));
    let mut x = 0u64;

    warmup(&s, a, b, &mut x, 1_000);

    let before = s.stats();
    const STEADY_OPS: u64 = 10_000;
    for _ in 0..STEADY_OPS {
        assert!(s.dcas(a, b, x, x + 4, x + 8, x + 12));
        x += 8;
    }
    let delta = s.stats().since(&before);

    assert_eq!(delta.dcas_ops, STEADY_OPS);
    assert_eq!(
        delta.descriptor_allocs, 0,
        "steady-state dcas must not allocate (reuse={}, allocs={})",
        delta.descriptor_reuses, delta.descriptor_allocs
    );
    assert_eq!(delta.descriptor_reuses, STEADY_OPS);
    assert_eq!(delta.reuse_rate(), Some(1.0));
}

#[test]
fn steady_state_dcas_strong_failure_path_is_allocation_free() {
    // The strong form's failure path certifies an atomic view with an
    // identity DCAS; that descriptor must come from the pool too.
    let s = HarrisMcas::new();
    let (a, b) = (&DcasWord::new(0), &DcasWord::new(4));
    let mut x = 0u64;

    warmup(&s, a, b, &mut x, 1_000);

    let before = s.stats();
    const STEADY_OPS: u64 = 5_000;
    for _ in 0..STEADY_OPS {
        // Expected values are stale on purpose: every call fails and
        // reports the snapshot (one pooled identity descriptor each).
        let (mut o1, mut o2) = (1 << 40, 1 << 40);
        assert!(!s.dcas_strong(a, b, &mut o1, &mut o2, 8, 12));
        assert_eq!((o1, o2), (x, x + 4));
    }
    let delta = s.stats().since(&before);

    assert_eq!(
        delta.descriptor_allocs, 0,
        "dcas_strong failure path must not allocate (reuse={}, allocs={})",
        delta.descriptor_reuses, delta.descriptor_allocs
    );
    // Every op certified exactly one snapshot descriptor from the pool.
    assert_eq!(delta.descriptor_reuses, STEADY_OPS);
}

#[test]
fn reclaim_hazard_steady_state_dcas_is_allocation_free() {
    // The hazard backend routes every descriptor through the pool
    // (retire frees nothing to the allocator), so its steady state must
    // be allocation-free too — the scan just delays a release until no
    // hazard covers it.
    use dcas::{HarrisMcasHazard, HazardReclaimer};
    let s = HarrisMcasHazard::default();
    let (a, b) = (&DcasWord::new(0), &DcasWord::new(4));
    let mut x = 0u64;
    for _ in 0..1_000 {
        assert!(s.dcas(a, b, x, x + 4, x + 8, x + 12));
        x += 8;
    }
    HazardReclaimer::flush();

    let before = s.stats();
    const STEADY_OPS: u64 = 10_000;
    for _ in 0..STEADY_OPS {
        assert!(s.dcas(a, b, x, x + 4, x + 8, x + 12));
        x += 8;
    }
    let delta = s.stats().since(&before);

    assert_eq!(delta.dcas_ops, STEADY_OPS);
    assert_eq!(
        delta.descriptor_allocs, 0,
        "hazard-backed steady-state dcas must not allocate (reuse={}, allocs={})",
        delta.descriptor_reuses, delta.descriptor_allocs
    );
    assert_eq!(delta.descriptor_reuses, STEADY_OPS);
}
