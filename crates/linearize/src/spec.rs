//! The sequential deque specification of the paper's Section 2.2.
//!
//! A deque state is a sequence `S = <v0, ..., vk>` with `0 <= |S| <=
//! length_S`; the four operations induce the transitions quoted below. The
//! paper axiomatizes the same object with `EmptyQ` / `singleton` / `concat`
//! constructors (Figure 35); the property tests at the bottom of this
//! module check that this executable model satisfies those axioms.

use std::collections::VecDeque;

use dcas_deque::MAX_BATCH;

/// A fixed-capacity value sequence carried by batched operations (inputs
/// of `pushRightN`/`pushLeftN`, outputs of `popRightN`/`popLeftN`).
/// Fixed-size so operations stay `Copy` for the recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Batch {
    vals: [u64; MAX_BATCH],
    len: u8,
}

impl Batch {
    /// Builds a batch from up to [`MAX_BATCH`] values.
    pub fn new(vals: &[u64]) -> Self {
        assert!(vals.len() <= MAX_BATCH, "batch of {} exceeds MAX_BATCH", vals.len());
        let mut b = Batch { vals: [0; MAX_BATCH], len: vals.len() as u8 };
        b.vals[..vals.len()].copy_from_slice(vals);
        b
    }

    /// The values, in operation order.
    pub fn as_slice(&self) -> &[u64] {
        &self.vals[..self.len as usize]
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the batch carries no values.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// An operation invocation on a deque, with its input if any.
///
/// The batched variants model one **chunk-atomic** transition of the
/// batched deque operations: at most [`MAX_BATCH`] elements entering or
/// leaving the sequence at a single linearization point. (The public
/// `push_right_n`-style APIs split larger requests into such chunks, each
/// an independent operation in the history.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DequeOp {
    /// `pushRight(v)`
    PushRight(u64),
    /// `pushLeft(v)`
    PushLeft(u64),
    /// `popRight()`
    PopRight,
    /// `popLeft()`
    PopLeft,
    /// `pushRightN(vals)` — appends all values at the right end in order,
    /// atomically; all-or-nothing against the capacity.
    PushRightN(Batch),
    /// `pushLeftN(vals)` — pushes all values at the left end in order
    /// (the last value ends up leftmost), atomically; all-or-nothing.
    PushLeftN(Batch),
    /// `popRightN(k)` — removes `min(k, |S|)` values from the right end,
    /// rightmost first, atomically.
    PopRightN(u8),
    /// `popLeftN(k)` — removes `min(k, |S|)` values from the left end,
    /// leftmost first, atomically.
    PopLeftN(u8),
}

/// An operation response.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DequeRet {
    /// A push returned "okay".
    Okay,
    /// A push returned "full".
    Full,
    /// A pop returned a value.
    Value(u64),
    /// A pop returned "empty".
    Empty,
    /// A batched pop returned `min(k, |S|)` values (possibly zero).
    Values(Batch),
}

/// The sequential deque state machine. `capacity == None` models the
/// unbounded deque (pushes never return "full").
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SeqDeque {
    capacity: Option<usize>,
    items: VecDeque<u64>,
}

impl SeqDeque {
    /// `make_deque(length_S)` — the bounded deque, initially empty.
    pub fn bounded(length: usize) -> Self {
        assert!(length >= 1);
        SeqDeque { capacity: Some(length), items: VecDeque::new() }
    }

    /// `make_deque()` — the unbounded deque.
    pub fn unbounded() -> Self {
        SeqDeque { capacity: None, items: VecDeque::new() }
    }

    /// Current sequence length `|S|`.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether `|S| == 0`.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Whether the deque has reached the full state.
    pub fn is_full(&self) -> bool {
        self.capacity.is_some_and(|c| self.items.len() == c)
    }

    /// `length_S` for the bounded deque, `None` for the unbounded one.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// The current abstract sequence, left to right.
    pub fn items(&self) -> impl Iterator<Item = u64> + '_ {
        self.items.iter().copied()
    }

    /// Executes one operation, returning its response and transitioning
    /// the state per Section 2.2:
    ///
    /// * `pushRight(v)`: if not full, `S := <v0..vk, v>`, "okay"; else
    ///   "full", unchanged.
    /// * `pushLeft(v)`: if not full, `S := <v, v0..vk>`, "okay"; else
    ///   "full", unchanged.
    /// * `popRight()`: if not empty, `S := <v0..v(k-1)>`, returns `vk`;
    ///   else "empty", unchanged.
    /// * `popLeft()`: if not empty, `S := <v1..vk>`, returns `v0`; else
    ///   "empty", unchanged.
    pub fn apply(&mut self, op: DequeOp) -> DequeRet {
        match op {
            DequeOp::PushRight(v) => {
                if self.is_full() {
                    DequeRet::Full
                } else {
                    self.items.push_back(v);
                    DequeRet::Okay
                }
            }
            DequeOp::PushLeft(v) => {
                if self.is_full() {
                    DequeRet::Full
                } else {
                    self.items.push_front(v);
                    DequeRet::Okay
                }
            }
            DequeOp::PopRight => match self.items.pop_back() {
                Some(v) => DequeRet::Value(v),
                None => DequeRet::Empty,
            },
            DequeOp::PopLeft => match self.items.pop_front() {
                Some(v) => DequeRet::Value(v),
                None => DequeRet::Empty,
            },
            DequeOp::PushRightN(b) => {
                if self.capacity.is_some_and(|c| self.items.len() + b.len() > c) {
                    DequeRet::Full
                } else {
                    self.items.extend(b.as_slice());
                    DequeRet::Okay
                }
            }
            DequeOp::PushLeftN(b) => {
                if self.capacity.is_some_and(|c| self.items.len() + b.len() > c) {
                    DequeRet::Full
                } else {
                    for &v in b.as_slice() {
                        self.items.push_front(v);
                    }
                    DequeRet::Okay
                }
            }
            DequeOp::PopRightN(k) => {
                let popped: Vec<u64> =
                    (0..k).filter_map(|_| self.items.pop_back()).collect();
                DequeRet::Values(Batch::new(&popped))
            }
            DequeOp::PopLeftN(k) => {
                let popped: Vec<u64> =
                    (0..k).filter_map(|_| self.items.pop_front()).collect();
                DequeRet::Values(Batch::new(&popped))
            }
        }
    }

    /// Executes `op` on a copy, returning the response and the successor
    /// state (used by the checker's backtracking search).
    pub fn peek_apply(&self, op: DequeOp) -> (DequeRet, SeqDeque) {
        let mut next = self.clone();
        let ret = next.apply(op);
        (ret, next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_worked_example() {
        // Section 2.2: pushRight(1); pushLeft(2); pushRight(3);
        // popLeft()->2; popLeft()->1.
        let mut d = SeqDeque::bounded(10);
        assert_eq!(d.apply(DequeOp::PushRight(1)), DequeRet::Okay);
        assert_eq!(d.apply(DequeOp::PushLeft(2)), DequeRet::Okay);
        assert_eq!(d.apply(DequeOp::PushRight(3)), DequeRet::Okay);
        assert_eq!(d.items().collect::<Vec<_>>(), vec![2, 1, 3]);
        assert_eq!(d.apply(DequeOp::PopLeft), DequeRet::Value(2));
        assert_eq!(d.apply(DequeOp::PopLeft), DequeRet::Value(1));
        assert_eq!(d.items().collect::<Vec<_>>(), vec![3]);
    }

    #[test]
    fn boundary_responses() {
        let mut d = SeqDeque::bounded(1);
        assert_eq!(d.apply(DequeOp::PopLeft), DequeRet::Empty);
        assert_eq!(d.apply(DequeOp::PopRight), DequeRet::Empty);
        assert_eq!(d.apply(DequeOp::PushLeft(5)), DequeRet::Okay);
        assert_eq!(d.apply(DequeOp::PushLeft(6)), DequeRet::Full);
        assert_eq!(d.apply(DequeOp::PushRight(6)), DequeRet::Full);
        assert_eq!(d.apply(DequeOp::PopRight), DequeRet::Value(5));
        assert!(d.is_empty());
    }

    #[test]
    fn unbounded_never_full() {
        let mut d = SeqDeque::unbounded();
        for i in 0..10_000 {
            assert_eq!(d.apply(DequeOp::PushRight(i)), DequeRet::Okay);
        }
        assert!(!d.is_full());
        assert_eq!(d.len(), 10_000);
    }

    #[test]
    fn batch_ops_are_atomic_multi_element_transitions() {
        let mut d = SeqDeque::bounded(6);
        assert_eq!(d.apply(DequeOp::PushRightN(Batch::new(&[1, 2, 3]))), DequeRet::Okay);
        assert_eq!(d.apply(DequeOp::PushLeftN(Batch::new(&[4, 5]))), DequeRet::Okay);
        assert_eq!(d.items().collect::<Vec<_>>(), vec![5, 4, 1, 2, 3]);
        // All-or-nothing against the capacity: 5 + 2 > 6.
        assert_eq!(d.apply(DequeOp::PushRightN(Batch::new(&[6, 7]))), DequeRet::Full);
        assert_eq!(d.len(), 5);
        assert_eq!(
            d.apply(DequeOp::PopLeftN(2)),
            DequeRet::Values(Batch::new(&[5, 4]))
        );
        assert_eq!(
            d.apply(DequeOp::PopRightN(8)),
            DequeRet::Values(Batch::new(&[3, 2, 1]))
        );
        // Short batch pop on the now-empty deque yields zero values.
        assert_eq!(d.apply(DequeOp::PopLeftN(3)), DequeRet::Values(Batch::new(&[])));
        assert!(d.is_empty());
    }

    #[test]
    fn batch_ops_match_repeated_singles() {
        // A batched operation has exactly the cumulative effect of its
        // per-element expansion (executed with no interleaving).
        let mut batched = SeqDeque::unbounded();
        let mut singles = SeqDeque::unbounded();
        batched.apply(DequeOp::PushRightN(Batch::new(&[1, 2, 3, 4])));
        for v in [1, 2, 3, 4] {
            singles.apply(DequeOp::PushRight(v));
        }
        assert_eq!(batched, singles);
        batched.apply(DequeOp::PushLeftN(Batch::new(&[5, 6])));
        for v in [5, 6] {
            singles.apply(DequeOp::PushLeft(v));
        }
        assert_eq!(batched, singles);
        let DequeRet::Values(b) = batched.apply(DequeOp::PopLeftN(3)) else {
            panic!("batch pop must return Values");
        };
        let s: Vec<u64> = (0..3)
            .map(|_| match singles.apply(DequeOp::PopLeft) {
                DequeRet::Value(v) => v,
                r => panic!("unexpected {r:?}"),
            })
            .collect();
        assert_eq!(b.as_slice(), &s[..]);
        assert_eq!(batched, singles);
    }

    /// Figure 35 axioms, property-tested against the executable model. We
    /// represent an abstract deque term by the `Vec<u64>` it denotes;
    /// `concat` is concatenation, `singleton(v)` is `[v]`, `EmptyQ` is
    /// `[]`. The `pushL/pushR/popL/popR/peekL/peekR` functions of the
    /// axioms correspond to the model's transitions.
    mod figure35_axioms {
        use super::*;
        use proptest::prelude::*;

        fn deque_from(values: &[u64]) -> SeqDeque {
            let mut d = SeqDeque::unbounded();
            for &v in values {
                d.apply(DequeOp::PushRight(v));
            }
            d
        }

        proptest! {
            // (pushL q v) == (concat (singleton v) q)
            #[test]
            fn push_left_is_prepend(q in proptest::collection::vec(any::<u64>(), 0..20), v: u64) {
                let mut d = deque_from(&q);
                d.apply(DequeOp::PushLeft(v));
                let mut expect = vec![v];
                expect.extend(&q);
                prop_assert_eq!(d.items().collect::<Vec<_>>(), expect);
            }

            // (pushR q v) == (concat q (singleton v))
            #[test]
            fn push_right_is_append(q in proptest::collection::vec(any::<u64>(), 0..20), v: u64) {
                let mut d = deque_from(&q);
                d.apply(DequeOp::PushRight(v));
                let mut expect = q.clone();
                expect.push(v);
                prop_assert_eq!(d.items().collect::<Vec<_>>(), expect);
            }

            // peekR/popR on (concat q1 q2), q2 nonempty, act on q2; and on
            // singletons yield the value / EmptyQ.
            #[test]
            fn pop_right_acts_on_right_part(
                q1 in proptest::collection::vec(any::<u64>(), 0..10),
                q2 in proptest::collection::vec(any::<u64>(), 1..10),
            ) {
                let mut joined = q1.clone();
                joined.extend(&q2);
                let mut d = deque_from(&joined);
                let ret = d.apply(DequeOp::PopRight);
                prop_assert_eq!(ret, DequeRet::Value(*q2.last().unwrap()));
                let mut expect = q1.clone();
                expect.extend(&q2[..q2.len() - 1]);
                prop_assert_eq!(d.items().collect::<Vec<_>>(), expect);
            }

            // popL mirrors popR.
            #[test]
            fn pop_left_acts_on_left_part(
                q1 in proptest::collection::vec(any::<u64>(), 1..10),
                q2 in proptest::collection::vec(any::<u64>(), 0..10),
            ) {
                let mut joined = q1.clone();
                joined.extend(&q2);
                let mut d = deque_from(&joined);
                let ret = d.apply(DequeOp::PopLeft);
                prop_assert_eq!(ret, DequeRet::Value(q1[0]));
                let mut expect = q1[1..].to_vec();
                expect.extend(&q2);
                prop_assert_eq!(d.items().collect::<Vec<_>>(), expect);
            }

            // (len (concat q1 q2)) == (+ (len q1) (len q2)); len EmptyQ == 0;
            // len (singleton v) == 1.
            #[test]
            fn len_is_additive(
                q1 in proptest::collection::vec(any::<u64>(), 0..10),
                q2 in proptest::collection::vec(any::<u64>(), 0..10),
            ) {
                let mut joined = q1.clone();
                joined.extend(&q2);
                prop_assert_eq!(deque_from(&joined).len(), q1.len() + q2.len());
            }

            // concat is associative with EmptyQ as identity (implicit in
            // the Vec representation; checked for the model's observable
            // behaviour).
            #[test]
            fn empty_is_concat_identity(q in proptest::collection::vec(any::<u64>(), 0..20)) {
                prop_assert_eq!(deque_from(&q).items().collect::<Vec<_>>(), q);
            }
        }

        #[test]
        fn singleton_pop_yields_empty() {
            // (popR (singleton v)) == EmptyQ, (popL (singleton v)) == EmptyQ
            let mut d = deque_from(&[42]);
            assert_eq!(d.apply(DequeOp::PopRight), DequeRet::Value(42));
            assert!(d.is_empty());
            let mut d = deque_from(&[42]);
            assert_eq!(d.apply(DequeOp::PopLeft), DequeRet::Value(42));
            assert!(d.is_empty());
        }
    }
}
