//! Property-based equivalence of the timer wheel and the reference heap.
//!
//! The fleet contention kernel's determinism rests on its arrival queue
//! popping events in exact `(time, id)` order. [`BinaryHeapQueue`] is
//! trivially correct; these properties force [`TimerWheel`] to agree with
//! it event-for-event on arbitrary workloads — random times spanning
//! sub-tick spacing through past-the-horizon outliers, tie storms at a
//! single timestamp, and interleaved push/pop/clear schedules that
//! exercise late pushes behind the wheel cursor and reuse after a clear.
//! Every [`EventQueue`] method the kernel calls is covered here; this
//! suite is the only place the two implementations are compared.

use lingxi_net::{BinaryHeapQueue, EventQueue, TimerWheel};
use proptest::prelude::*;

/// Event times that stress every wheel path: dense sub-tick clusters,
/// mid-range slots, far-future overflow, and exact duplicates (ties).
fn arb_time() -> impl Strategy<Value = f64> {
    prop_oneof![
        4 => 0.0f64..2.0,          // dense: many events per tick
        4 => 0.0f64..5_000.0,      // typical kernel range
        1 => 1.0e6f64..3.0e6,      // beyond the wheel horizon
        1 => Just(1.25f64),        // guaranteed tie storms
        1 => Just(0.0f64),
    ]
}

fn drain_all<Q: EventQueue<usize>>(q: &mut Q) -> Vec<(f64, u64, usize)> {
    let mut out = Vec::new();
    while let Some(e) = q.pop() {
        out.push(e);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Bulk load then full drain: identical pop sequences.
    #[test]
    fn wheel_pops_in_heap_order(times in proptest::collection::vec(arb_time(), 1..200)) {
        let mut heap = BinaryHeapQueue::new();
        let mut wheel = TimerWheel::new();
        for (i, &at) in times.iter().enumerate() {
            // Unique (at, id) keys: ids are distinct even when times tie.
            heap.push(at, i as u64, i);
            wheel.push(at, i as u64, i);
        }
        prop_assert_eq!(heap.len(), wheel.len());
        prop_assert_eq!(drain_all(&mut heap), drain_all(&mut wheel));
    }

    /// Interleaved schedule: after every operation the two queues expose
    /// the same peek key, late pushes (earlier than events already
    /// popped) keep the orders aligned, and a `clear()` mid-schedule
    /// leaves a queue that is reused like a fresh one (the kernel clears
    /// its queue between links and restarts the clock at zero).
    #[test]
    fn wheel_matches_heap_under_interleaving(
        ops in proptest::collection::vec((arb_time(), 0u8..16), 1..150),
    ) {
        let mut heap = BinaryHeapQueue::new();
        let mut wheel = TimerWheel::new();
        let mut id = 0u64;
        for &(at, kind) in &ops {
            match kind {
                // Pop from both (may be empty — must agree on that too).
                0..=3 => prop_assert_eq!(heap.pop(), wheel.pop()),
                15 => {
                    heap.clear();
                    wheel.clear();
                    prop_assert!(wheel.is_empty());
                }
                _ => {
                    heap.push(at, id, id as usize);
                    wheel.push(at, id, id as usize);
                    id += 1;
                }
            }
            prop_assert_eq!(heap.peek(), wheel.peek());
            prop_assert_eq!(heap.len(), wheel.len());
        }
        prop_assert_eq!(drain_all(&mut heap), drain_all(&mut wheel));
    }

    /// Tie storm: every event at the same timestamp pops in ascending id
    /// order regardless of push order.
    #[test]
    fn tie_storms_resolve_by_id(
        n in 1usize..150,
        at in 0.0f64..1.0e5,
        seed_shuffle in 0u64..u64::MAX,
    ) {
        let mut ids: Vec<u64> = (0..n as u64).collect();
        // Deterministic pseudo-shuffle from the seed (no RNG dependency).
        let m = ids.len();
        for i in (1..m).rev() {
            let j = (seed_shuffle.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i as u64)
                % (i as u64 + 1)) as usize;
            ids.swap(i, j);
        }
        let mut wheel = TimerWheel::new();
        for &uid in &ids {
            wheel.push(at, uid, uid as usize);
        }
        for want in 0..n as u64 {
            let (got_at, got_id, _) = wheel.pop().unwrap();
            prop_assert_eq!((got_at, got_id), (at, want));
        }
        prop_assert!(wheel.is_empty());
    }
}
