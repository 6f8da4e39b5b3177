//! Deterministic event queues for discrete-event kernels.
//!
//! The fleet contention kernel interleaves two event sources per link:
//! projected flow completions (owned by [`crate::SharedBottleneck`]) and
//! scheduled request arrivals. Arrivals need a priority queue keyed by
//! `(time, user id)` with a fully deterministic pop order — the shard
//! invariance and golden-regression tests pin the merged metrics down to
//! the last bit, so "roughly sorted" is not an option.
//!
//! [`EventQueue`] is that contract as a trait, with two interchangeable
//! implementations:
//!
//! - [`BinaryHeapQueue`]: the obvious `BinaryHeap<Reverse<_>>` reference.
//!   O(log n) per operation, allocation-light, and trivially correct —
//!   the oracle `tests/event_queue_props.rs` holds the wheel to. Nothing
//!   in the simulator runs on it.
//! - [`TimerWheel`]: a hierarchical timer wheel (4 levels × 64 slots,
//!   1/16 s ticks) with a calendar-style overflow list for events beyond
//!   the wheel horizon (~12 days of virtual time). Pushes into future
//!   slots are O(1); pop cost amortizes the per-slot sort over the (tiny)
//!   slot population. Events inside one tick are ordered exactly by
//!   `(time, id)`, so the pop order is *identical* to the heap's — a
//!   property the proptest suite in `tests/event_queue_props.rs` checks
//!   against arbitrary workloads, including tie storms.
//!
//! Both queues require every pushed `(time, id)` key to be unique and
//! `time` to be non-negative and finite; the kernel's keys are
//! per-user next-request times, which satisfy both by construction.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A deterministic min-queue of timed events keyed by `(time, id)`.
///
/// `peek` takes `&mut self` so lazily-organized implementations (the
/// timer wheel) can surface the next key without a separate pop path.
pub trait EventQueue<T> {
    /// Schedule `value` at absolute time `at` (seconds). Keys must be
    /// unique: pushing two events with identical `(at, id)` is a contract
    /// violation (the relative order of such events is unspecified).
    fn push(&mut self, at: f64, id: u64, value: T);

    /// The earliest `(time, id)` key, without removing it.
    fn peek(&mut self) -> Option<(f64, u64)>;

    /// Remove and return the earliest event.
    fn pop(&mut self) -> Option<(f64, u64, T)>;

    /// Number of pending events.
    fn len(&self) -> usize;

    /// Whether the queue is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop all pending events, retaining allocations where possible.
    fn clear(&mut self);
}

/// One queued event.
#[derive(Debug, Clone)]
struct Ev<T> {
    at: f64,
    id: u64,
    value: T,
}

impl<T> Ev<T> {
    fn key_cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.at.total_cmp(&other.at).then(self.id.cmp(&other.id))
    }
}

impl<T> PartialEq for Ev<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key_cmp(other).is_eq()
    }
}

impl<T> Eq for Ev<T> {}

impl<T> PartialOrd for Ev<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Ev<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key_cmp(other)
    }
}

/// Reference [`EventQueue`]: a plain binary min-heap.
#[derive(Debug)]
pub struct BinaryHeapQueue<T> {
    heap: BinaryHeap<Reverse<Ev<T>>>,
}

impl<T> Default for BinaryHeapQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> BinaryHeapQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
        }
    }
}

impl<T> EventQueue<T> for BinaryHeapQueue<T> {
    fn push(&mut self, at: f64, id: u64, value: T) {
        self.heap.push(Reverse(Ev { at, id, value }));
    }

    fn peek(&mut self) -> Option<(f64, u64)> {
        self.heap.peek().map(|Reverse(e)| (e.at, e.id))
    }

    fn pop(&mut self) -> Option<(f64, u64, T)> {
        self.heap.pop().map(|Reverse(e)| (e.at, e.id, e.value))
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn clear(&mut self) {
        self.heap.clear();
    }
}

/// Wheel geometry: 64 slots per level, 4 levels, 16 ticks per second.
///
/// Level `l` covers `64^(l+1)` ticks; the whole wheel spans
/// `64^4 / 16 ≈ 1.05e6` seconds (~12 days) past the cursor. Anything
/// beyond that parks in the overflow list and re-enters the wheel when
/// the nearer levels drain.
const SLOT_BITS: u32 = 6;
const SLOTS: usize = 1 << SLOT_BITS;
const SLOT_MASK: u64 = (SLOTS as u64) - 1;
const LEVELS: usize = 4;
const TICKS_PER_SEC: f64 = 16.0;

/// Hierarchical timer wheel with calendar-queue overflow.
///
/// Invariants (maintained by `push`/`reload`):
/// - `cur` is the tick of the slot currently draining into `current`.
/// - Events with tick ≤ `cur` live in `current`, sorted descending by
///   `(at, id)` so `pop` takes from the back.
/// - An event with tick `t > cur` lives at the lowest level `l` where
///   `t >> 6·(l+1) == cur >> 6·(l+1)` (slot `(t >> 6·l) & 63`), or in
///   `overflow` if no level contains it. All occupied slots at level `l`
///   are strictly after the cursor's level-`l` index within its block.
#[derive(Debug)]
pub struct TimerWheel<T> {
    /// `LEVELS × SLOTS` buckets, flattened.
    slots: Vec<Vec<Ev<T>>>,
    /// Bitmask of non-empty slots per level.
    occupied: [u64; LEVELS],
    /// Tick of the slot currently being drained.
    cur: u64,
    /// Events of the current slot, sorted descending by `(at, id)`.
    current: Vec<Ev<T>>,
    /// Events beyond the wheel horizon.
    overflow: Vec<Ev<T>>,
    len: usize,
}

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TimerWheel<T> {
    /// An empty wheel with its cursor at tick 0.
    pub fn new() -> Self {
        Self {
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            occupied: [0; LEVELS],
            cur: 0,
            current: Vec::new(),
            overflow: Vec::new(),
            len: 0,
        }
    }

    fn tick_of(at: f64) -> u64 {
        debug_assert!(at >= 0.0 && at.is_finite(), "event time {at} out of domain");
        // Saturating f64→u64 cast; same-tick events are ordered by their
        // exact (at, id) inside the bucket, so tick granularity never
        // affects pop order.
        (at * TICKS_PER_SEC) as u64
    }

    /// File an event relative to the cursor: `current` for ticks at or
    /// before it, the lowest level whose block contains the tick, or the
    /// overflow list.
    fn place(&mut self, ev: Ev<T>) {
        let t = Self::tick_of(ev.at);
        if t <= self.cur {
            // Late (or current-tick) event: merge into the drain buffer at
            // its sorted position so pop order stays exact.
            let pos = self
                .current
                .partition_point(|e| e.key_cmp(&ev) == std::cmp::Ordering::Greater);
            self.current.insert(pos, ev);
            return;
        }
        for level in 0..LEVELS {
            let block_shift = SLOT_BITS * (level as u32 + 1);
            if t >> block_shift == self.cur >> block_shift {
                let slot = ((t >> (SLOT_BITS * level as u32)) & SLOT_MASK) as usize;
                self.slots[level * SLOTS + slot].push(ev);
                self.occupied[level] |= 1 << slot;
                return;
            }
        }
        self.overflow.push(ev);
    }

    /// Refill `current` from the next occupied slot, cascading outer
    /// levels inward and re-seeding from the overflow list as needed.
    /// Pre-condition: `current` is empty and at least one event pends.
    fn reload(&mut self) {
        loop {
            // Lowest occupied level-0 slot is the next cursor position:
            // every bit is strictly after the cursor's index (invariant).
            if self.occupied[0] != 0 {
                let slot = self.occupied[0].trailing_zeros() as usize;
                self.occupied[0] &= !(1u64 << slot);
                self.cur = (self.cur & !SLOT_MASK) | slot as u64;
                let idx = slot; // level 0
                self.current.append(&mut self.slots[idx]);
                self.current.sort_unstable_by(|a, b| b.key_cmp(a));
                return;
            }
            // Cascade: pull the next occupied outer slot over the cursor
            // and redistribute its bucket to the levels below.
            let mut cascaded = false;
            for level in 1..LEVELS {
                if self.occupied[level] == 0 {
                    continue;
                }
                let slot = self.occupied[level].trailing_zeros() as usize;
                self.occupied[level] &= !(1u64 << slot);
                let shift = SLOT_BITS * level as u32;
                let block_shift = SLOT_BITS * (level as u32 + 1);
                self.cur = ((self.cur >> block_shift) << block_shift) | ((slot as u64) << shift);
                let idx = level * SLOTS + slot;
                let bucket = std::mem::take(&mut self.slots[idx]);
                for ev in bucket {
                    self.place(ev);
                }
                cascaded = true;
                break;
            }
            if cascaded {
                // place() may have filed events into `current` directly
                // (block-start ticks equal the new cursor).
                if !self.current.is_empty() {
                    self.current.sort_unstable_by(|a, b| b.key_cmp(a));
                    return;
                }
                continue;
            }
            // Wheel empty: re-seed from the overflow horizon.
            assert!(
                !self.overflow.is_empty(),
                "reload called on an empty TimerWheel"
            );
            let min_tick = self
                .overflow
                .iter()
                .map(|e| Self::tick_of(e.at))
                .min()
                .expect("overflow checked non-empty");
            // Jump the cursor onto the earliest parked tick: its events
            // re-file into `current` (tick ≤ cursor), so every re-seed
            // makes progress even when the tick sits on a block boundary
            // no wheel level can represent relative to `min_tick - 1`.
            self.cur = min_tick;
            let parked = std::mem::take(&mut self.overflow);
            for ev in parked {
                self.place(ev);
            }
            if !self.current.is_empty() {
                self.current.sort_unstable_by(|a, b| b.key_cmp(a));
                return;
            }
        }
    }
}

impl<T> EventQueue<T> for TimerWheel<T> {
    fn push(&mut self, at: f64, id: u64, value: T) {
        self.place(Ev { at, id, value });
        self.len += 1;
    }

    fn peek(&mut self) -> Option<(f64, u64)> {
        if self.len == 0 {
            return None;
        }
        if self.current.is_empty() {
            self.reload();
        }
        self.current.last().map(|e| (e.at, e.id))
    }

    fn pop(&mut self) -> Option<(f64, u64, T)> {
        if self.len == 0 {
            return None;
        }
        if self.current.is_empty() {
            self.reload();
        }
        let ev = self.current.pop().expect("reload fills current");
        self.len -= 1;
        Some((ev.at, ev.id, ev.value))
    }

    fn len(&self) -> usize {
        self.len
    }

    fn clear(&mut self) {
        for bucket in &mut self.slots {
            bucket.clear();
        }
        self.occupied = [0; LEVELS];
        self.cur = 0;
        self.current.clear();
        self.overflow.clear();
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain<Q: EventQueue<u32>>(q: &mut Q) -> Vec<(f64, u64, u32)> {
        let mut out = Vec::new();
        while let Some(e) = q.pop() {
            out.push(e);
        }
        out
    }

    #[test]
    fn heap_and_wheel_agree_on_mixed_workload() {
        let mut heap = BinaryHeapQueue::new();
        let mut wheel = TimerWheel::new();
        let times = [
            0.0, 0.001, 12.5, 12.5, 3.99, 4.0, 4.0625, 700.0, 7.0e5, 2.0e6, 0.0,
        ];
        for (i, &at) in times.iter().enumerate() {
            heap.push(at, i as u64, i as u32);
            wheel.push(at, i as u64, i as u32);
        }
        assert_eq!(heap.len(), wheel.len());
        assert_eq!(drain(&mut heap), drain(&mut wheel));
        assert!(wheel.is_empty() && heap.is_empty());
    }

    #[test]
    fn wheel_orders_ties_by_id() {
        let mut wheel = TimerWheel::new();
        for id in (0..50u64).rev() {
            wheel.push(5.0, id, id as u32);
        }
        for want in 0..50u64 {
            let (at, id, _) = wheel.pop().unwrap();
            assert_eq!((at, id), (5.0, want));
        }
    }

    #[test]
    fn wheel_handles_interleaved_push_pop_and_late_pushes() {
        let mut heap = BinaryHeapQueue::new();
        let mut wheel = TimerWheel::new();
        let mut id = 0u64;
        let mut push_both = |h: &mut BinaryHeapQueue<u32>, w: &mut TimerWheel<u32>, at: f64| {
            h.push(at, id, id as u32);
            w.push(at, id, id as u32);
            id += 1;
        };
        for k in 0..40 {
            push_both(&mut heap, &mut wheel, 10.0 + k as f64 * 3.7);
        }
        for _ in 0..20 {
            assert_eq!(heap.pop(), wheel.pop());
        }
        // Pushes earlier than everything already popped ("late" events).
        push_both(&mut heap, &mut wheel, 0.5);
        push_both(&mut heap, &mut wheel, 11.0);
        assert_eq!(heap.peek(), wheel.peek());
        assert_eq!(drain(&mut heap), drain(&mut wheel));
    }

    #[test]
    fn clear_resets_the_wheel() {
        let mut wheel = TimerWheel::new();
        wheel.push(9.0, 1, 1u32);
        wheel.push(1.0e7, 2, 2u32);
        wheel.pop();
        wheel.clear();
        assert!(wheel.pop().is_none());
        assert_eq!(wheel.len(), 0);
        wheel.push(2.0, 3, 3u32);
        assert_eq!(wheel.pop(), Some((2.0, 3, 3u32)));
    }
}
