//! Hierarchical timer wheel: an O(1)-ish priority queue over [`SimTime`].
//!
//! The harness needs to answer "when is the next thing this session cares
//! about?" thousands of times per simulated second: activity-window edges,
//! request arrivals, CPU-gap expiries, and in-flight launch deliveries all
//! contribute deadlines. A linear scan over every client
//! ([`Session::next_wake_scan`](crate::harness::Session::next_wake_scan))
//! is O(clients) per query, and a session asks after every step. The
//! wheel makes both registration and the earliest-deadline query cheap and
//! *incremental*: only timers that actually changed are touched.
//!
//! # Design
//!
//! A classic hierarchical (a.k.a. calendar-queue) wheel:
//!
//! * `LEVELS` levels of `SLOTS` slots each, `SLOT_BITS` bits per
//!   level. Level `l` slots span `64^l` nanoseconds, so 11 levels cover
//!   the full 64-bit [`SimTime`] range.
//! * A timer due `delta` ns from now lands on the deepest level whose
//!   resolution still separates it from `now`; its slot is indexed by the
//!   *absolute* deadline (`(at >> 6·l) & 63`), so no per-tick re-hashing
//!   is needed.
//! * Per-level occupancy bitmaps make "first non-empty slot at or after
//!   now" a single `rotate_right` + `trailing_zeros`.
//! * Advancing drains the globally earliest slot; entries not yet due
//!   *cascade* — they are re-placed relative to the new `now`, dropping to
//!   finer levels as their remaining delta shrinks.
//! * Every insert returns a monotonically increasing [`TimerId`]. Same
//!   -instant timers fire in id (i.e. insertion) order, which keeps every
//!   consumer deterministic, and the id indexes a side table for O(1)
//!   direct cancellation (no lazy tombstones that would break `peek`).
//!
//! Determinism note: the only hash map in the structure is keyed by
//! [`TimerId`] and used purely for point lookups — iteration order never
//! influences results.

#[allow(clippy::disallowed_types)]
// tally-lint: allow(D2-unordered-iter) -- imported for the id → slot index
// below; every access is a point lookup, iteration order is never observed.
use std::collections::HashMap;
use std::fmt;

use tally_gpu::SimTime;

/// Bits of slot index per level.
const SLOT_BITS: u32 = 6;
/// Slots per level (`1 << SLOT_BITS`).
const SLOTS: usize = 1 << SLOT_BITS;
/// Levels in the hierarchy. `11 × 6 = 66` bits ≥ the 64-bit time domain,
/// so every representable deadline has a level.
const LEVELS: usize = 11;
/// Mask selecting a slot index.
const SLOT_MASK: u64 = (SLOTS as u64) - 1;

/// Opaque handle for a registered timer, returned by
/// [`TimerWheel::insert`] and accepted by [`TimerWheel::cancel`].
///
/// Ids are allocated monotonically, and timers sharing an instant fire in
/// id order — FIFO with respect to insertion.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimerId(u64);

/// Where a live timer currently sits (for direct cancellation).
#[derive(Copy, Clone)]
struct Loc {
    level: u8,
    slot: u8,
}

struct Entry<T> {
    id: u64,
    at: u64,
    val: T,
}

/// A hierarchical timer wheel keyed by [`SimTime`]; see the
/// [module docs](self) for the design.
pub struct TimerWheel<T> {
    now: u64,
    next_id: u64,
    /// `LEVELS × SLOTS` buckets, level-major.
    slots: Vec<Vec<Entry<T>>>,
    /// One occupancy bit per slot, per level.
    occupied: [u64; LEVELS],
    /// Live-timer index: id → location. Point lookups only.
    #[allow(clippy::disallowed_types)]
    // tally-lint: allow(D2-unordered-iter) -- get/insert/remove by TimerId
    // only; nothing ever iterates this map, so hash order is unobservable.
    index: HashMap<u64, Loc>,
}

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> fmt::Debug for TimerWheel<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TimerWheel")
            .field("now", &SimTime::from_nanos(self.now))
            .field("len", &self.index.len())
            .finish_non_exhaustive()
    }
}

impl<T> TimerWheel<T> {
    /// An empty wheel positioned at [`SimTime::ZERO`].
    #[allow(clippy::disallowed_types)] // point-lookup HashMap index (see field docs)
    pub fn new() -> Self {
        let mut slots = Vec::with_capacity(LEVELS * SLOTS);
        slots.resize_with(LEVELS * SLOTS, Vec::new);
        TimerWheel {
            now: 0,
            next_id: 0,
            slots,
            occupied: [0; LEVELS],
            // tally-lint: allow(D2-unordered-iter) -- point-lookup index (above).
            index: HashMap::new(),
        }
    }

    /// The wheel's current position. Never moves backwards.
    pub fn now(&self) -> SimTime {
        SimTime::from_nanos(self.now)
    }

    /// Number of live (inserted, not yet fired or cancelled) timers.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether no timers are live.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Registers a timer at `at` (clamped to `now` if already past) and
    /// returns its id. O(1).
    pub fn insert(&mut self, at: SimTime, val: T) -> TimerId {
        let at = at.as_nanos().max(self.now);
        let id = self.next_id;
        self.next_id += 1;
        self.place(Entry { id, at, val });
        TimerId(id)
    }

    /// Removes a live timer. Returns its payload, or `None` if the id
    /// already fired or was cancelled. O(slot population).
    pub fn cancel(&mut self, id: TimerId) -> Option<T> {
        let loc = self.index.remove(&id.0)?;
        let bucket = &mut self.slots[loc.level as usize * SLOTS + loc.slot as usize];
        let pos = bucket
            .iter()
            .position(|e| e.id == id.0)
            .expect("timer index points at its bucket");
        // Within-bucket order is irrelevant (firing sorts by (at, id)),
        // so swap_remove keeps cancellation O(1).
        let entry = bucket.swap_remove(pos);
        if bucket.is_empty() {
            self.occupied[loc.level as usize] &= !(1u64 << loc.slot);
        }
        Some(entry.val)
    }

    /// The earliest live deadline, without advancing. O(levels).
    pub fn peek(&self) -> Option<SimTime> {
        self.earliest().map(|(_, _, at)| SimTime::from_nanos(at))
    }

    /// Advances the wheel to `t`, firing every timer with deadline ≤ `t`.
    ///
    /// Fired timers are returned sorted by `(deadline, id)` — same-instant
    /// timers in insertion order. Entries that merely *cascade* (their
    /// slot is reached but their deadline is still ahead) are re-placed at
    /// finer levels and not returned. Advancing to `t ≤ now` is a no-op.
    pub fn advance_to(&mut self, t: SimTime) -> Vec<(SimTime, T)> {
        let t = t.as_nanos();
        let mut fired: Vec<(u64, u64, T)> = Vec::new();
        loop {
            match self.earliest() {
                Some((level, slot, at)) if at <= t => {
                    // Jump to the earliest deadline, then drain its slot:
                    // due entries fire, the rest cascade relative to the
                    // new now.
                    self.now = self.now.max(at);
                    let bucket = std::mem::take(&mut self.slots[level * SLOTS + slot]);
                    self.occupied[level] &= !(1u64 << slot);
                    for e in bucket {
                        if e.at <= self.now {
                            self.index.remove(&e.id);
                            fired.push((e.at, e.id, e.val));
                        } else {
                            self.place(e);
                        }
                    }
                }
                _ => break,
            }
        }
        self.now = self.now.max(t);
        // A slot can be reached from several levels as entries cascade,
        // so restore global (deadline, id) order before handing back.
        fired.sort_by_key(|&(at, id, _)| (at, id));
        fired
            .into_iter()
            .map(|(at, _, val)| (SimTime::from_nanos(at), val))
            .collect()
    }

    /// Buckets an entry by the highest bit position where `at` differs
    /// from `now` and records it in the index. Picking the level from the
    /// differing-prefix (rather than from `at - now`) guarantees the
    /// entry's absolute slot is within `[0, 63]` slots ahead of `now`'s
    /// slot at that level — a raw delta of `64^l` can straddle a slot
    /// boundary and alias a full lap ahead — so the wrap-order scan in
    /// [`Self::earliest`] is unambiguous. The bound also survives `now`
    /// advancing (both ends keep their shared prefix until the entry is
    /// reached), so cascaded and aged entries stay scannable.
    fn place(&mut self, e: Entry<T>) {
        debug_assert!(e.at >= self.now);
        let level = if e.at == self.now {
            0
        } else {
            ((63 - (e.at ^ self.now).leading_zeros()) / SLOT_BITS) as usize
        };
        let slot = ((e.at >> (SLOT_BITS * level as u32)) & SLOT_MASK) as usize;
        self.index.insert(
            e.id,
            Loc {
                level: level as u8,
                slot: slot as u8,
            },
        );
        self.occupied[level] |= 1u64 << slot;
        self.slots[level * SLOTS + slot].push(e);
    }

    /// Finds the globally earliest deadline: per level, the first occupied
    /// slot at-or-after `now` in wrap order (a rotate + trailing_zeros on
    /// the occupancy bitmap), then the min deadline within that bucket;
    /// the winner across levels is the earliest overall.
    fn earliest(&self) -> Option<(usize, usize, u64)> {
        let mut best: Option<(usize, usize, u64)> = None;
        for level in 0..LEVELS {
            let occ = self.occupied[level];
            if occ == 0 {
                continue;
            }
            let cur = ((self.now >> (SLOT_BITS * level as u32)) & SLOT_MASK) as u32;
            let offset = occ.rotate_right(cur).trailing_zeros();
            let slot = ((cur + offset) & SLOT_MASK as u32) as usize;
            let at = self.slots[level * SLOTS + slot]
                .iter()
                .map(|e| e.at)
                .min()
                .expect("occupied slot is non-empty");
            if best.is_none_or(|(_, _, b)| at < b) {
                best = Some((level, slot, at));
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn fires_in_deadline_order_across_levels() {
        let mut w = TimerWheel::new();
        // Deadlines spanning several wheel levels, inserted shuffled.
        let deadlines = [5u64, 63, 64, 100, 4095, 4096, 70_000, 1 << 30];
        let mut shuffled = deadlines.to_vec();
        shuffled.reverse();
        shuffled.swap(1, 5);
        for &d in &shuffled {
            w.insert(t(d), d);
        }
        assert_eq!(w.len(), deadlines.len());
        assert_eq!(w.peek(), Some(t(5)));
        let fired = w.advance_to(t(u64::MAX));
        let got: Vec<u64> = fired.iter().map(|&(at, _)| at.as_nanos()).collect();
        let mut want = deadlines.to_vec();
        want.sort_unstable();
        assert_eq!(got, want);
        for (at, val) in fired {
            assert_eq!(at.as_nanos(), val, "payload rides with its deadline");
        }
        assert!(w.is_empty());
    }

    #[test]
    fn same_instant_timers_fire_in_insertion_order() {
        let mut w = TimerWheel::new();
        for i in 0..10u64 {
            w.insert(t(1000), i);
        }
        let fired = w.advance_to(t(1000));
        let got: Vec<u64> = fired.into_iter().map(|(_, v)| v).collect();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn same_instant_fifo_survives_level_disagreement() {
        // Two timers for the same instant inserted at different wheel
        // positions land on different levels; firing must still be FIFO.
        let mut w = TimerWheel::new();
        let a = 10_000u64;
        w.insert(t(a), "first"); // delta 10_000 → level 2
        w.advance_to(t(a - 5)); // cascade close to the deadline
        w.insert(t(a), "second"); // delta 5 → level 0
        let fired = w.advance_to(t(a));
        let got: Vec<&str> = fired.into_iter().map(|(_, v)| v).collect();
        assert_eq!(got, ["first", "second"]);
    }

    #[test]
    fn cancel_removes_and_returns_payload() {
        let mut w = TimerWheel::new();
        let a = w.insert(t(50), "a");
        let b = w.insert(t(60), "b");
        assert_eq!(w.cancel(a), Some("a"));
        assert_eq!(w.cancel(a), None, "double cancel is a no-op");
        assert_eq!(w.peek(), Some(t(60)));
        let fired = w.advance_to(t(100));
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].1, "b");
        assert_eq!(w.cancel(b), None, "fired timers cannot be cancelled");
    }

    #[test]
    fn past_deadlines_clamp_to_now() {
        let mut w = TimerWheel::new();
        w.advance_to(t(500));
        w.insert(t(100), "late");
        assert_eq!(w.peek(), Some(t(500)), "past deadline clamps to now");
        let fired = w.advance_to(t(500));
        assert_eq!(fired, vec![(t(500), "late")]);
    }

    #[test]
    fn cascade_is_correct_at_level_boundaries() {
        // Deadlines straddling the 64^1 and 64^2 boundaries, plus an
        // advance that stops between two cascades.
        let mut w = TimerWheel::new();
        for &d in &[63u64, 64, 65, 4095, 4096, 4097] {
            w.insert(t(d), d);
        }
        let fired = w.advance_to(t(64));
        let got: Vec<u64> = fired.iter().map(|&(at, _)| at.as_nanos()).collect();
        assert_eq!(got, [63, 64]);
        assert_eq!(w.peek(), Some(t(65)), "cascaded entry is visible");
        let fired = w.advance_to(t(4096));
        let got: Vec<u64> = fired.iter().map(|&(at, _)| at.as_nanos()).collect();
        assert_eq!(got, [65, 4095, 4096]);
        assert_eq!(w.peek(), Some(t(4097)));
        assert_eq!(w.advance_to(t(4096)).len(), 0, "re-advance is a no-op");
        assert_eq!(w.now(), t(4096));
    }

    #[test]
    fn advance_between_occupied_slots_moves_now_exactly() {
        let mut w = TimerWheel::new();
        w.insert(t(1_000_000), ());
        assert!(w.advance_to(t(999)).is_empty());
        assert_eq!(w.now(), t(999));
        assert_eq!(w.peek(), Some(t(1_000_000)));
        let fired = w.advance_to(t(2_000_000));
        assert_eq!(fired, vec![(t(1_000_000), ())]);
        assert_eq!(w.now(), t(2_000_000));
    }

    /// Seeded property test: random inserts/cancels/advances must match a
    /// `BTreeMap`-backed reference queue event for event.
    #[test]
    fn matches_btreemap_reference_queue() {
        use std::collections::BTreeMap;
        // Tiny xorshift so the test needs no external RNG crate.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut wheel: TimerWheel<u64> = TimerWheel::new();
        // Reference: (deadline, id) → payload. Same (at, id) order.
        let mut reference: BTreeMap<(u64, u64), u64> = BTreeMap::new();
        let mut live: Vec<(TimerId, u64, u64)> = Vec::new(); // (id, raw id, at)
        let mut now = 0u64;
        for step in 0..5_000u64 {
            match rng() % 10 {
                // Mostly inserts at varied horizons (spanning all levels).
                0..=5 => {
                    let horizon = 1u64 << (rng() % 40);
                    let at = now + rng() % horizon;
                    let id = wheel.insert(t(at), step);
                    let clamped = at.max(now);
                    reference.insert((clamped, id.0), step);
                    live.push((id, id.0, clamped));
                }
                6 => {
                    if !live.is_empty() {
                        let i = (rng() as usize) % live.len();
                        let (id, raw, at) = live.swap_remove(i);
                        assert_eq!(wheel.cancel(id), reference.remove(&(at, raw)));
                    }
                }
                _ => {
                    let target = now + rng() % (1u64 << (rng() % 24));
                    let fired = wheel.advance_to(t(target));
                    let mut expect = Vec::new();
                    while let Some((&(at, raw), _)) = reference.iter().next() {
                        if at > target {
                            break;
                        }
                        let val = reference.remove(&(at, raw)).unwrap();
                        expect.push((t(at), val));
                        live.retain(|&(_, r, _)| r != raw);
                    }
                    assert_eq!(fired, expect, "step {step}, advance to {target}");
                    now = target;
                    assert_eq!(wheel.now(), t(now));
                }
            }
            assert_eq!(wheel.len(), reference.len(), "step {step}");
            assert_eq!(
                wheel.peek(),
                reference.keys().next().map(|&(at, _)| t(at)),
                "step {step}"
            );
        }
    }
}
