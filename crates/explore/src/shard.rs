//! The lock-free, sharded **per-layer claim filter**.
//!
//! Admitted states live in the engine's state store, which is frozen
//! while workers expand a layer — membership for *admitted* states is a
//! plain read-only store lookup, no synchronization at all. What needs
//! concurrent coordination is only the set of states discovered *within
//! the current layer*, and that set is handled here by a fixed-capacity
//! open-addressing filter whose slots are claimed by atomic
//! compare-and-swap instead of per-shard mutexes:
//!
//! * a worker **claims** a slot by CAS-ing the slot's tag from the empty
//!   sentinel to the state's hash; the single CAS winner publishes the
//!   `(hash, representation)` payload through a [`OnceLock`];
//! * losers that verify payload equality — through the caller's
//!   equality check against the *borrowed* state, so a duplicate never
//!   builds a representation — fold their claim in with a single
//!   `fetch_min` on the slot's packed claim key: the minimal `(parent,
//!   action, successor)` triple survives regardless of arrival order,
//!   which is what keeps results thread-count-independent;
//! * anything the filter cannot prove — an unverifiable race with a
//!   winner mid-publish, a probe chain past its limit, a claim key too
//!   large for the packed 64-bit form — is returned to the caller as
//!   [`Claimed::Overflow`] *with an owned representation*, and exactness
//!   is restored at the layer barrier where the engine merges
//!   worker-local overflow lists into the drained entries.
//!
//! The representation is built by the caller's constructor at most once
//! per claim: just before the CAS on an empty slot, or on overflow.
//!
//! The filter is built fresh per layer and drained at the barrier, so a
//! state dropped by the state budget is naturally rediscoverable in a
//! later layer (the role the old visited-set tombstones played). The
//! segment count honors the explorer's `shards` knob; segments are
//! selected by the hash's upper bits while in-segment probing consumes
//! the lower bits, keeping the two choices independent.

use std::collections::hash_map::DefaultHasher;
use std::hash::BuildHasherDefault;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// The hasher shared by the claim filter and the state store.
/// `DefaultHasher` with default keys is deterministic, which keeps
/// segment routing and cached hashes reproducible across runs.
pub(crate) type SharedHasher = BuildHasherDefault<DefaultHasher>;

/// The identity of one discovery of a state: which frontier slot, which
/// of its actions, which nondeterministic successor. Lexicographic order
/// over this triple is the deterministic tie-break that makes parallel
/// results thread-count-independent: concurrent claims of the same state
/// keep the minimal key, and the minimum over a set does not depend on
/// arrival order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct ClaimKey {
    /// Arena id of the parent (frontier) state.
    pub parent: u32,
    /// Index of the action within the parent's deterministic action list.
    pub action: u32,
    /// Index of the successor within the action's successor list.
    pub succ: u32,
}

/// Bits of the packed key reserved for the successor index.
const SUCC_BITS: u32 = 12;
/// Bits of the packed key reserved for the action index.
const ACTION_BITS: u32 = 20;

impl ClaimKey {
    /// Packs the triple into one `u64` whose numeric order equals the
    /// triple's lexicographic order, so a `fetch_min` on the packed form
    /// is a lock-free "keep the minimal claim". `None` when the action
    /// or successor index exceeds its bit-field — such claims take the
    /// overflow path and are merged exactly at the barrier.
    pub fn pack(self) -> Option<u64> {
        (self.action < (1 << ACTION_BITS) && self.succ < (1 << SUCC_BITS)).then(|| {
            (u64::from(self.parent) << (ACTION_BITS + SUCC_BITS))
                | (u64::from(self.action) << SUCC_BITS)
                | u64::from(self.succ)
        })
    }

    /// Inverse of [`pack`](Self::pack).
    pub fn unpack(packed: u64) -> ClaimKey {
        ClaimKey {
            parent: (packed >> (ACTION_BITS + SUCC_BITS)) as u32,
            action: ((packed >> SUCC_BITS) & ((1 << ACTION_BITS) - 1)) as u32,
            succ: (packed & ((1 << SUCC_BITS) - 1)) as u32,
        }
    }
}

/// A state pending admission: the minimal claim seen so far, the state's
/// hash under the shared hasher, and its store representation. Produced
/// by [`LayerFilter::drain`] and by overflowing claims; the engine merges
/// both populations at the layer barrier.
pub(crate) struct PendingState<R> {
    pub key: ClaimKey,
    pub hash: u64,
    pub repr: R,
}

/// Outcome of one [`LayerFilter::claim`] call.
pub(crate) enum Claimed<R> {
    /// First discovery of this state in the current layer.
    New,
    /// Verified equal to a state already claimed this layer; the minimal
    /// claim key was folded in.
    Duplicate,
    /// The filter could not decide (probe limit, unverifiable race, or
    /// an unpackable claim key). The built representation goes to the
    /// caller, which records it in a worker-local overflow list; the
    /// barrier merge restores exact dedup semantics.
    Overflow(R),
}

/// How many slots a claim probes before giving up and overflowing.
/// Overflow is correctness-neutral (the barrier dedups exactly), so this
/// only bounds the worst-case work under pathological clustering.
const PROBE_LIMIT: usize = 64;

/// One filter slot. `tag` is the claim CAS target (0 = empty sentinel;
/// a state hashing to 0 is tagged 1, and the true hash stored in `val`
/// disambiguates). `key` accumulates the minimal packed claim key via
/// `fetch_min`. `val` is published exactly once, by the CAS winner.
struct FilterSlot<R> {
    tag: AtomicU64,
    key: AtomicU64,
    val: OnceLock<(u64, R)>,
}

impl<R> FilterSlot<R> {
    fn empty() -> Self {
        FilterSlot {
            tag: AtomicU64::new(0),
            key: AtomicU64::new(u64::MAX),
            val: OnceLock::new(),
        }
    }
}

/// The per-layer claim filter: `segments` independent power-of-two slot
/// arrays. See the module docs for the protocol.
pub(crate) struct LayerFilter<R> {
    segments: Vec<Vec<FilterSlot<R>>>,
    /// Mask for the power-of-two segment count (upper hash bits).
    seg_mask: usize,
    /// Mask for the power-of-two per-segment slot count (lower bits).
    slot_mask: usize,
}

impl<R> LayerFilter<R> {
    /// A filter sized for about `expected` distinct discoveries, split
    /// into `segments` segments (both rounded up to powers of two; small
    /// layers collapse to fewer segments so each keeps a useful probe
    /// neighborhood). Claims beyond capacity overflow, they never block.
    pub fn new(expected: usize, segments: usize) -> Self {
        let total = expected.next_power_of_two().max(16);
        let segs = segments.max(1).next_power_of_two().min((total / 16).max(1));
        let per_seg = (total / segs).next_power_of_two();
        LayerFilter {
            segments: (0..segs)
                .map(|_| (0..per_seg).map(|_| FilterSlot::empty()).collect())
                .collect(),
            seg_mask: segs - 1,
            slot_mask: per_seg - 1,
        }
    }

    /// Claims the state hashing to `hash` as discovered via `key`.
    /// `is_same` tells whether a published representation is this
    /// state; `make` builds its representation, at most once and only
    /// when the claim takes an empty slot or overflows. Lock-free: the
    /// only writes are one CAS on an empty slot's tag, a `OnceLock`
    /// publish by the unique CAS winner, and `fetch_min` folds of the
    /// packed claim key.
    pub fn claim(
        &self,
        hash: u64,
        key: ClaimKey,
        is_same: impl Fn(&R) -> bool,
        make: impl FnOnce() -> R,
    ) -> Claimed<R> {
        let mut make = Some(make);
        // A representation built for a CAS this claim then lost, kept
        // for the next empty slot (or the overflow list).
        let mut built: Option<R> = None;
        let mut own = |built: &mut Option<R>| {
            built
                .take()
                .unwrap_or_else(|| make.take().expect("a claim builds its representation once")())
        };
        let Some(packed) = key.pack() else {
            return Claimed::Overflow(own(&mut built));
        };
        let tag = if hash == 0 { 1 } else { hash };
        let segment = &self.segments[(hash >> 32) as usize & self.seg_mask];
        let mut i = (hash as usize) & self.slot_mask;
        for _ in 0..PROBE_LIMIT.min(segment.len()) {
            let slot = &segment[i];
            let mut current = slot.tag.load(Ordering::Acquire);
            if current == 0 {
                let repr = own(&mut built);
                match slot
                    .tag
                    .compare_exchange(0, tag, Ordering::AcqRel, Ordering::Acquire)
                {
                    Ok(_) => {
                        // We own the slot: publish, then fold our key.
                        let published = slot.val.set((hash, repr)).is_ok();
                        debug_assert!(published, "CAS winner is the only publisher");
                        slot.key.fetch_min(packed, Ordering::AcqRel);
                        return Claimed::New;
                    }
                    Err(raced) => {
                        built = Some(repr);
                        current = raced;
                    }
                }
            }
            if current == tag {
                match slot.val.get() {
                    Some((h, r)) if *h == hash && is_same(r) => {
                        slot.key.fetch_min(packed, Ordering::AcqRel);
                        return Claimed::Duplicate;
                    }
                    // A different state sharing the tag: keep probing.
                    Some(_) => {}
                    // Winner mid-publish; defer to the barrier merge
                    // rather than spin.
                    None => return Claimed::Overflow(own(&mut built)),
                }
            }
            i = (i + 1) & self.slot_mask;
        }
        Claimed::Overflow(own(&mut built))
    }

    /// Drains every claimed slot. Called at the layer barrier with
    /// exclusive access (all workers joined), so every claimed slot has
    /// a published payload and a folded key. Slot order is scheduling
    /// dependent — the engine sorts the merged entries by claim key
    /// before admitting, which is what makes admission deterministic.
    pub fn drain(&mut self) -> Vec<PendingState<R>> {
        let mut out = Vec::new();
        for segment in &mut self.segments {
            for slot in segment {
                if *slot.tag.get_mut() == 0 {
                    continue;
                }
                let (hash, repr) = slot.val.take().expect("claimed slot has a payload");
                out.push(PendingState {
                    key: ClaimKey::unpack(*slot.key.get_mut()),
                    hash,
                    repr,
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(parent: u32, action: u32, succ: u32) -> ClaimKey {
        ClaimKey {
            parent,
            action,
            succ,
        }
    }

    /// Claims a test representation, recognized by plain equality.
    fn claim<R: Eq + Clone>(filter: &LayerFilter<R>, hash: u64, k: ClaimKey, v: R) -> Claimed<R> {
        filter.claim(hash, k, |r| *r == v, || v.clone())
    }

    #[test]
    fn pack_order_matches_lexicographic_order() {
        let keys = [
            key(0, 0, 0),
            key(0, 0, 1),
            key(0, 1, 0),
            key(1, 0, 0),
            key(1, 2, 3),
            key(u32::MAX, (1 << 20) - 1, (1 << 12) - 1),
        ];
        for a in &keys {
            for b in &keys {
                let (pa, pb) = (a.pack().unwrap(), b.pack().unwrap());
                assert_eq!(pa.cmp(&pb), a.cmp(b), "{a:?} vs {b:?}");
                assert_eq!(ClaimKey::unpack(pa), *a);
            }
        }
        assert!(key(0, 1 << 20, 0).pack().is_none());
        assert!(key(0, 0, 1 << 12).pack().is_none());
    }

    #[test]
    fn minimal_claim_wins_regardless_of_order() {
        let keys = [key(2, 0, 0), key(0, 1, 0), key(0, 0, 1)];
        for order in [[0usize, 1, 2], [2, 1, 0]] {
            let mut filter: LayerFilter<u32> = LayerFilter::new(16, 4);
            let mut news = 0;
            for i in order {
                if matches!(claim(&filter, 7, keys[i], 99), Claimed::New) {
                    news += 1;
                }
            }
            assert_eq!(news, 1);
            let drained = filter.drain();
            assert_eq!(drained.len(), 1);
            assert_eq!(drained[0].key, key(0, 0, 1));
            assert_eq!(drained[0].hash, 7);
            assert_eq!(drained[0].repr, 99);
        }
    }

    #[test]
    fn distinct_states_with_equal_hashes_coexist() {
        let mut filter: LayerFilter<u32> = LayerFilter::new(16, 1);
        assert!(matches!(claim(&filter, 5, key(0, 0, 0), 10), Claimed::New));
        assert!(matches!(claim(&filter, 5, key(0, 0, 1), 20), Claimed::New));
        assert!(matches!(
            claim(&filter, 5, key(9, 0, 0), 10),
            Claimed::Duplicate
        ));
        assert!(matches!(
            claim(&filter, 5, key(9, 0, 0), 20),
            Claimed::Duplicate
        ));
        let mut drained = filter.drain();
        drained.sort_unstable_by_key(|p| p.key);
        assert_eq!(drained.len(), 2);
        assert_eq!((drained[0].repr, drained[1].repr), (10, 20));
    }

    #[test]
    fn zero_hash_is_remapped_but_disambiguated() {
        let mut filter: LayerFilter<u32> = LayerFilter::new(16, 1);
        assert!(matches!(claim(&filter, 0, key(0, 0, 0), 1), Claimed::New));
        // Hash 1 shares the tag with remapped hash 0; the stored true
        // hash keeps them distinct states.
        assert!(matches!(claim(&filter, 1, key(0, 0, 1), 1), Claimed::New));
        assert!(matches!(
            claim(&filter, 0, key(5, 0, 0), 1),
            Claimed::Duplicate
        ));
        let drained = filter.drain();
        assert_eq!(drained.len(), 2);
    }

    #[test]
    fn representations_are_built_only_for_new_and_overflowing_claims() {
        let filter: LayerFilter<u32> = LayerFilter::new(16, 1);
        let builds = std::cell::Cell::new(0);
        let make = || {
            builds.set(builds.get() + 1);
            7
        };
        assert!(matches!(
            filter.claim(9, key(0, 0, 0), |r| *r == 7, make),
            Claimed::New
        ));
        assert!(matches!(
            filter.claim(9, key(1, 0, 0), |r| *r == 7, make),
            Claimed::Duplicate
        ));
        assert_eq!(builds.get(), 1, "a duplicate must not build anything");
        assert!(matches!(
            filter.claim(9, key(0, 1 << 20, 0), |r| *r == 7, make),
            Claimed::Overflow(7)
        ));
        assert_eq!(builds.get(), 2);
    }

    #[test]
    fn unpackable_keys_overflow_with_ownership() {
        let filter: LayerFilter<String> = LayerFilter::new(16, 1);
        let big = key(0, 1 << 20, 0);
        match claim(&filter, 3, big, "payload".to_string()) {
            Claimed::Overflow(s) => assert_eq!(s, "payload"),
            _ => panic!("unpackable key must overflow"),
        }
    }

    #[test]
    fn capacity_exhaustion_overflows_instead_of_blocking() {
        let mut filter: LayerFilter<u64> = LayerFilter::new(1, 1); // 16 slots
        let (mut news, mut overflows) = (0, 0);
        for s in 0..100u64 {
            // Spread hashes so probing is realistic.
            match claim(
                &filter,
                s.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                key(s as u32, 0, 0),
                s,
            ) {
                Claimed::New => news += 1,
                Claimed::Overflow(_) => overflows += 1,
                Claimed::Duplicate => panic!("all states distinct"),
            }
        }
        assert_eq!(news + overflows, 100);
        assert!(news <= 16);
        assert!(overflows >= 84);
        assert_eq!(filter.drain().len(), news);
    }

    #[test]
    fn concurrent_claims_merge_to_minimal_keys() {
        let filter: LayerFilter<u64> = LayerFilter::new(1024, 8);
        // Worker-local overflow lists, merged below exactly the way the
        // engine's layer barrier merges them.
        let overflow = std::sync::Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let (filter, overflow) = (&filter, &overflow);
                scope.spawn(move || {
                    let mut local = Vec::new();
                    for s in 0..256u64 {
                        let hash = s.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                        let k = key(s as u32, t, 0);
                        if let Claimed::Overflow(r) = claim(filter, hash, k, s) {
                            local.push(PendingState {
                                key: k,
                                hash,
                                repr: r,
                            });
                        }
                    }
                    overflow.lock().unwrap().append(&mut local);
                });
            }
        });
        let mut filter = filter;
        let mut best = std::collections::BTreeMap::new();
        for p in filter
            .drain()
            .into_iter()
            .chain(overflow.into_inner().unwrap())
        {
            let k = best.entry(p.repr).or_insert(p.key);
            *k = (*k).min(p.key);
        }
        // After the merge every state survives exactly once, with the
        // overall minimal claim (action index 0 beats 1..4).
        assert_eq!(best.len(), 256);
        assert!(best.values().all(|k| k.action == 0));
    }
}
