//! Pluggable state-storage backends for the parallel explorer.
//!
//! The engine is generic over *how admitted states are stored*. The
//! [`PlainBackend`] keeps full structs in a [`StateTable`] — zero
//! translation cost, byte-identical to the engine's original behavior.
//! The [`PackedBackend`] stores each state's canonical [`PackedCodec`]
//! encoding in a [`PackedTable`]: the hasher touches a handful of bytes
//! instead of walking a struct, the arena footprint drops several-fold
//! for queue-heavy zoo states.
//!
//! Both backends expose the same claim-time contract: [`probe`] hashes a
//! *borrowed* successor once and hands back its borrowed key (the state
//! itself, or its encoding in a reused per-worker buffer), workers dedup
//! against admitted states via the read-only [`lookup`] on that key, an
//! owned representation is built by [`to_repr`] only for a state the
//! layer's claim filter publishes or overflows, and the barrier interns
//! in deterministic sorted order via [`intern_new`] — so plain and
//! packed runs admit the same states with the same dense ids and differ
//! only in `arena_bytes`.
//!
//! [`probe`]: StateStore::probe
//! [`lookup`]: StateStore::lookup
//! [`to_repr`]: StateStore::to_repr
//! [`intern_new`]: StateStore::intern_new

use std::borrow::{Borrow, Cow};
use std::hash::{BuildHasher, Hash};
use std::marker::PhantomData;

use ioa::intern::{PackedCodec, PackedTable};
use ioa::{StateId, StateTable};

use crate::shard::SharedHasher;

/// Storage for one exploration run: an append-only arena of admitted
/// states plus the claim-time representation workers pass around.
///
/// The store is frozen (shared immutably) while workers expand a layer
/// and grows only at the barrier, on the coordinating thread.
pub trait StateStore<S: Clone>: Sync {
    /// The borrowed form a state is probed as: the state itself for
    /// plain storage, its canonical encoding for packed storage.
    /// Equality on keys must coincide with equality on states.
    type Key: ?Sized + Eq;

    /// What a claimed-but-not-yet-admitted state is carried as: the
    /// owned form of [`Key`](Self::Key).
    type Repr: Borrow<Self::Key> + Send + Sync;

    /// Hashes the borrowed `state` and returns it with its probe key.
    /// Packed storage encodes into `buf`, which the caller reuses across
    /// probes, so a probe allocates nothing once `buf` has grown. The
    /// hash is the one [`lookup`](Self::lookup) and
    /// [`intern_new`](Self::intern_new) expect — it is computed exactly
    /// once per discovered edge.
    fn probe<'a>(&self, state: &'a S, buf: &'a mut Vec<u8>) -> (u64, &'a Self::Key);

    /// The owned representation of a probed key. Built only for a state
    /// the claim filter publishes or overflows, never for a duplicate.
    fn to_repr(&self, key: &Self::Key) -> Self::Repr;

    /// Dense id of an already-admitted state with this key, if any.
    /// Read-only; safe to call from concurrent workers.
    fn lookup(&self, hash: u64, key: &Self::Key) -> Option<u32>;

    /// Admits a representation known not to be stored yet, returning its
    /// dense id (ids are assigned in call order, starting at 0).
    fn intern_new(&mut self, hash: u64, repr: Self::Repr) -> u32;

    /// Loads admitted state `idx` — borrowed from the arena for plain
    /// storage, decoded on the fly for packed storage.
    fn load(&self, idx: u32) -> Cow<'_, S>;

    /// Number of admitted states.
    fn len(&self) -> usize;

    /// True when no state has been admitted yet.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Resident footprint of the arena in bytes.
    fn approx_bytes(&self) -> usize;
}

/// A factory for [`StateStore`]s — the explorer holds a backend and
/// builds one fresh store per exploration run.
pub trait ExploreBackend<S: Clone>: Clone {
    /// The store this backend builds.
    type Store: StateStore<S>;

    /// A fresh, empty store.
    fn new_store(&self) -> Self::Store;
}

/// The default backend: full structs in a [`StateTable`], hashed by the
/// deterministic `SharedHasher`. This is byte-for-byte the storage the
/// engine always used, so reports (including `arena_bytes`) are pinned.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlainBackend;

/// Store built by [`PlainBackend`].
pub struct PlainStore<S> {
    table: StateTable<S, SharedHasher>,
    hasher: SharedHasher,
}

impl<S> ExploreBackend<S> for PlainBackend
where
    S: Clone + Eq + Hash + Send + Sync,
{
    type Store = PlainStore<S>;

    fn new_store(&self) -> PlainStore<S> {
        PlainStore {
            table: StateTable::with_hasher(SharedHasher::default()),
            hasher: SharedHasher::default(),
        }
    }
}

impl<S> StateStore<S> for PlainStore<S>
where
    S: Clone + Eq + Hash + Send + Sync,
{
    type Key = S;
    type Repr = S;

    fn probe<'a>(&self, state: &'a S, _buf: &'a mut Vec<u8>) -> (u64, &'a S) {
        (self.hasher.hash_one(state), state)
    }

    fn to_repr(&self, key: &S) -> S {
        key.clone()
    }

    fn lookup(&self, hash: u64, key: &S) -> Option<u32> {
        self.table.lookup_prehashed(hash, key).map(|id| id.0)
    }

    fn intern_new(&mut self, hash: u64, repr: S) -> u32 {
        let (id, fresh) = self.table.intern_prehashed(hash, repr);
        debug_assert!(fresh, "intern_new called on an admitted state");
        id.0
    }

    fn load(&self, idx: u32) -> Cow<'_, S> {
        Cow::Borrowed(self.table.get(StateId(idx)))
    }

    fn len(&self) -> usize {
        self.table.len()
    }

    fn approx_bytes(&self) -> usize {
        self.table.approx_bytes()
    }
}

/// Packed-encoding backend: states live as canonical [`PackedCodec`]
/// byte strings in a [`PackedTable`].
#[derive(Debug, Clone, Copy, Default)]
pub struct PackedBackend;

/// Store built by [`PackedBackend`].
pub struct PackedStore<S> {
    table: PackedTable,
    _state: PhantomData<fn() -> S>,
}

impl<S> ExploreBackend<S> for PackedBackend
where
    S: Clone + Eq + PackedCodec,
{
    type Store = PackedStore<S>;

    fn new_store(&self) -> PackedStore<S> {
        PackedStore {
            table: PackedTable::new(),
            _state: PhantomData,
        }
    }
}

impl<S> StateStore<S> for PackedStore<S>
where
    S: Clone + Eq + PackedCodec,
{
    type Key = [u8];
    type Repr = Box<[u8]>;

    fn probe<'a>(&self, state: &'a S, buf: &'a mut Vec<u8>) -> (u64, &'a [u8]) {
        buf.clear();
        state.encode(buf);
        (self.table.hash_bytes(buf), buf)
    }

    fn to_repr(&self, key: &[u8]) -> Box<[u8]> {
        key.into()
    }

    fn lookup(&self, hash: u64, key: &[u8]) -> Option<u32> {
        self.table.lookup(hash, key)
    }

    fn intern_new(&mut self, hash: u64, repr: Box<[u8]>) -> u32 {
        let (id, fresh) = self.table.intern(hash, &repr);
        debug_assert!(fresh, "intern_new called on an admitted state");
        id
    }

    fn load(&self, idx: u32) -> Cow<'_, S> {
        Cow::Owned(self.table.decode(idx))
    }

    fn len(&self) -> usize {
        self.table.len()
    }

    fn approx_bytes(&self) -> usize {
        self.table.approx_bytes()
    }
}
