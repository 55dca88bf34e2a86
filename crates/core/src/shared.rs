//! Shared ownership of the triple store: one immutable version per
//! commit.
//!
//! The paper's storage model is built once and queried forever: a trie
//! is "analogous to a single index" (§III-A), never mutated in place.
//! Live updates keep that shape. A [`SharedStore`] holds the newest
//! committed store version — a [`Catalog`]: an immutable
//! `Arc<TripleStore>` plus its lazily built tries — behind an
//! `RwLock<Arc<Catalog>>` that is held only long enough to clone the
//! `Arc`.
//!
//! A reader **pins** a version ([`SharedStore::pin`]) and runs parse,
//! plan, trie fetches and join all on it: whatever commits meanwhile, the
//! answer reflects exactly one committed state. A writer (serialised by
//! a writer mutex) copies the newest store — a cheap structural clone:
//! tables and deltas are `Arc`s and the append-only dictionary is shared
//! up to a watermark — stages its batch into the copy, and publishes the
//! copy as the next version with one pointer swap. Readers never wait
//! for a writer's staging or compaction, and a writer that panics
//! mid-batch publishes nothing. Writes go through
//! [`Engine::update`](crate::Engine::update) and friends; the commit
//! hook is not exposed outside the crate.

use std::ops::Deref;
use std::sync::{Arc, Mutex, PoisonError, RwLock};

use eh_rdf::{Triple, TripleStore};

use crate::catalog::{Catalog, HotOrder};

/// A cloneable, thread-safe handle to one evolving store. Clones share
/// the same version history: a commit through one handle's engine is
/// visible to every other clone from its next pin on.
#[derive(Clone)]
pub struct SharedStore {
    inner: Arc<Versions>,
}

struct Versions {
    current: RwLock<Arc<Catalog>>,
    /// Serialises commits; readers never take it.
    writer: Mutex<()>,
}

impl Default for SharedStore {
    fn default() -> SharedStore {
        SharedStore::new(TripleStore::default())
    }
}

/// A pinned committed store: derefs to [`TripleStore`] and keeps that
/// version alive while held. Like the read guard it replaced, it is not
/// `Clone` — `.clone()` yields an owned `TripleStore`, which is cheap
/// (tables, deltas and dictionary are shared copy-on-write).
pub struct StoreRef(pub(crate) Arc<TripleStore>);

impl Deref for StoreRef {
    type Target = TripleStore;

    fn deref(&self) -> &TripleStore {
        &self.0
    }
}

impl SharedStore {
    /// Wrap an existing (committed) store as version 0.
    pub fn new(store: TripleStore) -> SharedStore {
        let current = RwLock::new(Arc::new(Catalog::new(0, Arc::new(store))));
        SharedStore { inner: Arc::new(Versions { current, writer: Mutex::new(()) }) }
    }

    /// Bulk-build a committed store and wrap it.
    pub fn from_triples(triples: impl IntoIterator<Item = Triple>) -> SharedStore {
        SharedStore::new(TripleStore::from_triples(triples))
    }

    /// The newest committed version. Run a whole query against the
    /// returned version to see exactly one committed state.
    pub fn pin(&self) -> Arc<Catalog> {
        Arc::clone(&self.inner.current.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// The newest committed store.
    pub fn read(&self) -> StoreRef {
        self.pin().store_ref()
    }

    /// Run `edit` on a private copy of the newest store and, when it
    /// returns `Some`, publish the copy as the next version. Returns the
    /// edit's output, the published version, and the base tries worth
    /// rebuilding in it (see [`Catalog::successor`]).
    pub(crate) fn commit<R>(
        &self,
        edit: impl FnOnce(&mut TripleStore) -> Option<R>,
    ) -> Option<(R, Arc<Catalog>, Vec<HotOrder>)> {
        // A writer that panicked published nothing, so the lock's data
        // is intact.
        let _writer = self.inner.writer.lock().unwrap_or_else(PoisonError::into_inner);
        let current = self.pin();
        let mut next = current.store().clone();
        let out = edit(&mut next)?;
        let (version, hot) = current.successor(next);
        Some((out, self.publish(version), hot))
    }

    /// Publish the current store again as a fresh version with every
    /// cell empty: cached tries are dropped and the sequence advances.
    /// Returns the new sequence number.
    pub(crate) fn invalidate(&self) -> u64 {
        let _writer = self.inner.writer.lock().unwrap_or_else(PoisonError::into_inner);
        self.publish(self.pin().emptied()).seq()
    }

    fn publish(&self, version: Catalog) -> Arc<Catalog> {
        let version = Arc::new(version);
        let previous = std::mem::replace(
            &mut *self.inner.current.write().unwrap_or_else(PoisonError::into_inner),
            Arc::clone(&version),
        );
        // The guard is gone: a retired version that nobody pins any more
        // is freed here, outside the lock.
        drop(previous);
        version
    }
}

impl From<TripleStore> for SharedStore {
    fn from(store: TripleStore) -> SharedStore {
        SharedStore::new(store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eh_rdf::Term;

    fn triple(s: &str) -> Triple {
        Triple::new(Term::iri(s), Term::iri("p"), Term::iri("o"))
    }

    #[test]
    fn clones_share_one_version_history() {
        let a = SharedStore::from_triples(vec![triple("s")]);
        let b = a.clone();
        let pinned = a.read();
        let (added, version, _) =
            b.commit(|s| Some(s.stage_add_triples(vec![triple("s2")]).added)).unwrap();
        assert_eq!((added, version.seq()), (1, 1));
        assert_eq!(a.read().num_triples(), 2);
        assert_eq!(a.pin().seq(), 1);
        // The pinned store still shows the version it was taken from.
        assert_eq!(pinned.num_triples(), 1);
    }

    #[test]
    fn a_declined_commit_publishes_nothing() {
        let store = SharedStore::from_triples(vec![triple("s")]);
        let before = store.pin();
        assert!(store.commit(|_| None::<()>).is_none());
        assert!(Arc::ptr_eq(&before, &store.pin()));
        // Invalidation republishes the same store with empty cells.
        assert_eq!(store.invalidate(), 1);
        assert!(!Arc::ptr_eq(&before, &store.pin()));
        assert!(std::ptr::eq(before.store(), store.pin().store()));
    }

    #[test]
    fn a_panicking_writer_publishes_nothing() {
        let store = SharedStore::from_triples(vec![triple("s")]);
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            store.commit(|s| -> Option<()> {
                s.stage_add_triples(vec![triple("t")]);
                panic!("writer dies mid-batch")
            })
        }));
        assert!(died.is_err());
        assert_eq!((store.pin().seq(), store.read().num_triples()), (0, 1));
        assert!(store.commit(|s| Some(s.stage_add_triples(vec![triple("t")]))).is_some());
        assert_eq!((store.pin().seq(), store.read().num_triples()), (1, 2));
    }
}
