//! The trie catalog of one committed store version: the store's
//! vertically partitioned predicate tables served as tries in the orders
//! the plan needs, built lazily and cached.
//!
//! A trie over one attribute order is "analogous to a single index in a
//! standard database" (paper §III-A); the catalog is therefore the
//! engine's index manager. Binary RDF atoms need at most two orders per
//! predicate — subject-major (`[s, o]`) and object-major (`[o, s]`) — and
//! both sort orders are already materialised in the store's
//! [`PairTable`](eh_rdf::PairTable)s, so trie construction skips sorting.
//!
//! ## Sharding
//!
//! The store hash-partitions subjects into `P` shards, each owning its
//! own `PairTable`s and staged deltas; the catalog mirrors that layout
//! one level down: every cell belongs to one (predicate, shard), so each
//! shard's trie freezes into its own contiguous arena and a shard-local
//! compaction retires exactly one shard's tries. [`Catalog::relation`]
//! assembles the executor's view: at `P = 1` (or when only one shard
//! holds the predicate) a single operand, byte-identical to the
//! unpartitioned engine; otherwise the per-shard operands plus the merged
//! root domain ([`RelOperands::Sharded`]) that the generic join unions
//! through the multiway driver.
//!
//! ## Ownership and mutation
//!
//! A `Catalog` is **one immutable store version**: an
//! `Arc<TripleStore>` that never changes, a sequence number, and
//! `OnceLock` cells for every (predicate, shard) trie order and layout,
//! delta overlay and union root. Nothing in it is ever invalidated. A
//! commit builds the *next* version ([`SharedStore`](crate::SharedStore)
//! publishes it with one pointer swap); cells whose base table or delta
//! is the very same `Arc` as in the previous version are shared with it,
//! so an untouched (predicate, shard) keeps its tries, a staged delta
//! gets fresh overlay cells over the surviving base tries, and a
//! compacted shard gets fresh trie cells. Layers that cache *derived*
//! artifacts (a serving tier's result and plan caches) key them by
//! [`Catalog::seq`].
//!
//! ## Concurrency
//!
//! A query pins one version for its whole life, so every trie, overlay
//! and cardinality it sees comes from the same committed state — no
//! epoch checks, no retries. Cells fill through `&self` from any thread:
//! the parallel runtime reads tries from many workers during a join and
//! builds distinct tries concurrently during
//! [`Engine::warm`](crate::Engine::warm); two workers asking for the
//! same cell share one build.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, OnceLock};

use eh_query::Atom;
use eh_rdf::{PredDelta, TripleStore};
use eh_trie::{DeltaOverlay, FrozenTrie, LayoutPolicy, TupleBuffer};

use crate::shared::StoreRef;

/// Base-trie cells of one (predicate, shard), indexed by [`trie_slot`].
type TrieCells = [OnceLock<Arc<FrozenTrie>>; 4];

/// Overlay cells of one (predicate, shard) delta, indexed by order.
/// Overlays are layout-independent — their sets stay in the uint layout
/// and the kernels intersect mixed layouts anyway.
type OverlayCells = [OnceLock<Arc<DeltaOverlay>>; 2];

/// Union-root cells of one predicate, indexed by order: the merged root
/// domain across shards is a plain value set, independent of layout.
type RootCells = [OnceLock<Arc<Vec<u32>>>; 2];

fn trie_slot(subject_first: bool, auto_layout: bool) -> usize {
    usize::from(subject_first) * 2 + usize::from(auto_layout)
}

/// One base trie a new version should rebuild eagerly: a cell the
/// previous version had filled for a (predicate, shard) whose base table
/// changed.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HotOrder {
    pred: u32,
    shard: usize,
    slot: usize,
}

/// One shard's contribution to a partitioned relation: its frozen trie
/// plus its staged-delta overlay (when that shard has uncompacted
/// novelty).
pub(crate) struct ShardOperand {
    pub trie: Arc<FrozenTrie>,
    pub overlay: Option<Arc<DeltaOverlay>>,
}

/// What [`Catalog::relation`] hands the executor for one access path.
pub(crate) enum RelOperands {
    /// One trie (+ optional overlay): the `P = 1` case, a predicate
    /// resident in a single shard, or an absent predicate (empty trie).
    /// Execution is byte-for-byte the unpartitioned code path.
    Single { trie: Arc<FrozenTrie>, overlay: Option<Arc<DeltaOverlay>> },
    /// Two or more shards hold pairs: the per-shard operands (empty
    /// shards already skipped) plus the merged effective root domain —
    /// the union over shards of each shard's overlay-merged root set.
    /// The generic join iterates/probes `union_root` at the relation's
    /// first level and routes descents to the shards that contain each
    /// value.
    Sharded { ops: Vec<ShardOperand>, union_root: Arc<Vec<u32>> },
}

/// The shared empty trie absent predicates and emptied tables resolve to.
fn empty_trie() -> Arc<FrozenTrie> {
    static EMPTY: OnceLock<Arc<FrozenTrie>> = OnceLock::new();
    Arc::clone(
        EMPTY.get_or_init(|| Arc::new(FrozenTrie::build(TupleBuffer::new(2), LayoutPolicy::Auto))),
    )
}

/// One committed store version and its lazily built tries. Every trie
/// it serves is a [`FrozenTrie`] — one contiguous arena per (predicate,
/// shard, order, layout) — whether built from the store's tables or
/// preloaded from a snapshot.
pub struct Catalog {
    seq: u64,
    store: Arc<TripleStore>,
    tries: HashMap<(u32, usize), Arc<TrieCells>>,
    overlays: HashMap<(u32, usize), Arc<OverlayCells>>,
    roots: HashMap<u32, Arc<RootCells>>,
}

impl Catalog {
    /// Version `seq` of `store` with every cell empty.
    pub(crate) fn new(seq: u64, store: Arc<TripleStore>) -> Catalog {
        let mut tries = HashMap::new();
        let mut overlays = HashMap::new();
        let mut roots = HashMap::new();
        for shard in 0..store.partitions() {
            for table in store.shard_tables(shard) {
                let key = (table.pred(), shard);
                tries.insert(key, Arc::default());
                if store.shard_delta(shard, table.pred()).is_some() {
                    overlays.insert(key, Arc::default());
                }
                roots.entry(table.pred()).or_insert_with(Arc::default);
            }
        }
        Catalog { seq, store, tries, overlays, roots }
    }

    /// The version after `self`, over `store` (a modified clone of this
    /// version's store). Cells carry over wherever the base table or
    /// delta behind them is the same `Arc` as here; the rest start
    /// empty. Also returns the base tries this version had built whose
    /// tables changed — the hot orders worth rebuilding eagerly.
    pub(crate) fn successor(&self, store: TripleStore) -> (Catalog, Vec<HotOrder>) {
        let mut next = Catalog::new(self.seq + 1, Arc::new(store));
        let mut hot = Vec::new();
        if next.store.partitions() != self.store.partitions() {
            return (next, hot);
        }
        let mut changed: HashSet<u32> = HashSet::new();
        for shard in 0..next.store.partitions() {
            for table in next.store.shard_tables(shard) {
                let (pred, key) = (table.pred(), (table.pred(), shard));
                let same_base =
                    self.store.shard_table(shard, pred).is_some_and(|t| std::ptr::eq(t, &**table));
                if same_base {
                    next.tries.insert(key, Arc::clone(&self.tries[&key]));
                } else if let Some(cells) = self.tries.get(&key) {
                    hot.extend(
                        (0..4).filter(|&slot| cells[slot].get().is_some()).map(|slot| HotOrder {
                            pred,
                            shard,
                            slot,
                        }),
                    );
                }
                let same_delta = match (
                    self.store.shard_delta(shard, pred),
                    next.store.shard_delta(shard, pred),
                ) {
                    (Some(a), Some(b)) => std::ptr::eq(a, b),
                    (None, None) => true,
                    _ => false,
                };
                if same_delta {
                    if let Some(cells) = self.overlays.get(&key) {
                        next.overlays.insert(key, Arc::clone(cells));
                    }
                }
                if !(same_base && same_delta) {
                    changed.insert(pred);
                }
            }
        }
        for (pred, cells) in next.roots.iter_mut() {
            match self.roots.get(pred) {
                Some(old) if !changed.contains(pred) => *cells = Arc::clone(old),
                _ => {}
            }
        }
        (next, hot)
    }

    /// The next version of the same store with every cell empty.
    pub(crate) fn emptied(&self) -> Catalog {
        Catalog::new(self.seq + 1, Arc::clone(&self.store))
    }

    /// Build one [`HotOrder`] returned by [`Catalog::successor`].
    pub(crate) fn rebuild(&self, hot: HotOrder) {
        self.base(hot.pred, hot.shard, hot.slot);
    }

    /// This version's sequence number: 0 for the first version of a
    /// store, +1 per committed change (or invalidation). It is what the
    /// serving tier reports as `epoch=` and keys its caches by.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The committed store this version serves.
    pub fn store(&self) -> &TripleStore {
        &self.store
    }

    /// A handle on this version's store that outlives the borrow.
    pub(crate) fn store_ref(&self) -> StoreRef {
        StoreRef(Arc::clone(&self.store))
    }

    /// Number of subject-hash shards in the underlying store.
    pub fn partitions(&self) -> usize {
        self.store.partitions()
    }

    /// The trie for `atom`'s predicate table in the given column order —
    /// the `P = 1` view. Predicates absent from the store (or with
    /// emptied tables) resolve to a shared empty trie.
    ///
    /// # Panics
    /// Panics on a partitioned catalog: a single trie per predicate is
    /// ill-defined there — use [`Catalog::relation`].
    pub fn trie(&self, atom: &Atom, subject_first: bool, auto_layout: bool) -> Arc<FrozenTrie> {
        assert_eq!(self.partitions(), 1, "partitioned catalog: use relation()");
        match self.store.resolve_iri(&atom.relation) {
            Some(pred) => self.base(pred, 0, trie_slot(subject_first, auto_layout)),
            None => empty_trie(),
        }
    }

    /// Build (or fetch) one shard's trie for `atom` — the warm path's
    /// per-shard unit of work ([`Engine::warm`](crate::Engine::warm) fans
    /// (predicate, order, shard) jobs over the runtime's workers).
    pub(crate) fn warm_shard(
        &self,
        atom: &Atom,
        subject_first: bool,
        auto_layout: bool,
        shard: usize,
    ) {
        if let Some(pred) = self.store.resolve_iri(&atom.relation) {
            self.base(pred, shard, trie_slot(subject_first, auto_layout));
        }
    }

    /// The cached-or-built base trie of one (predicate, shard) cell slot;
    /// the shared empty trie when the table is absent or empty.
    fn base(&self, pred: u32, shard: usize, slot: usize) -> Arc<FrozenTrie> {
        let (Some(table), Some(cells)) =
            (self.store.shard_table(shard, pred), self.tries.get(&(pred, shard)))
        else {
            return empty_trie();
        };
        if table.is_empty() {
            return empty_trie();
        }
        let cell = cells[slot].get_or_init(|| {
            let pairs = if slot >= 2 { table.so_pairs() } else { table.os_pairs() };
            let policy = if slot % 2 == 1 { LayoutPolicy::Auto } else { LayoutPolicy::UintOnly };
            Arc::new(FrozenTrie::from_sorted(TupleBuffer::from_pairs(pairs), policy))
        });
        Arc::clone(cell)
    }

    /// The staged-delta overlay for `(pred, subject_first, shard)`, or
    /// `None` when that shard has no uncompacted delta for the predicate.
    fn overlay(&self, pred: u32, subject_first: bool, shard: usize) -> Option<Arc<DeltaOverlay>> {
        let delta = self.store.shard_delta(shard, pred)?;
        let cells = self.overlays.get(&(pred, shard))?;
        let overlay = cells[usize::from(subject_first)]
            .get_or_init(|| Arc::new(build_overlay(delta, subject_first)));
        Some(Arc::clone(overlay)).filter(|ov| !ov.is_empty())
    }

    /// The merged effective root domain for a partitioned relation: the
    /// union over `ops` of each shard's overlay-merged root set, sorted
    /// unique. Cached per (predicate, order) for as long as no shard of
    /// the predicate changes.
    /// Only called with operands from two or more shards, so `pred` has
    /// a table and therefore cells.
    fn union_root(&self, pred: u32, subject_first: bool, ops: &[ShardOperand]) -> Arc<Vec<u32>> {
        let cell = &self.roots[&pred][usize::from(subject_first)];
        Arc::clone(cell.get_or_init(|| {
            let mut root: Vec<u32> = Vec::new();
            for op in ops {
                match &op.overlay {
                    Some(ov) => root.extend_from_slice(ov.root(&op.trie)),
                    None => root.extend(op.trie.root_set().iter()),
                }
            }
            // Subject-major roots are disjoint across shards (subjects
            // hash to exactly one shard); object-major roots overlap —
            // sort + dedup restores the P = 1 root set either way.
            root.sort_unstable();
            root.dedup();
            Arc::new(root)
        }))
    }

    /// One shard's full operand pair for an access path: that shard's
    /// base trie plus its staged-delta overlay. This is what the
    /// shard-local execution path consumes — at most this shard's slice
    /// of the predicate, never a cross-shard view.
    pub(crate) fn shard_relation(
        &self,
        atom: &Atom,
        subject_first: bool,
        auto_layout: bool,
        shard: usize,
    ) -> (Arc<FrozenTrie>, Option<Arc<DeltaOverlay>>) {
        let Some(pred) = self.store.resolve_iri(&atom.relation) else {
            return (empty_trie(), None);
        };
        let trie = self.base(pred, shard, trie_slot(subject_first, auto_layout));
        (trie, self.overlay(pred, subject_first, shard))
    }

    /// The full operand set for one access path — what the executor
    /// consumes. Overlays ride into the join as extra
    /// [`SetRef`](eh_setops::SetRef) operands, never folded into an
    /// arena; at `P > 1` the per-shard operands ride in the same way,
    /// unioned through the multiway driver (see [`RelOperands`]).
    pub(crate) fn relation(
        &self,
        atom: &Atom,
        subject_first: bool,
        auto_layout: bool,
    ) -> RelOperands {
        let Some(pred) = self.store.resolve_iri(&atom.relation) else {
            return RelOperands::Single { trie: empty_trie(), overlay: None };
        };
        let slot = trie_slot(subject_first, auto_layout);
        if self.partitions() == 1 {
            let trie = self.base(pred, 0, slot);
            return RelOperands::Single { trie, overlay: self.overlay(pred, subject_first, 0) };
        }
        // Skip shards that hold neither base pairs nor staged novelty:
        // they contribute nothing to any set view, and dropping them here
        // is what collapses a one-shard-resident predicate back onto the
        // exact single-operand code path.
        let mut ops: Vec<ShardOperand> = Vec::new();
        for shard in 0..self.partitions() {
            let trie = self.base(pred, shard, slot);
            let overlay = self.overlay(pred, subject_first, shard);
            if trie.num_tuples() == 0 && overlay.is_none() {
                continue;
            }
            ops.push(ShardOperand { trie, overlay });
        }
        match ops.len() {
            0 => RelOperands::Single { trie: empty_trie(), overlay: None },
            1 => {
                let op = ops.pop().expect("checked length");
                RelOperands::Single { trie: op.trie, overlay: op.overlay }
            }
            _ => {
                let union_root = self.union_root(pred, subject_first, &ops);
                RelOperands::Sharded { ops, union_root }
            }
        }
    }

    /// Seed this version's cells with pre-built frozen tries
    /// (auto-layout orders) — the snapshot cold-start path: a loaded
    /// engine starts *warm*, no trie is rebuilt until a commit changes
    /// its (predicate, shard). Entries are trusted to match the store's
    /// shard tables (the snapshot reader validates exactly that before
    /// handing them over); entries for unknown cells are ignored.
    pub fn preload(&self, entries: impl IntoIterator<Item = (u32, bool, usize, Arc<FrozenTrie>)>) {
        for (pred, subject_first, shard, trie) in entries {
            if let Some(cells) = self.tries.get(&(pred, shard)) {
                let _ = cells[trie_slot(subject_first, true)].set(trie);
            }
        }
    }

    /// Logical cardinality of an atom's predicate (0 when absent): the
    /// base tables adjusted by the staged deltas across all shards, so
    /// the planner's cost-model sees the same relation the executor
    /// serves — identical at every partition count.
    pub fn cardinality(&self, atom: &Atom) -> usize {
        self.store.resolve_iri(&atom.relation).map_or(0, |pred| self.store.pred_logical_len(pred))
    }

    /// Number of base tries this version has built or inherited
    /// (diagnostics).
    pub fn cached_tries(&self) -> usize {
        self.tries.values().flat_map(|cells| cells.iter()).filter(|c| c.get().is_some()).count()
    }

    /// Number of delta overlays this version has built or inherited
    /// (diagnostics).
    pub fn cached_overlays(&self) -> usize {
        self.overlays.values().flat_map(|cells| cells.iter()).filter(|c| c.get().is_some()).count()
    }

    /// Cached arena bytes per shard (index = shard), for the serving
    /// tier's per-shard gauges. Shards with nothing cached report 0.
    pub fn arena_bytes_by_shard(&self) -> Vec<u64> {
        let mut out = vec![0u64; self.partitions()];
        for (&(_, shard), cells) in &self.tries {
            for trie in cells.iter().filter_map(OnceLock::get) {
                out[shard] += trie.arena_bytes() as u64;
            }
        }
        out
    }
}

/// Materialise one order's [`DeltaOverlay`] from the store's staged
/// delta. Deltas are kept subject-major in the store; the object-major
/// order permutes and re-sorts (deltas are small by the compaction
/// threshold, so this stays O(delta log delta)).
fn build_overlay(delta: &PredDelta, subject_first: bool) -> DeltaOverlay {
    if subject_first {
        DeltaOverlay::from_pairs(delta.ins_pairs(), delta.del_pairs())
    } else {
        let permute = |pairs: &[(u32, u32)]| {
            let mut v: Vec<(u32, u32)> = pairs.iter().map(|&(s, o)| (o, s)).collect();
            v.sort_unstable();
            v
        };
        DeltaOverlay::from_pairs(&permute(delta.ins_pairs()), &permute(delta.del_pairs()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eh_query::QueryBuilder;
    use eh_rdf::{Term, Triple};

    fn triple(s: &str, p: &str, o: &str) -> Triple {
        Triple::new(Term::iri(s), Term::iri(p), Term::iri(o))
    }

    fn version(triples: Vec<Triple>, partitions: usize) -> Catalog {
        Catalog::new(0, Arc::new(TripleStore::from_triples_partitioned(triples, partitions)))
    }

    fn store() -> Catalog {
        version(vec![triple("s1", "p", "o1"), triple("s1", "p", "o2"), triple("s2", "p", "o1")], 1)
    }

    /// The next version of `c` after `edit` ran on a copy of its store.
    fn commit(c: &Catalog, edit: impl FnOnce(&mut TripleStore)) -> (Catalog, Vec<HotOrder>) {
        let mut next = c.store().clone();
        edit(&mut next);
        c.successor(next)
    }

    fn atom_for(store: &TripleStore, rel: &str) -> Atom {
        let mut qb = QueryBuilder::new();
        let (x, y) = (qb.var("x"), qb.var("y"));
        let pred = store.resolve_iri(rel).unwrap_or(u32::MAX);
        qb.atom(rel, pred, x, y);
        qb.select(vec![x]).build().unwrap().atoms()[0].clone()
    }

    /// Unwrap the single-operand case of [`Catalog::relation`].
    fn single_rel(
        c: &Catalog,
        a: &Atom,
        subject_first: bool,
    ) -> (Arc<FrozenTrie>, Option<Arc<DeltaOverlay>>) {
        match c.relation(a, subject_first, true) {
            RelOperands::Single { trie, overlay } => (trie, overlay),
            RelOperands::Sharded { .. } => panic!("expected a single operand"),
        }
    }

    #[test]
    fn loads_both_orders() {
        let c = store();
        let a = atom_for(c.store(), "p");
        let so = c.trie(&a, true, true);
        let os = c.trie(&a, false, true);
        assert_eq!(so.num_tuples(), 3);
        assert_eq!(os.num_tuples(), 3);
        // Subject-major roots on subjects (2 of them), object-major on
        // objects (2 of them).
        assert_eq!(so.root_set().len(), 2);
        assert_eq!(os.root_set().len(), 2);
    }

    #[test]
    fn cache_hits() {
        let c = store();
        let a = atom_for(c.store(), "p");
        let t1 = c.trie(&a, true, true);
        let t2 = c.trie(&a, true, true);
        assert!(Arc::ptr_eq(&t1, &t2));
        assert_eq!(c.cached_tries(), 1);
        let _ = c.trie(&a, false, true);
        let _ = c.trie(&a, true, false);
        assert_eq!(c.cached_tries(), 3);
    }

    #[test]
    fn missing_predicate_is_empty() {
        let c = store();
        let a = atom_for(c.store(), "absent");
        assert!(c.trie(&a, true, true).is_empty());
        assert_eq!(c.cardinality(&a), 0);
    }

    #[test]
    fn cardinality() {
        let c = store();
        assert_eq!(c.cardinality(&atom_for(c.store(), "p")), 3);
    }

    #[test]
    fn concurrent_access_shares_one_trie_per_key() {
        // The warm-path contract: many workers requesting overlapping
        // keys through &self agree on a single cached Arc per key.
        let c = store();
        let a = atom_for(c.store(), "p");
        let tries = eh_par::run_tasks(4, 16, |i| c.trie(&a, i % 2 == 0, true));
        assert_eq!(c.cached_tries(), 2);
        for (i, t) in tries.iter().enumerate() {
            assert!(Arc::ptr_eq(t, &tries[i % 2]));
        }
    }

    /// A compaction retires exactly the compacted predicate's tries and
    /// reports its built orders as hot; the untouched predicate's trie
    /// is the very same `Arc` in the new version.
    #[test]
    fn successor_keeps_untouched_predicates() {
        let c = version(vec![triple("a", "p", "b"), triple("a", "q", "b")], 1);
        let (ap, aq) = (atom_for(c.store(), "p"), atom_for(c.store(), "q"));
        let p_before = c.trie(&ap, true, true);
        let q_before = c.trie(&aq, true, true);

        let (next, hot) = commit(&c, |s| {
            s.stage_add_triples(vec![triple("c", "p", "d")]);
            s.compact_all();
        });
        assert_eq!(next.seq(), 1);
        assert_eq!(hot.len(), 1);
        next.rebuild(hot[0]);
        assert_eq!(next.cached_tries(), 2);
        let p_after = next.trie(&ap, true, true);
        assert!(!Arc::ptr_eq(&p_before, &p_after));
        assert_eq!(p_after.num_tuples(), 2);
        assert!(Arc::ptr_eq(&q_before, &next.trie(&aq, true, true)));
        // The old version is untouched: still the pre-commit contents.
        assert_eq!(c.trie(&ap, true, true).num_tuples(), 1);
    }

    #[test]
    fn emptied_table_resolves_to_empty_trie() {
        let c = version(vec![triple("a", "p", "b")], 1);
        let a = atom_for(c.store(), "p");
        assert_eq!(c.trie(&a, true, true).num_tuples(), 1);
        let (next, _) = commit(&c, |s| {
            s.stage_remove_triples(vec![triple("a", "p", "b")]);
            s.compact_all();
        });
        assert!(next.trie(&a, true, true).is_empty());
        assert_eq!(next.cardinality(&a), 0);
    }

    /// The LSM contract: a staged update serves through an overlay
    /// while the base trie Arc survives untouched; compaction then
    /// retires both base trie and overlay.
    #[test]
    fn staged_deltas_serve_overlays_and_keep_base_tries() {
        let c = version(vec![triple("a", "p", "b")], 1);
        let a = atom_for(c.store(), "p");
        let base = c.trie(&a, true, true);

        let (c, hot) = commit(&c, |s| {
            s.stage_add_triples(vec![triple("c", "p", "d")]);
        });
        assert!(hot.is_empty(), "staged updates must not rebuild base tries");

        let (trie, ov) = single_rel(&c, &a, true);
        assert!(Arc::ptr_eq(&base, &trie), "base trie retired by a staged update");
        let ov = ov.expect("delta resident");
        assert_eq!((ov.inserted(), ov.deleted()), (1, 0));
        assert_eq!(c.cardinality(&a), 2);
        assert_eq!(c.cached_overlays(), 1);
        // Object-major overlay is served (and cached) independently.
        let (_, ov_os) = single_rel(&c, &a, false);
        assert_eq!(ov_os.expect("os overlay").inserted(), 1);
        assert_eq!(c.cached_overlays(), 2);

        // Compaction folds the delta: base tries rebuild, overlays drop.
        let (c, hot) = commit(&c, |s| {
            s.compact_all();
        });
        assert_eq!(hot.len(), 2, "both cached orders of p rebuild on compaction");
        let (trie, ov) = single_rel(&c, &a, true);
        assert!(!Arc::ptr_eq(&base, &trie));
        assert_eq!(trie.num_tuples(), 2);
        assert!(ov.is_none());
        assert_eq!(c.cached_overlays(), 0);
        assert_eq!(c.cardinality(&a), 2);
    }

    /// Enough distinct subjects to populate every shard at P = 4.
    fn wide_store(partitions: usize) -> Catalog {
        let triples: Vec<Triple> =
            (0..32).map(|i| triple(&format!("s{i}"), "p", &format!("o{}", i % 3))).collect();
        version(triples, partitions)
    }

    /// A partitioned catalog serves per-shard operands whose union root
    /// reproduces the P = 1 root set exactly, in both trie orders.
    #[test]
    fn partitioned_relation_serves_sharded_operands() {
        let c1 = wide_store(1);
        let c4 = wide_store(4);
        let a = atom_for(c4.store(), "p");
        assert_eq!(c4.partitions(), 4);
        for subject_first in [true, false] {
            let reference = c1.trie(&a, subject_first, true);
            let RelOperands::Sharded { ops, union_root } = c4.relation(&a, subject_first, true)
            else {
                panic!("32 spread subjects must occupy several shards");
            };
            assert!(ops.len() >= 2);
            let total: usize = ops.iter().map(|op| op.trie.num_tuples()).sum();
            assert_eq!(total, reference.num_tuples(), "shards partition the pairs");
            let merged: Vec<u32> = union_root.to_vec();
            let expect: Vec<u32> = reference.root_set().iter().collect();
            assert_eq!(merged, expect, "union root reproduces the P=1 root set");
            // The union root is cached: a second fetch shares the Arc.
            let RelOperands::Sharded { union_root: again, .. } =
                c4.relation(&a, subject_first, true)
            else {
                panic!("still sharded");
            };
            assert!(Arc::ptr_eq(&union_root, &again));
        }
    }

    /// Shard-local compaction precision: folding one shard's delta must
    /// retire exactly that shard's tries — every other shard keeps its
    /// Arcs.
    #[test]
    fn shard_local_compaction_retires_only_that_shard() {
        let c = wide_store(4);
        let a = atom_for(c.store(), "p");
        let pred = c.store().resolve_iri("p").unwrap();
        // Warm every shard's subject-major trie.
        let before: Vec<Arc<FrozenTrie>> =
            (0..4).map(|shard| c.shard_relation(&a, true, true, shard).0).collect();

        // Stage a pair into whichever shard owns the (already encoded)
        // subject, then fold exactly that shard.
        let target = c.store().partitioner().shard_of(c.store().resolve_iri("s0").unwrap());
        let (c, _) = commit(&c, |s| {
            s.stage_add_triples(vec![triple("s0", "p", "o9")]);
        });
        let (c, hot) = commit(&c, |s| assert!(s.compact_pred_in(target, pred)));
        assert_eq!(hot.len(), 1, "only the folded shard's cached order rebuilds");

        for (shard, old) in before.iter().enumerate() {
            let (now, ov) = c.shard_relation(&a, true, true, shard);
            assert!(ov.is_none(), "delta folded");
            if shard == target {
                assert!(!Arc::ptr_eq(old, &now), "folded shard must retire its trie");
                assert_eq!(now.num_tuples(), old.num_tuples() + 1);
            } else {
                assert!(Arc::ptr_eq(old, &now), "untouched shard {shard} lost its trie");
            }
        }
    }

    /// Staged novelty at P > 1 rides per-shard overlays: only the shard
    /// owning the staged subject carries one, and a predicate resident in
    /// a single shard collapses back to a single operand.
    #[test]
    fn partitioned_overlays_route_by_subject_shard() {
        let c = wide_store(4);
        let a = atom_for(c.store(), "p");
        let target = c.store().partitioner().shard_of(c.store().resolve_iri("s1").unwrap());
        let (c, _) = commit(&c, |s| {
            s.stage_add_triples(vec![triple("s1", "p", "o77"), triple("lonely", "q", "z")]);
        });
        for shard in 0..4 {
            let (_, ov) = c.shard_relation(&a, true, true, shard);
            assert_eq!(ov.is_some(), shard == target, "overlay misrouted for shard {shard}");
        }

        // A predicate whose pairs all live in one shard serves a single
        // operand even on a partitioned store.
        let (c, _) = commit(&c, |s| {
            s.compact_all();
        });
        let aq = atom_for(c.store(), "q");
        match c.relation(&aq, true, true) {
            RelOperands::Single { trie, .. } => assert_eq!(trie.num_tuples(), 1),
            RelOperands::Sharded { .. } => panic!("one-shard predicate must serve Single"),
        }
    }
}
