//! Dictionary encoding of RDF terms to dense 32-bit keys (paper §II-A1).

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock, RwLock};

use crate::term::{hash_term_parts, Term, KIND_IRI, KIND_LITERAL};

/// A borrowed view of a term, so the map can be probed with a bare `&str`
/// without cloning it into an owned [`Term`] first. Both [`Term`] and the
/// probe hash through [`hash_term_parts`], which keeps the `HashMap`
/// contract (`k == q ⇒ hash(k) == hash(q)`) across the two
/// representations.
trait TermKey {
    fn kind(&self) -> u8;
    fn text(&self) -> &str;
}

impl TermKey for Term {
    fn kind(&self) -> u8 {
        Term::kind(self)
    }

    fn text(&self) -> &str {
        self.as_str()
    }
}

/// The allocation-free probe: a term "by parts".
struct Probe<'a> {
    kind: u8,
    text: &'a str,
}

impl TermKey for Probe<'_> {
    fn kind(&self) -> u8 {
        self.kind
    }

    fn text(&self) -> &str {
        self.text
    }
}

impl PartialEq for dyn TermKey + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.kind() == other.kind() && self.text() == other.text()
    }
}

impl Eq for dyn TermKey + '_ {}

impl Hash for dyn TermKey + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        hash_term_parts(self.kind(), self.text(), state);
    }
}

impl<'a> Borrow<dyn TermKey + 'a> for Term {
    fn borrow(&self) -> &(dyn TermKey + 'a) {
        self
    }
}

/// A bidirectional mapping between [`Term`]s and dense `u32` keys.
///
/// Keys are assigned in first-encounter order, which makes encoding
/// deterministic for a fixed insertion order — the LUBM generator relies on
/// this for reproducible tests. The paper's engines (RDF-3X, TripleBit,
/// EmptyHeaded) all dictionary-encode before building indexes; so do we.
///
/// The dictionary is **append-only**, so clones share one term table: a
/// clone is an `Arc` plus a watermark (the key count it sees), and terms
/// appended through one handle stay invisible to handles whose watermark
/// predates them. That is what lets every committed store version carry
/// its own dictionary view without copying it. Appending through a handle
/// that is no longer the newest one (another handle appended since)
/// forks a private copy of the visible prefix first, so handles never
/// observe each other's writes.
#[derive(Clone, Default)]
pub struct Dictionary {
    shared: Arc<SharedTerms>,
    /// Keys `0..len` are visible through this handle.
    len: usize,
}

/// The term table behind every clone of one dictionary.
#[derive(Default)]
struct SharedTerms {
    /// Term → key for every term; appends happen under the write lock,
    /// so `map.len()` is the table's true length.
    map: RwLock<HashMap<Term, u32>>,
    /// Keys `0..base.len()`: the terms the table was built from.
    base: Box<[Term]>,
    /// Later keys, from `base.len()` on. Chunk `k` holds `2^k` slots and
    /// is never reallocated, so a reader's `&Term` stays valid while
    /// appends continue.
    chunks: [OnceLock<Box<[OnceLock<Term>]>>; CHUNKS],
}

/// Chunks of sizes `1, 2, 4, …, 2^31` cover every `u32` key.
const CHUNKS: usize = 32;

/// The (chunk, offset) slot of the `i`-th appended key.
fn slot(i: usize) -> (usize, usize) {
    let n = i + 1;
    let chunk = (usize::BITS - 1 - n.leading_zeros()) as usize;
    (chunk, n - (1 << chunk))
}

impl SharedTerms {
    fn get(&self, i: usize) -> Option<&Term> {
        if let Some(term) = self.base.get(i) {
            return Some(term);
        }
        let (chunk, offset) = slot(i - self.base.len());
        self.chunks.get(chunk)?.get()?.get(offset)?.get()
    }

    /// Append `term` at key `i`; the caller holds the map's write lock.
    fn push(&self, i: usize, term: Term) {
        let (chunk, offset) = slot(i - self.base.len());
        let slots =
            self.chunks[chunk].get_or_init(|| (0..1 << chunk).map(|_| OnceLock::new()).collect());
        assert!(slots[offset].set(term).is_ok(), "dictionary slot {i} written twice");
    }
}

impl std::fmt::Debug for Dictionary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dictionary").field("len", &self.len).finish_non_exhaustive()
    }
}

impl Dictionary {
    /// An empty dictionary.
    pub fn new() -> Dictionary {
        Dictionary::default()
    }

    /// Rebuild a dictionary from its terms in key order (the snapshot
    /// load path). The reverse map is re-hashed — the only per-term work
    /// a snapshot load performs — but no parsing, allocation-per-probe,
    /// or key reassignment happens: term `i` keeps key `i`.
    pub(crate) fn from_terms(terms: Vec<Term>) -> Dictionary {
        let map = terms.iter().enumerate().map(|(i, t)| (t.clone(), i as u32)).collect();
        let len = terms.len();
        let shared = SharedTerms {
            map: RwLock::new(map),
            base: terms.into_boxed_slice(),
            chunks: Default::default(),
        };
        Dictionary { shared: Arc::new(shared), len }
    }

    /// Encode `term`, assigning the next key on first encounter.
    ///
    /// # Panics
    /// Panics if more than `u32::MAX` distinct terms are inserted.
    pub fn encode(&mut self, term: &Term) -> u32 {
        if let Some(id) = self.lookup(term) {
            return id;
        }
        let shared = Arc::clone(&self.shared);
        let mut map = shared.map.write().expect("dictionary lock poisoned");
        if map.len() != self.len {
            // Another handle appended past our watermark: continue on a
            // private copy of what this handle can see.
            drop(map);
            *self = Dictionary::from_terms(self.iter().map(|(_, t)| t.clone()).collect());
            return self.encode(term);
        }
        let id = u32::try_from(self.len).expect("dictionary overflow: more than 2^32 terms");
        shared.push(self.len, term.clone());
        map.insert(term.clone(), id);
        self.len += 1;
        id
    }

    fn visible(&self, id: Option<&u32>) -> Option<u32> {
        id.copied().filter(|&id| (id as usize) < self.len)
    }

    /// Key for `term` if it has been seen before.
    pub fn lookup(&self, term: &Term) -> Option<u32> {
        self.visible(self.shared.map.read().expect("dictionary lock poisoned").get(term))
    }

    /// Allocation-free lookup of an IRI by string: the map is probed with
    /// a borrowed view of the term, so no `String` (or `Term`) is built.
    /// This sits on the serving hot path — every constant in every query
    /// resolves through here.
    pub fn lookup_iri(&self, iri: &str) -> Option<u32> {
        let map = self.shared.map.read().expect("dictionary lock poisoned");
        self.visible(map.get(&Probe { kind: KIND_IRI, text: iri } as &dyn TermKey))
    }

    /// Allocation-free lookup of a plain literal by its body.
    pub fn lookup_literal(&self, literal: &str) -> Option<u32> {
        let map = self.shared.map.read().expect("dictionary lock poisoned");
        self.visible(map.get(&Probe { kind: KIND_LITERAL, text: literal } as &dyn TermKey))
    }

    /// Decode a key back to its term.
    ///
    /// # Panics
    /// Panics on a key that was never assigned.
    pub fn decode(&self, id: u32) -> &Term {
        self.try_decode(id).unwrap_or_else(|| panic!("dictionary key {id} was never assigned"))
    }

    /// Decode a key if it is valid.
    pub fn try_decode(&self, id: u32) -> Option<&Term> {
        if (id as usize) < self.len {
            self.shared.get(id as usize)
        } else {
            None
        }
    }

    /// Number of distinct terms.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no term has been encoded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterate `(key, term)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &Term)> {
        (0..self.len).map(|i| (i as u32, self.shared.get(i).expect("visible key is assigned")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_is_idempotent() {
        let mut d = Dictionary::new();
        let a = d.encode(&Term::iri("a"));
        let b = d.encode(&Term::iri("b"));
        assert_eq!(d.encode(&Term::iri("a")), a);
        assert_ne!(a, b);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn keys_are_dense_and_ordered_by_first_encounter() {
        let mut d = Dictionary::new();
        assert_eq!(d.encode(&Term::iri("x")), 0);
        assert_eq!(d.encode(&Term::literal("x")), 1); // distinct from the IRI
        assert_eq!(d.encode(&Term::iri("y")), 2);
    }

    #[test]
    fn decode_roundtrip() {
        let mut d = Dictionary::new();
        let id = d.encode(&Term::literal("GraduateStudent"));
        assert_eq!(d.decode(id), &Term::literal("GraduateStudent"));
        assert_eq!(d.try_decode(id + 1), None);
    }

    #[test]
    fn lookup_without_insert() {
        let mut d = Dictionary::new();
        d.encode(&Term::iri("present"));
        assert_eq!(d.lookup_iri("present"), Some(0));
        assert_eq!(d.lookup_iri("absent"), None);
    }

    #[test]
    fn borrowed_lookup_agrees_with_owned_and_separates_kinds() {
        // The same text as IRI and literal must resolve to its own key
        // through the borrowed probes, exactly as the owned lookup does.
        let mut d = Dictionary::new();
        let iri = d.encode(&Term::iri("x"));
        let lit = d.encode(&Term::literal("x"));
        assert_ne!(iri, lit);
        assert_eq!(d.lookup_iri("x"), Some(iri));
        assert_eq!(d.lookup_literal("x"), Some(lit));
        assert_eq!(d.lookup_iri("x"), d.lookup(&Term::iri("x")));
        assert_eq!(d.lookup_literal("x"), d.lookup(&Term::literal("x")));
        assert_eq!(d.lookup_literal("y"), None);
    }

    #[test]
    fn iter_in_key_order() {
        let mut d = Dictionary::new();
        d.encode(&Term::iri("a"));
        d.encode(&Term::iri("b"));
        let pairs: Vec<_> = d.iter().map(|(k, t)| (k, t.as_str().to_string())).collect();
        assert_eq!(pairs, vec![(0, "a".to_string()), (1, "b".to_string())]);
    }

    #[test]
    fn clones_share_terms_but_not_later_appends() {
        let mut a = Dictionary::new();
        a.encode(&Term::iri("x"));
        let mut b = a.clone();
        // `b` is the newest handle: it appends in place, invisibly to `a`.
        assert_eq!(b.encode(&Term::iri("y")), 1);
        assert!(Arc::ptr_eq(&a.shared, &b.shared));
        assert_eq!((a.len(), a.lookup_iri("y"), a.try_decode(1)), (1, None, None));
        // `a` is now behind: its append forks, and both keep key 1.
        assert_eq!(a.encode(&Term::iri("z")), 1);
        assert!(!Arc::ptr_eq(&a.shared, &b.shared));
        assert_eq!(a.decode(1), &Term::iri("z"));
        assert_eq!(b.decode(1), &Term::iri("y"));
        assert_eq!(a.decode(0), b.decode(0));
    }

    #[test]
    fn slots_cover_keys_without_gaps() {
        let mut seen = Vec::new();
        for i in 0..100 {
            let (chunk, offset) = slot(i);
            assert!(offset < 1 << chunk);
            seen.push((chunk, offset));
        }
        seen.dedup();
        assert_eq!(seen.len(), 100);
        assert_eq!(slot(0), (0, 0));
        assert_eq!(slot(2), (1, 1));
        assert_eq!(slot(u32::MAX as usize - 1), (31, (1 << 31) - 1));
    }
}
