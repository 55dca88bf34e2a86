//! Raw and dictionary-encoded triples.

use crate::term::Term;

/// A Subject–Predicate–Object triple over raw [`Term`]s.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Triple {
    /// Subject (always an IRI in LUBM data).
    pub s: Term,
    /// Predicate IRI.
    pub p: Term,
    /// Object (IRI or literal).
    pub o: Term,
}

impl Triple {
    /// Construct a triple.
    pub fn new(s: Term, p: Term, o: Term) -> Triple {
        Triple { s, p, o }
    }
}

impl std::fmt::Display for Triple {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {} {} .", self.s, self.p, self.o)
    }
}

/// A triple after dictionary encoding: three 32-bit keys (paper §II-A1,
/// "dictionary encoding maps original data values to keys of another type —
/// in our case 32-bit unsigned integers").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EncodedTriple {
    /// Encoded subject.
    pub s: u32,
    /// Encoded predicate.
    pub p: u32,
    /// Encoded object.
    pub o: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_ntriples() {
        let t = Triple::new(Term::iri("s"), Term::iri("p"), Term::literal("o"));
        assert_eq!(t.to_string(), "<s> <p> \"o\" .");
    }

    #[test]
    fn encoded_triple_is_small() {
        assert_eq!(std::mem::size_of::<EncodedTriple>(), 12);
    }
}
