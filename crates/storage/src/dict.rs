//! The global term dictionary: [`Term`] ⟷ dense `u32` codes.
//!
//! The columnar [`crate::Relation`] stores every tuple as a row of `u32`
//! **codes** instead of boxed [`Term`]s.  This module owns the bijection:
//! a process-wide, append-only table mapping each distinct term ever stored
//! to a dense code, exactly like `sac_common::symbol` interns strings.
//!
//! Making the dictionary global (rather than per-relation or per-instance)
//! buys three properties the engine's vectorized hot path depends on:
//!
//! * **codes are comparable everywhere** — a semijoin between two relations,
//!   or between a relation and a query constant, is a `u32 == u32`, never a
//!   decode;
//! * **codes are stable across appends** — a code never changes meaning, so
//!   cached indexes and delta watermarks survive growth untouched;
//! * **relations stay freely constructible** — scratch relations and
//!   instance clones share the codes of their source with zero
//!   re-encoding.
//!
//! The table is guarded by an `RwLock`; encoding an already-known term (the
//! steady-state path) and every decode take only the shared read lock.
//! Codes are never reclaimed — a `u32` code is valid for the lifetime of
//! the process, mirroring the symbol interner's contract.

use sac_common::{FxHashMap, Term};
use std::sync::{OnceLock, RwLock};

#[derive(Default)]
struct Dict {
    codes: FxHashMap<Term, u32>,
    terms: Vec<Term>,
}

fn global() -> &'static RwLock<Dict> {
    static GLOBAL: OnceLock<RwLock<Dict>> = OnceLock::new();
    GLOBAL.get_or_init(|| RwLock::new(Dict::default()))
}

/// Encodes `term`, assigning the next dense code on first sight.
///
/// Encoding the same term twice returns the same code; codes already handed
/// out are never reassigned (append-only, like symbol interning).
pub fn encode(term: Term) -> u32 {
    {
        let guard = global().read().expect("term dictionary poisoned");
        if let Some(&code) = guard.codes.get(&term) {
            return code;
        }
    }
    let mut guard = global().write().expect("term dictionary poisoned");
    if let Some(&code) = guard.codes.get(&term) {
        return code;
    }
    let code = u32::try_from(guard.terms.len()).expect("term dictionary overflow");
    guard.terms.push(term);
    guard.codes.insert(term, code);
    code
}

/// The code of `term` if it was ever encoded, without assigning one.
///
/// A `None` answer is a strong fact: the term occurs in **no** columnar
/// relation of the process, so lookups for it can short-circuit to empty.
pub fn lookup(term: Term) -> Option<u32> {
    global()
        .read()
        .expect("term dictionary poisoned")
        .codes
        .get(&term)
        .copied()
}

/// The codes of `terms`, or `None` when some term was never encoded — then
/// no stored row holds them all.
pub fn lookup_row(terms: &[Term]) -> Option<Vec<u32>> {
    if terms.is_empty() {
        return Some(Vec::new());
    }
    let guard = global().read().expect("term dictionary poisoned");
    terms.iter().map(|t| guard.codes.get(t).copied()).collect()
}

/// Decodes one code back to its term.
///
/// # Panics
///
/// Panics if `code` was never handed out by [`encode`] (only possible for a
/// forged code).
pub fn decode(code: u32) -> Term {
    let guard = global().read().expect("term dictionary poisoned");
    *guard
        .terms
        .get(code as usize)
        .unwrap_or_else(|| panic!("unknown term code {code}"))
}

/// Decodes a whole code row under a single read lock (the veneer's
/// row-materialization path).
pub fn decode_row(codes: &[u32]) -> Vec<Term> {
    let guard = global().read().expect("term dictionary poisoned");
    codes
        .iter()
        .map(|&code| {
            *guard
                .terms
                .get(code as usize)
                .unwrap_or_else(|| panic!("unknown term code {code}"))
        })
        .collect()
}

/// A held read guard over the dictionary for bulk decoding: one lock
/// acquisition amortized over arbitrarily many [`Decoder::decode`] calls
/// (e.g. materializing a whole answer set).
///
/// Do **not** call [`encode`] while a `Decoder` is alive on the same
/// thread — encoding an unseen term takes the write lock and would
/// deadlock against the held read guard.
pub struct Decoder {
    guard: std::sync::RwLockReadGuard<'static, Dict>,
}

impl Decoder {
    /// Decodes one code back to its term (see [`decode`] for the panic
    /// contract).
    pub fn decode(&self, code: u32) -> Term {
        *self
            .guard
            .terms
            .get(code as usize)
            .unwrap_or_else(|| panic!("unknown term code {code}"))
    }
}

/// Takes the dictionary read lock once, for bulk decoding.
pub fn decoder() -> Decoder {
    Decoder {
        guard: global().read().expect("term dictionary poisoned"),
    }
}

/// The terms behind the code range `start..end`, in code order — the
/// export the `sac-wal` persistence layer uses to ship dictionary deltas
/// alongside encoded rows (codes are process-local; a WAL record or
/// snapshot must carry the `(code, term)` assignments it references).
///
/// `end` is clamped to the dictionary's current length, so callers can
/// pass a watermark pair without racing later encodes.
pub fn terms_range(start: u32, end: u32) -> Vec<Term> {
    let guard = global().read().expect("term dictionary poisoned");
    let end = (end as usize).min(guard.terms.len());
    let start = (start as usize).min(end);
    guard.terms[start..end].to_vec()
}

/// Number of distinct terms ever encoded, process-wide.
pub fn len() -> usize {
    global()
        .read()
        .expect("term dictionary poisoned")
        .terms
        .len()
}

/// Estimated heap footprint of the dictionary itself: the decode table plus
/// the encode map (entry ≈ key + value + bucket overhead).
pub fn heap_bytes() -> usize {
    let guard = global().read().expect("term dictionary poisoned");
    let term = std::mem::size_of::<Term>();
    guard.terms.capacity() * term
        + guard.codes.capacity() * (term + std::mem::size_of::<u32>() + std::mem::size_of::<u64>())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_is_idempotent_and_decode_round_trips() {
        let t = Term::constant("dict_round_trip");
        let code = encode(t);
        assert_eq!(encode(t), code);
        assert_eq!(decode(code), t);
        assert_eq!(lookup(t), Some(code));
    }

    #[test]
    fn all_term_kinds_are_encodable() {
        for t in [
            Term::constant("dict_c"),
            Term::variable("dict_v"),
            Term::null(123_456_789),
        ] {
            assert_eq!(decode(encode(t)), t);
        }
    }

    #[test]
    fn lookup_without_encode_is_none() {
        assert_eq!(lookup(Term::constant("dict_never_encoded_xyzzy")), None);
    }

    #[test]
    fn decode_row_matches_per_code_decode() {
        let row: Vec<u32> = ["dr_a", "dr_b", "dr_a"]
            .iter()
            .map(|s| encode(Term::constant(s)))
            .collect();
        let decoded = decode_row(&row);
        assert_eq!(decoded, row.iter().map(|&c| decode(c)).collect::<Vec<_>>());
        assert_eq!(decoded[0], decoded[2]);
    }

    #[test]
    fn bulk_decoder_agrees_with_per_code_decode() {
        let codes: Vec<u32> = ["dec_a", "dec_b", "dec_c"]
            .iter()
            .map(|s| encode(Term::constant(s)))
            .collect();
        let decoder = decoder();
        for &code in &codes {
            assert_eq!(decoder.decode(code), decode(code));
        }
    }

    #[test]
    fn codes_are_stable_across_later_appends() {
        let a = encode(Term::constant("dict_stable_a"));
        for i in 0..100 {
            encode(Term::constant(&format!("dict_filler_{i}")));
        }
        assert_eq!(encode(Term::constant("dict_stable_a")), a);
    }

    #[test]
    fn dictionary_reports_size_and_bytes() {
        encode(Term::constant("dict_sizing"));
        assert!(len() > 0);
        assert!(heap_bytes() > 0);
    }

    #[test]
    fn terms_range_exports_in_code_order() {
        let a = encode(Term::constant("dict_range_a"));
        let b = encode(Term::constant("dict_range_b"));
        // Codes are dense but other tests encode concurrently; read back
        // exactly the two codes we were handed.
        let exported = terms_range(a, a + 1);
        assert_eq!(exported, vec![decode(a)]);
        // Other tests encode concurrently, so only lower-bound the size.
        let all = terms_range(0, u32::MAX);
        assert!(all.len() > b as usize);
        assert_eq!(all[a as usize], decode(a));
        assert_eq!(all[b as usize], decode(b));
        // Clamping: inverted and out-of-range bounds yield empty, not panic.
        assert!(terms_range(u32::MAX - 1, u32::MAX).is_empty());
    }
}
