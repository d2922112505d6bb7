//! The persisted value types: structural representations of terms, atoms,
//! queries, constraints and view definitions, plus the two on-disk
//! composites — [`FactBatch`] (one WAL record) and [`Snapshot`] (one
//! compacted checkpoint).
//!
//! Everything here is plain owned data with an explicit binary encoding;
//! nothing touches disk (see [`crate::log`] and [`crate::snapshot`] for
//! framing and files) and nothing touches the process-wide dictionary —
//! translation between persisted codes and live [`Term`]s is the recovery
//! layer's job, precisely because the dictionary of the writing process is
//! dead by the time these bytes are read back.

use crate::codec::{Decoder, Encoder};
use crate::{WalError, WalResult};
use sac_common::Term;

/// A [`Term`], process-independent: constants and variables by name, nulls
/// by label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TermRepr {
    /// A constant, by interned name.
    Constant(String),
    /// A labelled null.
    Null(u64),
    /// A variable, by name (frozen queries and the cover game store
    /// variable atoms in instances, so the WAL must carry them too).
    Variable(String),
}

const TERM_CONSTANT: u8 = 0;
const TERM_NULL: u8 = 1;
const TERM_VARIABLE: u8 = 2;

impl TermRepr {
    /// The representation of a live term (reads the symbol table, never the
    /// dictionary).
    pub fn of(term: Term) -> TermRepr {
        match term {
            Term::Constant(s) => TermRepr::Constant(s.as_str()),
            Term::Null(label) => TermRepr::Null(label),
            Term::Variable(s) => TermRepr::Variable(s.as_str()),
        }
    }

    /// Re-interns the representation as a live term in this process.
    pub fn to_term(&self) -> Term {
        match self {
            TermRepr::Constant(name) => Term::constant(name),
            TermRepr::Null(label) => Term::null(*label),
            TermRepr::Variable(name) => Term::variable(name),
        }
    }

    fn encode(&self, enc: &mut Encoder) {
        match self {
            TermRepr::Constant(name) => {
                enc.u8(TERM_CONSTANT);
                enc.str(name);
            }
            TermRepr::Null(label) => {
                enc.u8(TERM_NULL);
                enc.u64(*label);
            }
            TermRepr::Variable(name) => {
                enc.u8(TERM_VARIABLE);
                enc.str(name);
            }
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> WalResult<TermRepr> {
        match dec.u8()? {
            TERM_CONSTANT => Ok(TermRepr::Constant(dec.str()?)),
            TERM_NULL => Ok(TermRepr::Null(dec.u64()?)),
            TERM_VARIABLE => Ok(TermRepr::Variable(dec.str()?)),
            tag => Err(WalError::corrupt(format!("unknown term tag {tag}"))),
        }
    }
}

/// An atom, process-independent: predicate by name, arguments as
/// [`TermRepr`]s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AtomRepr {
    /// The predicate name.
    pub predicate: String,
    /// The arguments.
    pub args: Vec<TermRepr>,
}

impl AtomRepr {
    /// The representation of a live atom.
    pub fn of(atom: &sac_common::Atom) -> AtomRepr {
        AtomRepr {
            predicate: atom.predicate.as_str(),
            args: atom.args.iter().map(|&t| TermRepr::of(t)).collect(),
        }
    }

    /// Re-interns the representation as a live atom.
    pub fn to_atom(&self) -> sac_common::Atom {
        sac_common::Atom::from_parts(
            &self.predicate,
            self.args.iter().map(TermRepr::to_term).collect(),
        )
    }

    fn encode(&self, enc: &mut Encoder) {
        enc.str(&self.predicate);
        enc.len(self.args.len());
        for arg in &self.args {
            arg.encode(enc);
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> WalResult<AtomRepr> {
        let predicate = dec.str()?;
        let n = dec.bounded_len(1)?;
        let args = (0..n)
            .map(|_| TermRepr::decode(dec))
            .collect::<WalResult<_>>()?;
        Ok(AtomRepr { predicate, args })
    }
}

/// A conjunctive query, structurally: head variable names plus body atoms.
///
/// Structural on purpose — the display form (`q(?X) :- E(?X, ?Y).`) does
/// not round-trip through the parser (variables print with a `?` sigil,
/// and a lower-case variable name would re-parse as a constant), so the
/// recovery layer rebuilds through `ConjunctiveQuery::new` instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryRepr {
    /// The query's display name, if it had one.
    pub name: Option<String>,
    /// Head (answer) variable names, in answer-column order.
    pub head: Vec<String>,
    /// Body atoms.
    pub body: Vec<AtomRepr>,
}

impl QueryRepr {
    fn encode(&self, enc: &mut Encoder) {
        match &self.name {
            Some(name) => {
                enc.u8(1);
                enc.str(name);
            }
            None => enc.u8(0),
        }
        enc.len(self.head.len());
        for v in &self.head {
            enc.str(v);
        }
        enc.len(self.body.len());
        for atom in &self.body {
            atom.encode(enc);
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> WalResult<QueryRepr> {
        let name = match dec.u8()? {
            0 => None,
            1 => Some(dec.str()?),
            tag => return Err(WalError::corrupt(format!("unknown option tag {tag}"))),
        };
        let heads = dec.bounded_len(1)?;
        let head = (0..heads).map(|_| dec.str()).collect::<WalResult<_>>()?;
        let atoms = dec.bounded_len(1)?;
        let body = (0..atoms)
            .map(|_| AtomRepr::decode(dec))
            .collect::<WalResult<_>>()?;
        Ok(QueryRepr { name, head, body })
    }
}

/// A tgd, structurally: body and head atoms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TgdRepr {
    /// Body atoms.
    pub body: Vec<AtomRepr>,
    /// Head atoms.
    pub head: Vec<AtomRepr>,
}

impl TgdRepr {
    fn encode(&self, enc: &mut Encoder) {
        enc.len(self.body.len());
        for atom in &self.body {
            atom.encode(enc);
        }
        enc.len(self.head.len());
        for atom in &self.head {
            atom.encode(enc);
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> WalResult<TgdRepr> {
        let bodies = dec.bounded_len(1)?;
        let body = (0..bodies)
            .map(|_| AtomRepr::decode(dec))
            .collect::<WalResult<_>>()?;
        let heads = dec.bounded_len(1)?;
        let head = (0..heads)
            .map(|_| AtomRepr::decode(dec))
            .collect::<WalResult<_>>()?;
        Ok(TgdRepr { body, head })
    }
}

/// A registered materialized view: its standing query plus the maintenance
/// options it was registered with.  The maintained answers themselves are
/// **not** persisted — recovery re-materializes from the recovered facts,
/// which is both simpler and self-checking (the kill/recover differential
/// asserts the re-materialized set equals the never-restarted one).
#[derive(Debug, Clone, PartialEq)]
pub struct ViewRepr {
    /// `ViewOptions::auto_refresh`.
    pub auto_refresh: bool,
    /// The standing query.
    pub query: QueryRepr,
}

impl ViewRepr {
    fn encode(&self, enc: &mut Encoder) {
        enc.u8(u8::from(self.auto_refresh));
        // Reserved: the slot of the `max_incremental_fraction` option views
        // once had, written with the bits of its only value (0.5) and
        // ignored on read.  Kept so the snapshot layout — and with it the
        // benchmark's exact `killed_dir_bytes` count — does not change.
        enc.u64(0.5f64.to_bits());
        self.query.encode(enc);
    }

    fn decode(dec: &mut Decoder<'_>) -> WalResult<ViewRepr> {
        let auto_refresh = match dec.u8()? {
            0 => false,
            1 => true,
            tag => return Err(WalError::corrupt(format!("unknown bool tag {tag}"))),
        };
        dec.u64()?; // the reserved slot, see `encode`
        let query = QueryRepr::decode(dec)?;
        Ok(ViewRepr {
            auto_refresh,
            query,
        })
    }
}

/// One relation's appended (or dumped) code rows.
///
/// `rows` is the flattened row-major code matrix: `row_count * arity`
/// entries.  `row_count` is explicit rather than derived because arity-0
/// relations (propositional facts) have rows but no codes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelationBatch {
    /// The predicate name.
    pub predicate: String,
    /// The relation's arity.
    pub arity: usize,
    /// Number of rows carried.
    pub row_count: usize,
    /// Flattened code rows (`row_count * arity` codes).
    pub rows: Vec<u32>,
}

impl RelationBatch {
    fn encode(&self, enc: &mut Encoder) {
        enc.str(&self.predicate);
        enc.len(self.arity);
        enc.len(self.row_count);
        enc.codes(&self.rows);
    }

    fn decode(dec: &mut Decoder<'_>) -> WalResult<RelationBatch> {
        let predicate = dec.str()?;
        let arity = dec.len()?;
        // Arity-0 rows occupy no bytes, so the bytes-remaining bound cannot
        // apply; the row vector is empty either way, so a corrupt count
        // cannot trigger a giant allocation there.
        let row_count = if arity == 0 {
            dec.len()?
        } else {
            dec.bounded_len(arity.saturating_mul(4))?
        };
        let codes = row_count
            .checked_mul(arity)
            .ok_or_else(|| WalError::corrupt("relation batch size overflows"))?;
        let rows = dec.codes(codes)?;
        Ok(RelationBatch {
            predicate,
            arity,
            row_count,
            rows,
        })
    }

    /// Iterates the batch's rows as code slices.
    pub fn code_rows(&self) -> impl Iterator<Item = &[u32]> + '_ {
        // `chunks_exact(0)` panics, so arity-0 rows are produced explicitly.
        (0..self.row_count).map(move |r| &self.rows[r * self.arity..(r + 1) * self.arity])
    }
}

/// One WAL record: the facts appended by one mutation, as code rows, plus
/// the dictionary delta needed to decode them in another process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FactBatch {
    /// Monotone sequence number (1-based); a snapshot stores the last seq
    /// it covers, and replay skips records at or below it.
    pub seq: u64,
    /// First code the delta describes: `dict_terms[i]` is the term behind
    /// code `dict_start + i` of the **writing** process's dictionary.
    pub dict_start: u32,
    /// Terms assigned to codes `dict_start..dict_start + len`, in code
    /// order.
    pub dict_terms: Vec<TermRepr>,
    /// The appended rows, grouped by relation.
    pub relations: Vec<RelationBatch>,
}

impl FactBatch {
    /// Total appended rows across all relations.
    pub fn rows(&self) -> usize {
        self.relations.iter().map(|r| r.row_count).sum()
    }

    /// The record body, ready for [`crate::log::WalWriter::append`]'s
    /// framing.
    pub fn encode(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.u64(self.seq);
        enc.u32(self.dict_start);
        enc.len(self.dict_terms.len());
        for term in &self.dict_terms {
            term.encode(&mut enc);
        }
        enc.len(self.relations.len());
        for rel in &self.relations {
            rel.encode(&mut enc);
        }
        enc.into_bytes()
    }

    /// Decodes a record body; trailing garbage after a well-formed batch is
    /// corruption (the frame length said the bytes belong to this record).
    pub fn decode(bytes: &[u8]) -> WalResult<FactBatch> {
        let mut dec = Decoder::new(bytes);
        let seq = dec.u64()?;
        let dict_start = dec.u32()?;
        let terms = dec.bounded_len(1)?;
        let dict_terms = (0..terms)
            .map(|_| TermRepr::decode(&mut dec))
            .collect::<WalResult<_>>()?;
        let rels = dec.bounded_len(1)?;
        let relations = (0..rels)
            .map(|_| RelationBatch::decode(&mut dec))
            .collect::<WalResult<_>>()?;
        if !dec.is_done() {
            return Err(WalError::corrupt("trailing bytes after fact batch"));
        }
        Ok(FactBatch {
            seq,
            dict_start,
            dict_terms,
            relations,
        })
    }
}

/// One compacted checkpoint: everything needed to rebuild a `Database`
/// without the WAL prefix it covers.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// The last WAL sequence number the snapshot covers; replay starts at
    /// `last_seq + 1`.
    pub last_seq: u64,
    /// The writing process's dictionary prefix, in code order: `dict[i]`
    /// is the term behind code `i`.
    pub dict: Vec<TermRepr>,
    /// Full relation dumps.
    pub relations: Vec<RelationBatch>,
    /// The constraint set.
    pub tgds: Vec<TgdRepr>,
    /// Registered view definitions.
    pub views: Vec<ViewRepr>,
    /// Plan-cache fingerprints: the distinct query shapes the process had
    /// compiled, re-planned on open to warm the cache.
    pub plans: Vec<QueryRepr>,
}

impl Snapshot {
    /// Total dumped rows across all relations.
    pub fn atoms(&self) -> usize {
        self.relations.iter().map(|r| r.row_count).sum()
    }

    /// The snapshot body, ready for [`crate::snapshot::write_snapshot`]'s
    /// framing.
    pub fn encode(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.u64(self.last_seq);
        enc.len(self.dict.len());
        for term in &self.dict {
            term.encode(&mut enc);
        }
        enc.len(self.relations.len());
        for rel in &self.relations {
            rel.encode(&mut enc);
        }
        enc.len(self.tgds.len());
        for tgd in &self.tgds {
            tgd.encode(&mut enc);
        }
        enc.len(self.views.len());
        for view in &self.views {
            view.encode(&mut enc);
        }
        enc.len(self.plans.len());
        for plan in &self.plans {
            plan.encode(&mut enc);
        }
        enc.into_bytes()
    }

    /// Decodes a snapshot body.
    pub fn decode(bytes: &[u8]) -> WalResult<Snapshot> {
        let mut dec = Decoder::new(bytes);
        let last_seq = dec.u64()?;
        let terms = dec.bounded_len(1)?;
        let dict = (0..terms)
            .map(|_| TermRepr::decode(&mut dec))
            .collect::<WalResult<_>>()?;
        let rels = dec.bounded_len(1)?;
        let relations = (0..rels)
            .map(|_| RelationBatch::decode(&mut dec))
            .collect::<WalResult<_>>()?;
        let tgd_count = dec.bounded_len(1)?;
        let tgds = (0..tgd_count)
            .map(|_| TgdRepr::decode(&mut dec))
            .collect::<WalResult<_>>()?;
        let view_count = dec.bounded_len(1)?;
        let views = (0..view_count)
            .map(|_| ViewRepr::decode(&mut dec))
            .collect::<WalResult<_>>()?;
        let plan_count = dec.bounded_len(1)?;
        let plans = (0..plan_count)
            .map(|_| QueryRepr::decode(&mut dec))
            .collect::<WalResult<_>>()?;
        if !dec.is_done() {
            return Err(WalError::corrupt("trailing bytes after snapshot"));
        }
        Ok(Snapshot {
            last_seq,
            dict,
            relations,
            tgds,
            views,
            plans,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_batch() -> FactBatch {
        FactBatch {
            seq: 7,
            dict_start: 3,
            dict_terms: vec![
                TermRepr::Constant("ann".into()),
                TermRepr::Null(42),
                TermRepr::Variable("X".into()),
            ],
            relations: vec![
                RelationBatch {
                    predicate: "E".into(),
                    arity: 2,
                    row_count: 2,
                    rows: vec![3, 4, 4, 5],
                },
                RelationBatch {
                    predicate: "Flag".into(),
                    arity: 0,
                    row_count: 1,
                    rows: vec![],
                },
            ],
        }
    }

    #[test]
    fn fact_batches_round_trip() {
        let batch = sample_batch();
        assert_eq!(FactBatch::decode(&batch.encode()).unwrap(), batch);
        assert_eq!(batch.rows(), 3);
    }

    #[test]
    fn zero_arity_rows_are_enumerable() {
        let batch = sample_batch();
        let flag = &batch.relations[1];
        assert_eq!(flag.code_rows().count(), 1);
        assert_eq!(flag.code_rows().next().unwrap(), &[] as &[u32]);
    }

    #[test]
    fn term_reprs_translate_both_ways() {
        for term in [Term::constant("c"), Term::variable("V"), Term::null(9)] {
            assert_eq!(TermRepr::of(term).to_term(), term);
        }
    }

    #[test]
    fn snapshots_round_trip() {
        let snap = Snapshot {
            last_seq: 12,
            dict: vec![
                TermRepr::Constant("a".into()),
                TermRepr::Constant("b".into()),
            ],
            relations: vec![RelationBatch {
                predicate: "E".into(),
                arity: 2,
                row_count: 1,
                rows: vec![0, 1],
            }],
            tgds: vec![TgdRepr {
                body: vec![AtomRepr {
                    predicate: "E".into(),
                    args: vec![
                        TermRepr::Variable("X".into()),
                        TermRepr::Variable("Y".into()),
                    ],
                }],
                head: vec![AtomRepr {
                    predicate: "R".into(),
                    args: vec![
                        TermRepr::Variable("Y".into()),
                        TermRepr::Variable("X".into()),
                    ],
                }],
            }],
            views: vec![ViewRepr {
                auto_refresh: true,
                query: QueryRepr {
                    name: Some("reach".into()),
                    head: vec!["X".into(), "Z".into()],
                    body: vec![
                        AtomRepr {
                            predicate: "E".into(),
                            args: vec![
                                TermRepr::Variable("X".into()),
                                TermRepr::Variable("Y".into()),
                            ],
                        },
                        AtomRepr {
                            predicate: "E".into(),
                            args: vec![
                                TermRepr::Variable("Y".into()),
                                TermRepr::Variable("Z".into()),
                            ],
                        },
                    ],
                },
            }],
            plans: vec![QueryRepr {
                name: None,
                head: vec!["X".into()],
                body: vec![AtomRepr {
                    predicate: "E".into(),
                    args: vec![
                        TermRepr::Variable("X".into()),
                        TermRepr::Variable("Y".into()),
                    ],
                }],
            }],
        };
        assert_eq!(Snapshot::decode(&snap.encode()).unwrap(), snap);
        assert_eq!(snap.atoms(), 1);
    }

    #[test]
    fn corrupt_tags_are_rejected() {
        let mut bytes = sample_batch().encode();
        // The first term tag sits after seq (8) + dict_start (4) + count (8).
        bytes[20] = 99;
        assert!(FactBatch::decode(&bytes).is_err());
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = sample_batch().encode();
        bytes.push(0);
        assert!(FactBatch::decode(&bytes).is_err());
    }
}
