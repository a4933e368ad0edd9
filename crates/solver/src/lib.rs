#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # jinjing-solver
//!
//! The decision-procedure substrate of the Jinjing reproduction — the role
//! Z3 plays in the paper. Everything is built from scratch:
//!
//! - [`lit`] — variables and literals.
//! - [`cdcl`] — a CDCL SAT solver: two-watched-literal propagation,
//!   1UIP conflict analysis with clause learning, VSIDS-style variable
//!   activity, phase saving, Luby restarts, and solving under assumptions.
//!   [`cdcl::Solver`] also reports the search statistics (decisions,
//!   propagations, conflicts, maximum decision depth) that §9 of the paper
//!   uses to explain *why* the optimizations work.
//! - [`circuit`] — a Tseitin gate builder layering AND/OR/NOT/XOR/ITE/IFF
//!   circuits (constant-folded and structurally hashed) on top of the CNF
//!   database.
//! - [`header`] — the 104-bit packet-header bit-blasting: per-field bit
//!   vectors, prefix-match, range-comparator and match-spec circuits, and
//!   model-to-[`Packet`](jinjing_acl::Packet) decoding.
//! - [`aclenc`] — ACL decision-model encodings: the naive **sequential**
//!   first-match chain (O(n) solver search depth) and the paper's
//!   **balanced-tree** encoding inspired by tournament sort (O(log n)
//!   depth).
//! - [`card`] — sequential-counter cardinality outputs used for the fix
//!   primitive's "minimize the number of interfaces changed" objective.
//!
//! The solver is deliberately simple in places — blocking-literal tricks
//! and preprocessing are omitted — but it keeps long-lived instances
//! healthy with glucose-style learned-clause database reduction
//! (LBD-tagged clauses, periodic deletion of high-LBD/stale clauses), and
//! on the problem sizes Jinjing produces (after the differential-rule
//! reduction) it solves every query in this repository in milliseconds.

pub mod aclenc;
pub mod card;
pub mod cdcl;
pub mod circuit;
pub mod header;
pub mod lit;

pub use crate::aclenc::acl_fingerprint;
pub use crate::cdcl::{SolveResult, Solver, SolverStats};
pub use crate::circuit::CircuitBuilder;
pub use crate::header::HeaderVars;
pub use crate::lit::{Lit, Var};
