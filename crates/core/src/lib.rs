#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # jinjing-core
//!
//! The Jinjing engine: the paper's three primitives over the substrates of
//! `jinjing-acl` (exact packet-set algebra), `jinjing-solver` (CDCL SAT +
//! circuit compilation) and `jinjing-net` (topology/routing/paths).
//!
//! - [`mod@check`] — packet/desired reachability consistency verification
//!   (Algorithm 1), with the differential-rule reduction (Theorem 4.1) and
//!   the tree decision-model encoding as switchable optimizations, plus an
//!   exact set-algebra reference checker used for cross-validation.
//! - [`mod@fix`] — counterexample enumeration, neighborhood expansion (Eq. 6),
//!   per-neighborhood placement solving with `allow` constraints and the
//!   minimal-change objective, fixing-rule emission and final
//!   simplification (§4.2); two engines — the paper's iterative loop and a
//!   batch exact-algebra variant ([`FixStrategy`]).
//! - [`mod@generate`] — AEC derivation (§5.1), AEC-level solving (Eq. 10), DEC
//!   splitting and re-solving (§5.3), the four-step ACL synthesis (§5.4)
//!   and the §5.5 optimizations.
//! - [`control`] — desired-reachability transformation of path decision
//!   models for `isolate` / `open` / `maintain` intents (§6).
//! - [`mod@qcache`] — the per-scope query store: identical
//!   decision-model comparisons (same ordered slot ACLs, encoding, verb
//!   and packet region) across paths, FECs, engine phases and session
//!   re-checks are solved once and replayed; collision-safe keys (full
//!   structural `Eq`, fingerprint-routed `Hash`) behind a sharded mutex
//!   map, generation-tagged for session eviction.
//! - [`mod@incr`] — the incremental re-check engine: a
//!   [`CheckSession`] keeps the scope model (FEC partition, per-class
//!   paths) and a generation-tagged query cache alive across a
//!   stream of deltas, re-solving only the (class, path) pairs each
//!   delta dirties while staying byte-identical to a cold check.
//! - [`mod@plan`] — safe update sequencing: decompose a base→target diff
//!   into per-device steps, search for an ordering whose every
//!   intermediate state satisfies the intent (session probes + CEGIS
//!   witness pruning), batch provably-commuting steps into certified
//!   waves, or return a deletion-minimal infeasibility core.
//! - [`mod@query`] — the query layer shared by every front end (CLI and
//!   the `jinjing-serve` daemon): run an LAI intent or a watch-session
//!   delta batch and render the result as canonical, byte-stable JSON
//!   ([`query::PlanDocument`], [`query::WatchOutput`]).
//! - [`mod@resolve`] — binding a parsed LAI [`Program`](jinjing_lai::Program)
//!   to a concrete [`Network`](jinjing_net::Network) + current
//!   [`AclConfig`](jinjing_net::AclConfig), producing a [`task::Task`].
//! - [`engine`] — the front door: run a resolved task, producing an
//!   [`engine::Report`] (the "update plan" handed back to the operator).
//! - [`figure1`] — the paper's running-example network (Figure 1), used by
//!   the quickstart example and many tests.
//!
//! **One settings tree.** An [`EngineConfig`] holds each setting once. Its
//! [`CheckConfig`] is the run's one check: `fix` searches and certifies
//! under it, `generate` reads its refinement caps and collector
//! from it, and every session re-check and rollout-prefix probe runs under
//! it. [`FixConfig`], [`GenerateConfig`] and [`PlanConfig`] hold only what
//! their primitive alone reads.

pub mod check;
pub mod control;
pub mod engine;
pub mod figure1;
pub mod fix;
pub mod generate;
pub mod incr;
pub mod plan;
pub mod qcache;
pub mod query;
pub mod resolve;
pub mod task;

pub use crate::check::{
    check, check_per_acl, CheckConfig, CheckOutcome, CheckReport, IncrStats, Violation,
};
pub use crate::control::ResolvedControl;
pub use crate::engine::{open_session, run, EngineConfig, Report, ReportKind};
pub use crate::fix::{fix, FixConfig, FixError, FixPhases, FixPlan, FixStrategy};
pub use crate::generate::{generate, GenerateConfig, GenerateError, GenerateReport};
pub use crate::incr::{CheckSession, Delta, DeltaEdit, RecheckReport};
pub use crate::plan::{
    synthesize, PlanConfig, PlanError, PlanOutcome, PlanStats, PlanStep, RolloutPlan,
    WaveCertificate,
};
pub use crate::qcache::{CachedSolve, QueryCache, QueryKey};
pub use crate::query::{
    lint_multi_query, lint_query, open_intent_session, plan_query, recheck_steps,
    render_rollout_json, run_query, watch_query, Answer, LintOutput, PlanDocument, PlanEntry,
    PlanRunOutput, QueryError, Reject, RunOutput, WatchOutput, WatchStep,
};
pub use crate::resolve::{resolve, ResolveError};
pub use crate::task::Task;
pub use jinjing_solver::aclenc::Encoding;
