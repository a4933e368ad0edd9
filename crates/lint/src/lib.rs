#![forbid(unsafe_code)]
#![deny(missing_docs)]

//! # jinjing-lint
//!
//! A solver-backed static analysis pass over everything Jinjing already
//! parses: ACLs, LAI intent programs, and network/ACL specifications. The
//! check/fix/generate pipeline only speaks up after an update is proposed;
//! the classic defects behind the paper's war stories — shadowed rules,
//! conflicting operator intents, drifted configs — are *static* and can be
//! caught before any update plan is computed.
//!
//! Diagnostics follow rustc's conventions: a stable code, a severity, a
//! location, a message, and a suggested fix, rendered as text or as
//! deterministic (byte-stable) JSON. Three analysis layers:
//!
//! | layer | codes | checks |
//! |-------|-------|--------|
//! | rule ([`rules`]) | `JL001`–`JL004` | full shadow (solver-confirmed), partial shadow, redundancy, action conflicts |
//! | intent ([`intent`]) | `JL101`–`JL104` | contradictory controls, vacuous clauses, subsumed clauses, unused ACL defs |
//! | network ([`network`], [`spec`]) | `JL201`–`JL203` | dangling references, invalid bindings, silent-allow paths |
//! | multi-tenant ([`multi`]) | `JL301`–`JL304` | cross-tenant conflicts (solver-certified with witness packets), cross-tenant subsumption, priority previews, unresolved contests |
//!
//! The rule layer reuses the seed's substrates end to end: candidate search
//! through the §5.5 [`jinjing_acl::rtree::RuleTree`], exact decisions from
//! the packet-set algebra, and full-shadow certification through the CDCL
//! solver on the balanced-tree ACL encoding
//! ([`jinjing_solver::aclenc::Encoding::Tree`]).

pub mod diag;
pub mod intent;
pub mod multi;
pub mod network;
pub mod rules;
pub mod sarif;
pub mod spec;

pub use crate::diag::{Certainty, Diagnostic, LintReport, Severity, SCHEMA_VERSION};
pub use crate::intent::lint_program;
pub use crate::multi::{cross_conflicts, lint_multi, Conflict, TenantIntent};
pub use crate::network::lint_config;
pub use crate::rules::lint_acl;
pub use crate::sarif::to_sarif;
pub use crate::spec::lint_specs;

/// Tunables for a lint run.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Re-prove every full-shadow finding (JL001) with the CDCL solver on
    /// the balanced-tree encoding, upgrading its certainty to
    /// [`Certainty::SolverConfirmed`]. On by default; turn off for raw
    /// throughput.
    pub solver_confirm: bool,
    /// Cap on reported opposite-action overlap pairs (JL004) per ACL,
    /// keeping the output readable on rule sets with systematic overlap.
    /// The kept pairs are the largest by exact overlap volume.
    pub max_conflicts_per_acl: usize,
    /// Worker threads for the cross-tenant certification fan-out
    /// ([`multi::cross_conflicts`]): `0` defers to `JINJING_THREADS` (then
    /// serial), exactly like [`jinjing_par::Pool::new`]. Output bytes are
    /// identical at every thread count.
    pub threads: usize,
    /// The run's observability collector: `lint.*` spans and counters land
    /// here.
    pub obs: jinjing_obs::Collector,
    /// Restrict this run to the work owned by one shard of a
    /// consistent-hash partition. Per-slot analysis is keyed by slot name
    /// ([`jinjing_acl::shard::ShardSpec::owns_str`]); partition-global
    /// passes (the JL203 silent-allow sweep, intent-program lint) run only
    /// on the primary shard so they are emitted exactly once. `None` — the
    /// default — lints everything.
    pub shard: Option<jinjing_acl::shard::ShardSpec>,
}

impl Default for LintConfig {
    fn default() -> LintConfig {
        LintConfig {
            solver_confirm: true,
            max_conflicts_per_acl: 5,
            threads: 0,
            obs: jinjing_obs::Collector::default(),
            shard: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults() {
        let cfg = LintConfig::default();
        assert!(cfg.solver_confirm);
        assert_eq!(cfg.max_conflicts_per_acl, 5);
        assert_eq!(cfg.threads, 0);
    }

    #[test]
    fn reports_from_all_layers_merge_and_sort_deterministically() {
        let cfg = LintConfig::default();
        let acl = jinjing_acl::AclBuilder::default_permit()
            .deny_dst("1.0.0.0/8")
            .deny_dst("1.2.0.0/16")
            .build();
        let mut a = lint_acl("B:0-in", &acl, &cfg);
        let b = lint_acl("A:0-in", &acl, &cfg);
        a.merge(b);
        a.sort();
        let json1 = a.to_json();
        let locs: Vec<&str> = a
            .diagnostics()
            .iter()
            .map(|d| d.location.as_str())
            .collect();
        assert_eq!(locs, vec!["A:0-in:rule:1", "B:0-in:rule:1"]);
        // Byte-stable: rebuilding the same report renders identically.
        let mut c = lint_acl("A:0-in", &acl, &cfg);
        c.merge(lint_acl("B:0-in", &acl, &cfg));
        c.sort();
        assert_eq!(json1, c.to_json());
    }
}
