#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # jinjing-wan
//!
//! Synthetic WAN and ACL workload generation — the stand-in for the
//! Alibaba production network the paper evaluates on (§8 takes 8%/30%/80%
//! slices of it; we generate layered multi-cell topologies of three sizes
//! with the same structure: "layered topology connected to an external
//! backbone", ACLs and prefixes "placed across multiple layers").
//!
//! A generated [`Wan`] is a three-layer network:
//!
//! ```text
//!   backbone ══ uplinks ══ [ core … core ]
//!                             │   (full mesh)
//!                 cell k:  [ agg … agg ]
//!                             │   (full mesh within the cell)
//!                          [ edge … edge ] ══ downlinks ══ servers
//! ```
//!
//! Edge devices announce customer /24 prefixes; uplinks announce external
//! /16 prefixes. The traffic matrix is directional: southbound traffic
//! (dst = edge prefixes) enters at uplinks, northbound traffic (dst =
//! external prefixes) enters at edge downlinks. Ingress ACLs sit on the
//! aggregation layer's core-facing interfaces and filter southbound
//! traffic — the layer the §8 migration experiment drains ("move all ACLs
//! from middle layer to lower layers").
//!
//! Modules:
//! - [`params`] — generation parameters and the small/medium/large presets.
//! - [`build`] — topology/routing/ACL construction.
//! - [`mod@perturb`] — the §8 "randomly perturbing 1%, 3%, 5% of the rules"
//!   update generator for the check/fix experiments.
//! - [`scenarios`] — resolved [`Task`](jinjing_core::Task)s for each
//!   experiment (check/fix, migration, control-open) plus their LAI
//!   programs for the Table 5 line counts.
//! - [`rollout`] — seeded base→target rollout campaigns for the planner
//!   (maintenance-window drains, staged rule swaps, and a no-safe-order
//!   swap that must yield an infeasibility core).

pub mod build;
pub mod params;
pub mod perturb;
pub mod rollout;
pub mod scenarios;

pub use crate::build::{build_wan, build_wan_observed, Wan};
pub use crate::params::{NetSize, WanParams};
pub use crate::perturb::{perturb, Perturbation};
pub use crate::rollout::{rollout_scenario, RolloutKind, RolloutScenario};
