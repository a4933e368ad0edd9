#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # jinjing-net
//!
//! The network substrate of the Jinjing reproduction: everything the paper
//! gets "from our internal IP management system" — topology, routing state
//! and traffic — modeled explicitly.
//!
//! - [`ids`] — device / interface / ACL-slot identifiers.
//! - [`topology`] — devices, named interfaces and bidirectional links,
//!   built through [`topology::TopologyBuilder`].
//! - [`fib`] — per-device longest-prefix-match forwarding tables (with ECMP)
//!   and their compilation into exact forwarding predicates `g_{i,j}`
//!   (§4.1), one [`PacketSet`](jinjing_acl::PacketSet) per directed hop.
//! - [`network`] — the assembled [`network::Network`]: topology + FIBs +
//!   prefix announcements, scope/border computation (§3.3), per-class path
//!   enumeration (the `P` and `Y` sets of Algorithm 1) and entering-traffic
//!   extraction.
//! - [`config`] — [`config::AclConfig`]: the assignment of ACLs to
//!   interface slots (`L_Ω`), with path decision-model evaluation
//!   (`c_p`, Eq. 1) in exact set form.
//! - [`fec`] — [`fec::ScopeModel`]: the entering-traffic universe, the
//!   forwarding-predicate family, the forwarding equivalence classes (Eq. 2)
//!   refined from it and their paths, each derived once per scope.

pub mod audit;
pub mod config;
pub mod fec;
pub mod fib;
pub mod ids;
pub mod network;
pub mod spec;
pub mod topology;

pub use crate::config::{AclConfig, DistinctAcls};
pub use crate::fec::ScopeModel;
pub use crate::fib::{Fib, FibEntry};
pub use crate::ids::{DeviceId, Dir, IfaceId, Slot};
pub use crate::network::{Network, Path, Scope};
pub use crate::topology::{Topology, TopologyBuilder};
