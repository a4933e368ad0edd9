#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # jinjing-bench
//!
//! The paper's evaluation: the [`figures`](../src/bin/figures.rs) binary
//! regenerates the tables/series of §8 (`cargo run --release -p
//! jinjing-bench --bin figures -- all`). Everything the paper does not
//! measure — sessions, the daemon, shards, thread scaling, tracing cost —
//! belongs to the repository's ruler, `benchmark/run.sh`, not to this crate.
//!
//! Mapping to the paper:
//!
//! | subcommand           | reproduces                                     |
//! |----------------------|------------------------------------------------|
//! | `figures fig4a`      | Fig. 4a — check turnaround, ±differential      |
//! | `figures fig4b`      | Fig. 4b — fix turnaround, ±optimizations       |
//! | `figures fig4c`      | Fig. 4c — migration phases, ±optimizations     |
//! | `figures fig4d`      | Fig. 4d — control-open generate, k ∈ {1,2,4}   |
//! | `figures table5`     | Table 5 — LAI program sizes                    |
//! | `figures depth`      | §9 — solver effort per encoding                |
//! | `figures scale`      | loading and the scope model past `large`       |
//!
//! This module hosts the workload constructors the subcommands share, so
//! none pays WAN construction inside the measured closure.

use jinjing_core::Task;
use jinjing_lai::Command;
use jinjing_wan::scenarios::Scenario;
use jinjing_wan::{build_wan, scenarios, NetSize, Wan, WanParams};

/// The perturbation fractions of Figure 4a/4b.
pub const PERTURBATIONS: [f64; 3] = [0.01, 0.03, 0.05];

/// Deterministic seed base for all figure workloads.
pub const SEED: u64 = 0xBE7C_0000;

/// Build (and route-warm) a preset WAN.
pub fn wan(size: NetSize) -> Wan {
    wan_of(&WanParams::preset(size))
}

/// Build (and route-warm) a WAN from its parameters.
pub fn wan_of(params: &WanParams) -> Wan {
    let wan = build_wan(params);
    // Pre-warm the forwarding-predicate cache: routing state is static
    // input in the paper's setting, not part of the measured turnaround.
    for d in wan.net.topology().devices() {
        let _ = wan.net.forwarding_predicates(d);
    }
    wan
}

/// A check/fix workload at a perturbation fraction.
pub fn checkfix_scenario(wan: &Wan, fraction: f64, command: Command) -> Scenario {
    scenarios::checkfix(wan, fraction, SEED ^ fraction.to_bits(), command)
}

/// The migration workload (Figure 4c).
pub fn migration_task(wan: &Wan) -> Task {
    scenarios::migration(wan).task
}

/// The control-open workload (Figure 4d).
pub fn control_open_task(wan: &Wan, k: usize) -> Task {
    scenarios::control_open(wan, k, SEED).task
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_constructors_are_deterministic() {
        let a = wan(NetSize::Small);
        let b = wan(NetSize::Small);
        let sa = checkfix_scenario(&a, 0.03, Command::Check);
        let sb = checkfix_scenario(&b, 0.03, Command::Check);
        assert_eq!(sa.task.modified, sb.task.modified);
        let ma = migration_task(&a);
        assert_eq!(ma.allow.len(), a.edge_slots.len());
        let ca = control_open_task(&a, 2);
        assert_eq!(ca.controls.len(), 2 * a.all_edges().len());
    }
}
