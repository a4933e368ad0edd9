//! The paper's running example: the four-router subnet of Figure 1.
//!
//! Topology (external interfaces marked `ext`):
//!
//! ```text
//!   ext ── A1   A2 ──── B1  B2
//!          A3 ─┐│        │
//!          A4 ┐││        │
//!             │││        │
//!             ││└─ C1 C2 ┘   C3 ── ext
//!             ││   C4 ─┐
//!             │└──── (A3–C1)
//!             └ D1  D2 ┘     D3 ── ext
//! ```
//!
//! Links: A2–B1, B2–C2, A3–C1, A4–D1, C4–D2. Traffic *n* (1 ≤ n ≤ 7) is the
//! destination prefix `n.0.0.0/8`, announced behind the external exits
//! (1–6 at D3, and 1/4/7 additionally visible at C3, reproducing the
//! figure's edge labels). The hand-crafted FIBs make the forwarding
//! equivalence classes come out exactly as §4.1 lists them:
//! `[1] = {1}`, `[2] = {2,3}`, `[4] = {4}`, `[5] = {5,6}`, `[7] = {7}`.
//!
//! ACLs (all ingress, default permit):
//! - `A1`: `deny dst 6.0.0.0/8`
//! - `C1`: `deny dst 7.0.0.0/8`
//! - `D2`: `deny dst 1.0.0.0/8, deny dst 2.0.0.0/8`

use jinjing_acl::{AclBuilder, PacketSet};
use jinjing_net::fib::{pfx, prefix_set};
use jinjing_net::spec::{AclConfigSpec, NetworkSpec, RouteSpec};
use jinjing_net::{AclConfig, IfaceId, Network, Scope, Slot, TopologyBuilder};
use std::collections::HashMap;

/// The Figure 1 network plus its original ACL configuration and convenient
/// handles to every interface.
#[derive(Debug, Clone)]
pub struct Figure1 {
    /// The network (topology + FIBs + announcements).
    pub net: Network,
    /// The original `L_Ω` of the example.
    pub config: AclConfig,
    /// Interface handles by the paper's names (`"A1"`, `"C4"`, …).
    pub ifaces: HashMap<String, IfaceId>,
}

impl Figure1 {
    /// Build the example.
    pub fn new() -> Figure1 {
        let mut tb = TopologyBuilder::new();
        let a = tb.device("A");
        let b = tb.device("B");
        let c = tb.device("C");
        let d = tb.device("D");
        let a1 = tb.iface(a, "1");
        let a2 = tb.iface(a, "2");
        let a3 = tb.iface(a, "3");
        let a4 = tb.iface(a, "4");
        let b1 = tb.iface(b, "1");
        let b2 = tb.iface(b, "2");
        let c1 = tb.iface(c, "1");
        let c2 = tb.iface(c, "2");
        let c3 = tb.iface(c, "3");
        let c4 = tb.iface(c, "4");
        let d1 = tb.iface(d, "1");
        let d2 = tb.iface(d, "2");
        let d3 = tb.iface(d, "3");
        tb.link(a2, b1);
        tb.link(b2, c2);
        tb.link(a3, c1);
        tb.link(a4, d1);
        tb.link(c4, d2);
        let mut net = Network::new(tb.build());

        // Hand-crafted FIBs reproducing the figure's per-edge traffic labels.
        let p = |n: u32| pfx(&format!("{n}.0.0.0/8"));
        // A: 1,4,5,6 toward D only; 2,3 ECMP toward D and via B; 7 via C.
        for n in 1..=6 {
            net.fib_mut(a).add(p(n), a4);
        }
        net.fib_mut(a).add(p(2), a2);
        net.fib_mut(a).add(p(3), a2);
        net.fib_mut(a).add(p(7), a3);
        // Background prefix 8/8 travels A3→C1→C4→D2→D3: it is what makes
        // ⟨A1,A3,C1,C4,D2,D3⟩ a real path of the subnet (the third A1→D3
        // path of §3.3) without touching traffic 1-7's classes.
        net.fib_mut(a).add(p(8), a3);
        // B relays 2,3 toward C.
        net.fib_mut(b).add(p(2), b2);
        net.fib_mut(b).add(p(3), b2);
        // C: 1,2,3,8 toward D via C4; 4 and 7 out of C3. (The 1→C4 and
        // 4→C3 entries are what distinguish FECs [1] and [4] from
        // [5] = {5,6}.)
        net.fib_mut(c).add(p(1), c4);
        net.fib_mut(c).add(p(2), c4);
        net.fib_mut(c).add(p(3), c4);
        net.fib_mut(c).add(p(8), c4);
        net.fib_mut(c).add(p(4), c3);
        net.fib_mut(c).add(p(7), c3);
        // D: everything 1-6 plus 8 exits at D3.
        for n in 1..=6 {
            net.fib_mut(d).add(p(n), d3);
        }
        net.fib_mut(d).add(p(8), d3);
        // Announcements (for entering-traffic extraction).
        for n in 1..=6 {
            net.announce(p(n), d3);
        }
        net.announce(p(8), d3);
        net.announce(p(7), c3);
        // Directional traffic matrix: everything enters at A1 (the figure's
        // arrows all point left-to-right); C3 and D3 are pure exits.
        let entering = (1..=8).fold(PacketSet::empty(), |acc, n| acc.union(&prefix_set(&p(n))));
        net.set_entering(a1, entering);

        // Original ACLs (Figure 1).
        let mut config = AclConfig::new();
        config.set(
            Slot::ingress(a1),
            AclBuilder::default_permit().deny_dst("6.0.0.0/8").build(),
        );
        config.set(
            Slot::ingress(c1),
            AclBuilder::default_permit().deny_dst("7.0.0.0/8").build(),
        );
        config.set(
            Slot::ingress(d2),
            AclBuilder::default_permit()
                .deny_dst("1.0.0.0/8")
                .deny_dst("2.0.0.0/8")
                .build(),
        );

        let names = [
            ("A1", a1),
            ("A2", a2),
            ("A3", a3),
            ("A4", a4),
            ("B1", b1),
            ("B2", b2),
            ("C1", c1),
            ("C2", c2),
            ("C3", c3),
            ("C4", c4),
            ("D1", d1),
            ("D2", d2),
            ("D3", d3),
        ];
        let ifaces = names.into_iter().map(|(n, i)| (n.to_string(), i)).collect();
        Figure1 {
            net,
            config,
            ifaces,
        }
    }

    /// Interface handle by the paper's name.
    pub fn iface(&self, name: &str) -> IfaceId {
        self.ifaces[name]
    }

    /// Ingress slot by the paper's interface name.
    pub fn slot(&self, name: &str) -> Slot {
        Slot::ingress(self.iface(name))
    }

    /// The whole-subnet scope (the dashed circle of Figure 1).
    pub fn scope(&self) -> Scope {
        Scope::whole(self.net.topology())
    }

    /// "Traffic n" as an exact packet set.
    pub fn traffic(&self, n: u32) -> PacketSet {
        prefix_set(&pfx(&format!("{n}.0.0.0/8")))
    }

    /// The example as the two on-disk documents the `jinjing` CLI loads
    /// (`examples/data/figure1-{network,acls}.json` are their rendering).
    /// Figure 1's multipath routing is hand-crafted, so the FIBs go out as
    /// static routes: recomputed shortest paths alone would not reproduce
    /// the figure's per-edge traffic labels.
    pub fn specs(&self) -> (NetworkSpec, AclConfigSpec) {
        let mut net = NetworkSpec::from_network(&self.net);
        let topo = self.net.topology();
        for dev in topo.devices() {
            for entry in self.net.fib(dev).entries() {
                net.routes.push(RouteSpec {
                    device: topo.device(dev).name.clone(),
                    prefix: entry.prefix.to_string(),
                    out: topo.iface_name(entry.out),
                });
            }
        }
        (net, AclConfigSpec::from_config(&self.net, &self.config))
    }

    /// The §3.2 update: clean up C and D, moving their deny rules to A.
    /// Returns the post-update configuration `L'_Ω`.
    pub fn bad_update(&self) -> AclConfig {
        let mut after = self.config.clone();
        after.set(self.slot("D2"), jinjing_acl::Acl::permit_all());
        after.set(self.slot("C1"), jinjing_acl::Acl::permit_all());
        after.set(
            self.slot("A1"),
            AclBuilder::default_permit()
                .deny_dst("1.0.0.0/8")
                .deny_dst("2.0.0.0/8")
                .deny_dst("6.0.0.0/8")
                .build(),
        );
        // A3's replacement filters traffic *leaving* A through A3 (the
        // paths ⟨A1, A3, …⟩ traverse A3 outbound), so it is an egress ACL.
        after.set(
            Slot::egress(self.iface("A3")),
            AclBuilder::default_permit().deny_dst("7.0.0.0/8").build(),
        );
        after
    }
}

impl Default for Figure1 {
    fn default() -> Figure1 {
        Figure1::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jinjing_acl::atoms::RefineLimits;
    use jinjing_acl::Packet;
    use jinjing_net::ScopeModel;

    #[test]
    fn fec_structure_matches_section_4_1() {
        let f = Figure1::new();
        let universe: PacketSet = (1..=7)
            .map(|n| f.traffic(n))
            .fold(PacketSet::empty(), |a, b| a.union(&b));
        // §4.1 lists the classes of traffic 1–7; leave the background
        // prefix out of the matrix.
        let mut net = f.net.clone();
        net.set_entering(f.iface("A1"), universe);
        let model = ScopeModel::new(&net, f.scope(), Vec::new(), RefineLimits::default());
        let fecs = model.classes().unwrap();
        assert_eq!(fecs.len(), 5, "exactly five FECs");
        let class_of = |n: u32| {
            let p = Packet::to_dst(n << 24 | 1);
            fecs.iter().position(|c| c.set.contains(&p)).unwrap()
        };
        assert_eq!(class_of(2), class_of(3));
        assert_eq!(class_of(5), class_of(6));
        let distinct: std::collections::HashSet<usize> =
            [1, 2, 4, 5, 7].into_iter().map(class_of).collect();
        assert_eq!(distinct.len(), 5);
    }

    #[test]
    fn specs_render_to_the_committed_files() {
        // What `examples/export_figure1` writes: regenerating must not move
        // a byte of the files the CLI smokes and the docs load.
        let (net, acls) = Figure1::new().specs();
        assert_eq!(
            net.to_json_pretty(),
            include_str!("../../../examples/data/figure1-network.json")
        );
        assert_eq!(
            acls.to_json_pretty(),
            include_str!("../../../examples/data/figure1-acls.json")
        );
    }

    #[test]
    fn paths_match_section_3_3() {
        let f = Figure1::new();
        let scope = f.scope();
        let topo = f.net.topology();
        // Traffic 2: exactly p0 and p2 from A1.
        let paths = f.net.paths_for_class(&scope, f.iface("A1"), &f.traffic(2));
        let shown: Vec<String> = paths.iter().map(|p| p.display(topo)).collect();
        assert_eq!(paths.len(), 2, "{shown:?}");
        assert!(shown.contains(&"⟨A:1, A:4, D:1, D:3⟩".to_string()));
        assert!(shown.contains(&"⟨A:1, A:2, B:1, B:2, C:2, C:4, D:2, D:3⟩".to_string()));
        // Traffic 1: only p0.
        let paths1 = f.net.paths_for_class(&scope, f.iface("A1"), &f.traffic(1));
        assert_eq!(paths1.len(), 1);
        assert_eq!(paths1[0].display(topo), "⟨A:1, A:4, D:1, D:3⟩");
        // Traffic 7: the A3→C1→C3 path.
        let paths7 = f.net.paths_for_class(&scope, f.iface("A1"), &f.traffic(7));
        assert_eq!(paths7.len(), 1);
        assert_eq!(paths7[0].display(topo), "⟨A:1, A:3, C:1, C:3⟩");
        // Topologically, there are three A1→D3 paths (§3.3): visible when
        // enumerating for the full universe.
        let all = f
            .net
            .paths_for_class(&scope, f.iface("A1"), &PacketSet::full());
        let to_d3: Vec<&jinjing_net::Path> =
            all.iter().filter(|p| p.egress() == f.iface("D3")).collect();
        assert_eq!(to_d3.len(), 3);
    }

    #[test]
    fn original_reachability_facts() {
        let f = Figure1::new();
        let scope = f.scope();
        // Traffic 1 and 2 exit at D3 via p0 (permitted end to end).
        for n in [1u32, 2] {
            let paths = f.net.paths_for_class(&scope, f.iface("A1"), &f.traffic(n));
            let p0 = paths
                .iter()
                .find(|p| p.slots.len() == 4)
                .expect("direct path via D");
            let pkt = Packet::to_dst(n << 24 | 5);
            assert!(f.config.path_permits(p0, &pkt), "traffic {n} on p0");
        }
        // Traffic 6 is denied at A1; traffic 7 at C1.
        let p6 = f.net.paths_for_class(&scope, f.iface("A1"), &f.traffic(6));
        assert!(!f.config.path_permits(&p6[0], &Packet::to_dst(6 << 24)));
        let p7 = f.net.paths_for_class(&scope, f.iface("A1"), &f.traffic(7));
        assert!(!f.config.path_permits(&p7[0], &Packet::to_dst(7 << 24)));
    }

    #[test]
    fn bad_update_changes_p0_for_traffic_1_and_2() {
        let f = Figure1::new();
        let after = f.bad_update();
        let scope = f.scope();
        for n in [1u32, 2] {
            let paths = f.net.paths_for_class(&scope, f.iface("A1"), &f.traffic(n));
            let p0 = paths.iter().find(|p| p.slots.len() == 4).unwrap();
            let pkt = Packet::to_dst(n << 24 | 5);
            assert!(f.config.path_permits(p0, &pkt));
            assert!(!after.path_permits(p0, &pkt), "update blocks traffic {n}");
        }
    }
}

/// Model purity: a [`ScopeModel`](jinjing_net::ScopeModel) is a function of
/// the scope, never of what was asked of it before.
#[cfg(test)]
mod model_purity {
    use super::*;
    use crate::check::{
        check, check_inner, scope_model, CheckConfig, CheckOutcome, CheckReport, CoverMemo,
    };
    use crate::control::ResolvedControl;
    use crate::fix::{fix, fix_in, FixConfig, FixError, FixPlan};
    use crate::generate::{generate, generate_in, GenerateConfig, GenerateError, GenerateReport};
    use crate::task::Task;
    use jinjing_acl::atoms::RefineLimits;
    use jinjing_lai::{Command, ControlVerb};
    use std::collections::HashSet;

    fn canon_check(r: &CheckReport) -> String {
        format!(
            "{:?}|{}|{}|{:?}|{}|{}|{:?}",
            r.outcome,
            r.fec_count,
            r.paths_checked,
            r.solver_stats,
            r.encoded_rules,
            r.total_rules,
            r.violation_pair
        )
    }

    fn assert_same_fix(
        shared: &Result<FixPlan, FixError>,
        fresh: &Result<FixPlan, FixError>,
        label: &str,
    ) {
        match (shared, fresh) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.fixed, b.fixed, "{label}: fixed configuration");
                assert_eq!(a.added_rules, b.added_rules, "{label}: added rules");
                assert_eq!(a.neighborhoods, b.neighborhoods, "{label}: neighborhoods");
                assert_eq!(
                    canon_check(&a.final_check),
                    canon_check(&b.final_check),
                    "{label}: certification report"
                );
            }
            (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "{label}"),
            _ => panic!("{label}: fix verdicts differ: {shared:?} vs {fresh:?}"),
        }
    }

    fn assert_same_generate(
        shared: &Result<GenerateReport, GenerateError>,
        fresh: &Result<GenerateReport, GenerateError>,
        label: &str,
    ) {
        match (shared, fresh) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.generated, b.generated, "{label}: generated configuration");
                assert_eq!(
                    (a.aec_count, a.aecs_split, a.dec_count, a.rows),
                    (b.aec_count, b.aecs_split, b.dec_count, b.rows),
                    "{label}: class counts"
                );
                assert_eq!(
                    (a.rules_emitted, a.rules_final),
                    (b.rules_emitted, b.rules_final),
                    "{label}: rule counts"
                );
            }
            (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "{label}"),
            _ => panic!("{label}: generate verdicts differ: {shared:?} vs {fresh:?}"),
        }
    }

    /// check → fix → generate → check again through *one* model answers
    /// what each answers through a model of its own — for a violating
    /// update, a consistent rewrite and a task under a `control` — so
    /// neither the partition, the path memo nor the topological path set
    /// carries anything from one primitive into the next.
    #[test]
    fn one_model_serves_every_primitive_like_a_fresh_one() {
        let f = Figure1::new();
        let ab_slots: Vec<Slot> = ["A1", "A2", "A3", "A4", "B1", "B2"]
            .into_iter()
            .flat_map(|n| [Slot::ingress(f.iface(n)), Slot::egress(f.iface(n))])
            .collect();
        let mut rewrite = f.config.clone();
        rewrite.set(
            f.slot("D2"),
            AclBuilder::default_permit()
                .deny_dst("2.0.0.0/8")
                .deny_dst("1.0.0.0/8")
                .permit_dst("3.0.0.0/8")
                .build(),
        );
        let isolate = ResolvedControl {
            from: HashSet::from([f.iface("A1")]),
            to: HashSet::from([f.iface("D3")]),
            verb: ControlVerb::Isolate,
            region: f.traffic(3),
        };
        let task = |after: AclConfig, allow: Vec<Slot>, controls: Vec<ResolvedControl>| Task {
            scope: f.scope(),
            allow,
            before: f.config.clone(),
            after,
            modified: Vec::new(),
            controls,
            command: Command::Check,
        };
        let scenarios = [
            ("bad update", task(f.bad_update(), ab_slots.clone(), vec![])),
            ("consistent rewrite", task(rewrite, ab_slots, vec![])),
            (
                "isolate control",
                task(
                    f.config.clone(),
                    vec![f.slot("D1"), f.slot("D2")],
                    vec![isolate],
                ),
            ),
        ];
        let mut verdicts = Vec::new();
        for (label, task) in &scenarios {
            let model = scope_model(
                &f.net,
                task.scope.clone(),
                &task.controls,
                RefineLimits::default(),
            );
            let check_shared = || {
                check_inner(
                    &model,
                    &task.before,
                    &task.after,
                    &task.controls,
                    &CheckConfig::default(),
                    &CoverMemo::default(),
                )
                .unwrap()
                .report
            };
            let fresh = check(&f.net, task, &CheckConfig::default()).unwrap();
            let first = check_shared();
            assert_eq!(canon_check(&first), canon_check(&fresh), "{label}: check");
            let (fix_cfg, generate_cfg) = (FixConfig::default(), GenerateConfig::default());
            assert_same_fix(
                &fix_in(&model, task, &CheckConfig::default(), &fix_cfg),
                &fix(&f.net, task, &CheckConfig::default(), &fix_cfg),
                label,
            );
            assert_same_generate(
                &generate_in(&model, task, &CheckConfig::default(), &generate_cfg),
                &generate(&f.net, task, &CheckConfig::default(), &generate_cfg),
                label,
            );
            assert_eq!(
                canon_check(&check_shared()),
                canon_check(&fresh),
                "{label}: check after fix and generate"
            );
            verdicts.push(matches!(first.outcome, CheckOutcome::Consistent));
        }
        assert_eq!(verdicts, [false, true, false], "the scenarios differ");
    }
}
