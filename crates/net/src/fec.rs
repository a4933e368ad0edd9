//! The scope model: forwarding equivalence classes (§4.1, Eq. 2) and
//! everything else the primitives derive from a scope before they run.
//!
//! Two packets belong to the same FEC when every forwarding predicate
//! `g ∈ G_Ω` agrees on them. The partition of the traffic entering a scope
//! is computed by predicate refinement over the scope's forwarding family —
//! the exact-set analogue of the paper's symbolic definition.
//!
//! [`ScopeModel`] is the one owner of that derivation and of its inputs and
//! by-products: the entering-traffic universe, the de-duplicated predicate
//! family, the partition, the paths of each class and the topological path
//! set. All of it is a pure function of `(network, scope, extra
//! predicates)` — never of an ACL configuration — so one model serves any
//! number of checks, repairs and syntheses over the same scope, and a value
//! read twice is computed once. Every part is derived on first use: a
//! caller that never asks for the partition never pays for it.

use crate::network::{Network, Path, Scope};
use jinjing_acl::atoms::{dedupe_predicates, refine, AtomClass, ClassExplosion, RefineLimits};
use jinjing_acl::PacketSet;
use std::sync::OnceLock;

/// The FEC partition and, per class, its lazily enumerated paths.
struct Partition {
    classes: Vec<AtomClass>,
    /// `paths[i]` memoizes `all_paths_for_class(scope, classes[i])`.
    paths: Vec<OnceLock<Vec<Path>>>,
}

/// What a scope looks like to the primitives, derived once. See the module
/// docs.
pub struct ScopeModel<'n> {
    net: &'n Network,
    scope: Scope,
    extra: Vec<PacketSet>,
    limits: RefineLimits,
    universe: OnceLock<PacketSet>,
    /// The de-duplicated family and how many of its leading members are
    /// forwarding predicates.
    family: OnceLock<(Vec<PacketSet>, usize)>,
    partition: OnceLock<Result<Partition, ClassExplosion>>,
    topological: OnceLock<Vec<Path>>,
}

impl<'n> ScopeModel<'n> {
    /// The model of `scope` within `net`. `extra` predicates (the `control`
    /// regions of §6) join the forwarding family, so classes are uniform
    /// under them too; `limits` caps the partition. Nothing is derived yet.
    pub fn new(
        net: &'n Network,
        scope: Scope,
        extra: Vec<PacketSet>,
        limits: RefineLimits,
    ) -> ScopeModel<'n> {
        ScopeModel {
            net,
            scope,
            extra,
            limits,
            universe: OnceLock::new(),
            family: OnceLock::new(),
            partition: OnceLock::new(),
            topological: OnceLock::new(),
        }
    }

    /// The network the scope lives in.
    pub fn net(&self) -> &'n Network {
        self.net
    }

    /// The scope.
    pub fn scope(&self) -> &Scope {
        &self.scope
    }

    /// All traffic entering the scope: the union of what the traffic matrix
    /// admits at each border interface, taken in one prune pass over the
    /// distinct sets (see [`PacketSet::from_cubes`]).
    pub fn universe(&self) -> &PacketSet {
        self.universe.get_or_init(|| {
            let mut distinct: Vec<PacketSet> = Vec::new();
            for (_, t) in self.net.entering_traffic(&self.scope) {
                if !distinct.contains(&t) {
                    distinct.push(t);
                }
            }
            PacketSet::from_cubes(
                distinct
                    .iter()
                    .flat_map(PacketSet::cubes)
                    .copied()
                    .collect(),
            )
        })
    }

    fn family_split(&self) -> &(Vec<PacketSet>, usize) {
        self.family.get_or_init(|| {
            let forwarding = self
                .net
                .scope_predicates(&self.scope)
                .into_iter()
                .map(|(_, g)| g)
                .collect();
            let mut family = dedupe_predicates(forwarding);
            let forwarding = family.len();
            if !self.extra.is_empty() {
                family.extend(self.extra.iter().cloned());
                family = dedupe_predicates(family);
            }
            (family, forwarding)
        })
    }

    /// The predicate family the partition refines by: the scope's
    /// forwarding predicates in [`Network::scope_predicates`] order, then
    /// the extra predicates, first occurrence of each kept.
    pub fn family(&self) -> &[PacketSet] {
        &self.family_split().0
    }

    /// The forwarding part of [`ScopeModel::family`] (its leading members):
    /// `G_Ω` without duplicates.
    pub fn forwarding(&self) -> &[PacketSet] {
        let (family, forwarding) = self.family_split();
        &family[..*forwarding]
    }

    fn partition(&self) -> Result<&Partition, ClassExplosion> {
        self.partition
            .get_or_init(|| {
                let classes = refine(self.universe(), self.family(), self.limits)?;
                let paths = classes.iter().map(|_| OnceLock::new()).collect();
                Ok(Partition { classes, paths })
            })
            .as_ref()
            .map_err(Clone::clone)
    }

    /// The FEC partition of the universe. Classes are non-empty, pairwise
    /// disjoint, cover the universe, and every member of the family is
    /// constant on each (inherited from [`refine`]). Their order is part of
    /// the contract: class indices travel between shards.
    pub fn classes(&self) -> Result<&[AtomClass], ClassExplosion> {
        self.partition().map(|p| p.classes.as_slice())
    }

    /// How many classes the partition has if some caller already derived
    /// it, `0` otherwise. Never derives.
    pub fn known_classes(&self) -> usize {
        match self.partition.get() {
            Some(Ok(p)) => p.classes.len(),
            _ => 0,
        }
    }

    /// The paths class `i` of [`ScopeModel::classes`] takes across the
    /// scope, enumerated on first use.
    ///
    /// # Panics
    /// When the partition cannot be derived (see [`ScopeModel::classes`],
    /// which reports that as an error) or `i` is out of range.
    pub fn paths_for(&self, i: usize) -> &[Path] {
        let partition = self
            .partition()
            .expect("paths_for follows a successful classes()");
        partition.paths[i].get_or_init(|| {
            self.net
                .all_paths_for_class(&self.scope, &partition.classes[i].set)
        })
    }

    /// Every path some entering packet can take across the scope.
    pub fn topological_paths(&self) -> &[Path] {
        self.topological
            .get_or_init(|| self.net.all_paths_for_class(&self.scope, self.universe()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fib::{pfx, prefix_set};
    use crate::topology::TopologyBuilder;
    use jinjing_acl::Packet;

    /// One router fanning three prefixes out of two interfaces, admitting
    /// `traffic` at its ingress.
    fn fan(traffic: &PacketSet) -> Network {
        let mut tb = TopologyBuilder::new();
        let a = tb.device("A");
        let ingress = tb.iface(a, "in");
        let left = tb.iface(a, "left");
        let right = tb.iface(a, "right");
        let mut net = Network::new(tb.build());
        net.announce(pfx("1.0.0.0/8"), left);
        net.announce(pfx("2.0.0.0/8"), right);
        net.announce(pfx("3.0.0.0/8"), right);
        net.compute_routes();
        net.set_entering(ingress, traffic.clone());
        net
    }

    fn model(net: &Network) -> ScopeModel<'_> {
        ScopeModel::new(
            net,
            Scope::whole(net.topology()),
            Vec::new(),
            RefineLimits::default(),
        )
    }

    fn blocks(ns: &[u32]) -> PacketSet {
        ns.iter().fold(PacketSet::empty(), |acc, n| {
            acc.union(&prefix_set(&pfx(&format!("{n}.0.0.0/8"))))
        })
    }

    #[test]
    fn fecs_group_same_forwarding() {
        let net = fan(&blocks(&[1, 2, 3]));
        let model = model(&net);
        let fecs = model.classes().unwrap();
        // 1/8 goes left; 2/8 and 3/8 both go right → exactly 2 FECs.
        assert_eq!(fecs.len(), 2);
        let two = Packet::to_dst(0x0200_0001);
        let three = Packet::to_dst(0x0300_0001);
        let one = Packet::to_dst(0x0100_0001);
        let class_of = |p: &Packet| fecs.iter().position(|f| f.set.contains(p)).unwrap();
        assert_eq!(class_of(&two), class_of(&three));
        assert_ne!(class_of(&one), class_of(&two));
    }

    #[test]
    fn fec_partition_covers_traffic() {
        let traffic = blocks(&[1, 2]);
        let net = fan(&traffic);
        let model = model(&net);
        let fecs = model.classes().unwrap();
        let mut cover = PacketSet::empty();
        for (i, f) in fecs.iter().enumerate() {
            assert!(!f.set.is_empty());
            for g in &fecs[i + 1..] {
                assert!(!f.set.intersects(&g.set));
            }
            cover = cover.union(&f.set);
        }
        assert!(cover.same_set(&traffic));
        assert!(model.universe().same_set(&traffic));
    }

    #[test]
    fn empty_traffic_no_fecs() {
        let net = fan(&PacketSet::empty());
        assert!(model(&net).classes().unwrap().is_empty());
    }

    #[test]
    fn parts_are_derived_on_first_use_and_then_replayed() {
        let net = fan(&blocks(&[1, 2, 3]));
        let model = model(&net);
        assert_eq!(model.known_classes(), 0, "nothing derived yet");
        let classes = model.classes().unwrap();
        assert_eq!(model.known_classes(), classes.len());
        assert!(std::ptr::eq(classes, model.classes().unwrap()));
        for i in 0..classes.len() {
            let paths = model.paths_for(i);
            assert_eq!(paths.len(), 1, "one egress per class");
            assert!(std::ptr::eq(paths, model.paths_for(i)));
        }
        assert_eq!(model.topological_paths().len(), 2);
    }

    #[test]
    fn extras_follow_the_forwarding_predicates_and_split_classes() {
        let net = fan(&blocks(&[1, 2, 3]));
        let scope = Scope::whole(net.topology());
        // One extra that duplicates a forwarding predicate, one that is new.
        let left = net.scope_predicates(&scope)[0].1.clone();
        let extra = vec![left, blocks(&[3])];
        let model = ScopeModel::new(&net, scope, extra, RefineLimits::default());
        assert_eq!(model.forwarding().len(), 2);
        assert_eq!(model.family().len(), 3, "the duplicate is dropped");
        assert!(model.family()[2].same_set(&blocks(&[3])));
        assert_eq!(model.classes().unwrap().len(), 3, "3/8 leaves 2/8's class");
    }

    #[test]
    fn class_explosion_is_reported_on_every_call() {
        let net = fan(&blocks(&[1, 2, 3]));
        let scope = Scope::whole(net.topology());
        let model = ScopeModel::new(&net, scope, Vec::new(), RefineLimits { max_classes: 1 });
        assert_eq!(model.classes().unwrap_err().limit, 1);
        assert_eq!(model.classes().unwrap_err().limit, 1);
        assert_eq!(model.known_classes(), 0);
    }
}
