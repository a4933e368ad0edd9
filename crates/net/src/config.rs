//! ACL configuration state: the mapping from interface slots to ACLs.
//!
//! An [`AclConfig`] is the `L_Ω` of the paper (restricted to whatever slots
//! actually carry ACLs — every other slot behaves as `permit all`). It
//! evaluates path decision models both concretely (`c_p(h)`, Eq. 1) and in
//! exact set form (the set of packets a path permits), and produces the
//! before/after pairs that check/fix/generate consume.
//!
//! **Sharing.** Every ACL sits behind an [`Arc`], so cloning a configuration
//! copies one pointer per slot, and a configuration derived from another by
//! a few `set`/`clear` calls (an update, a delta applied to a session base)
//! still shares every ACL it did not touch. [`AclConfig::same_at`] is the
//! test that lets the differential preprocessing skip such slots: a pointer
//! compare when the ACL is shared, a structural compare otherwise.

use crate::ids::Slot;
use crate::network::Path;
use jinjing_acl::{Acl, Packet, PacketSet};
use std::collections::HashMap;
use std::sync::Arc;

/// Assignment of ACLs to slots. Clones share their ACLs (see the module
/// docs); equality is by content.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AclConfig {
    acls: HashMap<Slot, Arc<Acl>>,
}

impl AclConfig {
    /// Empty configuration: everything permits.
    pub fn new() -> AclConfig {
        AclConfig::default()
    }

    /// Attach an ACL to a slot, replacing any previous one.
    pub fn set(&mut self, slot: Slot, acl: Acl) {
        self.acls.insert(slot, Arc::new(acl));
    }

    /// Attach an ACL that other slots (of this or another configuration)
    /// may hold too, without copying it.
    pub fn set_shared(&mut self, slot: Slot, acl: Arc<Acl>) {
        self.acls.insert(slot, acl);
    }

    /// Remove the ACL from a slot (reverting it to `permit all`).
    pub fn clear(&mut self, slot: Slot) -> Option<Acl> {
        self.acls.remove(&slot).map(Arc::unwrap_or_clone)
    }

    /// The ACL at a slot, if one is configured.
    pub fn get(&self, slot: Slot) -> Option<&Acl> {
        self.acls.get(&slot).map(Arc::as_ref)
    }

    /// `true` when `self` and `other` hold structurally the same ACL at
    /// `slot`, reading an unconfigured slot as [`Acl::permit_all`]. A shared
    /// ACL answers with one pointer compare. The test is structural, not
    /// semantic: an ACL that permits everything through explicit rules is
    /// not the same as an unconfigured slot.
    pub fn same_at(&self, other: &AclConfig, slot: Slot) -> bool {
        match (self.acls.get(&slot), other.acls.get(&slot)) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b) || a == b,
            (Some(a), None) | (None, Some(a)) => **a == Acl::permit_all(),
            (None, None) => true,
        }
    }

    /// All configured slots (sorted, for determinism).
    pub fn slots(&self) -> Vec<Slot> {
        let mut v: Vec<Slot> = self.acls.keys().copied().collect();
        v.sort();
        v
    }

    /// Number of configured slots.
    pub fn len(&self) -> usize {
        self.acls.len()
    }

    /// `true` when no slot carries an ACL.
    pub fn is_empty(&self) -> bool {
        self.acls.is_empty()
    }

    /// The decision of a slot on a packet: `f_ξ(h)`. Slots without ACLs
    /// permit everything.
    pub fn slot_permits(&self, slot: Slot, p: &Packet) -> bool {
        self.acls.get(&slot).map_or(true, |a| a.permits(p))
    }

    /// The permit-set of a slot (full header space when unconfigured).
    pub fn slot_permit_set(&self, slot: Slot) -> PacketSet {
        self.acls
            .get(&slot)
            .map_or_else(PacketSet::full, |a| a.permit_set())
    }

    /// Concrete path decision model `c_p(h)` (Eq. 1): conjunction of every
    /// slot decision along the path.
    pub fn path_permits(&self, path: &Path, p: &Packet) -> bool {
        path.slots.iter().all(|&s| self.slot_permits(s, p))
    }

    /// Exact path permit-set: the packets the whole path lets through.
    pub fn path_permit_set(&self, path: &Path) -> PacketSet {
        let mut set = PacketSet::full();
        for &s in &path.slots {
            if let Some(a) = self.acls.get(&s) {
                set = set.intersect(&a.permit_set());
                if set.is_empty() {
                    break;
                }
            }
        }
        set
    }

    /// The slots along a path that actually carry ACLs.
    pub fn configured_slots_on(&self, path: &Path) -> Vec<Slot> {
        path.slots
            .iter()
            .copied()
            .filter(|s| self.acls.contains_key(s))
            .collect()
    }

    /// Total rule count across all slots (a size metric for reports).
    pub fn total_rules(&self) -> usize {
        self.acls.values().map(|a| a.len()).sum()
    }
}

/// The distinct ACLs of one or more configurations, each listed once, and
/// which of them every configured slot holds. One policy usually sits on
/// many interfaces, so a primitive that compiles an ACL (a permit set, the
/// effective regions of its rules) does it once per entry here instead of
/// once per slot.
///
/// This is where "distinct" is decided: a slot holds an ACL already listed
/// when it shares it (`Arc` pointer compare) or, failing that, holds one
/// structurally equal to it (`==`). ACLs are listed in first-occurrence
/// order: configurations in the order given, each in sorted slot order.
#[derive(Debug, Clone)]
pub struct DistinctAcls<'a> {
    acls: Vec<&'a Acl>,
    /// Per configuration, its configured slots (sorted) with the index of
    /// their ACL in `acls`.
    slots: Vec<Vec<(Slot, usize)>>,
}

impl<'a> DistinctAcls<'a> {
    /// List the distinct ACLs of `configs`.
    pub fn of(configs: &[&'a AclConfig]) -> DistinctAcls<'a> {
        let mut held: Vec<&'a Arc<Acl>> = Vec::new();
        let slots = configs
            .iter()
            .map(|config| {
                config
                    .slots()
                    .into_iter()
                    .map(|slot| {
                        let acl = &config.acls[&slot];
                        let i = held
                            .iter()
                            .position(|h| Arc::ptr_eq(h, acl))
                            .or_else(|| held.iter().position(|h| ***h == **acl))
                            .unwrap_or_else(|| {
                                held.push(acl);
                                held.len() - 1
                            });
                        (slot, i)
                    })
                    .collect()
            })
            .collect();
        DistinctAcls {
            acls: held.into_iter().map(Arc::as_ref).collect(),
            slots,
        }
    }

    /// Each distinct ACL once, in first-occurrence order.
    pub fn acls(&self) -> &[&'a Acl] {
        &self.acls
    }

    /// The index in [`DistinctAcls::acls`] of the ACL that configuration
    /// `config` (its position in the list given to [`DistinctAcls::of`])
    /// holds at `slot`; `None` when it leaves the slot unconfigured.
    pub fn index_at(&self, config: usize, slot: Slot) -> Option<usize> {
        let slots = &self.slots[config];
        slots
            .binary_search_by_key(&slot, |&(s, _)| s)
            .ok()
            .map(|at| slots[at].1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{Dir, IfaceId};
    use jinjing_acl::AclBuilder;

    fn slot(i: u32) -> Slot {
        Slot {
            iface: IfaceId(i),
            dir: Dir::In,
        }
    }

    fn path(slots: &[Slot]) -> Path {
        Path {
            slots: slots.to_vec(),
            carried: PacketSet::full(),
        }
    }

    #[test]
    fn unconfigured_slots_permit() {
        let cfg = AclConfig::new();
        let p = Packet::to_dst(1);
        assert!(cfg.slot_permits(slot(0), &p));
        assert!(cfg.slot_permit_set(slot(0)).same_set(&PacketSet::full()));
    }

    #[test]
    fn path_conjunction_semantics() {
        let mut cfg = AclConfig::new();
        cfg.set(
            slot(0),
            AclBuilder::default_permit().deny_dst("6.0.0.0/8").build(),
        );
        cfg.set(
            slot(1),
            AclBuilder::default_permit().deny_dst("7.0.0.0/8").build(),
        );
        let pa = path(&[slot(0), slot(1), slot(2)]);
        assert!(!cfg.path_permits(&pa, &Packet::to_dst(0x0600_0001)));
        assert!(!cfg.path_permits(&pa, &Packet::to_dst(0x0700_0001)));
        assert!(cfg.path_permits(&pa, &Packet::to_dst(0x0800_0001)));
        let set = cfg.path_permit_set(&pa);
        assert!(!set.contains(&Packet::to_dst(0x0600_0001)));
        assert!(!set.contains(&Packet::to_dst(0x0700_0001)));
        assert!(set.contains(&Packet::to_dst(0x0800_0001)));
    }

    #[test]
    fn set_and_clear_roundtrip() {
        let mut cfg = AclConfig::new();
        let acl = AclBuilder::default_permit().deny_dst("1.0.0.0/8").build();
        cfg.set(slot(3), acl.clone());
        assert_eq!(cfg.get(slot(3)), Some(&acl));
        assert_eq!(cfg.len(), 1);
        assert_eq!(cfg.total_rules(), 1);
        let removed = cfg.clear(slot(3));
        assert_eq!(removed, Some(acl));
        assert!(cfg.is_empty());
    }

    fn deny(prefix: &str) -> Acl {
        AclBuilder::default_permit().deny_dst(prefix).build()
    }

    #[test]
    fn clones_share_their_acls() {
        let mut cfg = AclConfig::new();
        cfg.set(slot(0), deny("1.0.0.0/8"));
        cfg.set(slot(1), deny("2.0.0.0/8"));
        let copy = cfg.clone();
        for s in [slot(0), slot(1)] {
            assert!(std::ptr::eq(cfg.get(s).unwrap(), copy.get(s).unwrap()));
        }
    }

    #[test]
    fn set_replaces_one_slot_only() {
        let mut cfg = AclConfig::new();
        cfg.set(slot(0), deny("1.0.0.0/8"));
        cfg.set(slot(1), deny("2.0.0.0/8"));
        let mut edited = cfg.clone();
        edited.set(slot(1), deny("3.0.0.0/8"));
        assert!(std::ptr::eq(
            cfg.get(slot(0)).unwrap(),
            edited.get(slot(0)).unwrap()
        ));
        assert_eq!(edited.get(slot(1)), Some(&deny("3.0.0.0/8")));
        assert_eq!(cfg.get(slot(1)), Some(&deny("2.0.0.0/8")), "original kept");
    }

    #[test]
    fn same_at_truth_table() {
        let (s, a) = (slot(0), deny("1.0.0.0/8"));
        let with = |acl: Acl| {
            let mut cfg = AclConfig::new();
            cfg.set(s, acl);
            cfg
        };
        let empty = AclConfig::new();
        let shared = with(a.clone());
        // Semantically permit-all, structurally not `Acl::permit_all()`.
        let wide_open = AclBuilder::default_permit().permit_dst("1.0.0.0/8").build();
        let cases = [
            (&empty, &empty, true),
            (&empty, &with(Acl::permit_all()), true),
            (&with(Acl::permit_all()), &empty, true),
            (&empty, &with(wide_open.clone()), false),
            (&with(wide_open), &empty, false),
            (&empty, &with(Acl::deny_all()), false),
            (&shared, &shared.clone(), true),
            (&shared, &with(a.clone()), true),
            (&shared, &with(deny("2.0.0.0/8")), false),
            (&shared, &empty, false),
        ];
        for (i, (x, y, want)) in cases.into_iter().enumerate() {
            assert_eq!(x.same_at(y, s), want, "case {i}");
            assert_eq!(y.same_at(x, s), want, "case {i} (swapped)");
        }
        assert!(shared.same_at(&empty, slot(7)), "both unconfigured");
    }

    #[test]
    fn clear_returns_the_acl_shared_or_not() {
        let mut cfg = AclConfig::new();
        cfg.set(slot(0), deny("1.0.0.0/8"));
        let keep = cfg.clone();
        assert_eq!(cfg.clear(slot(0)), Some(deny("1.0.0.0/8")), "shared");
        assert_eq!(cfg.clear(slot(0)), None);
        let mut alone = keep.clone();
        drop(keep);
        assert_eq!(alone.clear(slot(0)), Some(deny("1.0.0.0/8")), "unshared");
    }

    #[test]
    fn equality_is_by_content() {
        let mut a = AclConfig::new();
        a.set(slot(0), deny("1.0.0.0/8"));
        let mut b = AclConfig::new();
        b.set(slot(0), deny("1.0.0.0/8"));
        assert_eq!(a, b, "fresh but equal ACLs");
        b.set(slot(0), deny("2.0.0.0/8"));
        assert_ne!(a, b);
        let mut explicit = a.clone();
        explicit.set(slot(1), Acl::permit_all());
        assert_ne!(a, explicit, "a configured permit-all is a configured slot");
    }

    #[test]
    fn distinct_acls_are_listed_once_in_first_occurrence_order() {
        let shared = Arc::new(deny("1.0.0.0/8"));
        let mut before = AclConfig::new();
        before.set(slot(4), deny("2.0.0.0/8"));
        before.set_shared(slot(1), shared.clone());
        before.set_shared(slot(3), shared.clone());
        before.set(slot(2), deny("1.0.0.0/8")); // equal content, own allocation
        let mut after = before.clone();
        after.set(slot(0), deny("3.0.0.0/8"));
        after.set(slot(4), deny("1.0.0.0/8"));
        after.clear(slot(2));

        let d = DistinctAcls::of(&[&before, &after]);
        let want = [deny("1.0.0.0/8"), deny("2.0.0.0/8"), deny("3.0.0.0/8")];
        assert_eq!(d.acls().len(), want.len());
        for (got, want) in d.acls().iter().zip(&want) {
            assert_eq!(*got, want);
        }
        assert!(
            std::ptr::eq(d.acls()[0], shared.as_ref()),
            "the first holder"
        );
        let indices = |config: usize| -> Vec<Option<usize>> {
            (0..6).map(|i| d.index_at(config, slot(i))).collect()
        };
        assert_eq!(indices(0), [None, Some(0), Some(0), Some(0), Some(1), None]);
        assert_eq!(indices(1), [Some(2), Some(0), None, Some(0), Some(0), None]);
        assert!(DistinctAcls::of(&[&AclConfig::new()]).acls().is_empty());
    }

    #[test]
    fn configured_slots_on_path_filters() {
        let mut cfg = AclConfig::new();
        cfg.set(slot(1), Acl::deny_all());
        let pa = path(&[slot(0), slot(1), slot(2)]);
        assert_eq!(cfg.configured_slots_on(&pa), vec![slot(1)]);
    }

    #[test]
    fn slots_listing_is_sorted() {
        let mut cfg = AclConfig::new();
        cfg.set(slot(5), Acl::permit_all());
        cfg.set(slot(1), Acl::permit_all());
        cfg.set(Slot::egress(IfaceId(1)), Acl::permit_all());
        let slots = cfg.slots();
        assert_eq!(slots.len(), 3);
        assert!(slots.windows(2).all(|w| w[0] <= w[1]));
    }
}
