//! The first-match walk as a plain loop over whole-set operations: every
//! rule's match is intersected with and subtracted from what is left, as a
//! [`PacketSet`] each time. `Acl::walk` splits the remainder cube by cube
//! instead, and `Acl::permit_set` and synthesis's encoding groups read that
//! walk; both must give exactly these cube lists.

use jinjing_acl::{Acl, Action, PacketSet};

/// The exact set of packets `acl` permits: permitted effective regions and
/// then, under a permitting default, the remainder, folded by `union`.
pub fn permit_set(acl: &Acl) -> PacketSet {
    let mut permitted = PacketSet::empty();
    let mut remaining = PacketSet::full();
    for r in acl.rules() {
        if remaining.is_empty() {
            break;
        }
        let m = PacketSet::from_cube(r.matches.cube());
        if r.action.permits() {
            permitted = permitted.union(&remaining.intersect(&m));
        }
        remaining = remaining.subtract(&m);
    }
    if acl.default_action().permits() {
        permitted = permitted.union(&remaining);
    }
    permitted
}

/// The non-empty effective regions of `acl`'s rules in priority order,
/// consecutive same-action rules merged by `union` when `group` (§5.5). The
/// default action's region is not included.
pub fn effective_regions(acl: &Acl, group: bool) -> Vec<PacketSet> {
    let mut regions: Vec<PacketSet> = Vec::new();
    let mut remaining = PacketSet::full();
    let mut last_action: Option<Action> = None;
    for r in acl.rules() {
        if remaining.is_empty() {
            break;
        }
        let m = PacketSet::from_cube(r.matches.cube());
        let eff = remaining.intersect(&m);
        remaining = remaining.subtract(&m);
        if eff.is_empty() {
            continue;
        }
        if group && last_action == Some(r.action) {
            let last = regions.last_mut().expect("grouping onto existing region");
            *last = last.union(&eff);
        } else {
            regions.push(eff);
            last_action = Some(r.action);
        }
    }
    regions
}
