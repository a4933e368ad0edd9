//! FEC refinement as the plain loop: every predicate is intersected with and
//! subtracted from every class, whatever its shape. `atoms::refine` decides
//! one-field predicates on a projection instead and must derive exactly
//! this partition — the same classes, in the same order, with the same cube
//! lists — and trip its class guard after the same predicate.

use jinjing_acl::PacketSet;

/// The classes of `universe` under `predicates`, or how many predicates had
/// been applied when more than `max_classes` classes were held.
pub fn refine(
    universe: &PacketSet,
    predicates: &[PacketSet],
    max_classes: usize,
) -> Result<Vec<PacketSet>, usize> {
    let compact = |set: PacketSet| {
        if set.cube_count() > 24 {
            set.coalesce()
        } else {
            set
        }
    };
    let mut classes = Vec::new();
    if universe.is_empty() {
        return Ok(classes);
    }
    classes.push(universe.clone());
    for (pi, pred) in predicates.iter().enumerate() {
        let mut next = Vec::with_capacity(classes.len());
        for class in classes {
            let inside = class.intersect(pred);
            if inside.is_empty() {
                next.push(class);
                continue;
            }
            let outside = class.subtract(pred);
            if outside.is_empty() {
                next.push(class);
            } else {
                next.push(compact(inside));
                next.push(compact(outside));
            }
            if next.len() > max_classes {
                return Err(pi + 1);
            }
        }
        classes = next;
    }
    Ok(classes)
}
