//! The "ACL search tree" of §5.5: an interval tree over rule regions that
//! answers overlap queries without scanning every rule.
//!
//! Rules in our workloads (and in the paper's) discriminate mostly on the
//! destination prefix, so the tree is a classic static *centered interval
//! tree* keyed on the rule's destination interval; candidates from the
//! tree are then verified against the full 5-tuple. Queries run in
//! O(log n + hits) instead of O(n), which is what makes the
//! differential-rule preprocessing and the grouping overlap computations
//! cheap on rule sets with thousands of entries.
//!
//! Both queries walk the tree by recursion and allocate nothing but
//! [`RuleTree::overlapping`]'s answer. [`RuleTree::overlaps_any`] — the
//! differential reduction asks it once per configured rule, and almost
//! every answer is "no" — first looks the query's destination up in the
//! maximal runs of the indexed destinations (`Interval::runs`): a query
//! meeting no run meets no spec, and one binary search says so. The runs
//! are built by the first `overlaps_any`, so a tree only ever asked
//! `overlapping` (`simplify` builds one per removed rule) never pays for
//! them.

use crate::interval::Interval;
use crate::rule::MatchSpec;
use std::sync::OnceLock;

/// A static overlap index over a fixed list of match specs.
///
/// ```
/// use jinjing_acl::rtree::RuleTree;
/// use jinjing_acl::parse::parse_rule;
/// let m = |s: &str| parse_rule(&format!("deny {s}")).unwrap().matches;
/// let tree = RuleTree::build(vec![m("dst 10.0.0.0/8"), m("dst 11.0.0.0/8")]);
/// assert!(tree.overlaps_any(&m("dst 10.1.0.0/16")));
/// assert!(!tree.overlaps_any(&m("dst 12.0.0.0/8")));
/// ```
#[derive(Debug, Clone)]
pub struct RuleTree {
    specs: Vec<MatchSpec>,
    root: Option<Box<Node>>,
    /// The maximal runs of the specs' dst intervals, built on first use by
    /// [`RuleTree::overlaps_any`].
    dst_runs: OnceLock<Vec<Interval>>,
}

#[derive(Debug, Clone)]
struct Node {
    center: u64,
    /// Indices of specs whose dst interval contains `center`, sorted by
    /// ascending interval start.
    by_lo: Vec<usize>,
    /// The same indices sorted by descending interval end.
    by_hi: Vec<usize>,
    left: Option<Box<Node>>,
    right: Option<Box<Node>>,
}

fn dst_bounds(m: &MatchSpec) -> (u64, u64) {
    let iv = m.dst.interval();
    (iv.lo(), iv.hi())
}

/// The midpoint of a spec's dst interval: always inside it (`lo/2 + hi/2`
/// is not, for an odd host route, which then never settles at a node).
fn dst_mid(m: &MatchSpec) -> u64 {
    let (lo, hi) = dst_bounds(m);
    lo + (hi - lo) / 2
}

fn build_node(specs: &[MatchSpec], mut idxs: Vec<usize>) -> Option<Box<Node>> {
    if idxs.is_empty() {
        return None;
    }
    // Median of interval midpoints as the center.
    idxs.sort_by_key(|&i| dst_mid(&specs[i]));
    let center = dst_mid(&specs[idxs[idxs.len() / 2]]);
    let mut here = Vec::new();
    let mut left = Vec::new();
    let mut right = Vec::new();
    for i in idxs {
        let (lo, hi) = dst_bounds(&specs[i]);
        if hi < center {
            left.push(i);
        } else if lo > center {
            right.push(i);
        } else {
            here.push(i);
        }
    }
    let mut by_lo = here.clone();
    by_lo.sort_by_key(|&i| dst_bounds(&specs[i]).0);
    let mut by_hi = here;
    by_hi.sort_by_key(|&i| std::cmp::Reverse(dst_bounds(&specs[i]).1));
    Some(Box::new(Node {
        center,
        by_lo,
        by_hi,
        left: build_node(specs, left),
        right: build_node(specs, right),
    }))
}

impl Node {
    /// Offer every spec of this subtree overlapping `query` (whose dst
    /// interval is `[qlo, qhi]`) to `hit`, until `hit` returns `true`;
    /// returns whether it did.
    fn visit(
        &self,
        specs: &[MatchSpec],
        query: &MatchSpec,
        (qlo, qhi): (u64, u64),
        hit: &mut impl FnMut(usize) -> bool,
    ) -> bool {
        let mut offer = |&i: &usize| specs[i].overlaps(query) && hit(i);
        let stopped = if qhi < self.center {
            // Only intervals starting at or below qhi can overlap.
            self.by_lo
                .iter()
                .take_while(|&&i| dst_bounds(&specs[i]).0 <= qhi)
                .any(&mut offer)
        } else if qlo > self.center {
            // Only intervals ending at or above qlo can overlap.
            self.by_hi
                .iter()
                .take_while(|&&i| dst_bounds(&specs[i]).1 >= qlo)
                .any(&mut offer)
        } else {
            // The query spans the center: every centered interval's dst
            // overlaps; the remaining fields decide.
            self.by_lo.iter().any(&mut offer)
        };
        stopped
            || (qlo <= self.center
                && (self.left.as_deref()).is_some_and(|n| n.visit(specs, query, (qlo, qhi), hit)))
            || (qhi >= self.center
                && (self.right.as_deref()).is_some_and(|n| n.visit(specs, query, (qlo, qhi), hit)))
    }
}

impl RuleTree {
    /// Build the index. O(n log n).
    pub fn build(specs: Vec<MatchSpec>) -> RuleTree {
        let idxs: Vec<usize> = (0..specs.len()).collect();
        let root = build_node(&specs, idxs);
        RuleTree {
            specs,
            root,
            dst_runs: OnceLock::new(),
        }
    }

    /// Number of indexed specs.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// `true` when the index is empty.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Indices of all indexed specs whose *full 5-tuple region* overlaps
    /// `query`, in unspecified order.
    pub fn overlapping(&self, query: &MatchSpec) -> Vec<usize> {
        let mut out = Vec::new();
        if let Some(root) = &self.root {
            root.visit(&self.specs, query, dst_bounds(query), &mut |i| {
                out.push(i);
                false
            });
        }
        out
    }

    /// Does any indexed spec overlap `query`? Allocation-free after the
    /// first call, which builds the dst runs.
    pub fn overlaps_any(&self, query: &MatchSpec) -> bool {
        let (qlo, qhi) = dst_bounds(query);
        let runs = self
            .dst_runs
            .get_or_init(|| Interval::runs(self.specs.iter().map(|m| m.dst.interval()).collect()));
        // Only the last run starting at or before the query's end can meet
        // it; every earlier run ends before that one starts.
        let at = runs.partition_point(|r| r.lo() <= qhi);
        at > 0
            && runs[at - 1].hi() >= qlo
            && (self.root.as_deref())
                .is_some_and(|n| n.visit(&self.specs, query, (qlo, qhi), &mut |_| true))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_rule;

    fn spec(s: &str) -> MatchSpec {
        parse_rule(&format!("deny {s}")).unwrap().matches
    }

    #[test]
    fn finds_nested_and_disjoint() {
        let tree = RuleTree::build(vec![
            spec("dst 10.0.0.0/8"),
            spec("dst 10.1.0.0/16"),
            spec("dst 11.0.0.0/8"),
            spec("dst 192.168.0.0/16"),
        ]);
        let mut hits = tree.overlapping(&spec("dst 10.1.2.0/24"));
        hits.sort();
        assert_eq!(hits, vec![0, 1]);
        assert!(tree.overlaps_any(&spec("dst 11.5.0.0/16")));
        assert!(!tree.overlaps_any(&spec("dst 12.0.0.0/8")));
    }

    #[test]
    fn verifies_non_dst_fields() {
        let tree = RuleTree::build(vec![
            spec("dst 10.0.0.0/8 proto tcp"),
            spec("dst 10.0.0.0/8 proto udp"),
        ]);
        let q = spec("dst 10.1.0.0/16 proto tcp");
        assert_eq!(tree.overlapping(&q), vec![0]);
        let q_any = spec("dst 10.1.0.0/16");
        let mut hits = tree.overlapping(&q_any);
        hits.sort();
        assert_eq!(hits, vec![0, 1]);
    }

    #[test]
    fn empty_tree() {
        let tree = RuleTree::build(Vec::new());
        assert!(tree.is_empty());
        assert!(!tree.overlaps_any(&MatchSpec::any()));
        assert!(tree.overlapping(&MatchSpec::any()).is_empty());
    }

    #[test]
    fn match_all_query_hits_everything() {
        let specs: Vec<MatchSpec> = (0..50)
            .map(|i| spec(&format!("dst 10.{i}.0.0/16")))
            .collect();
        let tree = RuleTree::build(specs);
        assert_eq!(tree.overlapping(&MatchSpec::any()).len(), 50);
    }

    /// `overlaps_any` (run filter, then the tree) against a scan, on specs
    /// whose dst runs touch the ends of the address space and merge across
    /// adjacent prefixes, and whose other fields make some dst hits miss.
    /// Queries probe one address either side of every run boundary, the
    /// gaps, and `/0`, each with and without a constraining protocol.
    #[test]
    fn overlaps_any_agrees_with_a_scan_at_run_boundaries() {
        let specs = vec![
            spec("dst 0.0.0.0/8 proto tcp"),
            spec("dst 10.0.0.0/9"),
            spec("dst 10.128.0.0/9 proto udp"), // adjacent: one run 10/8
            spec("dst 12.0.0.0/8 dport 80"),
            spec("dst 12.1.0.0/16 proto udp"),
            spec("dst 255.255.255.255/32 proto tcp"),
        ];
        let tree = RuleTree::build(specs.clone());
        let mut edges: Vec<u32> = Vec::new();
        for m in &specs {
            let iv = m.dst.interval();
            let (lo, hi) = (iv.lo() as u32, iv.hi() as u32);
            edges.extend([lo, hi, lo.wrapping_sub(1), hi.wrapping_add(1)]);
        }
        edges.extend([0, u32::MAX, 0x0b00_0000, 0x8000_0000]);
        let mut queries = vec![MatchSpec::any(), spec("proto icmp"), spec("proto udp")];
        for ip in edges {
            let host = crate::rule::IpPrefix::host(ip);
            for extra in ["", " proto tcp", " proto udp", " dport 443"] {
                queries.push(spec(&format!("dst {host}{extra}")));
            }
            queries.push(MatchSpec::dst(crate::rule::IpPrefix::new(ip, 7)));
        }
        let (mut hits, mut misses) = (0, 0);
        for q in &queries {
            let want = specs.iter().any(|s| s.overlaps(q));
            assert_eq!(tree.overlaps_any(q), want, "query {q}");
            if want {
                hits += 1;
            } else {
                misses += 1;
            }
        }
        assert!(hits > 10 && misses > 10, "{hits} hits, {misses} misses");
        assert!(tree.overlaps_any(&MatchSpec::any()), "/0 meets everything");
        assert!(!tree.overlaps_any(&spec("dst 11.0.0.0/8")), "a gap");
        assert!(
            !tree.overlaps_any(&spec("dst 12.1.0.0/16 proto icmp dport 22")),
            "inside a run, but every dst hit misses on another field"
        );
        let empty = RuleTree::build(Vec::new());
        assert!(queries.iter().all(|q| !empty.overlaps_any(q)));
    }

    #[test]
    fn agrees_with_brute_force_on_structured_sets() {
        // Deterministic pseudo-random prefixes and queries.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..20 {
            let n = 1 + (next() % 60) as usize;
            let specs: Vec<MatchSpec> = (0..n)
                .map(|_| {
                    let a = (next() % 224) as u32;
                    let b = (next() % 256) as u32;
                    let len = 8 + (next() % 17) as u32;
                    spec(&format!("dst {a}.{b}.0.0/{len}"))
                })
                .collect();
            let tree = RuleTree::build(specs.clone());
            for _ in 0..20 {
                let a = (next() % 224) as u32;
                let len = 8 + (next() % 25) as u32;
                let q = spec(&format!("dst {a}.1.2.0/{}", len.min(24)));
                let mut got = tree.overlapping(&q);
                got.sort();
                let want: Vec<usize> = specs
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.overlaps(&q))
                    .map(|(i, _)| i)
                    .collect();
                assert_eq!(got, want, "round {round}, query {q}");
                assert_eq!(tree.overlaps_any(&q), !want.is_empty());
            }
        }
    }
}
