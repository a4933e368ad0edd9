//! Property tests for [`Snapshot::merge`] — the algebraic contract the
//! `jinjing-shard` coordinator's fan-in rests on. Each backend ships its
//! obs snapshot over the wire; the coordinator folds them in whatever
//! order the shard threads finish. For the merged `/metrics.json` to be
//! reproducible, merge must be a commutative, associative fold with
//! [`Snapshot::empty`] as identity — all judged on the canonical
//! [`Snapshot::to_json`] rendering, which is exactly what crosses the
//! wire.

use jinjing_obs::{Collector, Level, Snapshot};
use proptest::prelude::*;
use std::time::Duration;

const NAMES: &[&str] = &[
    "solver.queries",
    "check.dirty_pairs",
    "shard.fan_outs",
    "cache.hits",
];

/// One recorded observation. Snapshots are built by replaying a list of
/// these into a fresh [`Collector`] — the only public way to mint one,
/// so the properties hold over realistic snapshots, not hand-built ones.
#[derive(Debug, Clone)]
enum Op {
    Counter(usize, u64),
    Gauge(usize, i64),
    Histogram(usize, u64),
    Event(usize, bool),
    /// An externally-measured span folded in at the root.
    Span(usize, u64, u64),
    /// A child span recorded under an open parent guard.
    Nested(usize, usize, u64),
}

fn op() -> impl Strategy<Value = Op> {
    let name = 0..NAMES.len();
    prop_oneof![
        (name.clone(), 0u64..1_000_000).prop_map(|(n, v)| Op::Counter(n, v)),
        (name.clone(), -1_000i64..1_000).prop_map(|(n, v)| Op::Gauge(n, v)),
        (name.clone(), 0u64..10_000).prop_map(|(n, v)| Op::Histogram(n, v)),
        (name.clone(), any::<bool>()).prop_map(|(n, warn)| Op::Event(n, warn)),
        (name.clone(), 1u64..50, 1u64..100_000).prop_map(|(n, c, t)| Op::Span(n, c, t)),
        (name.clone(), 0..NAMES.len(), 1u64..100_000).prop_map(|(p, c, t)| Op::Nested(p, c, t)),
    ]
}

fn recording() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(op(), 0..24)
}

fn snap(ops: &[Op]) -> Snapshot {
    let c = Collector::with_trace(false);
    for op in ops {
        match op {
            Op::Counter(n, v) => c.counter_add(NAMES[*n], *v),
            Op::Gauge(n, v) => c.gauge_set(NAMES[*n], *v),
            Op::Histogram(n, v) => c.histogram_record(NAMES[*n], *v),
            Op::Event(n, warn) => {
                let level = if *warn { Level::Warn } else { Level::Info };
                c.event(level, NAMES[*n], "merge property probe");
            }
            Op::Span(n, count, total) => {
                c.record_span(NAMES[*n], *count, Duration::from_nanos(*total));
            }
            Op::Nested(parent, child, total) => {
                let _g = c.span(NAMES[*parent]);
                c.record_span(NAMES[*child], 1, Duration::from_nanos(*total));
            }
        }
    }
    c.snapshot()
}

fn merged(a: &Snapshot, b: &Snapshot) -> Snapshot {
    let mut m = a.clone();
    m.merge(b);
    m
}

/// Deterministic Fisher–Yates driven by splitmix64 — proptest gives us
/// the seed, so shrinking stays meaningful.
fn shuffle<T>(items: &mut [T], mut seed: u64) {
    let mut next = || {
        seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    for i in (1..items.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Commutativity and associativity, judged on the wire rendering.
    #[test]
    fn merge_is_commutative_and_associative_on_canonical_json(
        ops_a in recording(),
        ops_b in recording(),
        ops_c in recording(),
    ) {
        let (a, b, c) = (snap(&ops_a), snap(&ops_b), snap(&ops_c));
        prop_assert_eq!(
            merged(&a, &b).to_json(),
            merged(&b, &a).to_json(),
            "merge must not care which shard answered first"
        );
        prop_assert_eq!(
            merged(&merged(&a, &b), &c).to_json(),
            merged(&a, &merged(&b, &c)).to_json(),
            "merge must not care how the fold is parenthesized"
        );
    }

    /// The empty snapshot is a two-sided identity.
    #[test]
    fn the_empty_snapshot_is_a_merge_identity(ops in recording()) {
        let s = snap(&ops);
        prop_assert_eq!(merged(&s, &Snapshot::empty()).to_json(), s.to_json());
        prop_assert_eq!(merged(&Snapshot::empty(), &s).to_json(), s.to_json());
    }

    /// Order-insensitivity at fan-in width: folding any permutation of
    /// the per-shard snapshots renders the same canonical JSON — the
    /// shard threads may finish in any order.
    #[test]
    fn any_fold_order_yields_the_same_canonical_json(
        parts in prop::collection::vec(recording(), 1..5),
        seed in any::<u64>(),
    ) {
        let snaps: Vec<Snapshot> = parts.iter().map(|p| snap(p)).collect();
        let fold = |order: &[usize]| {
            let mut m = Snapshot::empty();
            for &i in order {
                m.merge(&snaps[i]);
            }
            m.to_json()
        };
        let in_order: Vec<usize> = (0..snaps.len()).collect();
        let mut permuted = in_order.clone();
        shuffle(&mut permuted, seed);
        prop_assert_eq!(fold(&in_order), fold(&permuted));
    }

    /// A merged snapshot survives the wire: parsing its canonical JSON
    /// back re-renders the identical bytes (what the coordinator does
    /// with every backend's `obs` field).
    #[test]
    fn merged_snapshots_round_trip_through_canonical_json(
        ops_a in recording(),
        ops_b in recording(),
    ) {
        let m = merged(&snap(&ops_a), &snap(&ops_b));
        let wire = m.to_json();
        let back = Snapshot::from_json(&wire).expect("canonical JSON parses");
        prop_assert_eq!(back.to_json(), wire);
    }
}
