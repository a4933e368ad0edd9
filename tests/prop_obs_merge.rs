//! Property tests for [`Snapshot::merge`] — the algebraic contract the
//! `jinjing-shard` coordinator's fan-in rests on. Each backend ships its
//! obs snapshot over the wire; the coordinator folds them in whatever
//! order the shard threads finish. For the merged `/metrics.json` to be
//! reproducible, merge must be a commutative, associative fold with
//! [`Snapshot::empty`] as identity — all judged on the canonical
//! [`Snapshot::to_json`] rendering, which is exactly what crosses the
//! wire.

mod cases;

use jinjing_obs::{Collector, Level, Snapshot};
use rand::rngs::StdRng;
use rand::RngExt;
use std::time::Duration;

const SUITE: &str = "prop_obs_merge";
const CASES: u64 = 64;

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

fn op(rng: &mut StdRng) -> Op {
    let name = rng.random_range(0..NAMES.len());
    match rng.random_range(0..6u32) {
        0 => Op::Counter(name, rng.random_range(0..1_000_000u64)),
        1 => Op::Gauge(name, rng.random_range(-1_000..1_000i64)),
        2 => Op::Histogram(name, rng.random_range(0..10_000u64)),
        3 => Op::Event(name, rng.random()),
        4 => {
            let count = rng.random_range(1..50u64);
            Op::Span(name, count, rng.random_range(1..100_000u64))
        }
        _ => {
            let child = rng.random_range(0..NAMES.len());
            Op::Nested(name, child, rng.random_range(1..100_000u64))
        }
    }
}

fn recording(rng: &mut StdRng) -> Vec<Op> {
    let ops = rng.random_range(0..24usize);
    (0..ops).map(|_| op(rng)).collect()
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

/// Fisher–Yates.
fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.random_range(0..=i));
    }
}

/// Commutativity and associativity, judged on the wire rendering.
#[test]
fn merge_is_commutative_and_associative_on_canonical_json() {
    let generate = |rng: &mut StdRng| (recording(rng), recording(rng), recording(rng));
    let name = "merge_is_commutative_and_associative_on_canonical_json";
    cases::run(SUITE, name, CASES, generate, |(ops_a, ops_b, ops_c)| {
        let (a, b, c) = (snap(ops_a), snap(ops_b), snap(ops_c));
        assert_eq!(
            merged(&a, &b).to_json(),
            merged(&b, &a).to_json(),
            "merge must not care which shard answered first"
        );
        assert_eq!(
            merged(&merged(&a, &b), &c).to_json(),
            merged(&a, &merged(&b, &c)).to_json(),
            "merge must not care how the fold is parenthesized"
        );
    });
}

/// The empty snapshot is a two-sided identity on every snapshot, raw
/// recordings included: `Collector::snapshot` lists span children by name,
/// the order every merge keeps.
#[test]
fn the_empty_snapshot_is_a_merge_identity() {
    let name = "the_empty_snapshot_is_a_merge_identity";
    cases::run(SUITE, name, CASES, recording, |ops| {
        let raw = snap(ops);
        assert_eq!(merged(&raw, &Snapshot::empty()).to_json(), raw.to_json());
        assert_eq!(merged(&Snapshot::empty(), &raw).to_json(), raw.to_json());
    });
}

/// Order-insensitivity at fan-in width: folding any permutation of
/// the per-shard snapshots renders the same canonical JSON — the
/// shard threads may finish in any order.
#[test]
fn any_fold_order_yields_the_same_canonical_json() {
    let generate = |rng: &mut StdRng| {
        let parts = rng.random_range(1..5usize);
        let parts: Vec<Vec<Op>> = (0..parts).map(|_| recording(rng)).collect();
        let mut permuted: Vec<usize> = (0..parts.len()).collect();
        shuffle(&mut permuted, rng);
        (parts, permuted)
    };
    let name = "any_fold_order_yields_the_same_canonical_json";
    cases::run(SUITE, name, CASES, generate, |(parts, permuted)| {
        let snaps: Vec<Snapshot> = parts.iter().map(|p| snap(p)).collect();
        let fold = |order: &[usize]| {
            let mut m = Snapshot::empty();
            for &i in order {
                m.merge(&snaps[i]);
            }
            m.to_json()
        };
        let in_order: Vec<usize> = (0..snaps.len()).collect();
        assert_eq!(fold(&in_order), fold(permuted));
    });
}

/// A merged snapshot survives the wire: parsing its canonical JSON
/// back re-renders the identical bytes (what the coordinator does
/// with every backend's `obs` field).
#[test]
fn merged_snapshots_round_trip_through_canonical_json() {
    let generate = |rng: &mut StdRng| (recording(rng), recording(rng));
    let name = "merged_snapshots_round_trip_through_canonical_json";
    cases::run(SUITE, name, CASES, generate, |(ops_a, ops_b)| {
        let m = merged(&snap(ops_a), &snap(ops_b));
        let wire = m.to_json();
        let back = Snapshot::from_json(&wire).expect("canonical JSON parses");
        assert_eq!(back.to_json(), wire);
    });
}
