//! Property tests for the CDCL solver and circuit layer: the solver agrees
//! with brute-force enumeration on random small formulas, models always
//! satisfy the formula, and the arithmetic circuits (comparators,
//! cardinality counters) agree with concrete arithmetic.

mod cases;

use jinjing_acl::packet::{Field, Packet};
use jinjing_solver::card::counter_outputs;
use jinjing_solver::cdcl::{SolveResult, Solver};
use jinjing_solver::lit::{Lit, Var};
use jinjing_solver::{CircuitBuilder, HeaderVars};
use rand::rngs::StdRng;
use rand::RngExt;

const SUITE: &str = "prop_solver";
const CASES: u64 = 128;

/// A random clause over `n` variables as non-zero DIMACS-style ints.
fn clause(rng: &mut StdRng, n: usize) -> Vec<i32> {
    let lits = rng.random_range(1..4usize);
    (0..lits)
        .map(|_| {
            let v = rng.random_range(1..=n as i32);
            if rng.random() {
                v
            } else {
                -v
            }
        })
        .collect()
}

fn formula(rng: &mut StdRng) -> (usize, Vec<Vec<i32>>) {
    let n = rng.random_range(2..9usize);
    let clauses = rng.random_range(0..30usize);
    (n, (0..clauses).map(|_| clause(rng, n)).collect())
}

fn packet(rng: &mut StdRng) -> Packet {
    Packet::new(
        rng.random_range(0..=u32::MAX),
        rng.random_range(0..=u32::MAX),
        rng.random_range(0..=0xffffu32) as u16,
        rng.random_range(0..=0xffffu32) as u16,
        rng.random_range(0..=0xffu32) as u8,
    )
}

/// A solver holding `clauses` over `n` fresh variables.
fn solver_of(n: usize, clauses: &[Vec<i32>]) -> (Solver, Vec<Var>) {
    let mut s = Solver::new();
    let vars: Vec<Var> = (0..n).map(|_| s.new_var()).collect();
    for c in clauses {
        let lits: Vec<Lit> = c
            .iter()
            .map(|&i| Lit::new(vars[(i.unsigned_abs() - 1) as usize], i > 0))
            .collect();
        s.add_clause(&lits);
    }
    (s, vars)
}

fn brute_force(n: usize, clauses: &[Vec<i32>]) -> Option<u64> {
    'outer: for bits in 0u64..(1 << n) {
        for c in clauses {
            let sat = c.iter().any(|&s| {
                let v = (bits >> (s.unsigned_abs() - 1)) & 1 == 1;
                if s > 0 {
                    v
                } else {
                    !v
                }
            });
            if !sat {
                continue 'outer;
            }
        }
        return Some(bits);
    }
    None
}

/// The CDCL verdict equals brute force, and SAT models check out.
#[test]
fn cdcl_agrees_with_brute_force() {
    let name = "cdcl_agrees_with_brute_force";
    cases::run(SUITE, name, CASES, formula, |(n, clauses)| {
        let (mut s, vars) = solver_of(*n, clauses);
        let expected = brute_force(*n, clauses);
        let verdict = s.solve();
        assert_eq!(verdict == SolveResult::Sat, expected.is_some());
        if verdict == SolveResult::Sat {
            for c in clauses {
                let ok = c.iter().any(|&i| {
                    let l = Lit::new(vars[(i.unsigned_abs() - 1) as usize], i > 0);
                    s.model_value(l)
                });
                assert!(ok, "model violates {c:?}");
            }
        }
    });
}

/// Solving under unit assumptions equals solving with the units added.
#[test]
fn assumptions_equal_added_units() {
    let generate = |rng: &mut StdRng| {
        let picks = rng.random_range(0..3usize);
        let picks: Vec<(usize, bool)> = (0..picks)
            .map(|_| (rng.random_range(0..8usize), rng.random()))
            .collect();
        (formula(rng), picks)
    };
    let name = "assumptions_equal_added_units";
    cases::run(SUITE, name, CASES, generate, |((n, clauses), picks)| {
        let (mut with_clauses, vars) = solver_of(*n, clauses);
        for &(v, pos) in picks {
            with_clauses.add_clause(&[Lit::new(vars[v % n], pos)]);
        }
        let (mut with_assumptions, vars) = solver_of(*n, clauses);
        let assumptions: Vec<Lit> = picks
            .iter()
            .map(|&(v, p)| Lit::new(vars[v % n], p))
            .collect();
        assert_eq!(
            with_clauses.solve(),
            with_assumptions.solve_with(&assumptions)
        );
    });
}

/// Counter outputs equal the true count for random input forcings.
#[test]
fn counter_matches_popcount() {
    let generate = |rng: &mut StdRng| -> Vec<bool> {
        let inputs = rng.random_range(1..10usize);
        (0..inputs).map(|_| rng.random()).collect()
    };
    let name = "counter_matches_popcount";
    cases::run(SUITE, name, CASES, generate, |values| {
        let mut c = CircuitBuilder::new();
        let inputs: Vec<Lit> = values.iter().map(|_| c.input()).collect();
        let outs = counter_outputs(&mut c, &inputs);
        for (l, &v) in inputs.iter().zip(values) {
            let lit = if v { *l } else { !*l };
            c.assert(lit);
        }
        assert_eq!(c.solve(), SolveResult::Sat);
        let count = values.iter().filter(|&&v| v).count();
        for (j, &o) in outs.iter().enumerate() {
            assert_eq!(c.model_value(o), count > j);
        }
    });
}

/// Range comparator circuits agree with integer comparison on every
/// field.
#[test]
fn range_circuits_match_arithmetic() {
    let generate = |rng: &mut StdRng| {
        let lo = rng.random_range(0..=0xffffu64);
        let span = rng.random_range(0..=0xffffu64);
        (packet(rng), lo, span)
    };
    let name = "range_circuits_match_arithmetic";
    cases::run(SUITE, name, CASES, generate, |(packet, lo, span)| {
        let field = Field::DstPort;
        let lo = *lo;
        let hi = (lo + span).min(field.max_value());
        let mut c = CircuitBuilder::new();
        let h = HeaderVars::new(&mut c);
        let g = h.field_range(&mut c, field, lo, hi);
        h.assert_packet(&mut c, packet);
        assert_eq!(c.solve(), SolveResult::Sat);
        let v = packet.field(field);
        assert_eq!(c.model_value(g), lo <= v && v <= hi);
    });
}

/// Prefix circuits agree with prefix membership.
#[test]
fn prefix_circuits_match() {
    let generate = |rng: &mut StdRng| {
        let addr = rng.random_range(0..=u32::MAX);
        let len = rng.random_range(0..=32u32);
        (addr, len, rng.random_range(0..=u32::MAX))
    };
    let name = "prefix_circuits_match";
    cases::run(SUITE, name, CASES, generate, |&(addr, len, dip)| {
        let prefix = jinjing_acl::IpPrefix::new(addr, len);
        let packet = Packet::to_dst(dip);
        let mut c = CircuitBuilder::new();
        let h = HeaderVars::new(&mut c);
        let g = h.field_prefix(&mut c, Field::DstIp, prefix.addr() as u64, prefix.len());
        h.assert_packet(&mut c, &packet);
        assert_eq!(c.solve(), SolveResult::Sat);
        assert_eq!(c.model_value(g), prefix.contains(dip));
    });
}

/// Model decoding inverts packet assertion.
#[test]
fn decode_inverts_assert() {
    cases::run(SUITE, "decode_inverts_assert", CASES, packet, |packet| {
        let mut c = CircuitBuilder::new();
        let h = HeaderVars::new(&mut c);
        h.assert_packet(&mut c, packet);
        assert_eq!(c.solve(), SolveResult::Sat);
        assert_eq!(&h.decode(&c), packet);
    });
}
