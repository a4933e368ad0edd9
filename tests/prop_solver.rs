//! Property tests for the CDCL solver and circuit layer: the solver agrees
//! with brute-force enumeration on random small formulas, models always
//! satisfy the formula, the arithmetic circuits (comparators, cardinality
//! counters) agree with concrete arithmetic, and circuits that share one
//! hash-consed builder each keep their own meaning.

mod cases;

use jinjing_acl::packet::{Field, Packet};
use jinjing_acl::{Acl, Action, IpPrefix, MatchSpec, PacketSet, PortRange, Proto, Rule};
use jinjing_solver::aclenc::{encode_sequential, encode_tree};
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

/// A rule tuple over small pools of prefixes, port ranges (aligned blocks,
/// single ports and ragged ranges) and protocols, so that independently
/// drawn tuples repeat each other's fields and their circuits share gates.
fn pooled_match(rng: &mut StdRng) -> MatchSpec {
    const NETS: [u32; 3] = [0x0a00_0000, 0x0a01_0000, 0x0a01_0200];
    const PORTS: [(u16, u16); 6] = [
        (0, 65535),
        (0, 1023),
        (80, 80),
        (443, 8080),
        (1024, 65535),
        (8080, 8087),
    ];
    let prefix = |rng: &mut StdRng| {
        let len = [0, 8, 16, 24][rng.random_range(0..4usize)];
        IpPrefix::new(NETS[rng.random_range(0..3usize)], len)
    };
    let ports = |rng: &mut StdRng| {
        let (lo, hi) = PORTS[rng.random_range(0..6usize)];
        PortRange::new(lo, hi)
    };
    MatchSpec {
        src: prefix(rng),
        dst: prefix(rng),
        sport: ports(rng),
        dport: ports(rng),
        proto: [None, Some(Proto::Tcp), Some(Proto::Udp)][rng.random_range(0..3usize)],
    }
}

/// What one case encodes into a single builder.
#[derive(Debug)]
struct SharedCircuits {
    acls: Vec<Acl>,
    sets: Vec<PacketSet>,
    packets: Vec<Packet>,
}

fn shared_circuits(rng: &mut StdRng) -> SharedCircuits {
    let rule = |rng: &mut StdRng| Rule::new(Action::from_bool(rng.random()), pooled_match(rng));
    let first: Vec<Rule> = (0..rng.random_range(1..9usize))
        .map(|_| rule(rng))
        .collect();
    let mut acls = vec![Acl::new(first.clone(), Action::from_bool(rng.random()))];
    // Edits of the first ACL (what an update looks like) and strangers.
    for _ in 0..rng.random_range(1..4usize) {
        let mut rules = first.clone();
        let at = rng.random_range(0..rules.len());
        match rng.random_range(0..4u32) {
            0 => rules.swap(at, rng.random_range(0..first.len())),
            1 => drop(rules.remove(at)),
            2 => rules.insert(at, rule(rng)),
            _ => rules = (0..at).map(|_| rule(rng)).collect(),
        }
        acls.push(Acl::new(rules, Action::from_bool(rng.random())));
    }
    let sets: Vec<PacketSet> = (0..rng.random_range(1..4usize))
        .map(|_| {
            let cubes = (0..rng.random_range(0..4usize)).map(|_| pooled_match(rng).cube());
            PacketSet::from_cubes(cubes.collect())
        })
        .collect();
    // Random packets, and the corners of a drawn tuple with a step outside.
    let mut packets: Vec<Packet> = (0..3).map(|_| packet(rng)).collect();
    let cube = pooled_match(rng).cube();
    for corner in [0u32, 0b11111, rng.random_range(0..32u32)] {
        let mut p = cube.sample();
        for f in Field::ALL {
            if corner >> f.index() & 1 == 1 {
                p.set_field(f, cube.get(f).hi());
            }
        }
        packets.push(p);
        let f = Field::ALL[rng.random_range(0..5usize)];
        p.set_field(f, (p.field(f) + 1) & f.max_value());
        packets.push(p);
    }
    SharedCircuits {
        acls,
        sets,
        packets,
    }
}

/// Several ACLs in both encodings and several `in_set` memberships, all in
/// one builder — so every gate two of them have in common is shared — still
/// decide each packet as `Acl::permits` / `PacketSet::contains` do.
#[test]
fn circuits_sharing_a_builder_keep_their_meaning() {
    let name = "circuits_sharing_a_builder_keep_their_meaning";
    cases::run(SUITE, name, CASES, shared_circuits, |case| {
        for p in &case.packets {
            let mut c = CircuitBuilder::new();
            let h = HeaderVars::new(&mut c);
            let mut outputs: Vec<(Lit, bool, String)> = Vec::new();
            for (i, acl) in case.acls.iter().enumerate() {
                let tree = encode_tree(&mut c, &h, acl);
                let seq = encode_sequential(&mut c, &h, acl);
                outputs.push((tree, acl.permits(p), format!("tree of ACL {i}")));
                outputs.push((seq, acl.permits(p), format!("chain of ACL {i}")));
            }
            for (i, set) in case.sets.iter().enumerate() {
                let member = h.in_set(&mut c, set);
                outputs.push((member, set.contains(p), format!("set {i}")));
            }
            h.assert_packet(&mut c, p);
            assert_eq!(c.solve(), SolveResult::Sat);
            for (lit, expected, what) in outputs {
                assert_eq!(c.model_value(lit), expected, "{what} on {p}");
            }
        }
    });
}
