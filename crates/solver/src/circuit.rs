//! Tseitin circuit construction on top of the CDCL solver.
//!
//! A [`CircuitBuilder`] owns a [`Solver`] and hands out gate outputs as
//! [`Lit`]s. Gates are encoded with the standard Tseitin clauses; constants
//! are represented by one dedicated always-true variable so that constant
//! folding stays purely syntactic (`and([])` is `TRUE`, `or` over a `TRUE`
//! input is `TRUE`, and so on). Gates are hash-consed: a gate is looked up
//! by its normalised inputs before it is allocated, so circuits built in one
//! builder share every subcircuit they have in common (DESIGN.md, "Circuit
//! sharing").
//!
//! The Jinjing formulas (Eq. 3, Eq. 6, Eq. 7, Eq. 10) are all built through
//! this interface: ACL decision models become circuits over header bits,
//! path decision models conjoin them, and the consistency checks compare
//! before/after circuits with `iff`.

use crate::cdcl::{SolveResult, Solver, SolverStats};
use crate::lit::Lit;
use std::collections::HashMap;

/// Gate builder over an embedded solver.
///
/// Gates are structurally hashed: asking twice for the same function of the
/// same literals returns the same literal and adds no clause, so two
/// circuits built over the same header bits share everything they have in
/// common. The tables are only ever looked up, never iterated, which keeps
/// literal numbering a pure function of the call sequence.
#[derive(Debug)]
pub struct CircuitBuilder {
    solver: Solver,
    true_lit: Lit,
    /// 2-input AND gates by their ordered inputs.
    and2_gates: HashMap<(Lit, Lit), Lit>,
    /// Wider AND gates by their sorted, de-duplicated inputs.
    and_gates: HashMap<Box<[Lit]>, Lit>,
    /// ITE gates by their normalised `(c, t, e)`.
    ite_gates: HashMap<(Lit, Lit, Lit), Lit>,
    /// Optional observability sink; when set, every `solve`/`solve_with`
    /// records its per-query stats delta into the `solver.*` histograms.
    obs: Option<jinjing_obs::Collector>,
    /// Stats high-water mark at the end of the previous query, used to
    /// turn the solver's cumulative counters into per-query deltas.
    last_stats: SolverStats,
}

impl Default for CircuitBuilder {
    fn default() -> CircuitBuilder {
        CircuitBuilder::new()
    }
}

impl CircuitBuilder {
    /// Fresh builder with the constant-`true` variable pre-asserted.
    pub fn new() -> CircuitBuilder {
        let mut solver = Solver::new();
        let t = solver.new_var().lit();
        solver.add_clause(&[t]);
        CircuitBuilder {
            solver,
            true_lit: t,
            and2_gates: HashMap::new(),
            and_gates: HashMap::new(),
            ite_gates: HashMap::new(),
            obs: None,
            last_stats: SolverStats::default(),
        }
    }

    /// Attach an observability collector. Subsequent solver queries record
    /// per-query stats deltas (decisions, conflicts, propagations, …) into
    /// its `solver.*` histograms and bump the `solver.queries` counter.
    pub fn set_obs(&mut self, obs: jinjing_obs::Collector) {
        self.obs = Some(obs);
    }

    /// The constant `true`.
    pub fn t(&self) -> Lit {
        self.true_lit
    }

    /// The constant `false`.
    pub fn f(&self) -> Lit {
        !self.true_lit
    }

    /// A fresh unconstrained input variable.
    pub fn input(&mut self) -> Lit {
        self.solver.new_var().lit()
    }

    /// Conjunction of any number of literals.
    pub fn and(&mut self, inputs: &[Lit]) -> Lit {
        match *inputs {
            [a, b] => self.and2(a, b),
            _ => self.and_of(inputs.to_vec()),
        }
    }

    /// Disjunction of any number of literals.
    pub fn or(&mut self, inputs: &[Lit]) -> Lit {
        match *inputs {
            [a, b] => !self.and2(!a, !b),
            _ => !self.and_of(inputs.iter().map(|&l| !l).collect()),
        }
    }

    /// `a ∧ b`, keyed without allocating.
    fn and2(&mut self, a: Lit, b: Lit) -> Lit {
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        let (t, f) = (self.t(), self.f());
        if a == f || b == f || a == !b {
            return f;
        }
        if a == t || a == b {
            return b;
        }
        if b == t {
            return a;
        }
        if let Some(&g) = self.and2_gates.get(&(a, b)) {
            return g;
        }
        let g = self.and_gate(&[a, b]);
        self.and2_gates.insert((a, b), g);
        g
    }

    /// Conjunction of `xs` in normal form: constants folded, inputs sorted
    /// and de-duplicated (which puts `x` next to `¬x`).
    fn and_of(&mut self, mut xs: Vec<Lit>) -> Lit {
        let (t, f) = (self.t(), self.f());
        xs.retain(|&l| l != t);
        xs.sort_unstable();
        xs.dedup();
        if xs.contains(&f) || xs.windows(2).any(|w| w[0] == !w[1]) {
            return f;
        }
        match xs[..] {
            [] => t,
            [x] => x,
            [a, b] => self.and2(a, b),
            _ => {
                if let Some(&g) = self.and_gates.get(&xs[..]) {
                    return g;
                }
                let g = self.and_gate(&xs);
                self.and_gates.insert(xs.into_boxed_slice(), g);
                g
            }
        }
    }

    /// Tseitin clauses of a fresh `g ⇔ ∧xs`.
    fn and_gate(&mut self, xs: &[Lit]) -> Lit {
        let g = self.input();
        // g → xi for each i; (∧xi) → g.
        let mut long = Vec::with_capacity(xs.len() + 1);
        for &x in xs {
            self.solver.add_clause(&[!g, x]);
            long.push(!x);
        }
        long.push(g);
        self.solver.add_clause(&long);
        g
    }

    /// If-then-else: `c ? t : e`.
    pub fn ite(&mut self, c: Lit, t: Lit, e: Lit) -> Lit {
        let (tt, ff) = (self.t(), self.f());
        if c == tt {
            return t;
        }
        if c == ff {
            return e;
        }
        // A branch that repeats the condition is a constant on that branch.
        let fold = |x: Lit, when_c: Lit| {
            if x.var() != c.var() {
                x
            } else if x == c {
                when_c
            } else {
                !when_c
            }
        };
        let (t, e) = (fold(t, tt), fold(e, ff));
        if t == e {
            return t;
        }
        // Constant branches fold into single AND/OR gates.
        if t == tt {
            return self.or(&[c, e]); // c ∨ e
        }
        if t == ff {
            return self.and2(!c, e); // ¬c ∧ e
        }
        if e == tt {
            return self.or(&[!c, t]); // ¬c ∨ t
        }
        if e == ff {
            return self.and2(c, t); // c ∧ t
        }
        // Normal form: positive condition (swap the branches), positive
        // then-branch (negate the output), and for `c ⇔ t` ordered operands.
        let (c, t, e) = if c.is_positive() {
            (c, t, e)
        } else {
            (!c, e, t)
        };
        let negate = !t.is_positive();
        let (t, e) = if negate { (!t, !e) } else { (t, e) };
        let (c, t, e) = if e == !t && t < c {
            (t, c, !c)
        } else {
            (c, t, e)
        };
        let g = match self.ite_gates.get(&(c, t, e)) {
            Some(&g) => g,
            None => {
                let g = self.input();
                self.solver.add_clause(&[!g, !c, t]);
                self.solver.add_clause(&[!g, c, e]);
                self.solver.add_clause(&[g, !c, !t]);
                self.solver.add_clause(&[g, c, !e]);
                // Redundant but propagation-strengthening clauses.
                self.solver.add_clause(&[!g, t, e]);
                self.solver.add_clause(&[g, !t, !e]);
                self.ite_gates.insert((c, t, e), g);
                g
            }
        };
        if negate {
            !g
        } else {
            g
        }
    }

    /// Biconditional `a ⇔ b`.
    pub fn iff(&mut self, a: Lit, b: Lit) -> Lit {
        self.ite(a, b, !b)
    }

    /// Exclusive or.
    pub fn xor(&mut self, a: Lit, b: Lit) -> Lit {
        !self.iff(a, b)
    }

    /// Assert that a literal holds (top-level constraint).
    pub fn assert(&mut self, l: Lit) {
        self.solver.add_clause(&[l]);
    }

    /// Assert a raw clause (disjunction of literals).
    pub fn assert_clause(&mut self, lits: &[Lit]) {
        self.solver.add_clause(lits);
    }

    /// Solve the asserted constraints.
    pub fn solve(&mut self) -> SolveResult {
        let r = self.solver.solve();
        self.record_query();
        r
    }

    /// Solve under assumptions.
    pub fn solve_with(&mut self, assumptions: &[Lit]) -> SolveResult {
        let r = self.solver.solve_with(assumptions);
        self.record_query();
        r
    }

    /// Report the work done by the query that just finished.
    fn record_query(&mut self) {
        let now = self.solver.stats();
        if let Some(obs) = &self.obs {
            now.delta_since(&self.last_stats).record_query(
                obs,
                self.solver.num_vars(),
                self.solver.num_clauses(),
            );
        }
        self.last_stats = now;
    }

    /// Model value of a literal after a `Sat` answer.
    pub fn model_value(&self, l: Lit) -> bool {
        self.solver.model_value(l)
    }

    /// Borrow the underlying solver (stats, clause counts).
    pub fn solver(&self) -> &Solver {
        &self.solver
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exhaustively verify a 2-input gate against a reference function.
    fn check_gate2(
        build: impl Fn(&mut CircuitBuilder, Lit, Lit) -> Lit,
        reference: fn(bool, bool) -> bool,
    ) {
        for va in [false, true] {
            for vb in [false, true] {
                let mut c = CircuitBuilder::new();
                let a = c.input();
                let b = c.input();
                let g = build(&mut c, a, b);
                c.assert(Lit::new(a.var(), va));
                c.assert(Lit::new(b.var(), vb));
                assert_eq!(c.solve(), SolveResult::Sat);
                assert_eq!(c.model_value(g), reference(va, vb), "inputs {va} {vb}");
            }
        }
    }

    #[test]
    fn and_gate_truth_table() {
        check_gate2(|c, a, b| c.and(&[a, b]), |x, y| x && y);
    }

    #[test]
    fn or_gate_truth_table() {
        check_gate2(|c, a, b| c.or(&[a, b]), |x, y| x || y);
    }

    #[test]
    fn xor_and_iff_truth_tables() {
        check_gate2(CircuitBuilder::xor, |x, y| x != y);
        check_gate2(CircuitBuilder::iff, |x, y| x == y);
    }

    #[test]
    fn ite_truth_table() {
        for vc in [false, true] {
            for vt in [false, true] {
                for ve in [false, true] {
                    let mut cb = CircuitBuilder::new();
                    let c = cb.input();
                    let t = cb.input();
                    let e = cb.input();
                    let g = cb.ite(c, t, e);
                    cb.assert(Lit::new(c.var(), vc));
                    cb.assert(Lit::new(t.var(), vt));
                    cb.assert(Lit::new(e.var(), ve));
                    assert_eq!(cb.solve(), SolveResult::Sat);
                    assert_eq!(cb.model_value(g), if vc { vt } else { ve });
                }
            }
        }
    }

    #[test]
    fn constant_folding() {
        let mut c = CircuitBuilder::new();
        let a = c.input();
        let t = c.t();
        let f = c.f();
        assert_eq!(c.and(&[]), t);
        assert_eq!(c.and(&[t, t]), t);
        assert_eq!(c.and(&[a, t]), a);
        assert_eq!(c.and(&[a, f]), f);
        assert_eq!(c.and(&[a, !a]), f);
        assert_eq!(c.and(&[a, a]), a);
        assert_eq!(c.or(&[]), f);
        assert_eq!(c.or(&[a, t]), t);
        assert_eq!(c.or(&[a, f]), a);
        let x = c.ite(t, a, f);
        assert_eq!(x, a);
        let y = c.ite(a, t, f);
        assert_eq!(y, a); // c?true:false == c after folding through or/and
    }

    /// Three inputs, and every operand a gate can be handed over them:
    /// both polarities of each input and both constants.
    fn operands(c: &mut CircuitBuilder) -> ([Lit; 3], Vec<Lit>) {
        let ins = [c.input(), c.input(), c.input()];
        let mut ops = vec![c.t(), c.f()];
        for x in ins {
            ops.extend([x, !x]);
        }
        (ins, ops)
    }

    /// `ite`, `iff` and `xor` over every operand triple / pair — repeated,
    /// complemented and constant operands included — all built in one
    /// builder so that they share gates, under every input assignment.
    #[test]
    fn ite_iff_xor_exhaustive_over_polarities_and_repeats() {
        for bits in 0..8u32 {
            let mut cb = CircuitBuilder::new();
            let (ins, ops) = operands(&mut cb);
            let mut ites = Vec::new();
            let mut pairs = Vec::new();
            for &c in &ops {
                for &t in &ops {
                    pairs.push((c, t, cb.iff(c, t), cb.xor(c, t)));
                    for &e in &ops {
                        ites.push((c, t, e, cb.ite(c, t, e)));
                    }
                }
            }
            for (i, x) in ins.into_iter().enumerate() {
                cb.assert(Lit::new(x.var(), bits >> i & 1 == 1));
            }
            assert_eq!(cb.solve(), SolveResult::Sat);
            let v = |l: Lit| cb.model_value(l);
            for (c, t, e, g) in ites {
                assert_eq!(v(g), if v(c) { v(t) } else { v(e) }, "ite({c}, {t}, {e})");
            }
            for (a, b, same, differ) in pairs {
                assert_eq!(v(same), v(a) == v(b), "iff({a}, {b})");
                assert_eq!(v(differ), v(a) != v(b), "xor({a}, {b})");
            }
        }
    }

    /// Every spelling of one function is one literal, and asking again adds
    /// neither a variable nor a clause.
    #[test]
    fn equal_gates_are_the_same_literal() {
        let mut cb = CircuitBuilder::new();
        let xs: Vec<Lit> = (0..5).map(|_| cb.input()).collect();
        let (a, b, c) = (xs[0], xs[1], !xs[2]);

        let and = cb.and(&xs);
        let or = cb.or(&[a, b, c]);
        let and2 = cb.and(&[a, c]);
        let ite = cb.ite(a, b, c);
        let iff = cb.iff(b, c);
        let size = (cb.solver().num_vars(), cb.solver().num_clauses());

        let mut permuted = xs.clone();
        permuted.reverse();
        permuted.push(xs[3]);
        permuted.push(cb.t());
        assert_eq!(cb.and(&permuted), and);
        assert_eq!(cb.or(&[c, a, b, a]), or);
        assert_eq!(cb.and(&[!a, !b, !c]), !or);
        assert_eq!(cb.and(&[c, a]), and2);
        assert_eq!(cb.and(&[a, c, a]), and2);
        assert_eq!(cb.or(&[!c, !a]), !and2);

        assert_eq!(cb.ite(!a, c, b), ite);
        assert_eq!(cb.ite(a, !b, !c), !ite);
        assert_eq!(cb.ite(!a, !c, !b), !ite);

        assert_eq!(cb.iff(c, b), iff);
        assert_eq!(cb.iff(!b, !c), iff);
        assert_eq!(cb.iff(!c, b), !iff);
        assert_eq!(cb.xor(b, c), !iff);
        assert_eq!(cb.xor(!c, b), iff);
        assert_eq!(cb.ite(b, c, !c), iff);
        assert_eq!(cb.ite(c, b, !b), iff);

        let again = (cb.solver().num_vars(), cb.solver().num_clauses());
        assert_eq!(again, size, "a repeated gate allocated");
    }

    /// A branch that repeats the condition folds like a constant branch.
    #[test]
    fn ite_on_its_own_condition_folds() {
        let mut cb = CircuitBuilder::new();
        let (a, b) = (cb.input(), cb.input());
        assert_eq!(cb.ite(a, a, b), cb.or(&[a, b]));
        assert_eq!(cb.ite(a, !a, b), cb.and(&[!a, b]));
        assert_eq!(cb.ite(a, b, a), cb.and(&[a, b]));
        assert_eq!(cb.ite(a, b, !a), cb.or(&[!a, b]));
        assert_eq!(cb.iff(a, a), cb.t());
        assert_eq!(cb.iff(a, !a), cb.f());
        assert_eq!(cb.xor(a, a), cb.f());
    }

    #[test]
    fn wide_and_requires_all_inputs() {
        let mut c = CircuitBuilder::new();
        let inputs: Vec<Lit> = (0..16).map(|_| c.input()).collect();
        let g = c.and(&inputs);
        c.assert(g);
        assert_eq!(c.solve(), SolveResult::Sat);
        for &i in &inputs {
            assert!(c.model_value(i));
        }
        // Forcing one input low makes g unsat.
        c.assert(!inputs[7]);
        assert_eq!(c.solve(), SolveResult::Unsat);
    }

    #[test]
    fn assert_clause_works() {
        let mut c = CircuitBuilder::new();
        let a = c.input();
        let b = c.input();
        c.assert_clause(&[a, b]);
        c.assert(!a);
        assert_eq!(c.solve(), SolveResult::Sat);
        assert!(c.model_value(b));
    }

    #[test]
    fn equivalence_checking_pattern() {
        // (a ∧ b) ⇔ ¬(¬a ∨ ¬b) is a tautology: its negation is unsat.
        let mut c = CircuitBuilder::new();
        let a = c.input();
        let b = c.input();
        let lhs = c.and(&[a, b]);
        let rhs_inner = c.or(&[!a, !b]);
        let rhs = !rhs_inner;
        let eq = c.iff(lhs, rhs);
        c.assert(!eq);
        assert_eq!(c.solve(), SolveResult::Unsat);
    }
}
