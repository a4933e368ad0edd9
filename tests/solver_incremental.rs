//! Incremental CDCL ≡ from-scratch.
//!
//! A long-lived CDCL instance answering assumption-scoped queries — with
//! glucose-style clause-DB reduction forced to fire aggressively — returns
//! exactly the SAT/UNSAT verdicts a fresh solver would, on xorshift-random
//! CNF and random assumption sweeps, including re-asks of earlier
//! assumption sets after further search and reductions. This is the
//! contract `fix`'s minimal-change ascent relies on: it probes one bound
//! after another, by assumption, on one solver instance.

use jinjing_solver::cdcl::{SolveResult, Solver};
use jinjing_solver::lit::{Lit, Var};

/// xorshift64* — deterministic, dependency-free randomness.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> XorShift {
        XorShift(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn random_lit(rng: &mut XorShift, nvars: usize) -> Lit {
    Lit::new(Var(rng.below(nvars as u64) as u32), rng.below(2) == 0)
}

/// Random 3-CNF near the satisfiability threshold (ratio ~4.3): a mix of
/// satisfiable and unsatisfiable instances across seeds, hard enough that
/// search restarts (and therefore DB reductions) actually fire.
fn random_cnf(rng: &mut XorShift, nvars: usize) -> Vec<Vec<Lit>> {
    (0..nvars * 43 / 10)
        .map(|_| (0..3).map(|_| random_lit(rng, nvars)).collect())
        .collect()
}

/// From-scratch verdict: a fresh solver over the same clauses and the
/// same assumptions, no carried-over learned clauses or heuristic state.
fn scratch_solve(nvars: usize, clauses: &[Vec<Lit>], assumptions: &[Lit]) -> SolveResult {
    let mut s = Solver::new();
    for _ in 0..nvars {
        s.new_var();
    }
    for c in clauses {
        s.add_clause(c);
    }
    s.solve_with(assumptions)
}

#[test]
fn incremental_agrees_with_scratch_across_db_reductions() {
    let mut total_reductions = 0u64;
    for seed in 1..=16u64 {
        let mut rng = XorShift::new(seed);
        let nvars = 40 + rng.below(21) as usize;
        let clauses = random_cnf(&mut rng, nvars);

        // The long-lived instance: every learned clause immediately eligible
        // for reduction, so the DB is churned constantly while the
        // assumption sweeps run.
        let mut live = Solver::new();
        live.set_reduce_interval(1, 0);
        for _ in 0..nvars {
            live.new_var();
        }
        for c in &clauses {
            live.add_clause(c);
        }

        // Base solve before the assumption sweeps: restarts (and the
        // reductions hung off them) need ~64 conflicts within a single
        // solve call, which only the first full search reaches — later
        // sweeps ride on the learned clauses it leaves behind.
        assert_eq!(
            live.solve(),
            scratch_solve(nvars, &clauses, &[]),
            "seed {seed}: base solve diverged from scratch"
        );

        let mut history: Vec<(Vec<Lit>, SolveResult)> = Vec::new();
        for sweep in 0..12 {
            let mut assumptions: Vec<Lit> = (0..rng.below(4))
                .map(|_| random_lit(&mut rng, nvars))
                .collect();
            assumptions.sort();
            assumptions.dedup();
            let got = live.solve_with(&assumptions);
            let want = scratch_solve(nvars, &clauses, &assumptions);
            assert_eq!(
                got, want,
                "seed {seed} sweep {sweep}: diverged from scratch under {assumptions:?}"
            );
            if got == SolveResult::Sat {
                // The model must actually satisfy clauses and
                // assumptions — reductions must never delete reasons out
                // from under a model.
                for c in &clauses {
                    assert!(
                        c.iter().any(|&l| live.model_value(l)),
                        "seed {seed} sweep {sweep}: model falsifies a clause"
                    );
                }
                for &a in &assumptions {
                    assert!(
                        live.model_value(a),
                        "seed {seed} sweep {sweep}: model falsifies an assumption"
                    );
                }
            }
            history.push((assumptions, got));
            // Re-ask an earlier assumption set: later search and DB
            // reductions must not flip a recorded verdict.
            let (earlier, verdict) = &history[sweep / 2];
            assert_eq!(
                live.solve_with(earlier),
                *verdict,
                "seed {seed} sweep {sweep}: re-ask of {earlier:?} flipped"
            );
        }
        total_reductions += live.stats().db_reductions;
    }
    // The equivalence above is only meaningful if reduction actually ran:
    // with the trigger armed at every learned clause, the sweep must have
    // churned the clause DB somewhere across the seeds.
    assert!(
        total_reductions > 0,
        "no DB reduction fired across any seed — the sweep is not \
         exercising the reduction path"
    );
}
