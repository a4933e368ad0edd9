//! A conflict-driven clause-learning SAT solver.
//!
//! Feature set: two-watched-literal unit propagation, first-UIP conflict
//! analysis with clause learning and non-chronological backjumping,
//! VSIDS-style exponential variable activities with an indexed max-heap,
//! phase saving, Luby-sequence restarts, incremental clause addition
//! between solves, solving under assumptions, and glucose-style learned
//! clause-database reduction (LBD-tagged learned clauses, periodic
//! deletion of high-LBD/stale clauses with watched-literal compaction)
//! so long-lived instances stay healthy across thousands of queries.
//!
//! The solver exposes [`SolverStats`] — decisions, propagations, conflicts
//! and the maximum decision depth reached — because the paper's §9 argues
//! its optimizations in exactly these terms ("all optimizations in Jinjing
//! aim at reducing the recursive calls" of a DPLL-family solver). The
//! `encoding_ablation` bench reads these counters to reproduce that
//! discussion.

use crate::lit::{Lit, Var};

/// Sentinel for "no reason clause".
const NO_REASON: u32 = u32::MAX;

/// Result of a [`Solver::solve`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveResult {
    /// A satisfying assignment exists (read it via [`Solver::model_value`]).
    Sat,
    /// No satisfying assignment (under the given assumptions).
    Unsat,
}

/// Cumulative search statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Number of decision literals picked.
    pub decisions: u64,
    /// Number of literals enqueued by unit propagation.
    pub propagations: u64,
    /// Number of conflicts analyzed.
    pub conflicts: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Learned clauses added.
    pub learned: u64,
    /// Maximum decision level ever reached — the "search depth" of §9.
    pub max_depth: u64,
    /// Summed literal-block distance (LBD) over all learned clauses — the
    /// glucose quality measure; `lbd / learned` is the mean glue.
    pub lbd: u64,
    /// Learned clauses deleted by database reductions.
    pub deleted: u64,
    /// Clause-database reduction passes performed.
    pub db_reductions: u64,
}

impl SolverStats {
    /// Fold `other` into `self`: counters add (saturating), `max_depth`
    /// takes the high-water mark. This is the one sanctioned way to
    /// aggregate stats across solver instances — the per-class check loop
    /// and the fix loop use it.
    pub fn merge(&mut self, other: &SolverStats) {
        self.decisions = self.decisions.saturating_add(other.decisions);
        self.propagations = self.propagations.saturating_add(other.propagations);
        self.conflicts = self.conflicts.saturating_add(other.conflicts);
        self.restarts = self.restarts.saturating_add(other.restarts);
        self.learned = self.learned.saturating_add(other.learned);
        self.max_depth = self.max_depth.max(other.max_depth);
        self.lbd = self.lbd.saturating_add(other.lbd);
        self.deleted = self.deleted.saturating_add(other.deleted);
        self.db_reductions = self.db_reductions.saturating_add(other.db_reductions);
    }

    /// The work done since `earlier` was captured from the *same* solver.
    /// Counters subtract (the solver's stats are cumulative); `max_depth`
    /// passes through as the current high-water mark, since depth is not
    /// additive across queries.
    pub fn delta_since(&self, earlier: &SolverStats) -> SolverStats {
        SolverStats {
            decisions: self.decisions.saturating_sub(earlier.decisions),
            propagations: self.propagations.saturating_sub(earlier.propagations),
            conflicts: self.conflicts.saturating_sub(earlier.conflicts),
            restarts: self.restarts.saturating_sub(earlier.restarts),
            learned: self.learned.saturating_sub(earlier.learned),
            max_depth: self.max_depth,
            lbd: self.lbd.saturating_sub(earlier.lbd),
            deleted: self.deleted.saturating_sub(earlier.deleted),
            db_reductions: self.db_reductions.saturating_sub(earlier.db_reductions),
        }
    }

    /// Record this stats delta as one solver query in the observability
    /// collector: one sample per `solver.*` histogram plus the
    /// `solver.queries` counter. `vars`/`clauses` describe the instance
    /// size at query time.
    pub fn record_query(&self, obs: &jinjing_obs::Collector, vars: usize, clauses: usize) {
        obs.counter_add("solver.queries", 1);
        obs.histogram_record("solver.decisions", self.decisions);
        obs.histogram_record("solver.propagations", self.propagations);
        obs.histogram_record("solver.conflicts", self.conflicts);
        obs.histogram_record("solver.restarts", self.restarts);
        obs.histogram_record("solver.learned", self.learned);
        obs.histogram_record("solver.max_depth", self.max_depth);
        obs.histogram_record("solver.vars", vars as u64);
        obs.histogram_record("solver.clauses", clauses as u64);
        obs.histogram_record("solver.lbd", self.lbd);
        obs.counter_add("solver.clauses_deleted", self.deleted);
        obs.counter_add("solver.db_reductions", self.db_reductions);
    }

    /// Close a per-query flight-recorder span with this stats delta as
    /// its arguments, and drop `solver.*` counter samples on the span's
    /// track so trace viewers plot the conflict / restart /
    /// learned-clause timeline across queries. The aggregate-side twin
    /// of [`SolverStats::record_query`]; a no-op when the span's context
    /// is disabled.
    pub fn trace_query(&self, span: jinjing_obs::trace::TraceSpan, vars: usize, clauses: usize) {
        let ctx = span.ctx().clone();
        let tid = span.tid();
        if !ctx.enabled() {
            return;
        }
        span.end_with(&[
            ("clauses", clauses as u64),
            ("conflicts", self.conflicts),
            ("db_reductions", self.db_reductions),
            ("decisions", self.decisions),
            ("deleted", self.deleted),
            ("lbd", self.lbd),
            ("learned", self.learned),
            ("max_depth", self.max_depth),
            ("propagations", self.propagations),
            ("restarts", self.restarts),
            ("vars", vars as u64),
        ]);
        ctx.counter(tid, "solver.conflicts", self.conflicts);
        ctx.counter(tid, "solver.restarts", self.restarts);
        ctx.counter(tid, "solver.learned", self.learned);
    }
}

impl std::ops::AddAssign<SolverStats> for SolverStats {
    fn add_assign(&mut self, other: SolverStats) {
        self.merge(&other);
    }
}

impl std::ops::AddAssign<&SolverStats> for SolverStats {
    fn add_assign(&mut self, other: &SolverStats) {
        self.merge(other);
    }
}

#[derive(Debug)]
struct Clause {
    lits: Vec<Lit>,
    /// Learned (vs original) — only learned clauses are ever deleted.
    learnt: bool,
    /// Literal block distance at learn time (distinct decision levels).
    lbd: u32,
    /// Conflict count at the last use in conflict analysis (recency).
    used: u64,
}

/// Indexed max-heap over variable activities (MiniSat's `VarOrder`).
#[derive(Debug, Default)]
struct VarHeap {
    heap: Vec<Var>,
    /// var index -> position in `heap`, or usize::MAX when absent.
    pos: Vec<usize>,
}

impl VarHeap {
    fn grow(&mut self, n: usize) {
        self.pos.resize(n, usize::MAX);
    }

    fn contains(&self, v: Var) -> bool {
        self.pos[v.index()] != usize::MAX
    }

    fn insert(&mut self, v: Var, act: &[f64]) {
        if self.contains(v) {
            return;
        }
        self.pos[v.index()] = self.heap.len();
        self.heap.push(v);
        self.sift_up(self.heap.len() - 1, act);
    }

    fn pop_max(&mut self, act: &[f64]) -> Option<Var> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().unwrap();
        self.pos[top.index()] = usize::MAX;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last.index()] = 0;
            self.sift_down(0, act);
        }
        Some(top)
    }

    fn bumped(&mut self, v: Var, act: &[f64]) {
        let p = self.pos[v.index()];
        if p != usize::MAX {
            self.sift_up(p, act);
        }
    }

    fn sift_up(&mut self, mut i: usize, act: &[f64]) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if act[self.heap[i].index()] <= act[self.heap[parent].index()] {
                break;
            }
            self.swap(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize, act: &[f64]) {
        loop {
            let l = 2 * i + 1;
            let r = 2 * i + 2;
            let mut best = i;
            if l < self.heap.len() && act[self.heap[l].index()] > act[self.heap[best].index()] {
                best = l;
            }
            if r < self.heap.len() && act[self.heap[r].index()] > act[self.heap[best].index()] {
                best = r;
            }
            if best == i {
                break;
            }
            self.swap(i, best);
            i = best;
        }
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.pos[self.heap[a].index()] = a;
        self.pos[self.heap[b].index()] = b;
    }
}

/// The CDCL solver.
#[derive(Debug)]
pub struct Solver {
    clauses: Vec<Clause>,
    /// `watches[lit.code()]` = clause indices currently watching `lit`.
    watches: Vec<Vec<u32>>,
    /// Tri-state assignment per var: 0 = unassigned, 1 = true, -1 = false.
    assign: Vec<i8>,
    level: Vec<u32>,
    reason: Vec<u32>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    phase: Vec<bool>,
    order: VarHeap,
    /// False once an unconditional contradiction has been derived.
    ok: bool,
    /// Scratch for conflict analysis.
    seen: Vec<bool>,
    /// Assignment snapshot from the last `Sat` answer.
    model: Vec<i8>,
    stats: SolverStats,
    /// Learned clauses attached since the last database reduction.
    learnt_since_reduce: u64,
    /// Reduction trigger: reduce once `learnt_since_reduce` reaches this.
    reduce_interval: u64,
    /// Interval growth per reduction (glucose-style ramp).
    reduce_step: u64,
}

impl Default for Solver {
    fn default() -> Solver {
        Solver::new()
    }
}

impl Solver {
    /// Fresh, empty solver.
    pub fn new() -> Solver {
        Solver {
            clauses: Vec::new(),
            watches: Vec::new(),
            assign: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            phase: Vec::new(),
            order: VarHeap::default(),
            ok: true,
            seen: Vec::new(),
            model: Vec::new(),
            stats: SolverStats::default(),
            learnt_since_reduce: 0,
            reduce_interval: 2000,
            reduce_step: 500,
        }
    }

    /// Override the clause-DB reduction trigger: reduce after `first`
    /// learned clauses, then every `first + i·step`. The defaults (2000,
    /// +500) never fire on the small per-query instances of the check
    /// path; tests lower them to exercise reduction.
    pub fn set_reduce_interval(&mut self, first: u64, step: u64) {
        self.reduce_interval = first;
        self.reduce_step = step;
    }

    /// Allocate a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.assign.len() as u32);
        self.assign.push(0);
        self.level.push(0);
        self.reason.push(NO_REASON);
        self.activity.push(0.0);
        self.phase.push(false);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.order.grow(self.assign.len());
        self.order.insert(v, &self.activity);
        v
    }

    /// Number of variables allocated.
    pub fn num_vars(&self) -> usize {
        self.assign.len()
    }

    /// Number of clauses (original + learned).
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// Search statistics so far.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Current value of a literal under the partial assignment.
    fn lit_value(&self, l: Lit) -> i8 {
        let v = self.assign[l.var().index()];
        if l.is_positive() {
            v
        } else {
            -v
        }
    }

    /// Add a clause. Returns `false` if the formula is now trivially
    /// unsatisfiable. Must be called with the solver at decision level 0
    /// (i.e. between `solve` calls), which is enforced.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        assert_eq!(
            self.trail_lim.len(),
            0,
            "clauses may only be added at decision level 0"
        );
        if !self.ok {
            return false;
        }
        // Normalize: sort/dedup, drop root-false literals, detect
        // tautologies and root-satisfied clauses.
        let mut ls: Vec<Lit> = lits.to_vec();
        ls.sort();
        ls.dedup();
        let mut filtered = Vec::with_capacity(ls.len());
        for (i, &l) in ls.iter().enumerate() {
            if i + 1 < ls.len() && ls[i + 1] == !l {
                return true; // tautology: contains l and ¬l
            }
            match self.lit_value(l) {
                1 => return true, // already satisfied at root
                -1 => {}          // root-false: drop
                _ => filtered.push(l),
            }
        }
        match filtered.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.enqueue(filtered[0], NO_REASON);
                // Propagate immediately so later adds see implied values.
                if self.propagate().is_some() {
                    self.ok = false;
                }
                self.ok
            }
            _ => {
                self.attach_clause(filtered, false, 0);
                true
            }
        }
    }

    fn attach_clause(&mut self, lits: Vec<Lit>, learnt: bool, lbd: u32) -> u32 {
        let idx = self.clauses.len() as u32;
        self.watches[lits[0].code()].push(idx);
        self.watches[lits[1].code()].push(idx);
        let used = self.stats.conflicts;
        self.clauses.push(Clause {
            lits,
            learnt,
            lbd,
            used,
        });
        idx
    }

    /// Literal block distance of a (learnt) clause: the number of distinct
    /// decision levels among its literals, computed while those levels are
    /// still current (i.e. before backjumping).
    fn compute_lbd(&self, lits: &[Lit]) -> u32 {
        let mut levels: Vec<u32> = lits.iter().map(|l| self.level[l.var().index()]).collect();
        levels.sort_unstable();
        levels.dedup();
        levels.len() as u32
    }

    fn enqueue(&mut self, l: Lit, reason: u32) {
        debug_assert_eq!(self.lit_value(l), 0);
        let v = l.var();
        self.assign[v.index()] = if l.is_positive() { 1 } else { -1 };
        self.level[v.index()] = self.trail_lim.len() as u32;
        self.reason[v.index()] = reason;
        self.phase[v.index()] = l.is_positive();
        self.trail.push(l);
        self.stats.propagations += 1;
    }

    /// Unit propagation; returns the conflicting clause index on conflict.
    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            let false_lit = !p;
            // Take the watch list for the literal that just became false.
            let mut ws = std::mem::take(&mut self.watches[false_lit.code()]);
            let mut i = 0;
            while i < ws.len() {
                let ci = ws[i];
                let (w0, w1) = {
                    let c = &mut self.clauses[ci as usize];
                    // Ensure the false literal sits at position 1.
                    if c.lits[0] == false_lit {
                        c.lits.swap(0, 1);
                    }
                    (c.lits[0], c.lits[1])
                };
                debug_assert_eq!(w1, false_lit);
                if self.lit_value(w0) == 1 {
                    i += 1; // clause satisfied; keep watching
                    continue;
                }
                // Look for a replacement watch.
                let replacement = {
                    let c = &self.clauses[ci as usize];
                    c.lits[2..]
                        .iter()
                        .position(|&l| self.lit_value(l) != -1)
                        .map(|off| off + 2)
                };
                if let Some(k) = replacement {
                    let new_watch = {
                        let c = &mut self.clauses[ci as usize];
                        c.lits.swap(1, k);
                        c.lits[1]
                    };
                    self.watches[new_watch.code()].push(ci);
                    ws.swap_remove(i);
                    continue;
                }
                // Clause is unit or conflicting.
                if self.lit_value(w0) == -1 {
                    // Conflict: restore remaining watches and report.
                    self.watches[false_lit.code()].append(&mut ws);
                    self.qhead = self.trail.len();
                    return Some(ci);
                }
                self.enqueue(w0, ci);
                i += 1;
            }
            self.watches[false_lit.code()] = ws;
        }
        None
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn new_decision_level(&mut self) {
        self.trail_lim.push(self.trail.len());
        self.stats.max_depth = self.stats.max_depth.max(self.trail_lim.len() as u64);
    }

    /// Undo assignments above `target` decision level.
    fn backtrack_to(&mut self, target: u32) {
        if self.decision_level() <= target {
            return;
        }
        let bound = self.trail_lim[target as usize];
        for &l in &self.trail[bound..] {
            let v = l.var();
            self.assign[v.index()] = 0;
            self.reason[v.index()] = NO_REASON;
            self.order.insert(v, &self.activity);
        }
        self.trail.truncate(bound);
        self.trail_lim.truncate(target as usize);
        self.qhead = bound;
    }

    fn bump_var(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.order.bumped(v, &self.activity);
    }

    /// First-UIP conflict analysis. Returns (learnt clause, backjump level)
    /// with the asserting literal at index 0.
    fn analyze(&mut self, confl: u32) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = vec![Lit::positive(Var(0))]; // placeholder slot 0
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut clause = confl;
        let mut index = self.trail.len();
        let cur_level = self.decision_level();
        loop {
            {
                // Recency stamp: clauses driving conflicts are kept across
                // database reductions.
                let c = &mut self.clauses[clause as usize];
                if c.learnt {
                    c.used = self.stats.conflicts;
                }
            }
            let start = if p.is_none() { 0 } else { 1 };
            // Walk the literals of the reason clause (skipping the
            // propagated literal itself at slot 0 when applicable).
            let lits: Vec<Lit> = self.clauses[clause as usize].lits[start..].to_vec();
            for q in lits {
                let v = q.var();
                if self.seen[v.index()] || self.level[v.index()] == 0 {
                    continue;
                }
                self.seen[v.index()] = true;
                self.bump_var(v);
                if self.level[v.index()] == cur_level {
                    counter += 1;
                } else {
                    learnt.push(q);
                }
            }
            // Select the next trail literal (at the current level) to expand.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let uip = self.trail[index];
            self.seen[uip.var().index()] = false;
            counter -= 1;
            if counter == 0 {
                learnt[0] = !uip;
                break;
            }
            p = Some(uip);
            clause = self.reason[uip.var().index()];
            debug_assert_ne!(clause, NO_REASON);
        }
        // Clear `seen` for the kept literals.
        for &l in &learnt[1..] {
            self.seen[l.var().index()] = false;
        }
        // Backjump level = highest level among non-asserting literals.
        let mut bt = 0u32;
        let mut max_i = 1usize;
        for (i, &l) in learnt.iter().enumerate().skip(1) {
            let lv = self.level[l.var().index()];
            if lv > bt {
                bt = lv;
                max_i = i;
            }
        }
        if learnt.len() > 1 {
            learnt.swap(1, max_i); // watch a highest-level literal
        }
        (learnt, bt)
    }

    /// Pick the next branching variable (highest activity, saved phase).
    fn pick_branch(&mut self) -> Option<Lit> {
        while let Some(v) = self.order.pop_max(&self.activity) {
            if self.assign[v.index()] == 0 {
                return Some(Lit::new(v, self.phase[v.index()]));
            }
        }
        None
    }

    /// Solve the current formula with no assumptions.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_with(&[])
    }

    /// Solve under assumptions. On `Sat`, the model is available via
    /// [`Solver::model_value`]; afterwards the solver backtracks to level 0
    /// and can accept more clauses or another `solve` call.
    pub fn solve_with(&mut self, assumptions: &[Lit]) -> SolveResult {
        if !self.ok {
            return SolveResult::Unsat;
        }
        if self.propagate().is_some() {
            self.ok = false;
            return SolveResult::Unsat;
        }
        let mut conflicts_since_restart = 0u64;
        let mut restart_budget = luby(self.stats.restarts) * 64;
        let result = 'search: loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_since_restart += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    break 'search SolveResult::Unsat;
                }
                // A conflict while assumption decisions are still on the
                // trail: analyze normally; if the backjump would strip an
                // assumption we simply re-assume on the way back down.
                let (learnt, bt) = self.analyze(confl);
                let lbd = self.compute_lbd(&learnt);
                self.backtrack_to(bt);
                let asserting = learnt[0];
                if learnt.len() == 1 {
                    self.enqueue(asserting, NO_REASON);
                } else {
                    let ci = self.attach_clause(learnt, true, lbd);
                    self.enqueue(asserting, ci);
                    self.learnt_since_reduce += 1;
                }
                self.stats.learned += 1;
                self.stats.lbd += u64::from(lbd);
                self.var_inc /= 0.95;
                continue;
            }
            if conflicts_since_restart >= restart_budget
                && self.decision_level() as usize > assumptions.len()
            {
                self.stats.restarts += 1;
                conflicts_since_restart = 0;
                restart_budget = luby(self.stats.restarts) * 64;
                self.backtrack_to(assumptions.len() as u32);
                if self.learnt_since_reduce >= self.reduce_interval {
                    // Reduce at the restart point, from the root: any
                    // assumption levels are rebuilt by the loop below and
                    // the rescan after the watch rebuild.
                    self.backtrack_to(0);
                    self.reduce_db();
                }
                continue;
            }
            // Establish pending assumptions first.
            if (self.decision_level() as usize) < assumptions.len() {
                let a = assumptions[self.decision_level() as usize];
                match self.lit_value(a) {
                    1 => {
                        // Already implied: open an (empty) level for it so
                        // the indexing stays aligned.
                        self.new_decision_level();
                    }
                    -1 => break 'search SolveResult::Unsat,
                    _ => {
                        self.new_decision_level();
                        self.stats.decisions += 1;
                        self.enqueue(a, NO_REASON);
                    }
                }
                continue;
            }
            match self.pick_branch() {
                None => break 'search SolveResult::Sat,
                Some(l) => {
                    self.new_decision_level();
                    self.stats.decisions += 1;
                    self.enqueue(l, NO_REASON);
                }
            }
        };
        if result == SolveResult::Sat {
            self.snapshot_model();
        }
        self.backtrack_to(0);
        result
    }

    /// Glucose-style learned-clause database reduction. Must run at
    /// decision level 0. Keeps every original clause, every *locked*
    /// clause (the reason of a currently assigned variable — deleting one
    /// would orphan conflict analysis), and every glue clause (LBD ≤ 2);
    /// of the remaining learned clauses the worse half — highest LBD,
    /// then least recently used — is deleted. The clause arena is
    /// compacted with an index remap (watches and reasons hold raw
    /// indices) and every watch list is rebuilt from scratch, which is
    /// also the watched-literal compaction: deletion leaves no dangling
    /// watch entries behind.
    fn reduce_db(&mut self) {
        debug_assert_eq!(self.decision_level(), 0, "reduce only at the root");
        self.stats.db_reductions += 1;
        self.learnt_since_reduce = 0;
        self.reduce_interval += self.reduce_step;
        let mut locked = vec![false; self.clauses.len()];
        for &l in &self.trail {
            let r = self.reason[l.var().index()];
            if r != NO_REASON {
                locked[r as usize] = true;
            }
        }
        let mut cands: Vec<u32> = (0..self.clauses.len() as u32)
            .filter(|&i| {
                let c = &self.clauses[i as usize];
                c.learnt && !locked[i as usize] && c.lbd > 2
            })
            .collect();
        // Worst first: highest LBD, then oldest use, then index — a total,
        // deterministic order.
        cands.sort_by_key(|&i| {
            let c = &self.clauses[i as usize];
            (std::cmp::Reverse(c.lbd), c.used, i)
        });
        let drop_n = cands.len() / 2;
        let mut delete = vec![false; self.clauses.len()];
        for &i in &cands[..drop_n] {
            delete[i as usize] = true;
        }
        // Compact the arena, recording the old → new index remap.
        let mut remap = vec![NO_REASON; self.clauses.len()];
        let mut kept = Vec::with_capacity(self.clauses.len() - drop_n);
        for (old, c) in std::mem::take(&mut self.clauses).into_iter().enumerate() {
            if delete[old] {
                continue;
            }
            remap[old] = kept.len() as u32;
            kept.push(c);
        }
        self.clauses = kept;
        // Only assigned variables carry live reasons (backtracking clears
        // them), and locked clauses were kept, so every remap hit exists.
        for &l in &self.trail {
            let r = &mut self.reason[l.var().index()];
            if *r != NO_REASON {
                *r = remap[*r as usize];
            }
        }
        for w in &mut self.watches {
            w.clear();
        }
        for i in 0..self.clauses.len() {
            let (w0, w1) = (self.clauses[i].lits[0], self.clauses[i].lits[1]);
            self.watches[w0.code()].push(i as u32);
            self.watches[w1.code()].push(i as u32);
        }
        // Rescan the root trail: rebuilt watch pairs may sit on false
        // literals, so deferred propagations must be re-derived.
        self.qhead = 0;
        self.stats.deleted += drop_n as u64;
    }

    fn snapshot_model(&mut self) {
        self.model = self.assign.clone();
    }

    /// Value of a literal in the model of the last `Sat` answer.
    /// Unconstrained variables read as `false`.
    pub fn model_value(&self, l: Lit) -> bool {
        let v = self.model.get(l.var().index()).copied().unwrap_or(0);
        if l.is_positive() {
            v == 1
        } else {
            v != 1
        }
    }
}

/// Luby restart sequence (0-indexed): 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 …
fn luby(x: u64) -> u64 {
    let (mut size, mut seq) = (1u64, 0u32);
    while size < x + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    let mut x = x;
    while size - 1 != x {
        size = (size - 1) / 2;
        seq -= 1;
        x %= size;
    }
    1u64 << seq
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(solver_vars: &[Var], spec: &[i32]) -> Vec<Lit> {
        spec.iter()
            .map(|&s| {
                let v = solver_vars[(s.unsigned_abs() - 1) as usize];
                Lit::new(v, s > 0)
            })
            .collect()
    }

    /// Brute-force SAT check over all 2^n assignments (n small).
    fn brute_force(n: usize, clauses: &[Vec<i32>]) -> bool {
        'outer: for bits in 0u64..(1 << n) {
            for c in clauses {
                let ok = c.iter().any(|&s| {
                    let val = (bits >> (s.unsigned_abs() - 1)) & 1 == 1;
                    if s > 0 {
                        val
                    } else {
                        !val
                    }
                });
                if !ok {
                    continue 'outer;
                }
            }
            return true;
        }
        false
    }

    fn solve_spec(n: usize, clauses: &[Vec<i32>]) -> SolveResult {
        let mut s = Solver::new();
        let vars: Vec<Var> = (0..n).map(|_| s.new_var()).collect();
        for c in clauses {
            s.add_clause(&lits(&vars, c));
        }
        let r = s.solve();
        if r == SolveResult::Sat {
            // Model must satisfy every clause.
            for c in clauses {
                assert!(
                    c.iter().any(|&spec| {
                        let l = lits(&vars, &[spec])[0];
                        s.model_value(l)
                    }),
                    "model violates clause {c:?}"
                );
            }
        }
        r
    }

    #[test]
    fn trivial_sat_and_unsat() {
        assert_eq!(solve_spec(1, &[vec![1]]), SolveResult::Sat);
        assert_eq!(solve_spec(1, &[vec![1], vec![-1]]), SolveResult::Unsat);
        assert_eq!(solve_spec(0, &[]), SolveResult::Sat);
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = Solver::new();
        let _ = s.new_var();
        assert!(!s.add_clause(&[]));
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn unit_propagation_chain() {
        // x1, x1→x2, x2→x3, x3→¬x1 is unsat.
        let cls = vec![vec![1], vec![-1, 2], vec![-2, 3], vec![-3, -1]];
        assert_eq!(solve_spec(3, &cls), SolveResult::Unsat);
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        // p_{i,j}: pigeon i in hole j. vars 1..6 = (i,j) for i in 0..3, j in 0..2.
        let v = |i: i32, j: i32| i * 2 + j + 1;
        let mut cls = Vec::new();
        for i in 0..3 {
            cls.push(vec![v(i, 0), v(i, 1)]);
        }
        for j in 0..2 {
            for a in 0..3 {
                for b in (a + 1)..3 {
                    cls.push(vec![-v(a, j), -v(b, j)]);
                }
            }
        }
        assert_eq!(solve_spec(6, &cls), SolveResult::Unsat);
    }

    #[test]
    fn random_3sat_agrees_with_brute_force() {
        // Deterministic xorshift so the test is reproducible.
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..60 {
            let n = 4 + (next() % 6) as usize; // 4..9 vars
            let m = n * 4; // near the hard ratio
            let mut clauses = Vec::with_capacity(m);
            for _ in 0..m {
                let mut c = Vec::new();
                for _ in 0..3 {
                    let var = (next() % n as u64) as i32 + 1;
                    let sign = if next() % 2 == 0 { 1 } else { -1 };
                    c.push(var * sign);
                }
                clauses.push(c);
            }
            let expected = brute_force(n, &clauses);
            let got = solve_spec(n, &clauses) == SolveResult::Sat;
            assert_eq!(got, expected, "round {round}: n={n} clauses={clauses:?}");
        }
    }

    #[test]
    fn assumptions_restrict_and_release() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[a.lit(), b.lit()]); // a ∨ b
        assert_eq!(s.solve_with(&[!a.lit(), !b.lit()]), SolveResult::Unsat);
        // Assumptions do not persist.
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.solve_with(&[!a.lit()]), SolveResult::Sat);
        assert!(s.model_value(b.lit()));
    }

    #[test]
    fn incremental_clause_addition() {
        let mut s = Solver::new();
        let vars: Vec<Var> = (0..4).map(|_| s.new_var()).collect();
        s.add_clause(&lits(&vars, &[1, 2]));
        assert_eq!(s.solve(), SolveResult::Sat);
        s.add_clause(&lits(&vars, &[-1]));
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(s.model_value(vars[1].lit()));
        s.add_clause(&lits(&vars, &[-2]));
        assert_eq!(s.solve(), SolveResult::Unsat);
        // Once root-level unsat, it stays unsat.
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn blocking_clause_enumeration() {
        // Enumerate all 4 models of (a ∨ b) ∧ (¬a ∨ ¬b) ... actually 2.
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[a.lit(), b.lit()]);
        s.add_clause(&[!a.lit(), !b.lit()]);
        let mut models = Vec::new();
        while s.solve() == SolveResult::Sat {
            let ma = s.model_value(a.lit());
            let mb = s.model_value(b.lit());
            models.push((ma, mb));
            s.add_clause(&[Lit::new(a, !ma), Lit::new(b, !mb)]);
        }
        models.sort();
        assert_eq!(models, vec![(false, true), (true, false)]);
    }

    #[test]
    fn tautology_and_duplicate_literals_are_handled() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        assert!(s.add_clause(&[a.lit(), !a.lit()])); // tautology: ignored
        assert!(s.add_clause(&[b.lit(), b.lit(), b.lit()])); // dedup to unit
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(s.model_value(b.lit()));
    }

    #[test]
    fn stats_accumulate() {
        let mut s = Solver::new();
        let vars: Vec<Var> = (0..8).map(|_| s.new_var()).collect();
        for i in 0..7 {
            s.add_clause(&[!vars[i].lit(), vars[i + 1].lit()]);
        }
        s.add_clause(&[vars[0].lit()]);
        assert_eq!(s.solve(), SolveResult::Sat);
        let st = s.stats();
        assert!(st.propagations >= 8, "chain should propagate, got {st:?}");
    }

    #[test]
    fn luby_sequence_prefix() {
        let expect = [1u64, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        for (i, &e) in expect.iter().enumerate() {
            assert_eq!(luby(i as u64), e, "luby({i})");
        }
    }

    /// Pigeonhole clauses: `pigeons` into `holes` (unsat when p > h).
    fn pigeonhole(pigeons: usize, holes: usize) -> (usize, Vec<Vec<i32>>) {
        let v = |i: usize, j: usize| (i * holes + j + 1) as i32;
        let mut cls = Vec::new();
        for i in 0..pigeons {
            cls.push((0..holes).map(|j| v(i, j)).collect());
        }
        for j in 0..holes {
            for a in 0..pigeons {
                for b in (a + 1)..pigeons {
                    cls.push(vec![-v(a, j), -v(b, j)]);
                }
            }
        }
        (pigeons * holes, cls)
    }

    #[test]
    fn db_reduction_fires_and_preserves_unsat() {
        let (n, cls) = pigeonhole(7, 6);
        let mut s = Solver::new();
        s.set_reduce_interval(20, 10);
        let vars: Vec<Var> = (0..n).map(|_| s.new_var()).collect();
        for c in &cls {
            s.add_clause(&lits(&vars, c));
        }
        assert_eq!(s.solve(), SolveResult::Unsat);
        let st = s.stats();
        assert!(st.db_reductions > 0, "reduction must fire: {st:?}");
        assert!(st.deleted > 0, "clauses must be deleted: {st:?}");
        assert!(st.learned > 0 && st.lbd >= st.learned, "lbd ≥ 1 per clause");
    }

    #[test]
    fn db_reduction_agrees_with_brute_force() {
        // Aggressive trigger (reduce at every restart) over random 3-SAT;
        // deletion must never flip an answer or corrupt a model.
        let mut state = 0xfeed_f00d_dead_beefu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..40 {
            let n = 5 + (next() % 5) as usize; // 5..9 vars
            let m = n * 5;
            let mut clauses = Vec::with_capacity(m);
            for _ in 0..m {
                let mut c = Vec::new();
                for _ in 0..3 {
                    let var = (next() % n as u64) as i32 + 1;
                    let sign = if next() % 2 == 0 { 1 } else { -1 };
                    c.push(var * sign);
                }
                clauses.push(c);
            }
            let expected = brute_force(n, &clauses);
            let mut s = Solver::new();
            s.set_reduce_interval(1, 0);
            let vars: Vec<Var> = (0..n).map(|_| s.new_var()).collect();
            for c in &clauses {
                s.add_clause(&lits(&vars, c));
            }
            let r = s.solve();
            assert_eq!(r == SolveResult::Sat, expected, "round {round}");
            if r == SolveResult::Sat {
                for c in &clauses {
                    assert!(
                        c.iter().any(|&spec| s.model_value(lits(&vars, &[spec])[0])),
                        "round {round}: model violates {c:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn db_reduction_keeps_incremental_solving_sound() {
        // Reduce hard during an unsat proof, then keep using the same
        // instance incrementally: assumptions and later clause additions
        // must still behave.
        let (n, cls) = pigeonhole(7, 6);
        let mut s = Solver::new();
        s.set_reduce_interval(10, 0);
        let vars: Vec<Var> = (0..n).map(|_| s.new_var()).collect();
        // Leave out the last pigeon's hole clause so the instance is sat.
        for c in &cls[1..] {
            s.add_clause(&lits(&vars, c));
        }
        assert_eq!(s.solve(), SolveResult::Sat);
        // Assume the missing clause's literals all false: still sat
        // (pigeon 0 simply goes unplaced).
        let assume: Vec<Lit> = lits(&vars, &cls[0]).iter().map(|&l| !l).collect();
        assert_eq!(s.solve_with(&assume), SolveResult::Sat);
        // Re-adding the clause restores full PHP(7,6): unsat.
        s.add_clause(&lits(&vars, &cls[0]));
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(s.stats().db_reductions > 0, "{:?}", s.stats());
    }

    #[test]
    fn stats_new_fields_merge_and_delta() {
        let a = SolverStats {
            learned: 10,
            lbd: 25,
            deleted: 4,
            db_reductions: 1,
            ..SolverStats::default()
        };
        let b = SolverStats {
            learned: 2,
            lbd: 3,
            deleted: 1,
            db_reductions: 1,
            ..SolverStats::default()
        };
        let mut m = a;
        m.merge(&b);
        assert_eq!((m.lbd, m.deleted, m.db_reductions), (28, 5, 2));
        let d = m.delta_since(&a);
        assert_eq!((d.lbd, d.deleted, d.db_reductions), (3, 1, 1));
    }

    #[test]
    fn xor_chain_unsat() {
        // x1 ⊕ x2 = 1, x2 ⊕ x3 = 1, x1 ⊕ x3 = 1 is unsat (parity).
        let xor1 = |a: i32, b: i32| vec![vec![a, b], vec![-a, -b]];
        let mut cls = Vec::new();
        cls.extend(xor1(1, 2));
        cls.extend(xor1(2, 3));
        cls.extend(xor1(1, 3));
        assert_eq!(solve_spec(3, &cls), SolveResult::Unsat);
    }
}
