//! Cross-tenant conflict analysis (JL3xx): a multi-program static pass
//! over many concurrent LAI intents sharing one network.
//!
//! The single-program layers assume one operator at a time; in a
//! multi-tenant deployment independently-authored intents can each verify
//! in isolation and still fight each other the moment both are pushed.
//! This module takes a set of `(tenant, program)` pairs and statically
//! certifies — with the same tree encoding + CDCL solver the rule layer
//! uses — that the tenants do not contest any flow space:
//!
//! - **JL301** (warning, solver-certified): two tenants request *opposite*
//!   reachability (`isolate` vs `open`) for overlapping endpoint patterns
//!   and intersecting traffic regions. The solver independently re-proves
//!   the overlap on the header encoding and every finding carries a
//!   concrete **witness packet** — one both intents classify differently —
//!   plus the pair of source spans (`tenant:control:index` on each side).
//! - **JL302** (note): cross-tenant subsumption/shadowing — one tenant's
//!   clause repeats (or is entirely covered by) another tenant's clause
//!   with the same verb.
//! - **JL303** (note): priority-resolution previews. Given a tenant
//!   priority order, each contested region reports which tenant's intent
//!   wins, and a summary note states whether the merge is *total* (every
//!   contested region resolved).
//! - **JL304** (warning): a contested region between tenants with no
//!   relative priority — the merged policy is ambiguous there and the
//!   merge is not total.
//!
//! Determinism contract: tenants are analysed in name order (input order
//! is irrelevant), solver certification fans out over
//! [`jinjing_par::Pool`] with input-order folding, and the emitted report
//! is byte-identical at every thread count.

use crate::diag::{record, Certainty, Diagnostic, LintReport, Severity};
use crate::intent::{control_summary, header_set, pats_cover, pats_overlap, verbs_conflict};
use crate::LintConfig;
use jinjing_acl::{Packet, PacketSet};
use jinjing_lai::{ControlVerb, Program};
use jinjing_par::Pool;
use jinjing_solver::{CircuitBuilder, HeaderVars, SolveResult};

/// One tenant's intent: a name (unique per run) and its validated LAI
/// program.
#[derive(Debug, Clone)]
pub struct TenantIntent {
    /// Tenant name, used for attribution, spans, and priority resolution.
    pub tenant: String,
    /// The tenant's validated program.
    pub program: Program,
}

impl TenantIntent {
    /// Bundle a tenant name with its program.
    pub fn new(tenant: impl Into<String>, program: Program) -> TenantIntent {
        TenantIntent {
            tenant: tenant.into(),
            program,
        }
    }
}

/// A certified cross-tenant contradiction: two control statements from
/// different tenants requesting opposite reachability on an overlapping
/// flow space. Tenant `a` always sorts before tenant `b` by name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Conflict {
    /// First tenant (lexicographically smaller name).
    pub tenant_a: String,
    /// Index of the conflicting control statement in tenant `a`'s program.
    pub stmt_a: usize,
    /// Tenant `a`'s verb on the contested region.
    pub verb_a: ControlVerb,
    /// Second tenant.
    pub tenant_b: String,
    /// Index of the conflicting control statement in tenant `b`'s program.
    pub stmt_b: usize,
    /// Tenant `b`'s verb on the contested region.
    pub verb_b: ControlVerb,
    /// The contested flow space (intersection of both traffic regions).
    pub region: PacketSet,
    /// A concrete packet inside the contested region — one the two intents
    /// classify differently (`verb_a` vs `verb_b`).
    pub witness: Packet,
    /// `true` when the CDCL solver re-proved the overlap on the header
    /// encoding (and decoded [`Conflict::witness`] from its model);
    /// `false` when the witness came from the set algebra only.
    pub certified: bool,
}

impl Conflict {
    /// Tenant `a`'s source span, `tenant:control:index`.
    pub fn span_a(&self) -> String {
        format!("{}:control:{}", self.tenant_a, self.stmt_a)
    }

    /// Tenant `b`'s source span, `tenant:control:index`.
    pub fn span_b(&self) -> String {
        format!("{}:control:{}", self.tenant_b, self.stmt_b)
    }

    /// The diagnostic location carrying both source spans.
    pub fn location(&self) -> String {
        format!("multi:{}<->{}", self.span_a(), self.span_b())
    }
}

/// Indices into `tenants`, sorted by tenant name so the analysis (and its
/// output) does not depend on input order.
fn name_order(tenants: &[TenantIntent]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..tenants.len()).collect();
    order.sort_by(|&x, &y| {
        tenants[x]
            .tenant
            .cmp(&tenants[y].tenant)
            .then_with(|| x.cmp(&y))
    });
    order
}

/// Ask the CDCL solver to independently prove the two traffic regions
/// overlap: assert membership in *both* (not in their pre-computed
/// intersection), solve, and decode the model into a witness packet.
fn certify_overlap(a: &PacketSet, b: &PacketSet, obs: &jinjing_obs::Collector) -> Option<Packet> {
    let _span = obs.span("lint.multi.certify");
    let mut c = CircuitBuilder::new();
    c.set_obs(obs.clone());
    let h = HeaderVars::new(&mut c);
    let in_a = h.in_set(&mut c, a);
    let in_b = h.in_set(&mut c, b);
    c.assert(in_a);
    c.assert(in_b);
    match c.solve() {
        SolveResult::Sat => Some(h.decode(&c)),
        _ => None,
    }
}

/// Find every cross-tenant contradiction: for each pair of tenants (in
/// name order) and each pair of their control statements, a conflict is a
/// pair with opposite verbs (`isolate` vs `open`), overlapping endpoint
/// patterns on both sides, and intersecting traffic regions. With
/// [`LintConfig::solver_confirm`] the overlap is re-proved by the solver
/// (fanned out over [`LintConfig::threads`] workers, deterministically);
/// otherwise the witness is sampled from the set algebra. Either way every
/// returned conflict carries a witness packet.
pub fn cross_conflicts(tenants: &[TenantIntent], cfg: &LintConfig) -> Vec<Conflict> {
    let span = cfg.obs.span("lint.multi.conflicts");
    let order = name_order(tenants);
    // Candidate generation is pure set algebra — cheap and serial.
    struct Cand {
        a: usize,
        sa: usize,
        b: usize,
        sb: usize,
        set_a: PacketSet,
        set_b: PacketSet,
    }
    let mut cands: Vec<Cand> = Vec::new();
    let mut pairs = 0u64;
    for (xi, &x) in order.iter().enumerate() {
        for &y in &order[xi + 1..] {
            let (ta, tb) = (&tenants[x], &tenants[y]);
            for (i, ca) in ta.program.controls.iter().enumerate() {
                for (j, cb) in tb.program.controls.iter().enumerate() {
                    pairs += 1;
                    if !verbs_conflict(ca.verb, cb.verb) {
                        continue;
                    }
                    if !(pats_overlap(&ca.from, &cb.from) && pats_overlap(&ca.to, &cb.to)) {
                        continue;
                    }
                    let set_a = header_set(&ca.header);
                    let set_b = header_set(&cb.header);
                    if !set_a.intersects(&set_b) {
                        continue;
                    }
                    cands.push(Cand {
                        a: x,
                        sa: i,
                        b: y,
                        sb: j,
                        set_a,
                        set_b,
                    });
                }
            }
        }
    }
    cfg.obs.counter_add("lint.multi.stmt_pairs", pairs);
    // Certification is solver work — fan it out. par_map folds results in
    // input order, so the conflict list (and everything derived from it)
    // is identical at every thread count.
    let pool = Pool::new(cfg.threads);
    let witnesses: Vec<Option<(Packet, bool)>> = pool.par_map(&cands, |_i, cand| {
        if cfg.solver_confirm {
            certify_overlap(&cand.set_a, &cand.set_b, &cfg.obs).map(|w| (w, true))
        } else {
            cand.set_a
                .intersect(&cand.set_b)
                .sample()
                .map(|w| (w, false))
        }
    });
    let mut out = Vec::with_capacity(cands.len());
    for (cand, w) in cands.iter().zip(witnesses) {
        // A candidate the solver cannot realize is dropped (defensive: the
        // set algebra already proved the intersection non-empty).
        let Some((witness, certified)) = w else {
            continue;
        };
        let (ta, tb) = (&tenants[cand.a], &tenants[cand.b]);
        out.push(Conflict {
            tenant_a: ta.tenant.clone(),
            stmt_a: cand.sa,
            verb_a: ta.program.controls[cand.sa].verb,
            tenant_b: tb.tenant.clone(),
            stmt_b: cand.sb,
            verb_b: tb.program.controls[cand.sb].verb,
            region: cand.set_a.intersect(&cand.set_b),
            witness,
            certified,
        });
    }
    span.finish();
    out
}

/// Past-tense verb for witness prose ("isolated by `alpha`").
fn verb_past(v: ControlVerb) -> &'static str {
    match v {
        ControlVerb::Isolate => "isolated",
        ControlVerb::Open => "opened",
        ControlVerb::Maintain => "maintained",
    }
}

/// Lint a set of tenant intents against each other.
///
/// Emits the JL301–JL304 family described in the module docs. `priority`
/// is the tenant priority order (earlier wins); an empty slice means no
/// order was given, so every contested region is unresolved. The caller
/// is responsible for per-tenant single-program lint
/// ([`crate::lint_program`]) — this pass only reports *cross*-tenant
/// findings.
pub fn lint_multi(tenants: &[TenantIntent], priority: &[String], cfg: &LintConfig) -> LintReport {
    let span = cfg.obs.span("lint.multi");
    let mut report = LintReport::new();
    cfg.obs
        .counter_add("lint.multi.tenants", tenants.len() as u64);
    let order = name_order(tenants);

    // JL302: cross-tenant subsumption / duplication, same verb only.
    for (xi, &x) in order.iter().enumerate() {
        for &y in &order[xi + 1..] {
            let (ta, tb) = (&tenants[x], &tenants[y]);
            for (i, ca) in ta.program.controls.iter().enumerate() {
                for (j, cb) in tb.program.controls.iter().enumerate() {
                    if ca.verb != cb.verb {
                        continue;
                    }
                    let a_covers_b = pats_cover(&ca.from, &cb.from)
                        && pats_cover(&ca.to, &cb.to)
                        && header_set(&cb.header).is_subset(&header_set(&ca.header));
                    let b_covers_a = pats_cover(&cb.from, &ca.from)
                        && pats_cover(&cb.to, &ca.to)
                        && header_set(&ca.header).is_subset(&header_set(&cb.header));
                    let loc = format!(
                        "multi:{}:control:{i}<->{}:control:{j}",
                        ta.tenant, tb.tenant
                    );
                    let d = if a_covers_b && b_covers_a {
                        Diagnostic::new(
                            "JL302",
                            Severity::Note,
                            loc,
                            format!(
                                "tenants `{}` and `{}` declare duplicate controls: {i} `{}` and {j} `{}` are equivalent",
                                ta.tenant,
                                tb.tenant,
                                control_summary(ca),
                                control_summary(cb)
                            ),
                        )
                        .with_tenant(format!("{},{}", ta.tenant, tb.tenant))
                        .with_suggestion("move the shared policy into one tenant's intent")
                    } else if a_covers_b {
                        Diagnostic::new(
                            "JL302",
                            Severity::Note,
                            loc,
                            format!(
                                "tenant `{}` control {j} `{}` is subsumed by tenant `{}` control {i} `{}`",
                                tb.tenant,
                                control_summary(cb),
                                ta.tenant,
                                control_summary(ca)
                            ),
                        )
                        .with_tenant(tb.tenant.clone())
                        .with_suggestion("delete the narrower statement or narrow the wider one")
                    } else if b_covers_a {
                        Diagnostic::new(
                            "JL302",
                            Severity::Note,
                            loc,
                            format!(
                                "tenant `{}` control {i} `{}` is subsumed by tenant `{}` control {j} `{}`",
                                ta.tenant,
                                control_summary(ca),
                                tb.tenant,
                                control_summary(cb)
                            ),
                        )
                        .with_tenant(ta.tenant.clone())
                        .with_suggestion("delete the narrower statement or narrow the wider one")
                    } else {
                        continue;
                    };
                    cfg.obs.counter_add("lint.multi.subsumed", 1);
                    record(&cfg.obs, &d);
                    report.push(d);
                }
            }
        }
    }

    // JL301 + the JL303/JL304 priority preview.
    let conflicts = cross_conflicts(tenants, cfg);
    cfg.obs
        .counter_add("lint.multi.conflicts", conflicts.len() as u64);
    let rank = |t: &str| priority.iter().position(|p| p == t);
    let (mut resolved, mut unresolved) = (0u64, 0u64);
    for c in &conflicts {
        let d = Diagnostic::new(
            "JL301",
            Severity::Warning,
            c.location(),
            format!(
                "tenant `{}` control {} `{}` and tenant `{}` control {} `{}` request opposite \
                 reachability on an overlapping flow space ({} packet(s) contested); witness \
                 packet {} is {} by `{}` but {} by `{}`",
                c.tenant_a,
                c.stmt_a,
                control_summary(&tenants[order_index(tenants, &c.tenant_a)].program.controls[c.stmt_a]),
                c.tenant_b,
                c.stmt_b,
                control_summary(&tenants[order_index(tenants, &c.tenant_b)].program.controls[c.stmt_b]),
                c.region.count(),
                c.witness,
                verb_past(c.verb_a),
                c.tenant_a,
                verb_past(c.verb_b),
                c.tenant_b
            ),
        )
        .with_certainty(if c.certified {
            Certainty::SolverConfirmed
        } else {
            Certainty::Heuristic
        })
        .with_tenant(format!("{},{}", c.tenant_a, c.tenant_b))
        .with_suggestion(
            "partition the contested flow space between the tenants or give --priority an order that covers both",
        );
        if c.certified {
            cfg.obs.counter_add("lint.multi.certified", 1);
        }
        record(&cfg.obs, &d);
        report.push(d);

        match (rank(&c.tenant_a), rank(&c.tenant_b)) {
            (Some(ra), Some(rb)) if ra != rb => {
                resolved += 1;
                let (winner, wr, wverb) = if ra < rb {
                    (&c.tenant_a, ra, c.verb_a)
                } else {
                    (&c.tenant_b, rb, c.verb_b)
                };
                let d = Diagnostic::new(
                    "JL303",
                    Severity::Note,
                    c.location(),
                    format!(
                        "priority preview: tenant `{winner}` (priority {wr}) wins the contested \
                         region — the merged policy {}s it ({} packet(s))",
                        wverb,
                        c.region.count()
                    ),
                )
                .with_tenant(winner.clone());
                record(&cfg.obs, &d);
                report.push(d);
            }
            _ => {
                unresolved += 1;
                let d = Diagnostic::new(
                    "JL304",
                    Severity::Warning,
                    c.location(),
                    format!(
                        "contested region between tenants `{}` and `{}` has no relative priority; \
                         the merged policy is ambiguous here",
                        c.tenant_a, c.tenant_b
                    ),
                )
                .with_tenant(format!("{},{}", c.tenant_a, c.tenant_b))
                .with_suggestion("list both tenants in the --priority order");
                record(&cfg.obs, &d);
                report.push(d);
            }
        }
    }
    cfg.obs.counter_add("lint.multi.resolved", resolved);
    cfg.obs.counter_add("lint.multi.unresolved", unresolved);
    if !conflicts.is_empty() {
        let total = unresolved == 0;
        let d = Diagnostic::new(
            "JL303",
            if total {
                Severity::Note
            } else {
                Severity::Warning
            },
            "multi:priority",
            format!(
                "merge preview: {} contested region(s), {resolved} resolved by the priority \
                 order, {unresolved} unresolved — the merge is {}",
                conflicts.len(),
                if total { "total" } else { "not total" }
            ),
        );
        record(&cfg.obs, &d);
        report.push(d);
    }
    span.finish();
    report
}

/// Index of the tenant with the given name (names are unique per run).
fn order_index(tenants: &[TenantIntent], name: &str) -> usize {
    tenants
        .iter()
        .position(|t| t.tenant == name)
        .expect("conflict names a tenant from this run")
}

#[cfg(test)]
mod tests {
    use super::*;
    use jinjing_lai::{parse_program, validate};

    fn tenant(name: &str, src: &str) -> TenantIntent {
        TenantIntent::new(name, validate(parse_program(src).unwrap()).unwrap())
    }

    const ISOLATE: &str = "scope A:*, B:*, D:*\ncontrol A:* -> D:* isolate dst 1.0.0.0/8\ncheck\n";
    const OPEN: &str = "scope A:*, D:*\ncontrol A:1 -> D:* open dst 1.2.0.0/16\ncheck\n";
    const DISJOINT: &str = "scope B:*, C:*\ncontrol B:* -> C:* isolate dst 2.0.0.0/8\ncheck\n";

    #[test]
    fn conflicting_tenants_yield_a_certified_witness() {
        let ts = [tenant("alpha", ISOLATE), tenant("beta", OPEN)];
        let cs = cross_conflicts(&ts, &LintConfig::default());
        assert_eq!(cs.len(), 1);
        let c = &cs[0];
        assert!(c.certified);
        assert_eq!(
            (c.tenant_a.as_str(), c.tenant_b.as_str()),
            ("alpha", "beta")
        );
        assert_eq!(c.location(), "multi:alpha:control:0<->beta:control:0");
        // The witness lies in both traffic regions, which the two verbs
        // classify differently.
        assert!(c.region.contains(&c.witness));
        assert!(verbs_conflict(c.verb_a, c.verb_b));
    }

    #[test]
    fn conflicts_are_input_order_independent() {
        let a = [tenant("alpha", ISOLATE), tenant("beta", OPEN)];
        let b = [tenant("beta", OPEN), tenant("alpha", ISOLATE)];
        let cfg = LintConfig::default();
        assert_eq!(cross_conflicts(&a, &cfg), cross_conflicts(&b, &cfg));
        let mut ra = lint_multi(&a, &[], &cfg);
        let mut rb = lint_multi(&b, &[], &cfg);
        ra.sort();
        rb.sort();
        assert_eq!(ra.to_json(), rb.to_json());
    }

    #[test]
    fn heuristic_mode_still_carries_a_witness() {
        let cfg = LintConfig {
            solver_confirm: false,
            ..LintConfig::default()
        };
        let ts = [tenant("alpha", ISOLATE), tenant("beta", OPEN)];
        let cs = cross_conflicts(&ts, &cfg);
        assert_eq!(cs.len(), 1);
        assert!(!cs[0].certified);
        assert!(cs[0].region.contains(&cs[0].witness));
    }

    #[test]
    fn disjoint_tenants_are_clean() {
        let ts = [tenant("alpha", ISOLATE), tenant("gamma", DISJOINT)];
        let r = lint_multi(&ts, &[], &LintConfig::default());
        assert!(r.is_empty(), "{}", r.render_text());
    }

    #[test]
    fn priority_resolves_the_merge() {
        let ts = [tenant("alpha", ISOLATE), tenant("beta", OPEN)];
        let pri = vec!["alpha".to_string(), "beta".to_string()];
        let mut r = lint_multi(&ts, &pri, &LintConfig::default());
        r.sort();
        assert!(r.has_code("JL301"));
        assert!(r.has_code("JL303"));
        assert!(!r.has_code("JL304"));
        let summary = r
            .diagnostics()
            .iter()
            .find(|d| d.location == "multi:priority")
            .unwrap();
        assert!(
            summary.message.contains("the merge is total"),
            "{}",
            summary.message
        );
        let preview = r
            .diagnostics()
            .iter()
            .find(|d| d.code == "JL303" && d.location != "multi:priority")
            .unwrap();
        assert!(preview.message.contains("`alpha` (priority 0) wins"));
    }

    #[test]
    fn missing_priority_leaves_the_merge_partial() {
        let ts = [tenant("alpha", ISOLATE), tenant("beta", OPEN)];
        let pri = vec!["alpha".to_string()]; // beta unranked
        let r = lint_multi(&ts, &pri, &LintConfig::default());
        assert!(r.has_code("JL304"), "{}", r.render_text());
        let summary = r
            .diagnostics()
            .iter()
            .find(|d| d.location == "multi:priority")
            .unwrap();
        assert!(summary.message.contains("not total"));
        assert_eq!(summary.severity, Severity::Warning);
    }

    #[test]
    fn cross_tenant_subsumption_is_jl302() {
        let wide = "scope A:*, D:*\ncontrol A:* -> D:* isolate dst 1.0.0.0/8\ncheck\n";
        let narrow = "scope A:*, D:*\ncontrol A:1 -> D:2 isolate dst 1.2.0.0/16\ncheck\n";
        let ts = [tenant("alpha", wide), tenant("beta", narrow)];
        let r = lint_multi(&ts, &[], &LintConfig::default());
        let d = r.diagnostics().iter().find(|d| d.code == "JL302").unwrap();
        assert!(d.message.contains("`beta` control 0"), "{}", d.message);
        assert_eq!(d.tenant.as_deref(), Some("beta"));
        assert!(!r.has_code("JL301"));
    }

    #[test]
    fn duplicate_controls_are_reported_once() {
        let ts = [tenant("alpha", ISOLATE), tenant("beta", ISOLATE)];
        let r = lint_multi(&ts, &[], &LintConfig::default());
        let dups: Vec<_> = r
            .diagnostics()
            .iter()
            .filter(|d| d.code == "JL302")
            .collect();
        assert_eq!(dups.len(), 1);
        assert!(dups[0].message.contains("duplicate"), "{}", dups[0].message);
    }

    #[test]
    fn thread_count_does_not_change_the_bytes() {
        let ts = [
            tenant("alpha", ISOLATE),
            tenant("beta", OPEN),
            tenant("gamma", DISJOINT),
            tenant(
                "delta",
                "scope A:*, D:*\ncontrol A:* -> D:1 open dst 1.0.0.0/9\ncheck\n",
            ),
        ];
        let render = |threads: usize| {
            let cfg = LintConfig {
                threads,
                ..LintConfig::default()
            };
            let mut r = lint_multi(&ts, &["alpha".to_string(), "delta".to_string()], &cfg);
            r.sort();
            r.to_json()
        };
        let serial = render(1);
        assert_eq!(serial, render(4));
        assert_eq!(serial, render(8));
    }
}
