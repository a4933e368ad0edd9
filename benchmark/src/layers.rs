//! The layer adapter: every call the traced run makes into a layer of the
//! system, each wrapped in one of the harness's own spans.
//!
//! A *layer* is a crate or module of the program under test. The timed
//! passes never come here — they go through `doors.rs` with tracing off.
//! The traced run replays each request stage by stage through the layers'
//! public functions, so the time each layer owns can be read from outside
//! without a span inside the program. For `check` requests the replay is
//! cross-checked against the engine's own report: the same classes, pairs,
//! encoded rules, queries, variables and clauses, and the same verdict. A
//! replay that misses is counted (`replay.diverged`) and named on stderr,
//! but is not a failed op: the replay hard-codes today's memo and encoding
//! policy, and a change of that policy is what this benchmark is here to
//! judge, not to forbid. Only a wrong answer or a byte mismatch between two
//! doors fails.
//!
//! Span names are the metric names minus the `_ms` suffix.

use crate::doors;
use crate::spans::Recorder;
use jinjing_acl::atoms::{dedupe_predicates, refine, AtomClass, RefineLimits};
use jinjing_acl::diff::AclDiff;
use jinjing_acl::rtree::RuleTree;
use jinjing_acl::shard::ShardSpec;
use jinjing_acl::{Acl, Packet, PacketSet, Rule};
use jinjing_core::engine::render_plan;
use jinjing_core::{check, resolve, run, CheckConfig, EngineConfig, Report, ReportKind, Task};
use jinjing_lai::{parse_program, validate, Command};
use jinjing_net::{AclConfig, Network, Path, Scope, Slot};
use jinjing_obs::Snapshot;
use jinjing_serve::client::{self, Conn};
use jinjing_solver::aclenc::encode_tree;
use jinjing_solver::{CircuitBuilder, HeaderVars, SolveResult, SolverStats};
use jinjing_wan::{build_wan, NetSize, Wan, WanParams};
use std::collections::{BTreeMap, HashMap};

/// Deterministic counts gathered next to the spans. Unlike times they must
/// repeat exactly from pass to pass and from run to run.
pub type Counts = BTreeMap<&'static str, u64>;

/// What one traced pass accumulates.
pub struct Trace {
    pub rec: Recorder,
    pub counts: Counts,
    /// Durations read from the engine's own reports, by metric name.
    pub engine_ms: BTreeMap<&'static str, f64>,
    /// Answers that differ byte for byte between two doors: failed ops.
    pub mismatched: Vec<String>,
    /// Staged replays that missed the engine's own counts or verdict, in
    /// words: the layer rows then describe the replay, not the engine.
    pub diverged: Vec<String>,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            rec: Recorder::new(),
            counts: Counts::new(),
            engine_ms: BTreeMap::new(),
            mismatched: Vec::new(),
            diverged: Vec::new(),
        }
    }

    pub fn add(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_insert(0) += n;
    }

    /// Run `f` as one request: a fresh request id and an `op` root span
    /// around everything `f` records.
    fn request<T>(&mut self, f: impl FnOnce(&mut Trace) -> T) -> T {
        self.rec.next_request();
        let op = self.rec.open("op");
        let out = f(self);
        self.rec.close(op);
        out
    }

    /// A duration the engine reports about itself (`FixPlan.phases`, a
    /// span of its own collector), in milliseconds under a metric name.
    fn ms(&mut self, name: &'static str, d: std::time::Duration) {
        *self.engine_ms.entry(name).or_insert(0.0) += d.as_secs_f64() * 1e3;
    }
}

// ---------------------------------------------------------------- wan

/// `wan.build_ms`: generate a preset WAN and pre-warm its routes (forwarding
/// predicates are static input in the paper's setting, never part of a
/// measured turnaround).
pub fn build_network(size: NetSize) -> Wan {
    let wan = build_wan(&WanParams::preset(size));
    prewarm(&wan.net);
    wan
}

/// Fill a network's forwarding-predicate memo (a clone starts cold).
pub fn prewarm(net: &Network) {
    for d in net.topology().devices() {
        let _ = net.forwarding_predicates(d);
    }
}

// ------------------------------------------------------- net + acl: FECs

fn universe_and_predicates(net: &Network, scope: &Scope) -> (PacketSet, Vec<PacketSet>) {
    let mut universe = PacketSet::empty();
    for (_, t) in net.entering_traffic(scope) {
        universe = universe.union(&t);
    }
    let preds = net
        .scope_predicates(scope)
        .into_iter()
        .map(|(_, g)| g)
        .collect();
    (universe, preds)
}

/// The scope's forwarding equivalence classes, in the engine's order
/// (`net.predicates` then `acl.refine`, untraced — the request generator
/// uses this to plant a witness at a known depth of the scan).
pub fn fec_classes(net: &Network, scope: &Scope) -> Vec<AtomClass> {
    let (universe, preds) = universe_and_predicates(net, scope);
    refine_classes(&universe, preds)
}

fn refine_classes(universe: &PacketSet, preds: Vec<PacketSet>) -> Vec<AtomClass> {
    refine(universe, &dedupe_predicates(preds), RefineLimits::default())
        .expect("preset WANs stay far below the class cap")
}

// ------------------------------------------------------ solver: one query

/// One Eq. 3 query, built cold: `∃h ∈ region (∩ class)` on which the
/// before-chain and the after-chain disagree.
#[derive(Clone)]
struct Solved {
    /// The witness, when the query is satisfiable.
    model: Option<Packet>,
    stats: SolverStats,
    vars: usize,
    clauses: usize,
}

fn solve_chain(
    rec: &mut Recorder,
    chain: &[(&Acl, &Acl)],
    region: &PacketSet,
    class: Option<&PacketSet>,
) -> Solved {
    let (mut builder, h) = rec.span("solver.encode", |_| {
        let mut b = CircuitBuilder::new();
        let h = HeaderVars::new(&mut b);
        let mut before = Vec::with_capacity(chain.len());
        let mut after = Vec::with_capacity(chain.len());
        for (x, y) in chain {
            before.push(encode_tree(&mut b, &h, x));
            after.push(encode_tree(&mut b, &h, y));
        }
        let cp = b.and(&before);
        let cp2 = b.and(&after);
        let eq = b.iff(cp, cp2);
        b.assert(!eq);
        let in_region = h.in_set(&mut b, region);
        b.assert(in_region);
        if let Some(set) = class {
            let in_class = h.in_set(&mut b, set);
            b.assert(in_class);
        }
        (b, h)
    });
    let result = rec.span("solver.solve", |_| builder.solve());
    Solved {
        model: (result == SolveResult::Sat).then(|| h.decode(&builder)),
        stats: builder.solver().stats(),
        vars: builder.solver().num_vars(),
        clauses: builder.solver().num_clauses(),
    }
}

// ------------------------------------------------- check, stage by stage

/// What the staged replay of one check counted — the engine's report must
/// say the same.
#[derive(Debug, Default, PartialEq, Eq)]
struct CheckCounts {
    fec_count: u64,
    paths_checked: u64,
    encoded_rules: u64,
    queries: u64,
    vars: u64,
    clauses: u64,
}

impl CheckCounts {
    fn of_report(report: &Report) -> Option<CheckCounts> {
        let ReportKind::Check(r) = &report.kind else {
            return None;
        };
        let hist_sum = |name: &str| report.obs.histogram(name).map_or(0, |h| h.sum);
        Some(CheckCounts {
            fec_count: r.fec_count as u64,
            paths_checked: r.paths_checked as u64,
            encoded_rules: r.encoded_rules as u64,
            queries: report.obs.counter("solver.queries"),
            vars: hist_sum("solver.vars"),
            clauses: hist_sum("solver.clauses"),
        })
    }
}

/// Replay Algorithm 1 for `before → after` through the layers' public
/// functions: per-slot diffs and the global differential reduction (`acl`),
/// forwarding predicates (`net`), FEC refinement (`acl`), path enumeration
/// per dirty class (`net`), then one two-stage solver query per (class,
/// path) pair in class-major order up to the first witness (`solver`) —
/// stage 1 memoised per distinct ACL chain, as the engine's query store
/// does, so encode and solve time are paid once per chain.
fn replay_check(
    t: &mut Trace,
    net: &Network,
    scope: &Scope,
    before: &AclConfig,
    after: &AclConfig,
) -> (CheckCounts, Option<Packet>) {
    let mut counts = CheckCounts::default();
    let mut slots: Vec<Slot> = before.slots();
    for s in after.slots() {
        if !slots.contains(&s) {
            slots.push(s);
        }
    }
    let acl_at = |cfg: &AclConfig, s: Slot| cfg.get(s).cloned().unwrap_or_else(Acl::permit_all);

    // acl: Definition 4.1 per modified slot, unioned into Diff_Ω and its
    // packet cover H.
    let mut global_diff: Vec<Rule> = Vec::new();
    let mut cover = PacketSet::empty();
    for &slot in &slots {
        let (b, a) = (acl_at(before, slot), acl_at(after, slot));
        if b == a {
            continue;
        }
        let d = t.rec.span("acl.diff", |_| AclDiff::compute(&b, &a));
        t.add("acl.diff_rules", d.diff.len() as u64);
        cover = cover.union(&d.cover);
        for r in &d.diff {
            if !global_diff.contains(r) {
                global_diff.push(*r);
            }
        }
    }
    // acl: every slot reduced to the rules related to Diff_Ω.
    let mut pairs: HashMap<Slot, (Acl, Acl)> = HashMap::new();
    t.rec.span("acl.reduce", |_| {
        let tree = RuleTree::build(global_diff.iter().map(|r| r.matches).collect());
        for &slot in &slots {
            let reduce = |acl: Acl| {
                let kept: Vec<Rule> = acl
                    .rules()
                    .iter()
                    .filter(|r| tree.overlaps_any(&r.matches))
                    .copied()
                    .collect();
                Acl::new(kept, acl.default_action())
            };
            let (b, a) = (reduce(acl_at(before, slot)), reduce(acl_at(after, slot)));
            counts.encoded_rules += (b.len() + a.len()) as u64;
            pairs.insert(slot, (b, a));
        }
    });
    if cover.is_empty() {
        return (counts, None);
    }

    // net + acl: the FEC partition.
    let (universe, preds) = t
        .rec
        .span("net.predicates", |_| universe_and_predicates(net, scope));
    let classes = t
        .rec
        .span("acl.refine", |_| refine_classes(&universe, preds));
    counts.fec_count = classes.len() as u64;
    t.add("acl.refine_classes", classes.len() as u64);

    // Theorem 4.1: only classes meeting the cover can hold a witness.
    let dirty: Vec<&AtomClass> = classes
        .iter()
        .filter(|c| c.set.intersects(&cover))
        .collect();

    // net: paths of every dirty class (the engine enumerates them all up
    // front, before the solver fan-out).
    let enumerated: Vec<Vec<Path>> = dirty
        .iter()
        .map(|c| {
            t.rec
                .span("net.paths", |_| net.all_paths_for_class(scope, &c.set))
        })
        .collect();
    t.add(
        "net.paths_count",
        enumerated.iter().map(|p| p.len() as u64).sum(),
    );

    // solver: the class-major scan.
    let mut memo: Vec<(Vec<(Acl, Acl)>, Solved)> = Vec::new();
    let mut stats = SolverStats::default();
    let mut witness = None;
    let mut witness_class = dirty.len();
    'scan: for (ci, class) in dirty.iter().enumerate() {
        for path in &enumerated[ci] {
            let chain: Vec<(&Acl, &Acl)> = path
                .slots
                .iter()
                .filter_map(|s| pairs.get(s))
                .map(|(b, a)| (b, a))
                .collect();
            let known = memo.iter().position(|(key, _)| {
                key.len() == chain.len()
                    && key
                        .iter()
                        .zip(&chain)
                        .all(|(k, c)| k.0 == *c.0 && k.1 == *c.1)
            });
            let stage1 = match known {
                Some(i) => memo[i].1.clone(),
                None => {
                    let solved = solve_chain(&mut t.rec, &chain, &cover, None);
                    let key = chain
                        .iter()
                        .map(|(b, a)| ((*b).clone(), (*a).clone()))
                        .collect();
                    memo.push((key, solved.clone()));
                    solved
                }
            };
            let mut fold = |s: &Solved| {
                counts.queries += 1;
                counts.vars += s.vars as u64;
                counts.clauses += s.clauses as u64;
                stats.merge(&s.stats);
            };
            fold(&stage1);
            let Some(model) = stage1.model else {
                continue;
            };
            let found = if class.set.contains(&model) {
                Some(model)
            } else {
                // Stage 2: the witness pinned inside this class; never
                // memoised (class sets rarely recur).
                let stage2 = solve_chain(&mut t.rec, &chain, &cover, Some(&class.set));
                fold(&stage2);
                stage2.model
            };
            if found.is_some() {
                witness = found;
                witness_class = ci + 1;
                break 'scan;
            }
        }
    }
    counts.paths_checked = enumerated[..witness_class.min(enumerated.len())]
        .iter()
        .map(|p| p.len() as u64)
        .sum();
    t.add("solver.queries", counts.queries);
    t.add("solver.vars", counts.vars);
    t.add("solver.clauses", counts.clauses);
    t.add("solver.conflicts", stats.conflicts);
    t.add("solver.propagations", stats.propagations);
    (counts, witness)
}

// -------------------------------------------------- the query door, staged

/// Fold the memo layers' counters of an engine snapshot into the trace
/// (`since`: the snapshot taken before the op, for resident sessions whose
/// collector accumulates).
fn memo_counters(t: &mut Trace, obs: &Snapshot, since: Option<&Snapshot>) {
    let delta = |name: &str| obs.counter(name) - since.map_or(0, |s| s.counter(name));
    let (cache_hit, cache_miss) = (delta("check.cache_hit"), delta("check.cache_miss"));
    let warm_hit = delta("check.warm_hit");
    // Useful outcomes: a query answered from either memo layer. Misses: the
    // queries that needed a circuit built.
    t.add("core.memo_hits", cache_hit + warm_hit);
    t.add("core.memo_misses", cache_miss.saturating_sub(warm_hit));
}

fn parse_and_resolve(
    t: &mut Trace,
    net: &Network,
    config: &AclConfig,
    intent: &str,
) -> Result<Task, String> {
    let program = t.rec.span("lai.parse", |_| {
        parse_program(intent)
            .map_err(|e| e.to_string())
            .and_then(|p| validate(p).map_err(|e| e.to_string()))
    })?;
    t.rec
        .span("core.resolve", |_| resolve(net, &program, config))
        .map_err(|e| e.to_string())
}

/// One `query`-door request, staged: the op itself (`door.query`), then
/// `lai.parse` → `core.resolve` → `core.check` / `core.fix` /
/// `core.generate` → `core.render`, plus (for check) the layer-by-layer
/// replay under `replay`. Returns the op's canonical bytes.
pub fn traced_query(
    t: &mut Trace,
    net: &Network,
    config: &AclConfig,
    intent: &str,
) -> Result<Vec<u8>, String> {
    t.request(|t| traced_query_inner(t, net, config, intent))
}

fn traced_query_inner(
    t: &mut Trace,
    net: &Network,
    config: &AclConfig,
    intent: &str,
) -> Result<Vec<u8>, String> {
    t.add("lai.intent_bytes", intent.len() as u64);
    // The op, exactly as the timed passes run it.
    let (plan, bytes) = t.rec.span("door.query", |_| {
        doors::run(net, config, intent).map(|out| {
            let bytes = out.plan.to_canonical_json().into_bytes();
            (out.plan, bytes)
        })
    })?;

    let task = parse_and_resolve(t, net, config, intent)?;
    let stage = match task.command {
        Command::Check => "core.check",
        Command::Fix => "core.fix",
        Command::Generate => "core.generate",
    };
    let report = t
        .rec
        .span(stage, |_| run(net, &task, &EngineConfig::default()))
        .map_err(|e| e.to_string())?;
    memo_counters(t, &report.obs, None);

    match &report.kind {
        ReportKind::Check(r) => {
            t.add("core.check_pairs", r.paths_checked as u64);
            t.add("core.check_encoded_rules", r.encoded_rules as u64);
            let replay = t.rec.open("replay");
            let (replayed, witness) = replay_check(t, net, &task.scope, &task.before, &task.after);
            t.rec.close(replay);
            let engine = CheckCounts::of_report(&report).expect("a check report");
            if replayed != engine || witness.is_some() == r.outcome.is_consistent() {
                t.add("replay.diverged", 1);
                t.diverged.push(format!(
                    "check replay {replayed:?} (witness: {}) != engine {engine:?} (witness: {})",
                    witness.is_some(),
                    !r.outcome.is_consistent()
                ));
            }
        }
        ReportKind::Fix(plan) => {
            t.add("core.fix_neighborhoods", plan.neighborhoods.len() as u64);
            t.add("core.fix_queries", report.obs.counter("solver.queries"));
            t.ms("core.fix_enumerate_ms", plan.phases.enumerate);
            t.ms("core.fix_enlarge_ms", plan.phases.enlarge);
            t.ms("core.fix_place_ms", plan.phases.place);
            t.ms("core.fix_simplify_ms", plan.phases.simplify);
        }
        ReportKind::Generate(g) => {
            t.add("core.generate_aecs", g.aec_count as u64);
            t.add("core.generate_rules", g.rules_final as u64);
            t.ms("core.generate_derive_ms", g.phases.derive_aec);
            t.ms("core.generate_solve_ms", g.phases.solve);
            t.ms("core.generate_synthesize_ms", g.phases.synthesize);
        }
        ReportKind::Lint(_) | ReportKind::Plan(_) => {}
    }

    // core.query: the ACL text of every changed slot, then the document.
    t.rec.span("core.render", |_| {
        if let Some(to) = report.deployable() {
            std::hint::black_box(render_plan(net, config, to));
        }
        std::hint::black_box(plan.to_canonical_json());
    });
    t.add("core.render_bytes", bytes.len() as u64);
    Ok(bytes)
}

/// `par.check_2t`: the same query-door op under `EngineConfig { threads: 2 }`
/// (one of the two places the harness sets an engine knob; never timed as
/// an end-to-end metric).
pub fn traced_query_2t(
    t: &mut Trace,
    net: &Network,
    config: &AclConfig,
    intent: &str,
) -> Result<Vec<u8>, String> {
    let cfg = EngineConfig {
        threads: 2,
        ..EngineConfig::default()
    };
    t.rec.span("par.check_2t", |_| {
        jinjing_core::run_query(net, config, intent, &cfg)
            .map(|out| out.plan.to_canonical_json().into_bytes())
            .map_err(|e| e.to_string())
    })
}

// ------------------------------------------------ the session door, staged

/// One `session`-door request, staged: `core.incr_parse` →
/// `core.incr_recheck` → `core.render`. The memo layers' hit and miss
/// counters, the dirty-pair ledger and the time of the engine's own
/// (bypassed) `check.refine` span are read from the session's collector.
pub fn traced_session(
    t: &mut Trace,
    s: &mut doors::Session<'_>,
    script: &str,
) -> Result<Vec<u8>, String> {
    use jinjing_core::incr::parse_delta_script;
    use jinjing_core::{recheck_steps, WatchOutput};
    let before = s.session.config().obs.snapshot();
    let out = t.request(|t| {
        let deltas = t
            .rec
            .span("core.incr_parse", |_| parse_delta_script(s.net, script))
            .map_err(|e| e.to_string())?;
        let steps = t
            .rec
            .span("core.incr_recheck", |_| {
                recheck_steps(&mut s.session, &deltas)
            })
            .map_err(|e| e.to_string())?;
        t.add("core.incr_steps", steps.len() as u64);
        t.add(
            "core.incr_dirty_pairs",
            steps.iter().map(|st| st.dirty_pairs as u64).sum(),
        );
        t.add(
            "core.incr_pairs_ceiling",
            (s.session.total_pairs() * steps.len()) as u64,
        );
        let after = s.session.config().obs.snapshot();
        Ok::<_, String>(t.rec.span("core.render", |_| {
            WatchOutput::from_steps(s.class_count, deltas.len(), steps, after)
                .to_canonical_json()
                .into_bytes()
        }))
    });
    let after = s.session.config().obs.snapshot();
    memo_counters(t, &after, Some(&before));
    let refine_ns = |snap: &Snapshot| snap.find_span("check.refine").map_or(0, |sp| sp.total_ns);
    t.ms(
        "acl.refine_ms",
        std::time::Duration::from_nanos(refine_ns(&after) - refine_ns(&before)),
    );
    // No core.render_bytes here: the watch document carries the session's
    // generation counter, so its length grows from pass to pass.
    t.add("lai.intent_bytes", script.len() as u64);
    out
}

// -------------------------------------------------- the serve door, staged

fn trace_header() -> Vec<(String, String)> {
    vec![("X-Jinjing-Trace".to_string(), "1".to_string())]
}

/// One `serve`-door request, staged: the round trip on the kept-alive
/// connection (`serve.roundtrip`), the same intent through the `query` door
/// on an idle copy of the network (`door.query`; their difference is what
/// HTTP framing, queueing and worker hand-off cost), the same round trip
/// with the daemon's flight recorder armed (`serve.roundtrip_traced`), the
/// transport floors — the cheapest valid request kept-alive and one-shot —
/// and the parse/resolve stages.
pub fn traced_serve(
    t: &mut Trace,
    conn: &mut Conn,
    reference: (&Network, &AclConfig),
    intent: &str,
    noop: &str,
) -> Result<Vec<u8>, String> {
    t.request(|t| {
        t.add("lai.intent_bytes", intent.len() as u64);
        let bytes = t
            .rec
            .span("serve.roundtrip", |_| doors::post_check(conn, intent))?;
        let local = t.rec.span("door.query", |_| {
            doors::query(reference.0, reference.1, intent)
        })?;
        if local != bytes {
            t.mismatched
                .push("serve body differs from the query door's bytes".to_string());
        }
        let traced = t.rec.span("serve.roundtrip_traced", |_| {
            doors::post_check_with(conn, intent, &trace_header())
        })?;
        if traced != bytes {
            t.mismatched
                .push("serve body changes when the flight recorder is armed".to_string());
        }
        t.rec
            .span("serve.keepalive_floor", |_| doors::post_check(conn, noop))?;
        let addr = conn.addr().to_string();
        let one_shot = t.rec.span("serve.oneshot_floor", |_| {
            client::call(
                &addr,
                "POST",
                "/v1/check",
                &[],
                noop.as_bytes(),
                doors::HTTP_TIMEOUT,
            )
        })?;
        if one_shot.status != 200 {
            return Err(format!("one-shot floor answered {}", one_shot.status));
        }
        parse_and_resolve(t, reference.0, reference.1, intent)?;
        t.add("core.render_bytes", bytes.len() as u64);
        Ok(bytes)
    })
}

/// A daemon's live metrics (`GET /metrics.json`, one-shot connection).
pub fn daemon_snapshot(addr: &str) -> Result<Snapshot, String> {
    let r = client::call(addr, "GET", "/metrics.json", &[], b"", doors::HTTP_TIMEOUT)?;
    if r.status != 200 {
        return Err(format!("GET /metrics.json on {addr} answered {}", r.status));
    }
    Snapshot::from_json(&r.body_text())
}

// -------------------------------------------------- the shard door, staged

/// One `shard`-door request, staged: the round trip through the coordinator
/// (`shard.roundtrip`), the same intent through the `query` door
/// (`door.query`), one local `check` per slice of the 2-way partition
/// (`shard.slice`; the slowest slice bounds the fan-out from below), and
/// the solver queries the backends ran for it: the coordinator's
/// `/metrics.json` merges the snapshots its backends ship back, read before
/// and after.
pub fn traced_shard(
    t: &mut Trace,
    conn: &mut Conn,
    backends: usize,
    reference: (&Network, &AclConfig),
    intent: &str,
) -> Result<Vec<u8>, String> {
    t.request(|t| {
        t.add("lai.intent_bytes", intent.len() as u64);
        let coordinator = conn.addr().to_string();
        let fanned_out = || daemon_snapshot(&coordinator).map(|s| s.counter("solver.queries"));
        let before = fanned_out()?;
        let bytes = t
            .rec
            .span("shard.roundtrip", |_| doors::post_check(conn, intent))?;
        t.add("shard.backend_queries", fanned_out()? - before);

        // The same op through the query door, keeping its collector: the
        // queries an unsharded check runs are the base of the duplication
        // ratio.
        let (local, obs) = t.rec.span("door.query", |_| {
            doors::run(reference.0, reference.1, intent)
                .map(|out| (out.plan.to_canonical_json().into_bytes(), out.obs))
        })?;
        if local != bytes {
            t.mismatched
                .push("shard body differs from the query door's bytes".to_string());
        }
        t.add("shard.unsharded_queries", obs.counter("solver.queries"));
        let task = parse_and_resolve(t, reference.0, reference.1, intent)?;
        for i in 0..backends {
            let cfg = CheckConfig {
                shard: Some(ShardSpec::new(i, backends)),
                ..CheckConfig::default()
            };
            t.rec
                .span("shard.slice", |_| check(reference.0, &task, &cfg))
                .map_err(|e| e.to_string())?;
        }
        t.add("core.render_bytes", bytes.len() as u64);
        Ok(bytes)
    })
}
