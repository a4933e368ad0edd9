//! The metric registry: every name the benchmark prints, with its unit,
//! direction, the layer it belongs to and what it is expected to move.
//! `BENCHMARK.json` lists the same names; `manifest::check` refuses to run
//! when the two disagree.

use crate::stats::Better;

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metrics only: the share of the base median by which the
    /// metric may get worse before a change counts as a regression.
    pub bound: f64,
    /// Crate or module of the program under test (`e2e` for end-to-end
    /// metrics, `harness` for the benchmark's own book-keeping).
    pub layer: &'static str,
    /// Which end-to-end metric, on which workload, this metric should move.
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: Better,
    layer: &'static str,
    moves: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
        layer,
        moves,
    }
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    moves: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
        layer: "e2e",
        moves,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees, per workload. `BENCHMARK.json` repeats
/// the bounds (a unit test keeps the two equal).
pub const END_TO_END: &[MetricDef] = &[
    e2e("latency_ms_p10", "ms", Lower, 0.15, "the floor of the op time, text in → canonical bytes out: each request shape's nearest-rank 10th-percentile op, averaged over the 5 shapes"),
    e2e("throughput_rps", "1/s", Higher, 0.25, "what the callers got: timed ops ÷ the time they took, summed over the closed-loop clients; every op counts, so a stall on some ops shows here and not in the floor"),
    e2e("setup_s", "s", Lower, 0.25, "WAN build + route pre-warm + request generation + doors open + first answer to every distinct request; median of 3 to 9 set-ups per run"),
    e2e("peak_rss_mib", "MiB", Lower, 0.15, "VmHWM at workload exit"),
];

/// Single layers, measured in the traced run. Times are milliseconds per
/// op (pass total ÷ ops in a pass, fastest of the traced passes); counts
/// are totals of one pass over the workload's distinct requests and must
/// repeat exactly.
pub const PER_LAYER: &[MetricDef] = &[
    m("wan.build_ms", "ms", Lower, "wan", "setup_s → all"),
    m("lai.parse_ms", "ms", Lower, "lai", "latency_ms_p10 → serve-closed-small (< 2 % elsewhere)"),
    m("lai.intent_bytes", "count", Lower, "lai", "request text size; explains lai.parse_ms"),
    m("core.resolve_ms", "ms", Lower, "core.resolve", "latency_ms_p10 → serve-closed-small"),
    m("acl.diff_ms", "ms", Lower, "acl", "latency_ms_p10 → check-pass-large, check-violation-large"),
    m("acl.diff_rules", "count", Lower, "acl", "differential rules found; explains acl.diff_ms"),
    m("acl.reduce_ms", "ms", Lower, "acl", "latency_ms_p10 → check-*-large (global differential reduction of every slot)"),
    m("acl.refine_ms", "ms", Lower, "acl", "latency_ms_p10 → check-pass-large (≈ 90 %), check-violation-large (≈ 17 %), shard-2way-large (paid on coordinator and every backend); setup_s → session-churn-large; no move on session-churn-large latency"),
    m("acl.refine_classes", "count", Lower, "acl", "FEC count; explains acl.refine_ms"),
    m("net.predicates_ms", "ms", Lower, "net", "latency_ms_p10 → check-pass-large"),
    m("net.paths_ms", "ms", Lower, "net", "latency_ms_p10 → check-pass-large"),
    m("net.paths_count", "count", Lower, "net", "paths enumerated for dirty classes"),
    m("solver.encode_ms", "ms", Lower, "solver", "latency_ms_p10 → check-violation-large (≈ 11 %), fix-medium; not session-churn-large (replays do not encode)"),
    m("solver.solve_ms", "ms", Lower, "solver", "latency_ms_p10 → check-violation-large (≈ 63 %), fix-medium; not check-pass-large (≈ 2 %), not session-churn-large"),
    m("solver.queries", "count", Lower, "solver", "queries folded into the verdict (cached replays included)"),
    m("solver.vars", "count", Lower, "solver", "Σ variables over those queries; hash-consing moves this"),
    m("solver.clauses", "count", Lower, "solver", "Σ clauses over those queries"),
    m("solver.conflicts", "count", Lower, "solver", "Σ CDCL conflicts; explains solver.solve_ms"),
    m("solver.propagations", "count", Lower, "solver", "Σ unit propagations"),
    m("core.check_ms", "ms", Lower, "core.check", "latency_ms_p10 → check-pass-large, check-violation-large"),
    m("core.check_self_ms", "ms", Lower, "core.check", "check − Σ replayed layers: key hashing, memo insert, fan-out, fold"),
    m("core.check_pairs", "count", Lower, "core.check", "(class, path) pairs folded"),
    m("core.check_encoded_rules", "count", Lower, "core.check", "rules left after differential reduction"),
    m("core.memo_hits", "count", Higher, "core.memo", "latency_ms_p10, throughput_rps → session-churn-large; useful ÷ attempts = hits ÷ (hits + misses)"),
    m("core.memo_misses", "count", Lower, "core.memo", "queries that needed a circuit built"),
    m("core.incr_open_ms", "ms", Lower, "core.incr", "setup_s → session-churn-large"),
    m("core.incr_parse_ms", "ms", Lower, "core.incr", "latency_ms_p10 → session-churn-large (delta-script parsing)"),
    m("core.incr_recheck_ms", "ms", Lower, "core.incr", "latency_ms_p10 → session-churn-large"),
    m("core.incr_dirty_pairs", "count", Lower, "core.incr", "pairs re-solved per pass"),
    m("core.incr_pairs_ceiling", "count", Lower, "core.incr", "pairs a cold check per step would consider"),
    m("core.fix_ms", "ms", Lower, "core.fix", "latency_ms_p10 → fix-medium"),
    m("core.fix_enumerate_ms", "ms", Lower, "core.fix", "counterexample hunting"),
    m("core.fix_enlarge_ms", "ms", Lower, "core.fix", "Eq. 6 neighbourhood enlargement: latency_ms_p10, throughput_rps → fix-medium (the bulk of it)"),
    m("core.fix_place_ms", "ms", Lower, "core.fix", "placement solving"),
    m("core.fix_simplify_ms", "ms", Lower, "core.fix", "final simplification"),
    m("core.fix_neighborhoods", "count", Lower, "core.fix", "neighbourhoods repaired"),
    m("core.fix_queries", "count", Lower, "core.fix", "solver queries across the whole fix"),
    m("core.generate_ms", "ms", Lower, "core.generate", "latency_ms_p10 → generate-medium"),
    m("core.generate_derive_ms", "ms", Lower, "core.generate", "AEC derivation"),
    m("core.generate_solve_ms", "ms", Lower, "core.generate", "AEC/DEC solving"),
    m("core.generate_synthesize_ms", "ms", Lower, "core.generate", "§5.4 synthesis + simplify"),
    m("core.generate_aecs", "count", Lower, "core.generate", "ACL equivalence classes"),
    m("core.generate_rules", "count", Lower, "core.generate", "rules in the generated ACLs"),
    m("core.render_ms", "ms", Lower, "core.query", "latency_ms_p10 → generate-medium, serve-closed-small"),
    m("core.render_bytes", "count", Lower, "core.query", "canonical bytes out"),
    m("door.query_ms", "ms", Lower, "core.query", "the op through the query door during the traced pass: the base of every share"),
    m("serve.keepalive_floor_ms", "ms", Lower, "serve", "cheapest valid request on a kept-alive connection"),
    m("serve.oneshot_floor_ms", "ms", Lower, "serve", "the same on a one-shot connection"),
    m("serve.roundtrip_ms", "ms", Lower, "serve", "latency_ms_p10, throughput_rps → serve-closed-small"),
    m("serve.overhead_ms", "ms", Lower, "serve", "roundtrip − query-door time of the same intent; latency_ms_p10 → serve-closed-small, shard-2way-large (three hops)"),
    m("serve.latency_ms_p99", "ms", Lower, "serve", "the daemon's own per-request histogram"),
    m("serve.shed", "count", Lower, "serve", "requests refused with 429; must stay 0"),
    m("shard.roundtrip_ms", "ms", Lower, "shard", "latency_ms_p10 → shard-2way-large"),
    m("shard.overhead_ms", "ms", Lower, "shard", "roundtrip − query-door time: wire, repeated refinement, merge"),
    m("shard.slice_ms_max", "ms", Lower, "shard", "slowest local slice check: the floor of the fan-out"),
    m("shard.slice_ms_sum", "ms", Lower, "shard", "total backend work if slices ran one after another"),
    m("shard.backend_queries", "count", Lower, "shard", "solver queries the backends ran"),
    m("shard.duplication_ratio", "ratio", Lower, "shard", "backend queries ÷ unsharded queries"),
    m("obs.recorder_overhead_ms", "ms", Lower, "obs", "POST /v1/check with − without X-Jinjing-Trace: 1; latency_ms_p10 → serve-closed-small"),
    m("par.check_ms_2t", "ms", Lower, "par", "check-pass-large op under EngineConfig{threads:2}; 0 = oversubscribed host, no number; moves nothing today (all workloads run 1 engine thread)"),
    m("e2e.latency_ms_p50", "ms", Lower, "e2e", "nearest-rank median over every op of the traced run's untraced passes; the five request shapes cost different amounts, so it is the middle shape's typical op"),
    m("e2e.latency_ms_p90", "ms", Lower, "e2e", "90th percentile of the same ops: the dearest shape, or a tail if there is one; unbounded because a quarter of a run is too few ops to bound it"),
    m("trace.overhead_pct", "%", Lower, "harness", "what tracing costs the op itself: (the op's own spans in the traced passes − the same op in the untraced passes) ÷ the latter, fastest pass of each"),
    m("replay.diverged", "count", Lower, "harness", "check requests of a pass whose staged replay missed the engine's own counts or verdict; when not 0 the acl / net / solver rows describe the replay's memo and encoding policy, not the engine's"),
];

/// `jjbench describe`: the workload and metric tables of the README, from
/// the same registry the harness prints from.
pub fn describe() -> String {
    use crate::workloads::WORKLOADS;
    let mut out = String::from("| workload | door | clients | why |\n|---|---|---|---|\n");
    for w in &WORKLOADS {
        out.push_str(&format!(
            "| `{}` | {:?} | {} | {} |\n",
            w.name, w.door, w.clients, w.why
        ));
    }
    let dir = |d: &MetricDef| {
        if d.better == Better::Lower {
            "lower"
        } else {
            "higher"
        }
    };
    out.push_str(
        "\n| end-to-end metric | unit | better | bound | meaning |\n|---|---|---|---|---|\n",
    );
    for d in END_TO_END {
        out.push_str(&format!(
            "| `{}` | {} | {} | {:.0} % | {} |\n",
            d.name,
            d.unit,
            dir(d),
            d.bound * 100.0,
            d.moves
        ));
    }
    out.push_str("\n| layer | metric | unit | should move → on |\n|---|---|---|---|\n");
    for d in PER_LAYER {
        out.push_str(&format!(
            "| `{}` | `{}` | {} | {} |\n",
            d.layer, d.name, d.unit, d.moves
        ));
    }
    out
}

pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            assert!(d.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }
}
