//! Correctness oracle, independent of the solver.
//!
//! Nothing here asks the CDCL core (or the engine's own `check`) whether an
//! answer is right. Answers are judged with first-match evaluation only:
//! `Acl::eval` on sampled packets and `AclConfig::path_permits` along paths
//! enumerated from the forwarding state. The inputs are the generator's own
//! before/after configurations, never something parsed back from the
//! program under test — except the program's *answer*, which is the thing
//! being judged.

use crate::workloads::{Kind, Request, Step};
use jinjing_acl::parse::parse_acl;
use jinjing_acl::{Acl, Field, Packet, PacketSet};
use jinjing_net::{AclConfig, Dir, Path, Slot};
use jinjing_obs::json::{self, Json};
use jinjing_wan::Wan;

/// The class of a correct answer — what `expected/<workload>.txt` pins for
/// the default seed. Never the witness or the rule text, so a legitimate
/// change of model or of rule placement does not break the benchmark.
pub type Class = String;

/// Every southbound/northbound path of the scope, enumerated once per
/// set-up and shared by the judgments below.
pub struct Paths {
    pub all: Vec<Path>,
}

impl Paths {
    pub fn enumerate(wan: &Wan) -> Paths {
        let scope = wan.scope();
        let mut universe = PacketSet::empty();
        for (_, t) in wan.net.entering_traffic(&scope) {
            universe = universe.union(&t);
        }
        Paths {
            all: wan.net.all_paths_for_class(&scope, &universe),
        }
    }
}

/// Corner and interior packets of a cube-shaped match: enough to catch an
/// edit that changes the decision anywhere first-match order matters.
fn probes(set: &PacketSet) -> Vec<Packet> {
    let mut out = Vec::new();
    for cube in set.cubes().iter().take(8) {
        let lo = cube.sample();
        out.push(lo);
        let mut hi = lo;
        let mut mid = lo;
        for f in [
            Field::SrcIp,
            Field::DstIp,
            Field::SrcPort,
            Field::DstPort,
            Field::Proto,
        ] {
            let iv = cube.get(f);
            hi.set_field(f, iv.hi());
            mid.set_field(f, iv.lo() + (iv.hi() - iv.lo()) / 2);
        }
        out.push(hi);
        out.push(mid);
    }
    out
}

/// Packets worth evaluating for an update: probes of every rule of the
/// touched slots' before and after ACLs (any first-match difference shows
/// on some rule's match region), intersected with nothing — the caller
/// filters by what each path carries.
fn update_probes(wan: &Wan, req: &Request) -> Vec<Packet> {
    let mut out = Vec::new();
    for &slot in &req.touched {
        for cfg in [&wan.config, &req.after] {
            if let Some(acl) = cfg.get(slot) {
                for r in acl.rules() {
                    out.extend(probes(&PacketSet::from_cube(r.matches.cube())));
                }
            }
        }
    }
    out.sort_by_key(|p| (p.dip, p.sip, p.dport, p.sport, p.proto));
    out.dedup();
    out
}

/// Does `candidate` decide every probe on every path as `reference` does?
/// Returns the first disagreement.
fn first_disagreement(
    paths: &Paths,
    reference: &AclConfig,
    candidate: &AclConfig,
    packets: &[Packet],
) -> Option<(Packet, usize)> {
    for (pi, path) in paths.all.iter().enumerate() {
        for p in packets {
            if path.carried.contains(p)
                && reference.path_permits(path, p) != candidate.path_permits(path, p)
            {
                return Some((*p, pi));
            }
        }
    }
    None
}

/// Neutral updates are consistent by construction; spot-check that claim
/// slot by slot with `Acl::eval`, before vs after.
fn neutral_holds(wan: &Wan, req: &Request) -> Result<(), String> {
    for &slot in &req.touched {
        let (Some(b), Some(a)) = (wan.config.get(slot), req.after.get(slot)) else {
            return Err(format!("touched slot {slot:?} is not configured"));
        };
        for r in b.rules().iter().chain(a.rules()) {
            for p in probes(&PacketSet::from_cube(r.matches.cube())) {
                if b.eval(&p) != a.eval(&p) {
                    return Err(format!("neutral swap changed the decision for {p}"));
                }
            }
        }
    }
    Ok(())
}

fn parse_plan(bytes: &[u8]) -> Result<Json, String> {
    let text = std::str::from_utf8(bytes).map_err(|_| "answer is not UTF-8".to_string())?;
    if !text.ends_with('\n') {
        return Err("canonical JSON ends with a newline".to_string());
    }
    json::parse(text).map_err(|e| format!("answer is not strict JSON: {e}"))
}

fn verdict_of(doc: &Json) -> Result<&str, String> {
    doc.get("verdict")
        .and_then(Json::as_str)
        .ok_or_else(|| "answer has no verdict".to_string())
}

/// Parse `(a.b.c.d:sp -> e.f.g.h:dp proto n)` out of a verdict string.
pub fn witness_of(verdict: &str) -> Option<Packet> {
    let inner = verdict.split("witness (").nth(1)?.split(')').next()?;
    let (src, rest) = inner.split_once(" -> ")?;
    let (dst, proto) = rest.split_once(" proto ")?;
    let (sip, sport) = src.rsplit_once(':')?;
    let (dip, dport) = dst.rsplit_once(':')?;
    Some(Packet::new(
        jinjing_acl::packet::parse_ip(sip)?,
        jinjing_acl::packet::parse_ip(dip)?,
        sport.parse().ok()?,
        dport.parse().ok()?,
        proto.trim().parse().ok()?,
    ))
}

/// The configuration a `fix` / `generate` answer asks the operator to
/// deploy: the deployed configuration with the answer's `changes` applied.
fn deployed(wan: &Wan, doc: &Json) -> Result<AclConfig, String> {
    let mut cfg = wan.config.clone();
    let changes = doc
        .get("changes")
        .ok_or_else(|| "answer has no changes".to_string())?;
    for c in changes.elements() {
        let iface = c
            .get("interface")
            .and_then(Json::as_str)
            .ok_or("change without interface")?;
        let dir = match c.get("direction").and_then(Json::as_str) {
            Some("in") => Dir::In,
            Some("out") => Dir::Out,
            other => return Err(format!("bad direction {other:?}")),
        };
        let (dev, name) = iface.split_once(':').ok_or("interface is not dev:iface")?;
        let id = wan
            .net
            .topology()
            .iface_by_name(dev, name)
            .ok_or_else(|| format!("unknown interface {iface}"))?;
        let lines: Vec<&str> = c
            .get("acl")
            .map(|a| a.elements().iter().filter_map(Json::as_str).collect())
            .unwrap_or_default();
        let slot = Slot { iface: id, dir };
        if lines == ["(no acl"] || lines == ["(no acl)"] {
            cfg.clear(slot);
            continue;
        }
        let acl: Acl = parse_acl(&lines.join("\n")).map_err(|e| format!("{iface}: {e}"))?;
        cfg.set(slot, acl);
    }
    Ok(cfg)
}

/// Judge one query-shaped answer (`check` / `fix` / `generate` plan JSON).
pub fn judge_plan(
    kind: Kind,
    wan: &Wan,
    paths: &Paths,
    req: &Request,
    bytes: &[u8],
) -> Result<Class, String> {
    let doc = parse_plan(bytes)?;
    let verdict = verdict_of(&doc)?;
    match kind {
        Kind::Neutral => {
            neutral_holds(wan, req)?;
            if verdict == "consistent" {
                Ok("consistent".to_string())
            } else {
                Err(format!("neutral update judged {verdict:?}"))
            }
        }
        Kind::Violating => {
            let packet =
                witness_of(verdict).ok_or_else(|| format!("planted outage judged {verdict:?}"))?;
            // The witness must flip on some path that carries it.
            let flips = paths.all.iter().any(|path| {
                path.carried.contains(&packet)
                    && wan.config.path_permits(path, &packet)
                        != req.after.path_permits(path, &packet)
            });
            if flips {
                Ok("inconsistent".to_string())
            } else {
                Err(format!(
                    "witness {packet} does not change decision on any path"
                ))
            }
        }
        Kind::Repair | Kind::Migrate => {
            let candidate = deployed(wan, &doc)?;
            let mut packets = update_probes(wan, req);
            // Plus whatever the answer itself introduced.
            for slot in candidate.slots() {
                if candidate.get(slot) != wan.config.get(slot) {
                    for r in candidate.get(slot).expect("listed slot").rules() {
                        packets.extend(probes(&PacketSet::from_cube(r.matches.cube())));
                    }
                }
            }
            packets.sort_by_key(|p| (p.dip, p.sip, p.dport, p.sport, p.proto));
            packets.dedup();
            if let Some((p, pi)) = first_disagreement(paths, &wan.config, &candidate, &packets) {
                return Err(format!(
                    "deployable configuration decides {p} differently on path {pi}"
                ));
            }
            let changed = doc.get("changes").map_or(0, |c| c.elements().len());
            if kind == Kind::Repair {
                // The update as written is broken, so a correct fix differs
                // from it; and it keeps the verdict's shape.
                if !verdict.starts_with("fixed: ") {
                    return Err(format!("fix answered {verdict:?}"));
                }
                let rules: String = verdict["fixed: ".len()..]
                    .chars()
                    .take_while(char::is_ascii_digit)
                    .collect();
                Ok(format!("fixed: {rules} rules"))
            } else {
                if !verdict.starts_with("generated ") || changed == 0 {
                    return Err(format!(
                        "generate answered {verdict:?} with {changed} changes"
                    ));
                }
                Ok("generated".to_string())
            }
        }
        Kind::Churn => Err("session answers are judged by judge_watch".to_string()),
    }
}

/// Judge one session answer (watch JSON): the applied/rejected pattern must
/// be the script's, and a rejected step must carry a witness addressed to
/// the customer the step would have cut off.
pub fn judge_watch(req: &Request, bytes: &[u8]) -> Result<Class, String> {
    let doc = parse_plan(bytes)?;
    let steps = doc.get("steps").map(Json::elements).unwrap_or_default();
    if steps.len() != req.steps.len() {
        return Err(format!(
            "{} steps answered, {} sent",
            steps.len(),
            req.steps.len()
        ));
    }
    for (i, (s, want)) in steps.iter().zip(&req.steps).enumerate() {
        let applied = matches!(s.get("applied"), Some(Json::Bool(true)));
        let verdict = s.get("verdict").and_then(Json::as_str).unwrap_or("");
        let ok = match want {
            Step::Applied => applied && verdict == "consistent",
            Step::Rejected(cut_off) => {
                !applied && witness_of(verdict).is_some_and(|p| cut_off.contains(p.dip))
            }
        };
        if !ok {
            return Err(format!(
                "step {i}: applied={applied} verdict={verdict:?}, wanted {want:?}"
            ));
        }
    }
    let rejected = req
        .steps
        .iter()
        .filter(|s| matches!(s, Step::Rejected(_)))
        .count();
    Ok(format!(
        "{} applied, {rejected} rejected",
        req.steps.len() - rejected
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn witness_parses_from_the_verdict_line() {
        let v = "inconsistent (witness (100.3.0.0:0 -> 10.0.6.64:8769 proto 6))";
        let p = witness_of(v).expect("parses");
        assert_eq!(p, Packet::new(0x6403_0000, 0x0A00_0640, 0, 8769, 6));
        assert_eq!(v, format!("inconsistent (witness {p})"));
        assert!(witness_of("consistent").is_none());
    }
}
