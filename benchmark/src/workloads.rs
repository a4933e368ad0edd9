//! The benchmark's workloads: which front door, which network, and how the
//! request texts are generated from the seed.
//!
//! Every request is *text*: an LAI intent printed with
//! `jinjing_lai::printer::print_program`, or a delta script in the
//! `jinjing watch` grammar. The program under test receives nothing else.
//! Request `i` of a workload draws from sub-seed `seed + i`.
//!
//! The edits are **planted**, not free-running `perturb` output: a random
//! 3 % perturbation gives check times between 100 ms and 450 ms and fix
//! times between 80 ms and 27 s depending on where the first witness happens
//! to fall and what crosses it, which no regression bound survives across
//! seeds. Here the seed picks *where* an edit lands (which slots, which
//! rules, which customer prefix, which ports) while the *amount* of work —
//! how much of the class scan runs before the verdict, how many
//! neighbourhoods `fix` must repair — is fixed by construction.

use jinjing_acl::{Acl, Action, IpPrefix, MatchSpec, PacketSet, PortRange, Rule};
use jinjing_lai::printer::print_program;
use jinjing_lai::{AclDef, Command, DirSpec, IfaceSel, Modify, Program, SlotPattern};
use jinjing_net::{AclConfig, Dir, Path, Slot};
use jinjing_wan::{perturb, scenarios, NetSize, Wan};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The seed `run.sh` uses when none is given (the repository's historical
/// bench seed); `expected/<workload>.txt` pins this seed's fingerprints and
/// verdict classes.
pub const DEFAULT_SEED: u64 = 0xBE7C_0000;

/// Distinct requests per workload. Odd, so the nearest-rank median of the
/// op times (`e2e.latency_ms_p50`) falls inside one request's cluster, not
/// between two.
pub const REQUESTS: usize = 5;

/// Which front door an op goes through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Door {
    /// `run_query(..).plan.to_canonical_json()` — the body of `jinjing run`.
    Query,
    /// `parse_delta_script` + `recheck_steps` + `WatchOutput` rendering on
    /// a session opened once — the body of `POST /v1/sessions/{id}/delta`.
    Session,
    /// `client::Conn` keep-alive → in-process `Server`.
    Serve,
    /// `client::Conn` → in-process `Coordinator` → 2 in-process backends.
    Shard,
}

/// What the requests of a workload ask for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Semantically neutral update, `check`: consistent, full scan.
    Neutral,
    /// Neutral update plus one planted deny, `check`: time to the witness.
    Violating,
    /// Delta scripts replayed on a resident session.
    Churn,
    /// Planted port-range outages, `fix`.
    Repair,
    /// The §8 migration intent, `generate`.
    Migrate,
}

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub door: Door,
    pub kind: Kind,
    pub net: NetSize,
    /// Closed-loop clients (each waits for its reply before sending again).
    pub clients: usize,
    pub why: &'static str,
}

/// The seven workloads, in the order `run.sh` runs them.
pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "check-pass-large",
        door: Door::Query,
        kind: Kind::Neutral,
        net: NetSize::Large,
        clients: 1,
        why: "the common check: a routine edit of unrelated rules, consistent, so every dirty class is scanned and every query is UNSAT; FEC refinement owns the time, CDCL is idle",
    },
    Workload {
        name: "check-violation-large",
        door: Door::Query,
        kind: Kind::Violating,
        net: NetSize::Large,
        clients: 1,
        why: "a sweeping edit of overlapping rules with one real outage in the last class scanned: equivalence proofs, class-pinned solves and the witness; a faster solver moves this and not check-pass-large",
    },
    Workload {
        name: "session-churn-large",
        door: Door::Session,
        kind: Kind::Churn,
        net: NetSize::Large,
        clients: 1,
        why: "apply/reject/revert delta scripts on a resident session: the memo layers replay what the cold workloads only insert; refinement and path enumeration are bypassed",
    },
    Workload {
        name: "fix-medium",
        door: Door::Query,
        kind: Kind::Repair,
        net: NetSize::Medium,
        clients: 1,
        why: "fix of three port-range outages that splinter into 72 rule-shaped neighbourhoods: counterexample, Eq. 6 enlargement and placement for each; enlargement owns the time",
    },
    Workload {
        name: "generate-medium",
        door: Door::Query,
        kind: Kind::Migrate,
        net: NetSize::Medium,
        clients: 1,
        why: "exact packet-set algebra (AEC derivation, synthesis, simplify) dominates and the output is hundreds of rules, so rendering is visible",
    },
    Workload {
        name: "serve-closed-small",
        door: Door::Serve,
        kind: Kind::Neutral,
        net: NetSize::Small,
        clients: 2,
        why: "engine work is a few ms, so HTTP framing, queueing, worker pinning, LAI parse and render own the wall; 2 closed-loop keep-alive clients on 2 workers",
    },
    Workload {
        name: "shard-2way-large",
        door: Door::Shard,
        kind: Kind::Neutral,
        net: NetSize::Large,
        clients: 1,
        why: "check-pass-large's requests through a coordinator and 2 backends: the latency difference to check-pass-large is the fan-out cost",
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One generated request and what the oracle needs to judge its answer.
#[derive(Debug, Clone)]
pub struct Request {
    /// The text handed to the front door.
    pub text: String,
    /// The configuration the update asks for (the generator's own copy —
    /// never parsed back from the program under test).
    pub after: AclConfig,
    /// Slots whose ACL differs from the deployed configuration.
    pub touched: Vec<Slot>,
    /// For session scripts: what each step's delta must meet.
    pub steps: Vec<Step>,
}

/// The fate of one delta of a session script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Neutral: applied.
    Applied,
    /// Cuts this customer prefix off: rejected, with a witness inside it.
    Rejected(IpPrefix),
}

/// `DEV:IFACE-in|-out`, the slot syntax LAI patterns and delta scripts share.
fn slot_name(wan: &Wan, slot: Slot) -> String {
    format!("{}-{}", wan.net.topology().iface_name(slot.iface), slot.dir)
}

fn slot_pattern(wan: &Wan, slot: Slot) -> SlotPattern {
    let name = wan.net.topology().iface_name(slot.iface);
    let (dev, iface) = name.split_once(':').expect("iface_name is dev:iface");
    SlotPattern {
        device: dev.to_string(),
        iface: IfaceSel::Named(iface.to_string()),
        dir: Some(match slot.dir {
            Dir::In => DirSpec::In,
            Dir::Out => DirSpec::Out,
        }),
    }
}

/// Print the intent "`modify` every touched slot to its ACL in `after`,
/// `allow` the whole ACL layer, then `command`" — the shape
/// `jinjing_wan::scenarios::checkfix` emits.
fn update_intent(wan: &Wan, after: &AclConfig, touched: &[Slot], command: Command) -> String {
    let topo = wan.net.topology();
    let mut program = Program {
        scope: topo
            .devices()
            .map(|d| SlotPattern::star(&topo.device(d).name))
            .collect(),
        command: Some(command),
        ..Program::default()
    };
    for (i, &slot) in touched.iter().enumerate() {
        let name = format!("U{i}");
        program.acl_defs.push(AclDef {
            name: name.clone(),
            acl: after.get(slot).cloned().unwrap_or_else(Acl::permit_all),
        });
        program.modifies.push(Modify {
            target: slot_pattern(wan, slot),
            acl: name,
        });
    }
    for slot in wan.all_acl_slots() {
        program.allow.push(slot_pattern(wan, slot));
    }
    print_program(&program)
}

/// Which adjacent pairs a neutral swap may pick.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Pairs {
    /// Rules whose matches are disjoint: the moved rule relates to nothing,
    /// the reduced before and after ACLs come out identical and the solver
    /// has nothing to prove.
    Disjoint,
    /// Rules whose matches overlap: the solver has to prove the two orders
    /// equivalent.
    Overlapping,
}

/// Swap one adjacent pair of distinct same-action rules. Under first-match
/// semantics the ACL decides every packet as before: a packet matching
/// neither rule or only one is unaffected, and one matching both gets the
/// same action from whichever comes first.
///
/// The kind of pair is fixed per workload, not left to chance: with a free
/// choice anything from 10 to 28 of 53 edited slots needed a real
/// equivalence proof, and the check time followed that number.
fn neutral_swap(acl: &Acl, pairs: Pairs, rng: &mut StdRng) -> Option<Acl> {
    let rules = acl.rules();
    let same_action: Vec<usize> = (0..rules.len().saturating_sub(1))
        .filter(|&i| rules[i].action == rules[i + 1].action && rules[i] != rules[i + 1])
        .collect();
    let wanted: Vec<usize> = same_action
        .iter()
        .copied()
        .filter(|&i| {
            rules[i].matches.overlaps(&rules[i + 1].matches) == (pairs == Pairs::Overlapping)
        })
        .collect();
    let candidates = if wanted.is_empty() {
        same_action
    } else {
        wanted
    };
    if candidates.is_empty() {
        return None;
    }
    let i = candidates[rng.random_range(0..candidates.len())];
    let mut swapped = rules.to_vec();
    swapped.swap(i, i + 1);
    Some(Acl::new(swapped, acl.default_action()))
}

/// A semantically neutral update: `swaps` successive [`neutral_swap`]s in
/// each of `slots` that admits one (a swap of a neutral ACL is neutral).
fn neutral_update(
    wan: &Wan,
    slots: &[Slot],
    pairs: Pairs,
    swaps: usize,
    seed: u64,
) -> (AclConfig, Vec<Slot>) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5A17_ED17);
    let mut after = wan.config.clone();
    let mut touched = Vec::new();
    for &slot in slots {
        let deployed = wan.config.get(slot).expect("ACL slots are configured");
        let mut acl = deployed.clone();
        for _ in 0..swaps {
            if let Some(swapped) = neutral_swap(&acl, pairs, &mut rng) {
                acl = swapped;
            }
        }
        if acl != *deployed {
            after.set(slot, acl);
            touched.push(slot);
        }
    }
    assert!(!touched.is_empty(), "no slot admits a neutral swap");
    (after, touched)
}

/// A routine change: the slots a perturbation of 0.1 % of the deployed
/// rules touches (5 of the large WAN's 4800 rules, so a handful of slots),
/// each reordering two unrelated rules. The solver's part stays small and
/// FEC refinement owns the check.
fn routine_change(wan: &Wan, seed: u64) -> (AclConfig, Vec<Slot>) {
    let (_, slots, _) = perturb(&wan.config, 0.001, seed);
    neutral_update(wan, &slots, Pairs::Disjoint, 1, seed)
}

/// A sweeping change: every slot of the ACL layer reorders overlapping rules
/// twice (where it has such pairs). A few hundred differential rules,
/// reduced ACLs that are almost the full ACLs, and an equivalence proof for
/// the solver on every edited chain. §8's random 3 % perturbation touches
/// 53 ± 3 of the 60 slots; taking all of them removes that source of
/// seed-to-seed difference.
fn sweeping_change(wan: &Wan, seed: u64) -> (AclConfig, Vec<Slot>) {
    neutral_update(wan, &wan.all_acl_slots(), Pairs::Overlapping, 2, seed)
}

/// A customer prefix and a slot on a path that currently delivers it: a
/// `deny dst <prefix> [dport <range>]` on top of that slot's ACL is a real
/// outage.
#[derive(Clone, Copy)]
struct Plant {
    slot: Slot,
    prefix: IpPrefix,
    /// The destination ports cut off (all of them unless narrowed).
    dport: PortRange,
}

impl Plant {
    fn denied(&self) -> MatchSpec {
        MatchSpec {
            dport: self.dport,
            ..MatchSpec::dst(self.prefix)
        }
    }
}

/// Where an outage can be planted: every `(uncut customer prefix, path)` the
/// deployed configuration delivers end to end (judged on one packet of the
/// prefix the path carries), in the engine's own scan order — class-major,
/// then path order — each with the first configured slot on the path and the
/// index of its class.
fn outage_sites(wan: &Wan) -> Vec<(usize, Plant)> {
    let scope = wan.scope();
    let classes = crate::layers::fec_classes(&wan.net, &scope);
    let prefixes: Vec<(IpPrefix, PacketSet)> = wan
        .edge_prefixes
        .iter()
        .flatten()
        .filter(|p| uncut(wan, p))
        .map(|p| (*p, prefix_set(p)))
        .collect();
    let mut out = Vec::new();
    for (ci, class) in classes.iter().enumerate() {
        let paths: Vec<Path> = wan.net.all_paths_for_class(&scope, &class.set);
        for path in &paths {
            let Some(slot) = path
                .slots
                .iter()
                .copied()
                .find(|s| wan.config.get(*s).is_some())
            else {
                continue;
            };
            let carried = class.set.intersect(&path.carried);
            for (prefix, set) in &prefixes {
                let Some(packet) = carried.intersect(set).sample() else {
                    continue;
                };
                if wan.config.path_permits(path, &packet) {
                    out.push((
                        ci,
                        Plant {
                            slot,
                            prefix: *prefix,
                            dport: PortRange::any(),
                        },
                    ));
                }
            }
        }
    }
    out
}

fn prefix_set(prefix: &IpPrefix) -> PacketSet {
    PacketSet::from_cube(MatchSpec::dst(*prefix).cube())
}

/// Does no rule of any deployed ACL cut through the prefix (match part of
/// it but not all of it)? `fix` grows each counterexample into the largest
/// prefix-aligned cube on which every ACL of the scope decides uniformly
/// (Eq. 6), so a deployed port-range rule crossing the prefix splinters an
/// outage into anything between 2 and 288 neighbourhoods. On an uncut
/// prefix the outage's own shape decides: a whole prefix is one
/// neighbourhood, a port range is its aligned blocks.
fn uncut(wan: &Wan, prefix: &IpPrefix) -> bool {
    let cube = MatchSpec::dst(*prefix).cube();
    wan.config.slots().iter().all(|s| {
        wan.config
            .get(*s)
            .expect("listed slot")
            .rules()
            .iter()
            .all(|r| {
                let c = r.matches.cube();
                c.intersect(&cube).is_none() || cube.is_subset(&c)
            })
    })
}

/// Put the plant's deny on top of the slot's ACL in `after` (a copy of the
/// deployed configuration, possibly already edited).
fn plant_deny(after: &mut AclConfig, touched: &mut Vec<Slot>, plant: &Plant) {
    let base = after.get(plant.slot).expect("planted slots are configured");
    let deny = Rule::new(Action::Deny, plant.denied());
    let denied = base.with_prepended(&[deny]);
    after.set(plant.slot, denied);
    if !touched.contains(&plant.slot) {
        touched.push(plant.slot);
        touched.sort();
    }
}

/// The request "update `touched` to their ACLs in `after`, then `command`".
fn update_request(wan: &Wan, after: AclConfig, touched: Vec<Slot>, command: Command) -> Request {
    Request {
        text: update_intent(wan, &after, &touched, command),
        after,
        touched,
        steps: Vec::new(),
    }
}

/// Generate the workload's requests for `seed`.
pub fn generate(w: &Workload, wan: &Wan, seed: u64) -> Vec<Request> {
    match w.kind {
        Kind::Neutral => (0..REQUESTS as u64)
            .map(|i| {
                let (after, touched) = routine_change(wan, seed.wrapping_add(i));
                update_request(wan, after, touched, Command::Check)
            })
            .collect(),
        Kind::Violating => {
            let sites = outage_sites(wan);
            // Sites come in scan order, so the last one's class is the class
            // the engine scans last.
            let last = sites.last().expect("some prefix is delivered").0;
            let in_last: Vec<&Plant> = sites
                .iter()
                .filter(|(ci, _)| *ci == last)
                .map(|(_, p)| p)
                .collect();
            (0..REQUESTS as u64)
                .map(|i| {
                    // The sweeping part of request `i` is the same for every
                    // seed: how hard the solver finds one random draw of
                    // 60 rule swaps differs by up to 2× from the next (the
                    // usual heavy tail of CDCL proofs), which would be the
                    // whole seed-to-seed spread of this workload. The seed
                    // decides whose traffic is cut, and where.
                    let sub = seed.wrapping_add(i);
                    let (mut after, mut touched) =
                        sweeping_change(wan, DEFAULT_SEED.wrapping_add(i));
                    // The outage sits in the class the engine scans last,
                    // so every seed pays for the whole scan before it finds
                    // the witness: a witness part-way through makes the op
                    // cost whatever share of the distinct ACL chains happen
                    // to come first (161 to 305 ms within one seed).
                    let mut rng = StdRng::seed_from_u64(sub ^ 0x0B5E_55ED);
                    let plant = in_last[rng.random_range(0..in_last.len())];
                    plant_deny(&mut after, &mut touched, plant);
                    update_request(wan, after, touched, Command::Check)
                })
                .collect()
        }
        Kind::Repair => {
            let sites = outage_sites(wan);
            (0..REQUESTS as u64)
                .map(|i| {
                    let sub = seed.wrapping_add(i);
                    let mut rng = StdRng::seed_from_u64(sub ^ 0x0F1C_5EED);
                    let mut after = wan.config.clone();
                    let mut touched = Vec::new();
                    // Outages of different customers on different slots,
                    // each a port range that splinters into the same number
                    // of neighbourhoods.
                    let mut cut_off: Vec<IpPrefix> = Vec::new();
                    while touched.len() < REPAIR_PLANTS {
                        let (_, site) = &sites[rng.random_range(0..sites.len())];
                        if !touched.contains(&site.slot) && !cut_off.contains(&site.prefix) {
                            let plant = Plant {
                                dport: splintered_range(&mut rng),
                                ..*site
                            };
                            plant_deny(&mut after, &mut touched, &plant);
                            cut_off.push(plant.prefix);
                        }
                    }
                    update_request(wan, after, touched, Command::Fix)
                })
                .collect()
        }
        Kind::Migrate => {
            // The §8 migration drains the whole aggregation layer, so the
            // work has no free parameter; the seed only decides the order
            // in which the operator happens to list the slots.
            let sc = scenarios::migration(wan);
            (0..REQUESTS as u64)
                .map(|i| {
                    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(i) ^ 0x0316_7A7E);
                    let mut program = sc.program.clone();
                    shuffle(&mut program.modifies, &mut rng);
                    shuffle(&mut program.allow, &mut rng);
                    Request {
                        text: print_program(&program),
                        after: sc.task.after.clone(),
                        touched: sc.task.modified.clone(),
                        steps: Vec::new(),
                    }
                })
                .collect()
        }
        Kind::Churn => {
            let sites = outage_sites(wan);
            (0..REQUESTS as u64)
                .map(|i| churn_script(wan, &sites, seed.wrapping_add(i)))
                .collect()
        }
    }
}

fn shuffle<T>(xs: &mut [T], rng: &mut StdRng) {
    for i in (1..xs.len()).rev() {
        xs.swap(i, rng.random_range(0..=i));
    }
}

/// Outages planted per `fix` request, and the neighbourhoods each splinters
/// into.
pub const REPAIR_PLANTS: usize = 3;
pub const REPAIR_NEIGHBORHOODS: usize = 24;

/// Maximal prefix-aligned blocks `[lo, hi]` falls apart into: the blocks a
/// port range costs in rules, and — Eq. 6 grows a counterexample into the
/// largest prefix-aligned cube that behaves like it — the neighbourhoods
/// `fix` finds for an outage confined to that range.
fn aligned_blocks(lo: u16, hi: u16) -> usize {
    let (mut lo, hi) = (u32::from(lo), u32::from(hi));
    let mut blocks = 0;
    while lo <= hi {
        // The largest block that starts at `lo` and still ends by `hi`.
        let mut size = if lo == 0 { 1 << 16 } else { lo & lo.wrapping_neg() };
        while lo + size - 1 > hi {
            size /= 2;
        }
        lo += size;
        blocks += 1;
    }
    blocks
}

/// A destination-port range of exactly [`REPAIR_NEIGHBORHOODS`] aligned
/// blocks. An outage of a whole uncut prefix is one neighbourhood; a random
/// cut is anything from 2 to 288 (80 ms to 27 s of fix time on the medium
/// WAN). The seed decides which ports, the work is the same.
fn splintered_range(rng: &mut StdRng) -> PortRange {
    loop {
        let mut port = || rng.random_range(1..u32::from(u16::MAX)) as u16;
        let (a, b) = (port(), port());
        let (lo, hi) = (a.min(b), a.max(b));
        if aligned_blocks(lo, hi) == REPAIR_NEIGHBORHOODS {
            return PortRange::new(lo, hi);
        }
    }
}

/// Steps per session delta script.
pub const CHURN_STEPS: usize = 32;

fn acl_one_line(acl: &Acl) -> String {
    let mut parts: Vec<String> = acl.rules().iter().map(ToString::to_string).collect();
    parts.push(format!("default {}", acl.default_action()));
    parts.join("; ")
}

/// A delta script that toggles a neutral swap on two slots and, in between,
/// proposes an outage the session must reject:
///
/// ```text
/// swap A (applied) · deny on B (rejected) · revert A (applied)
/// swap B (applied) · deny on A (rejected) · revert B (applied)   … ×5, + swap A, revert A
/// ```
///
/// Every script ends on the configuration it started from, so it replays
/// verbatim on the next pass, and every (before, after) pair recurs within
/// the session's 8-generation eviction window, so the memo layers are hit,
/// not just filled.
fn churn_script(wan: &Wan, sites: &[(usize, Plant)], seed: u64) -> Request {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC4C4_ED17);
    let mut slots: Vec<(Slot, Acl, Acl)> = Vec::new(); // (slot, deployed ACL, swapped ACL)
    let mut denies: Vec<(Acl, IpPrefix)> = Vec::new(); // (ACL with the outage, who is cut off)
    while slots.len() < 2 {
        let (_, plant) = &sites[rng.random_range(0..sites.len())];
        if slots.iter().any(|(s, _, _)| *s == plant.slot) {
            continue;
        }
        let base = wan.config.get(plant.slot).expect("configured").clone();
        let Some(swapped) = neutral_swap(&base, Pairs::Disjoint, &mut rng) else {
            continue;
        };
        let deny = Rule::new(Action::Deny, plant.denied());
        denies.push((base.with_prepended(&[deny]), plant.prefix));
        slots.push((plant.slot, base, swapped));
    }
    // (label, slot, ACL to set, what must become of it)
    let mut plan: Vec<(String, Slot, &Acl, Step)> = Vec::new();
    let mut k = 0;
    while plan.len() + 3 <= CHURN_STEPS {
        let (a, b) = (k % 2, (k + 1) % 2);
        plan.push((format!("swap-{k}"), slots[a].0, &slots[a].2, Step::Applied));
        let (outage, cut_off) = &denies[b];
        plan.push((
            format!("outage-{k}"),
            slots[b].0,
            outage,
            Step::Rejected(*cut_off),
        ));
        plan.push((format!("revert-{k}"), slots[a].0, &slots[a].1, Step::Applied));
        k += 1;
    }
    while plan.len() + 2 <= CHURN_STEPS {
        plan.push((format!("swap-{k}"), slots[0].0, &slots[0].2, Step::Applied));
        plan.push((format!("revert-{k}"), slots[0].0, &slots[0].1, Step::Applied));
        k += 1;
    }
    let text: String = plan
        .iter()
        .map(|(label, slot, acl, _)| {
            format!(
                "step {label}\nset {} {}\n",
                slot_name(wan, *slot),
                acl_one_line(acl)
            )
        })
        .collect();
    let steps = plan.iter().map(|(_, _, _, step)| *step).collect();
    Request {
        text,
        after: wan.config.clone(),
        touched: slots.iter().map(|(s, _, _)| *s).collect(),
        steps,
    }
}

/// A `check` intent whose update changes nothing (LAI wants at least one
/// `modify`, so one slot is set to the ACL it already has). It opens the
/// session door, and it is the cheapest valid request for the transport
/// floors: the engine takes its empty-cover fast path.
pub fn noop_intent(wan: &Wan) -> String {
    let slot = wan.all_acl_slots()[0];
    update_intent(wan, &wan.config, &[slot], Command::Check)
}

/// FNV-1a over the request texts, in order.
pub fn fingerprint(requests: &[Request]) -> u64 {
    requests.iter().fold(crate::stats::FNV_OFFSET, |h, r| {
        crate::stats::fnv1a(crate::stats::fnv1a(h, r.text.as_bytes()), &[0xFF])
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn port_ranges_fall_apart_into_their_aligned_blocks() {
        assert_eq!(aligned_blocks(0, u16::MAX), 1);
        assert_eq!(aligned_blocks(1024, 2047), 1);
        assert_eq!(aligned_blocks(80, 80), 1);
        assert_eq!(aligned_blocks(1, 2), 2);
        // 1000-1007, 1008-1023, 1024-1535, 1536-1791, …, 2000
        assert_eq!(aligned_blocks(1000, 2000), 8);
        assert_eq!(aligned_blocks(1, u16::MAX - 1), 30);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..20 {
            let r = splintered_range(&mut rng);
            assert_eq!(aligned_blocks(r.lo(), r.hi()), REPAIR_NEIGHBORHOODS);
        }
    }
}
