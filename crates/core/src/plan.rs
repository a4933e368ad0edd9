//! Safe update sequencing: synthesize certified rollout plans.
//!
//! Given a base configuration, a target configuration, and the intent
//! (scope + resolved controls), this module decomposes the diff into
//! per-device steps and searches for an ordering such that **every
//! intermediate network state** satisfies the intent. Each candidate
//! prefix state is verified through a persistent
//! [`CheckSession`] probe — dirty-set pruning
//! (Theorem 4.1) plus the session's query store make the N intermediate
//! checks cheap — and violation witnesses are generalized into
//! counterexamples that prune the ordering search CEGIS-style.
//!
//! ## Step decomposition
//!
//! Every slot whose effective ACL differs between base and target is an
//! *edit*; edits are grouped by owning device (a device's slots commit
//! atomically in one management transaction) and the groups, sorted by
//! device name, are the plan's *steps*. Each step carries the union of
//! its slots' differential covers — the exact packet region whose
//! decisions the step can influence (Definition 4.1).
//!
//! ## Safety is a property of the applied *set*
//!
//! The network state after applying steps `S` (in any order) depends only
//! on the set `S`, never on the order — distinct slots commute trivially.
//! A prefix set is *safe* when `check(base, apply(S), controls)` is
//! consistent. The ordering search therefore explores monotone chains
//! `∅ ⊂ S₁ ⊂ … ⊂ Full` in the subset lattice, memoizing safety verdicts
//! per set; the memo is target-independent, so it is soundly shared with
//! the infeasibility-core sub-searches.
//!
//! ## CEGIS witness generalization
//!
//! When `apply(S)` violates the intent the checker returns a witness
//! packet `p`. Let `affect(p) = {i : p ∈ cover(step i)}`. For any set `X`
//! with `X ∩ affect(p) = S ∩ affect(p)`, packet `p` meets identical rule
//! subsequences at every slot (Theorem 4.1 applied per step), so `X` is
//! violated by the same witness. Each witness is stored as an
//! `(affect-mask, required-bits)` pair and prunes candidate sets without
//! any solver work.
//!
//! ## Commuting waves
//!
//! Steps whose covers are pairwise disjoint within a wave are provably
//! order-independent: every packet lies in at most one wave member's
//! cover, so its decision in any partial interleaving equals its decision
//! in either the pre-wave or post-wave state — both of which the chain
//! probes certified. Consecutive chain steps with pairwise-disjoint
//! covers are batched into waves, and one [`WaveCertificate`] per wave
//! records the certified cumulative state at the wave boundary.

use crate::check::{CheckConfig, CheckOutcome};
use crate::control::ResolvedControl;
use crate::incr::CheckSession;
use jinjing_acl::atoms::ClassExplosion;
use jinjing_acl::diff::AclDiff;
use jinjing_acl::{Acl, PacketSet};
use jinjing_net::{AclConfig, Network, Scope, Slot};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;

/// Hard cap on plan steps: prefix sets are bitmasks in a `u32` and the
/// subset lattice is explored explicitly.
pub const MAX_PLAN_STEPS: usize = 16;

/// Planner tunables.
#[derive(Debug, Clone, Default)]
pub struct PlanConfig {
    /// Maximum number of waves in a feasible plan (`0` = unlimited). A
    /// tighter budget can render an otherwise-orderable update infeasible;
    /// the infeasibility core is then computed under the same budget.
    pub max_waves: usize,
}

/// One per-device rollout step: every changed slot on the device, applied
/// atomically.
#[derive(Debug, Clone)]
pub struct PlanStep {
    /// Device name (steps are sorted by it).
    pub device: String,
    /// Slot edits: `Some(acl)` installs, `None` clears. Sorted by slot.
    pub edits: Vec<(Slot, Option<Acl>)>,
    /// Union of the step's per-slot differential covers: the packet
    /// region whose decisions this step can influence.
    pub cover: PacketSet,
}

/// Certificate for one wave boundary: the cumulative state after the
/// wave was verified consistent, and wave-internal order-independence
/// holds structurally.
#[derive(Debug, Clone)]
pub struct WaveCertificate {
    /// `true` — wave members have pairwise-disjoint covers, so every
    /// interleaving passes through certified-equivalent states. Recorded
    /// explicitly so the JSON artifact is self-describing.
    pub commuting: bool,
    /// FEC classes examined by the boundary-state probe.
    pub fec_count: usize,
    /// `(class, path)` pairs encoded by the boundary-state probe.
    pub paths_checked: usize,
    /// Dirty `(class, path)` pairs the probe actually solved.
    pub dirty_pairs: usize,
    /// Devices applied so far (cumulative, sorted).
    pub state: Vec<String>,
}

/// Search-effort accounting.
#[derive(Debug, Clone, Default)]
pub struct PlanStats {
    /// Candidate prefix sets evaluated (probes + prunes).
    pub prefix_attempts: usize,
    /// Prefix sets actually probed through the session.
    pub prefix_checks: usize,
    /// Candidates pruned by a generalized violation witness.
    pub pruned_witness: usize,
    /// Candidates answered by the set-safety memo.
    pub pruned_memo: usize,
    /// Total dirty `(class, path)` pairs solved across all probes.
    pub dirty_pairs: usize,
    /// Cold ceiling: `prefix_attempts × total_pairs` — the pair workload
    /// if every candidate evaluation ran a cold, non-differential-session
    /// check over the full class/path product.
    pub pairs_ceiling: usize,
}

/// Outcome of the ordering search.
#[derive(Debug, Clone)]
pub enum PlanOutcome {
    /// A safe ordering exists.
    Feasible {
        /// Waves of step indices; steps within a wave commute.
        waves: Vec<Vec<usize>>,
        /// One certificate per wave boundary (`certificates.len() ==
        /// waves.len()`).
        certificates: Vec<WaveCertificate>,
    },
    /// No safe ordering exists (within the wave budget).
    Infeasible {
        /// Deletion-minimal set of step indices that is still infeasible
        /// on its own: removing any one member admits a safe ordering.
        core: Vec<usize>,
    },
}

/// A certified rollout plan (or its refutation).
#[derive(Debug, Clone)]
pub struct RolloutPlan {
    /// Per-device steps, sorted by device name.
    pub steps: Vec<PlanStep>,
    /// Feasible waves + certificates, or a minimal infeasibility core.
    pub outcome: PlanOutcome,
    /// Search-effort accounting.
    pub stats: PlanStats,
}

impl RolloutPlan {
    /// `true` when a safe ordering was found.
    pub fn is_feasible(&self) -> bool {
        matches!(self.outcome, PlanOutcome::Feasible { .. })
    }

    /// One-line human verdict.
    pub fn verdict(&self) -> String {
        match &self.outcome {
            PlanOutcome::Feasible { waves, .. } => {
                format!("plan: {} steps in {} waves", self.steps.len(), waves.len())
            }
            PlanOutcome::Infeasible { core } => {
                let names: Vec<&str> = core
                    .iter()
                    .map(|&i| self.steps[i].device.as_str())
                    .collect();
                format!("plan: infeasible (core {})", names.join(", "))
            }
        }
    }
}

/// Planner failure (distinct from infeasibility, which is a result).
#[derive(Debug)]
pub enum PlanError {
    /// FEC refinement exceeded its class budget.
    Classes(ClassExplosion),
    /// The diff decomposes into more steps than the planner accepts.
    TooManySteps {
        /// Steps in the decomposition.
        count: usize,
        /// The ceiling, [`MAX_PLAN_STEPS`].
        max: usize,
    },
    /// A prefix-state probe's shard fan-out failed (delegated solving).
    Shard(String),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Classes(e) => write!(f, "{e}"),
            PlanError::TooManySteps { count, max } => {
                write!(f, "plan has {count} per-device steps, max is {max}")
            }
            PlanError::Shard(msg) => write!(f, "shard fan-out failed: {msg}"),
        }
    }
}

impl From<ClassExplosion> for PlanError {
    fn from(e: ClassExplosion) -> PlanError {
        PlanError::Classes(e)
    }
}

impl From<crate::check::CheckError> for PlanError {
    fn from(e: crate::check::CheckError) -> PlanError {
        match e {
            crate::check::CheckError::Classes(c) => PlanError::Classes(c),
            crate::check::CheckError::Shard(msg) => PlanError::Shard(msg),
        }
    }
}

/// Decompose `base → target` into per-device steps, sorted by device
/// name. Slots whose effective ACLs (missing = permit-all) are equal are
/// not edits.
pub fn decompose(net: &Network, base: &AclConfig, target: &AclConfig) -> Vec<PlanStep> {
    let topo = net.topology();
    let mut slots: Vec<Slot> = base.slots();
    for s in target.slots() {
        if !slots.contains(&s) {
            slots.push(s);
        }
    }
    slots.sort();
    let mut by_device: BTreeMap<String, Vec<(Slot, Option<Acl>)>> = BTreeMap::new();
    let mut covers: BTreeMap<String, PacketSet> = BTreeMap::new();
    for slot in slots {
        let b = base.get(slot).cloned().unwrap_or_else(Acl::permit_all);
        let a = target.get(slot).cloned().unwrap_or_else(Acl::permit_all);
        if b == a {
            continue;
        }
        let device = topo.device(topo.owner(slot.iface)).name.clone();
        let diff = AclDiff::compute(&b, &a);
        let edit = (slot, target.get(slot).cloned());
        by_device.entry(device.clone()).or_default().push(edit);
        let entry = covers.entry(device).or_insert_with(PacketSet::empty);
        *entry = entry.union(&diff.cover);
    }
    by_device
        .into_iter()
        .map(|(device, edits)| PlanStep {
            cover: covers.remove(&device).expect("cover recorded per device"),
            device,
            edits,
        })
        .collect()
}

/// The configuration reached by applying the steps at `indices` (order
/// irrelevant: steps touch disjoint slots).
pub fn apply_steps(base: &AclConfig, steps: &[PlanStep], indices: &[usize]) -> AclConfig {
    let mut out = base.clone();
    for &i in indices {
        for (slot, acl) in &steps[i].edits {
            match acl {
                Some(a) => out.set(*slot, a.clone()),
                None => {
                    out.clear(*slot);
                }
            }
        }
    }
    out
}

fn apply_mask(base: &AclConfig, steps: &[PlanStep], mask: u32) -> AclConfig {
    let indices: Vec<usize> = (0..steps.len()).filter(|&i| mask & (1 << i) != 0).collect();
    apply_steps(base, steps, &indices)
}

/// Probe-report fields retained per certified prefix set, for wave
/// certificates.
#[derive(Clone, Copy)]
struct CertInfo {
    fec_count: usize,
    paths_checked: usize,
    dirty_pairs: usize,
}

struct Search<'a, 'n> {
    session: &'a CheckSession<'n>,
    steps: &'a [PlanStep],
    base: &'a AclConfig,
    max_waves: usize,
    /// Safe(S) verdicts; target-independent, shared across sub-searches.
    memo: HashMap<u32, bool>,
    /// Probe reports for sets certified safe.
    certs: HashMap<u32, CertInfo>,
    /// Generalized witnesses: `S` is violated when `S & mask == bits`.
    witnesses: Vec<(u32, u32)>,
    /// Sets from which no completion exists, keyed
    /// `(universe << 32) | applied` — a dead verdict is only meaningful
    /// for the universe it was computed against (the core sub-searches
    /// run over smaller universes). Sound only without a wave budget
    /// (reachability is then independent of the wave partition), so it
    /// is consulted and populated only when `max_waves == 0`.
    dead: HashSet<u64>,
    stats: PlanStats,
}

impl Search<'_, '_> {
    /// Is the prefix set `mask` safe? The empty set is the status quo the
    /// plan starts from, never a state the plan creates, and is exempt.
    fn safe(&mut self, mask: u32) -> Result<bool, crate::check::CheckError> {
        self.stats.prefix_attempts += 1;
        if mask == 0 {
            return Ok(true);
        }
        if let Some(&v) = self.memo.get(&mask) {
            self.stats.pruned_memo += 1;
            return Ok(v);
        }
        for &(wmask, wbits) in &self.witnesses {
            if mask & wmask == wbits {
                self.stats.pruned_witness += 1;
                self.memo.insert(mask, false);
                return Ok(false);
            }
        }
        let state = apply_mask(self.base, self.steps, mask);
        let (report, incr) = self.session.probe(&state)?;
        self.stats.prefix_checks += 1;
        self.stats.dirty_pairs += incr.dirty_pairs;
        match report.outcome {
            CheckOutcome::Consistent => {
                self.certs.insert(
                    mask,
                    CertInfo {
                        fec_count: report.fec_count,
                        paths_checked: report.paths_checked,
                        dirty_pairs: incr.dirty_pairs,
                    },
                );
                self.memo.insert(mask, true);
                Ok(true)
            }
            CheckOutcome::Inconsistent(v) => {
                let mut affect = 0u32;
                for (i, s) in self.steps.iter().enumerate() {
                    if s.cover.contains(&v.packet) {
                        affect |= 1 << i;
                    }
                }
                self.witnesses.push((affect, mask & affect));
                self.memo.insert(mask, false);
                Ok(false)
            }
        }
    }

    /// Depth-first search for a safe monotone chain `applied → universe`,
    /// maintaining the wave partition. Steps whose covers are disjoint
    /// from the whole current wave are tried first (they widen the wave);
    /// other steps open a new wave, which the wave budget may forbid.
    fn dfs(
        &mut self,
        universe: u32,
        applied: u32,
        waves: &mut Vec<Vec<usize>>,
    ) -> Result<bool, crate::check::CheckError> {
        if applied == universe {
            return Ok(true);
        }
        let dead_key = (universe as u64) << 32 | applied as u64;
        if self.max_waves == 0 && self.dead.contains(&dead_key) {
            return Ok(false);
        }
        let mut extenders: Vec<usize> = Vec::new();
        let mut openers: Vec<usize> = Vec::new();
        for i in 0..self.steps.len() {
            let bit = 1u32 << i;
            if universe & bit == 0 || applied & bit != 0 {
                continue;
            }
            let joins_wave = waves.last().is_some_and(|w| {
                w.iter().all(|&j| {
                    self.steps[i]
                        .cover
                        .intersect(&self.steps[j].cover)
                        .is_empty()
                })
            });
            if joins_wave {
                extenders.push(i);
            } else {
                openers.push(i);
            }
        }
        let wave_budget_left = self.max_waves == 0 || waves.len() < self.max_waves;
        for (extends, i) in extenders
            .iter()
            .map(|&i| (true, i))
            .chain(openers.iter().map(|&i| (false, i)))
        {
            if !extends && !wave_budget_left {
                continue;
            }
            let next = applied | (1 << i);
            if !self.safe(next)? {
                continue;
            }
            if extends {
                waves
                    .last_mut()
                    .expect("extender implies open wave")
                    .push(i);
            } else {
                waves.push(vec![i]);
            }
            if self.dfs(universe, next, waves)? {
                return Ok(true);
            }
            if extends {
                waves.last_mut().expect("wave still open").pop();
            } else {
                waves.pop();
            }
        }
        if self.max_waves == 0 {
            self.dead.insert(dead_key);
        }
        Ok(false)
    }

    /// Can the steps in `universe` be ordered safely (within the wave
    /// budget)? Used by the infeasibility-core deletion filter; shares
    /// the safety memo and witness store with the main search.
    fn feasible(&mut self, universe: u32) -> Result<bool, crate::check::CheckError> {
        let mut waves = Vec::new();
        self.dfs(universe, 0, &mut waves)
    }
}

/// Synthesize a certified rollout plan from `base` to `target` under the
/// intent `(scope, controls)`.
///
/// On success every wave-boundary state — indeed every prefix state of
/// the underlying chain — has been verified consistent through a
/// persistent-session probe whose verdict is byte-identical to a cold
/// [`check_configs`](crate::check::check_configs) of the same state. On
/// infeasibility the returned core is deletion-minimal: it admits no safe
/// ordering, and dropping any single member makes it orderable.
pub fn synthesize(
    net: &Network,
    scope: &Scope,
    controls: &[ResolvedControl],
    base: &AclConfig,
    target: &AclConfig,
    cfg: &CheckConfig,
    pcfg: &PlanConfig,
) -> Result<RolloutPlan, PlanError> {
    let sp = cfg.obs.span("plan.run");
    let steps = decompose(net, base, target);
    if steps.len() > MAX_PLAN_STEPS {
        sp.finish();
        return Err(PlanError::TooManySteps {
            count: steps.len(),
            max: MAX_PLAN_STEPS,
        });
    }
    cfg.obs.counter_add("plan.steps", steps.len() as u64);
    if steps.is_empty() {
        cfg.obs.event(
            jinjing_obs::Level::Info,
            "plan.done",
            "plan: 0 steps in 0 waves",
        );
        sp.finish();
        return Ok(RolloutPlan {
            steps,
            outcome: PlanOutcome::Feasible {
                waves: Vec::new(),
                certificates: Vec::new(),
            },
            stats: PlanStats::default(),
        });
    }
    let session = CheckSession::with_configs(
        net,
        scope.clone(),
        controls.to_vec(),
        base.clone(),
        cfg.clone(),
    )?;
    let mut search = Search {
        session: &session,
        steps: &steps,
        base,
        max_waves: pcfg.max_waves,
        memo: HashMap::new(),
        certs: HashMap::new(),
        witnesses: Vec::new(),
        dead: HashSet::new(),
        stats: PlanStats::default(),
    };
    let universe: u32 = if steps.len() == 32 {
        u32::MAX
    } else {
        (1u32 << steps.len()) - 1
    };
    let search_span = cfg.obs.span("plan.search");
    let mut waves: Vec<Vec<usize>> = Vec::new();
    let found = search.dfs(universe, 0, &mut waves)?;
    search_span.finish();
    let outcome = if found {
        // One certificate per wave boundary: the cumulative state after
        // each wave, looked up from the probe that certified it.
        let mut cumulative = 0u32;
        let mut certificates = Vec::with_capacity(waves.len());
        for wave in &waves {
            for &i in wave {
                cumulative |= 1 << i;
            }
            let info = search.certs[&cumulative];
            let mut state: Vec<String> = (0..steps.len())
                .filter(|&i| cumulative & (1 << i) != 0)
                .map(|i| steps[i].device.clone())
                .collect();
            state.sort();
            certificates.push(WaveCertificate {
                commuting: true,
                fec_count: info.fec_count,
                paths_checked: info.paths_checked,
                dirty_pairs: info.dirty_pairs,
                state,
            });
        }
        PlanOutcome::Feasible {
            waves,
            certificates,
        }
    } else {
        // Deletion filter, iterated to fixpoint: drop any step whose
        // removal leaves the remainder infeasible, and repeat until a
        // full pass drops nothing. Feasibility is not monotone in the
        // step set (a pair can be orderable while either member alone is
        // not), so a single pass certifies minimality only against
        // intermediate supersets; the fixpoint re-checks every survivor
        // against the *final* core, making it deletion-minimal (under
        // the same wave budget as the main search).
        let core_span = cfg.obs.span("plan.core");
        let mut core = universe;
        loop {
            let before = core;
            for i in 0..steps.len() {
                let bit = 1u32 << i;
                if core & bit == 0 {
                    continue;
                }
                let without = core & !bit;
                if !search.feasible(without)? {
                    core = without;
                }
            }
            if core == before {
                break;
            }
        }
        core_span.finish();
        PlanOutcome::Infeasible {
            core: (0..steps.len()).filter(|&i| core & (1 << i) != 0).collect(),
        }
    };
    let mut stats = search.stats;
    stats.pairs_ceiling = stats.prefix_attempts * session.total_pairs();
    cfg.obs
        .counter_add("plan.prefix_attempts", stats.prefix_attempts as u64);
    cfg.obs
        .counter_add("plan.prefix_checks", stats.prefix_checks as u64);
    cfg.obs
        .counter_add("plan.pruned_witness", stats.pruned_witness as u64);
    cfg.obs
        .counter_add("plan.pruned_memo", stats.pruned_memo as u64);
    if let PlanOutcome::Feasible { waves, .. } = &outcome {
        cfg.obs.counter_add("plan.waves", waves.len() as u64);
    }
    let plan = RolloutPlan {
        steps,
        outcome,
        stats,
    };
    cfg.obs
        .event(jinjing_obs::Level::Info, "plan.done", &plan.verdict());
    sp.finish();
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figure1::Figure1;

    fn acl_move_c1_to_a3out(f: &Figure1) -> AclConfig {
        // Relocate C1's `deny dst 7.0.0.0/8` (its whole ACL) to A3's
        // egress: consistent as a whole, but clearing C before installing
        // A transiently leaks traffic 7.
        let mut target = f.config.clone();
        target.clear(f.slot("C1"));
        target.set(
            Slot::egress(f.iface("A3")),
            jinjing_acl::AclBuilder::default_permit()
                .deny_dst("7.0.0.0/8")
                .build(),
        );
        target
    }

    fn check_cfg() -> CheckConfig {
        CheckConfig::default()
    }

    #[test]
    fn empty_diff_is_trivially_feasible() {
        let f = Figure1::new();
        let plan = synthesize(
            &f.net,
            &f.scope(),
            &[],
            &f.config,
            &f.config,
            &check_cfg(),
            &PlanConfig::default(),
        )
        .unwrap();
        assert!(plan.is_feasible());
        assert!(plan.steps.is_empty());
        assert_eq!(plan.verdict(), "plan: 0 steps in 0 waves");
    }

    #[test]
    fn relocation_orders_add_before_remove() {
        let f = Figure1::new();
        let target = acl_move_c1_to_a3out(&f);
        let plan = synthesize(
            &f.net,
            &f.scope(),
            &[],
            &f.config,
            &target,
            &check_cfg(),
            &PlanConfig::default(),
        )
        .unwrap();
        assert!(plan.is_feasible(), "{}", plan.verdict());
        let PlanOutcome::Feasible {
            waves,
            certificates,
        } = &plan.outcome
        else {
            unreachable!()
        };
        assert_eq!(certificates.len(), waves.len());
        // The A step (installing the deny) must precede the C step
        // (removing it); both devices appear exactly once.
        let order: Vec<&str> = waves
            .iter()
            .flatten()
            .map(|&i| plan.steps[i].device.as_str())
            .collect();
        let pos = |d: &str| order.iter().position(|x| *x == d).unwrap();
        assert!(pos("A") < pos("C"), "order was {order:?}");
        // Every prefix state of the chain replays cold, byte-identically.
        let mut applied: Vec<usize> = Vec::new();
        for wave in waves {
            for &i in wave {
                applied.push(i);
            }
            let state = apply_steps(&f.config, &plan.steps, &applied);
            let report = crate::check::check_configs(
                &f.net,
                &f.scope(),
                &f.config,
                &state,
                &[],
                &check_cfg(),
            )
            .unwrap();
            assert!(report.outcome.is_consistent());
        }
    }

    #[test]
    fn impossible_swap_reports_minimal_core() {
        let f = Figure1::new();
        // Clearing D2 leaks traffic 1/2 background denies no matter the
        // order — the final state itself is inconsistent, so the plan is
        // infeasible and the core pins the offending device.
        let mut target = f.config.clone();
        target.clear(f.slot("D2"));
        let plan = synthesize(
            &f.net,
            &f.scope(),
            &[],
            &f.config,
            &target,
            &check_cfg(),
            &PlanConfig::default(),
        )
        .unwrap();
        assert!(!plan.is_feasible());
        let PlanOutcome::Infeasible { core } = &plan.outcome else {
            unreachable!()
        };
        let devices: Vec<&str> = core
            .iter()
            .map(|&i| plan.steps[i].device.as_str())
            .collect();
        assert_eq!(devices, ["D"]);
        assert_eq!(plan.verdict(), "plan: infeasible (core D)");
    }

    #[test]
    fn max_waves_budget_can_forbid_a_plan() {
        let f = Figure1::new();
        let target = acl_move_c1_to_a3out(&f);
        // The relocation needs the A step strictly before the C step —
        // two waves minimum (their covers overlap on 7.0.0.0/8).
        let plan = synthesize(
            &f.net,
            &f.scope(),
            &[],
            &f.config,
            &target,
            &check_cfg(),
            &PlanConfig { max_waves: 1 },
        )
        .unwrap();
        assert!(!plan.is_feasible());
    }

    /// One step per device: a target editing one ACL on each of 17 devices
    /// is refused before any probe, one step over the cap.
    #[test]
    fn too_many_steps_is_an_error() {
        let mut tb = jinjing_net::TopologyBuilder::new();
        let ifaces: Vec<_> = (0..=MAX_PLAN_STEPS)
            .map(|i| {
                let device = tb.device(&format!("R{i:02}"));
                tb.iface(device, "e0")
            })
            .collect();
        let net = Network::new(tb.build());
        let base = AclConfig::new();
        let mut target = AclConfig::new();
        for &iface in &ifaces {
            let deny = jinjing_acl::AclBuilder::default_permit().deny_dst("9.0.0.0/8");
            target.set(Slot::ingress(iface), deny.build());
        }
        let err = synthesize(
            &net,
            &Scope::whole(net.topology()),
            &[],
            &base,
            &target,
            &check_cfg(),
            &PlanConfig::default(),
        )
        .unwrap_err();
        assert!(
            matches!(err, PlanError::TooManySteps { count: 17, max: 16 }),
            "{err}"
        );
        assert_eq!(err.to_string(), "plan has 17 per-device steps, max is 16");
    }
}
