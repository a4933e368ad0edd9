//! WAN construction: topology, routing, traffic matrix and ACL population.

use crate::params::WanParams;
use jinjing_acl::parse::parse_rule;
use jinjing_acl::{Acl, Action, Cube, Field, IpPrefix, PacketSet, Rule};
use jinjing_net::{AclConfig, DeviceId, IfaceId, Network, Scope, Slot, TopologyBuilder};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A generated WAN: network + original ACL configuration + the structural
/// handles the scenarios need.
#[derive(Debug, Clone)]
pub struct Wan {
    /// The network (topology, FIBs, announcements, traffic matrix).
    pub net: Network,
    /// The original ACL configuration (`L_Ω`).
    pub config: AclConfig,
    /// Generation parameters.
    pub params: WanParams,
    /// Core devices.
    pub cores: Vec<DeviceId>,
    /// Aggregation devices, grouped by cell.
    pub aggs: Vec<Vec<DeviceId>>,
    /// Edge devices, grouped by cell.
    pub edges: Vec<Vec<DeviceId>>,
    /// Backbone uplink interfaces (one per core).
    pub uplinks: Vec<IfaceId>,
    /// Server-facing downlink interfaces (one per edge).
    pub downlinks: Vec<IfaceId>,
    /// ACL slots: aggregation ingress interfaces facing cores (grouped per
    /// aggregation device — one policy instance per core-facing interface).
    pub acl_slots: Vec<Vec<Slot>>,
    /// Migration targets: edge ingress interfaces facing aggs.
    pub edge_slots: Vec<Slot>,
    /// Customer /24 prefixes, grouped per edge device (index-aligned with
    /// the flattened `edges`).
    pub edge_prefixes: Vec<Vec<IpPrefix>>,
    /// External /16 prefixes announced at the uplinks.
    pub external_prefixes: Vec<IpPrefix>,
}

impl Wan {
    /// The whole-network scope used by all §8 experiments.
    pub fn scope(&self) -> Scope {
        Scope::whole(self.net.topology())
    }

    /// All ACL slots, flattened.
    pub fn all_acl_slots(&self) -> Vec<Slot> {
        self.acl_slots.iter().flatten().copied().collect()
    }

    /// Edge devices, flattened in cell order.
    pub fn all_edges(&self) -> Vec<DeviceId> {
        self.edges.iter().flatten().copied().collect()
    }

    /// Total installed rule instances.
    pub fn installed_rules(&self) -> usize {
        self.config.total_rules()
    }
}

/// [`build_wan`] with observability: the construction is timed under a
/// `wan.build` span and the generated workload's shape is recorded as
/// gauges (`wan.devices`, `wan.acl_slots`, `wan.installed_rules`,
/// `wan.edge_prefixes`), so benchmark metric dumps carry the workload size
/// next to the phase timings.
pub fn build_wan_observed(params: &WanParams, obs: &jinjing_obs::Collector) -> Wan {
    let sp = obs.span("wan.build");
    let wan = build_wan(params);
    let built = sp.finish();
    obs.gauge_set(
        "wan.devices",
        (wan.cores.len()
            + wan.aggs.iter().map(Vec::len).sum::<usize>()
            + wan.edges.iter().map(Vec::len).sum::<usize>()) as i64,
    );
    obs.gauge_set("wan.acl_slots", wan.all_acl_slots().len() as i64);
    obs.gauge_set("wan.installed_rules", wan.installed_rules() as i64);
    obs.gauge_set(
        "wan.edge_prefixes",
        wan.edge_prefixes.iter().map(Vec::len).sum::<usize>() as i64,
    );
    obs.event(
        jinjing_obs::Level::Debug,
        "wan.built",
        &format!(
            "seed {} built in {:.1} ms: {} rules over {} slots",
            params.seed,
            built.as_secs_f64() * 1e3,
            wan.installed_rules(),
            wan.all_acl_slots().len()
        ),
    );
    wan
}

/// Build a WAN from parameters. Fully deterministic for a given seed.
pub fn build_wan(params: &WanParams) -> Wan {
    let mut tb = TopologyBuilder::new();
    let mut rng = StdRng::seed_from_u64(params.seed);

    // Devices.
    let cores: Vec<DeviceId> = (0..params.cores)
        .map(|i| tb.device(&format!("core{i}")))
        .collect();
    let mut aggs: Vec<Vec<DeviceId>> = Vec::new();
    let mut edges: Vec<Vec<DeviceId>> = Vec::new();
    for c in 0..params.cells {
        aggs.push(
            (0..params.aggs_per_cell)
                .map(|i| tb.device(&format!("cell{c}-agg{i}")))
                .collect(),
        );
        edges.push(
            (0..params.edges_per_cell)
                .map(|i| tb.device(&format!("cell{c}-edge{i}")))
                .collect(),
        );
    }

    // Interfaces and links.
    let mut uplinks = Vec::new();
    for (i, &core) in cores.iter().enumerate() {
        uplinks.push(tb.iface(core, &format!("up{i}")));
    }
    // Core <-> agg full mesh; record the agg-side (core-facing) interfaces.
    let mut agg_core_ifaces: Vec<Vec<IfaceId>> = Vec::new(); // per agg device
    let mut agg_counter = 0usize;
    for cell_aggs in &aggs {
        for &agg in cell_aggs {
            let mut faces = Vec::new();
            for (k, &core) in cores.iter().enumerate() {
                let core_side = tb.iface(core, &format!("to-agg{agg_counter}"));
                let agg_side = tb.iface(agg, &format!("c{k}"));
                tb.link(core_side, agg_side);
                faces.push(agg_side);
            }
            agg_core_ifaces.push(faces);
            agg_counter += 1;
        }
    }
    // Agg <-> edge full mesh within each cell; record edge-side interfaces.
    let mut edge_agg_ifaces: Vec<Vec<IfaceId>> = Vec::new(); // per edge device
    let mut downlinks = Vec::new();
    let mut edge_counter = 0usize;
    for (c, cell_edges) in edges.iter().enumerate() {
        for &edge in cell_edges {
            let mut faces = Vec::new();
            for (j, &agg) in aggs[c].iter().enumerate() {
                let agg_side = tb.iface(agg, &format!("e{edge_counter}"));
                let edge_side = tb.iface(edge, &format!("a{j}"));
                tb.link(agg_side, edge_side);
                faces.push(edge_side);
            }
            downlinks.push(tb.iface(edge, "dn"));
            edge_agg_ifaces.push(faces);
            edge_counter += 1;
        }
    }
    let mut net = Network::new(tb.build());

    // Prefixes and announcements.
    let mut edge_prefixes: Vec<Vec<IpPrefix>> = Vec::new();
    {
        let mut flat_idx = 0usize;
        for c in 0..params.cells {
            for e in 0..params.edges_per_cell {
                let mut ps = Vec::new();
                for k in 0..params.prefixes_per_edge {
                    // 10.<cell>.<edge*16 + k>.0/24 — unique per (edge, k).
                    let third = e * 16 + k;
                    assert!(third < 256, "prefix space exhausted; shrink parameters");
                    let addr = (10u32 << 24) | ((c as u32) << 16) | ((third as u32) << 8);
                    let p = IpPrefix::new(addr, 24);
                    net.announce(p, downlinks[flat_idx]);
                    ps.push(p);
                }
                edge_prefixes.push(ps);
                flat_idx += 1;
            }
        }
    }
    let mut external_prefixes = Vec::new();
    for (i, &up) in uplinks.iter().enumerate() {
        for x in 0..params.external_per_uplink {
            let addr = (100u32 << 24) | (((i * params.external_per_uplink + x) as u32) << 16);
            let p = IpPrefix::new(addr, 16);
            net.announce(p, up);
            external_prefixes.push(p);
        }
    }
    net.compute_routes();

    // Traffic matrix: southbound at uplinks, northbound at downlinks.
    let dst = |p: &IpPrefix| Cube::full().with(Field::DstIp, p.interval());
    let south = PacketSet::from_cubes(edge_prefixes.iter().flatten().map(dst).collect());
    let north = PacketSet::from_cubes(external_prefixes.iter().map(dst).collect());
    for &up in &uplinks {
        net.set_entering(up, south.clone());
    }
    for &dn in &downlinks {
        net.set_entering(dn, north.clone());
    }

    // ACL population: one policy per aggregation device, installed on each
    // of its core-facing interfaces (southbound ingress).
    let mut config = AclConfig::new();
    let mut acl_slots: Vec<Vec<Slot>> = Vec::new();
    let all_edge_prefixes: Vec<IpPrefix> = edge_prefixes.iter().flatten().copied().collect();
    for faces in &agg_core_ifaces {
        let acl = random_policy(
            &mut rng,
            params.rules_per_slot,
            &all_edge_prefixes,
            &external_prefixes,
        );
        let slots: Vec<Slot> = faces.iter().map(|&i| Slot::ingress(i)).collect();
        for &s in &slots {
            config.set(s, acl.clone());
        }
        acl_slots.push(slots);
    }

    let edge_slots: Vec<Slot> = edge_agg_ifaces
        .iter()
        .flatten()
        .map(|&i| Slot::ingress(i))
        .collect();

    Wan {
        net,
        config,
        params: *params,
        cores,
        aggs,
        edges,
        uplinks,
        downlinks,
        acl_slots,
        edge_slots,
        edge_prefixes,
        external_prefixes,
    }
}

/// Generate one aggregation-layer policy: a prefix-structured mix of
/// destination denies (with occasional supernets/subnets for overlap and
/// shadowing), source-conditioned denies, port-scoped denies and redundant
/// permits, closed by an implicit `permit all`.
fn random_policy(
    rng: &mut StdRng,
    rules: usize,
    edge_prefixes: &[IpPrefix],
    external_prefixes: &[IpPrefix],
) -> Acl {
    let mut out: Vec<Rule> = Vec::with_capacity(rules);
    while out.len() < rules {
        let dst = edge_prefixes[rng.random_range(0..edge_prefixes.len())];
        let roll: f64 = rng.random();
        let text = if roll < 0.50 {
            // Destination deny, sometimes widened/narrowed for overlap.
            let width: i32 = rng.random_range(-2..=1);
            let len = (24i32 + width).clamp(8, 25) as u32;
            format!("deny dst {}", IpPrefix::new(dst.addr(), len))
        } else if roll < 0.65 {
            let src = external_prefixes[rng.random_range(0..external_prefixes.len())];
            format!("deny src {src} dst {dst}")
        } else if roll < 0.80 {
            // Port selections are prefix-aligned (as real low-ports/app
            // ranges tend to be); this also keeps fix's neighborhoods 1:1
            // with the rule regions instead of splitting per aligned block.
            let (lo, hi) = match rng.random_range(0..3) {
                0 => (0u16, 1023u16),
                1 => (3389, 3389),
                _ => (8192, 9215),
            };
            format!("deny dst {dst} dport {lo}-{hi}")
        } else {
            format!("permit dst {dst}")
        };
        out.push(parse_rule(&text).expect("generated rule must parse"));
    }
    Acl::new(out, Action::Permit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::NetSize;
    use jinjing_acl::Packet;
    use jinjing_net::fib::prefix_set;

    #[test]
    fn small_wan_builds_with_expected_shape() {
        let params = WanParams::preset(NetSize::Small);
        let wan = build_wan(&params);
        assert_eq!(wan.net.topology().device_count(), params.device_count());
        assert_eq!(wan.uplinks.len(), params.cores);
        assert_eq!(wan.downlinks.len(), params.cells * params.edges_per_cell);
        assert_eq!(wan.all_acl_slots().len(), params.acl_slot_count());
        assert_eq!(wan.installed_rules(), params.total_rules());
    }

    #[test]
    fn generation_is_deterministic() {
        let params = WanParams::preset(NetSize::Small);
        let a = build_wan(&params);
        let b = build_wan(&params);
        for slot in a.config.slots() {
            assert_eq!(a.config.get(slot), b.config.get(slot));
        }
        assert_eq!(a.net.announced().len(), b.net.announced().len());
    }

    #[test]
    fn southbound_traffic_crosses_an_acl_slot() {
        let wan = build_wan(&WanParams::preset(NetSize::Small));
        let scope = wan.scope();
        let prefix = wan.edge_prefixes[0][0];
        let class = prefix_set(&prefix);
        let paths = wan.net.paths_for_class(&scope, wan.uplinks[0], &class);
        assert!(!paths.is_empty(), "southbound path exists");
        for p in &paths {
            let acls = wan.config.configured_slots_on(p);
            assert_eq!(acls.len(), 1, "exactly one agg ACL on {p:?}");
            assert_eq!(p.ingress(), wan.uplinks[0]);
            assert!(wan.downlinks.contains(&p.egress()));
        }
    }

    #[test]
    fn northbound_traffic_avoids_acl_slots() {
        let wan = build_wan(&WanParams::preset(NetSize::Small));
        let scope = wan.scope();
        let class = prefix_set(&wan.external_prefixes[0]);
        let paths = wan.net.paths_for_class(&scope, wan.downlinks[0], &class);
        assert!(!paths.is_empty(), "northbound path exists");
        for p in &paths {
            assert!(wan.config.configured_slots_on(p).is_empty());
            assert!(wan.uplinks.contains(&p.egress()));
        }
    }

    #[test]
    fn routing_reaches_all_edge_prefixes_from_all_uplinks() {
        let wan = build_wan(&WanParams::preset(NetSize::Small));
        let scope = wan.scope();
        for (ei, ps) in wan.edge_prefixes.iter().enumerate() {
            for p in ps {
                let class = prefix_set(p);
                for &up in &wan.uplinks {
                    let paths = wan.net.paths_for_class(&scope, up, &class);
                    assert!(!paths.is_empty(), "uplink {up:?} -> edge {ei} prefix {p}");
                    for path in &paths {
                        assert_eq!(path.egress(), wan.downlinks[ei]);
                    }
                }
            }
        }
    }

    #[test]
    fn policies_vary_across_aggs_but_not_within() {
        let wan = build_wan(&WanParams::preset(NetSize::Small));
        // Same policy on all core-facing slots of one agg.
        for group in &wan.acl_slots {
            let first = wan.config.get(group[0]).unwrap();
            for &s in &group[1..] {
                assert_eq!(wan.config.get(s).unwrap(), first);
            }
        }
        // At least two agg devices differ (overwhelmingly likely).
        let a = wan.config.get(wan.acl_slots[0][0]).unwrap();
        let differs = wan
            .acl_slots
            .iter()
            .any(|g| wan.config.get(g[0]).unwrap() != a);
        assert!(differs);
    }

    #[test]
    fn some_traffic_is_actually_denied() {
        // The generated policies must bite: at least one southbound
        // (prefix, path) pair is denied.
        let wan = build_wan(&WanParams::preset(NetSize::Small));
        let scope = wan.scope();
        let mut denied = 0usize;
        for ps in &wan.edge_prefixes {
            for p in ps {
                let pkt = Packet::to_dst(p.addr() | 1);
                for &up in &wan.uplinks {
                    for path in wan.net.paths_for_class(&scope, up, &prefix_set(p)) {
                        if !wan.config.path_permits(&path, &pkt) {
                            denied += 1;
                        }
                    }
                }
            }
        }
        assert!(denied > 0, "generated ACLs never deny anything");
    }
}
