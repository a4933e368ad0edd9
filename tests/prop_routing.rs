//! Network loading against the plain loops it replaced. `compute_routes`
//! must list every FIB's entries as one BFS per announcement feeding the
//! de-duplicating `Fib::add` does; `Fib::forwarding_predicates` must build
//! the cube lists — cubes and order, not only the sets — of the longest-first
//! subtract/union loop; and the traffic universes must be the `union` fold.

mod cases;

use jinjing_acl::atoms::RefineLimits;
use jinjing_acl::{IpPrefix, PacketSet};
use jinjing_net::fib::prefix_set;
use jinjing_net::{DeviceId, Fib, IfaceId, Network, Scope, ScopeModel, TopologyBuilder};
use jinjing_wan::{build_wan, NetSize, WanParams};
use rand::rngs::StdRng;
use rand::RngExt;
use std::collections::{HashMap, VecDeque};

const SUITE: &str = "prop_routing";

/// The forwarding predicates as the plain loop: walk prefixes from most to
/// least specific, subtract what longer prefixes claimed, and union the
/// rest into every ECMP output of the prefix.
fn reference_predicates(fib: &Fib) -> HashMap<IfaceId, PacketSet> {
    let mut by_prefix: HashMap<IpPrefix, Vec<IfaceId>> = HashMap::new();
    for e in fib.entries() {
        by_prefix.entry(e.prefix).or_default().push(e.out);
    }
    let mut prefixes: Vec<IpPrefix> = by_prefix.keys().copied().collect();
    prefixes.sort_by(|a, b| b.len().cmp(&a.len()).then(a.addr().cmp(&b.addr())));
    let mut claimed = PacketSet::empty();
    let mut preds: HashMap<IfaceId, PacketSet> = HashMap::new();
    for pfx in prefixes {
        let full = prefix_set(&pfx);
        let effective = full.subtract(&claimed);
        claimed = claimed.union(&full);
        if effective.is_empty() {
            continue;
        }
        for out in &by_prefix[&pfx] {
            let entry = preds.entry(*out).or_insert_with(PacketSet::empty);
            *entry = entry.union(&effective);
        }
    }
    preds
}

/// `compute_routes` as the plain loop: one BFS per announcement, every
/// entry through `Fib::add`.
fn reference_routes(net: &mut Network) {
    let announcements = net.announced().to_vec();
    for (prefix, ext) in announcements {
        let topo = net.topology().clone();
        let target = topo.owner(ext);
        let mut dist: HashMap<DeviceId, u32> = HashMap::from([(target, 0)]);
        let mut q = VecDeque::from([target]);
        while let Some(d) = q.pop_front() {
            let dd = dist[&d];
            for &i in topo.device_ifaces(d) {
                if let Some(peer) = topo.peer(i) {
                    let nd = topo.owner(peer);
                    dist.entry(nd).or_insert_with(|| {
                        q.push_back(nd);
                        dd + 1
                    });
                }
            }
        }
        for dev in topo.devices() {
            let Some(&dd) = dist.get(&dev) else { continue };
            if dev == target {
                net.fib_mut(dev).add(prefix, ext);
                continue;
            }
            for &i in topo.device_ifaces(dev) {
                if let Some(peer) = topo.peer(i) {
                    if dist.get(&topo.owner(peer)) == Some(&(dd - 1)) {
                        net.fib_mut(dev).add(prefix, i);
                    }
                }
            }
        }
    }
}

/// The union of `sets` as the fold of `PacketSet::union` from empty.
fn union_fold<'a>(sets: impl IntoIterator<Item = &'a PacketSet>) -> PacketSet {
    sets.into_iter()
        .fold(PacketSet::empty(), |acc, s| acc.union(s))
}

/// A prefix drawn so that draws nest often: a short random length over a
/// few shared high bits, with `/0` and host routes in the mix.
fn nesting_prefix(rng: &mut StdRng) -> IpPrefix {
    const LENGTHS: [u32; 9] = [0, 1, 4, 8, 9, 12, 16, 24, 32];
    let len = LENGTHS[rng.random_range(0..LENGTHS.len())];
    let high = rng.random_range(0..4u32) << 30;
    IpPrefix::new(high | (rng.random_range(0..=u32::MAX) >> 2), len)
}

/// FIB entries with nested prefixes, `/0`, ECMP groups and repeated adds.
fn fib_entries(rng: &mut StdRng) -> Vec<(IpPrefix, IfaceId)> {
    let n = rng.random_range(0..24usize);
    let mut entries: Vec<(IpPrefix, IfaceId)> = Vec::new();
    for _ in 0..n {
        let out = IfaceId(rng.random_range(0..4u32));
        let e = match rng.random_range(0..6u32) {
            // An ECMP sibling or a repeat of an earlier entry.
            0 | 1 if !entries.is_empty() => {
                let (p, _) = entries[rng.random_range(0..entries.len())];
                (p, out)
            }
            2 if !entries.is_empty() => entries[rng.random_range(0..entries.len())],
            _ => (nesting_prefix(rng), out),
        };
        entries.push(e);
    }
    entries
}

fn fib_of(entries: &[(IpPrefix, IfaceId)]) -> Fib {
    let mut fib = Fib::new();
    for &(p, out) in entries {
        fib.add(p, out);
    }
    fib
}

#[test]
fn predicates_are_the_plain_loop_on_random_fibs() {
    cases::run(
        SUITE,
        "predicates_are_the_plain_loop_on_random_fibs",
        3_000,
        fib_entries,
        |entries| {
            let fib = fib_of(entries);
            assert_eq!(fib.forwarding_predicates(), reference_predicates(&fib));
        },
    );
}

/// A random network: devices with interface counts, links between
/// interfaces (device, interface index), announcements at unlinked
/// interfaces, entries installed before routing, and explicit traffic per
/// interface.
#[derive(Debug)]
struct RandomNet {
    ifaces: Vec<usize>,
    links: Vec<((usize, usize), (usize, usize))>,
    announcements: Vec<(IpPrefix, (usize, usize))>,
    preinstalled: Vec<(usize, IpPrefix, usize)>,
    entering: Vec<((usize, usize), Vec<IpPrefix>)>,
}

fn random_net(rng: &mut StdRng) -> RandomNet {
    let ifaces: Vec<usize> = (0..rng.random_range(1..=7usize))
        .map(|_| rng.random_range(1..=4usize))
        .collect();
    let all: Vec<(usize, usize)> = ifaces
        .iter()
        .enumerate()
        .flat_map(|(d, &k)| (0..k).map(move |i| (d, i)))
        .collect();
    let mut linked = vec![false; all.len()];
    let mut links = Vec::new();
    for _ in 0..rng.random_range(0..=2 * ifaces.len()) {
        let (a, b) = (
            rng.random_range(0..all.len()),
            rng.random_range(0..all.len()),
        );
        if all[a].0 != all[b].0 && !linked[a] && !linked[b] {
            linked[a] = true;
            linked[b] = true;
            links.push((all[a], all[b]));
        }
    }
    let external: Vec<(usize, usize)> = (0..all.len())
        .filter(|&k| !linked[k])
        .map(|k| all[k])
        .collect();
    let mut announcements: Vec<(IpPrefix, (usize, usize))> = Vec::new();
    if !external.is_empty() {
        for _ in 0..rng.random_range(0..10usize) {
            let at = external[rng.random_range(0..external.len())];
            let prefix = match announcements.len() {
                n if n > 0 && rng.random_range(0..4u32) == 0 => {
                    announcements[rng.random_range(0..n)].0
                }
                _ => nesting_prefix(rng),
            };
            announcements.push((prefix, at));
        }
    }
    let preinstalled = (0..rng.random_range(0..4usize))
        .map(|_| {
            let d = rng.random_range(0..ifaces.len());
            (d, nesting_prefix(rng), rng.random_range(0..ifaces[d]))
        })
        .collect();
    let mut entering: Vec<((usize, usize), Vec<IpPrefix>)> = Vec::new();
    for _ in 0..rng.random_range(0..4usize) {
        let at = all[rng.random_range(0..all.len())];
        let prefixes = match entering.len() {
            n if n > 0 && rng.random() => entering[rng.random_range(0..n)].1.clone(),
            _ => (0..rng.random_range(0..5usize))
                .map(|_| nesting_prefix(rng))
                .collect(),
        };
        entering.push((at, prefixes));
    }
    RandomNet {
        ifaces,
        links,
        announcements,
        preinstalled,
        entering,
    }
}

/// The network with everything but routing: topology, preinstalled
/// entries, announcements and the traffic matrix (each entry the fold).
fn unrouted(spec: &RandomNet) -> Network {
    let mut tb = TopologyBuilder::new();
    let ids: Vec<Vec<IfaceId>> = spec
        .ifaces
        .iter()
        .enumerate()
        .map(|(d, &k)| {
            let dev = tb.device(&format!("D{d}"));
            (0..k).map(|i| tb.iface(dev, &i.to_string())).collect()
        })
        .collect();
    let id = |(d, i): (usize, usize)| ids[d][i];
    for &(a, b) in &spec.links {
        tb.link(id(a), id(b));
    }
    let mut net = Network::new(tb.build());
    for &(d, prefix, i) in &spec.preinstalled {
        net.fib_mut(DeviceId(d as u32)).add(prefix, id((d, i)));
    }
    for &(prefix, at) in &spec.announcements {
        net.announce(prefix, id(at));
    }
    for (at, prefixes) in &spec.entering {
        let sets: Vec<PacketSet> = prefixes.iter().map(prefix_set).collect();
        net.set_entering(id(*at), union_fold(&sets));
    }
    net
}

#[test]
fn routes_and_universes_are_the_plain_loops_on_random_networks() {
    let name = "routes_and_universes_are_the_plain_loops_on_random_networks";
    cases::run(SUITE, name, 1_000, random_net, |spec| {
        let mut net = unrouted(spec);
        let mut reference = unrouted(spec);
        net.compute_routes();
        reference_routes(&mut reference);
        for d in net.topology().devices() {
            assert_eq!(net.fib(d).entries(), reference.fib(d).entries(), "{d:?}");
            assert_eq!(
                *net.forwarding_predicates(d),
                reference_predicates(net.fib(d)),
                "{d:?}"
            );
        }
        let announced: Vec<PacketSet> =
            net.announced().iter().map(|(p, _)| prefix_set(p)).collect();
        assert_eq!(net.announced_universe(), union_fold(&announced));
        let scope = Scope::whole(net.topology());
        let entering: Vec<PacketSet> = net
            .entering_traffic(&scope)
            .into_iter()
            .map(|(_, t)| t)
            .collect();
        let model = ScopeModel::new(&net, scope, Vec::new(), RefineLimits::default());
        assert_eq!(*model.universe(), union_fold(&entering));
    });
}

#[test]
fn presets_load_as_the_plain_loops() {
    for size in NetSize::ALL {
        let wan = build_wan(&WanParams::preset(size));
        let mut reference = Network::new(wan.net.topology().clone());
        for &(prefix, ext) in wan.net.announced() {
            reference.announce(prefix, ext);
        }
        reference_routes(&mut reference);
        for d in wan.net.topology().devices() {
            let fib = wan.net.fib(d);
            assert_eq!(fib.entries(), reference.fib(d).entries(), "{size:?} {d:?}");
            assert_eq!(
                *wan.net.forwarding_predicates(d),
                reference_predicates(fib),
                "{size:?} {d:?}"
            );
        }
        let south: Vec<PacketSet> = wan.edge_prefixes.iter().flatten().map(prefix_set).collect();
        let north: Vec<PacketSet> = wan.external_prefixes.iter().map(prefix_set).collect();
        let (south, north) = (union_fold(&south), union_fold(&north));
        for (iface, set) in wan.net.entering_entries() {
            let expected = if wan.uplinks.contains(iface) {
                &south
            } else {
                &north
            };
            assert_eq!(set, expected, "{size:?} {iface:?}");
        }
        let entering: Vec<PacketSet> = wan
            .net
            .entering_traffic(&wan.scope())
            .into_iter()
            .map(|(_, t)| t)
            .collect();
        let model = ScopeModel::new(&wan.net, wan.scope(), Vec::new(), RefineLimits::default());
        assert_eq!(*model.universe(), union_fold(&entering), "{size:?}");
    }
}
