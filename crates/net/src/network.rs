//! The assembled network: topology + routing + announcements, with scope,
//! border, path-enumeration and traffic-extraction queries.
//!
//! This module plays the role of the paper's "internal IP management
//! system": given prefix announcements at external interfaces it computes
//! shortest-path (ECMP) FIBs, and it answers the queries Algorithm 1 needs —
//! which interfaces border a scope, what traffic enters it, and which paths
//! a traffic class can take across it.

use crate::fib::{dst_cube, Fib, FibEntry};
use crate::ids::{DeviceId, Dir, IfaceId, Slot};
use crate::topology::Topology;
use jinjing_acl::{IpPrefix, PacketSet};
use std::borrow::Cow;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::{Arc, Mutex};

/// A management scope `Ω`: a set of devices whose ACLs are under
/// consideration (§3.1 `scope`).
#[derive(Debug, Clone, Default)]
pub struct Scope {
    devices: HashSet<DeviceId>,
}

impl Scope {
    /// Scope over the given devices.
    pub fn of(devices: impl IntoIterator<Item = DeviceId>) -> Scope {
        Scope {
            devices: devices.into_iter().collect(),
        }
    }

    /// Scope covering the entire network.
    pub fn whole(topo: &Topology) -> Scope {
        Scope::of(topo.devices())
    }

    /// Membership test.
    pub fn contains(&self, d: DeviceId) -> bool {
        self.devices.contains(&d)
    }

    /// The devices, in unspecified order.
    pub fn devices(&self) -> impl Iterator<Item = DeviceId> + '_ {
        self.devices.iter().copied()
    }

    /// Number of devices in scope.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// `true` when the scope is empty.
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }
}

/// A path across a scope: the alternating in/out ACL slots it traverses,
/// starting at an ingress border slot and ending at an egress border slot.
/// Matches the paper's interface lists (`⟨A1, A4, D1, D3⟩` becomes
/// `[A1/in, A4/out, D1/in, D3/out]`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Path {
    /// The traversed ACL slots, in order.
    pub slots: Vec<Slot>,
    /// The exact set of packets the routing state carries along this path:
    /// the intersection of the forwarding predicates `g` at every hop.
    /// A traffic class crosses the scope on this path iff it intersects
    /// `carried` (and is contained in it when the class is an FEC).
    pub carried: PacketSet,
}

impl Path {
    /// The border interface where the path enters the scope.
    pub fn ingress(&self) -> IfaceId {
        self.slots.first().expect("path is never empty").iface
    }

    /// The border interface where the path leaves the scope.
    pub fn egress(&self) -> IfaceId {
        self.slots.last().expect("path is never empty").iface
    }

    /// Render as the paper's interface-list notation.
    pub fn display(&self, topo: &Topology) -> String {
        let names: Vec<String> = self
            .slots
            .iter()
            .map(|s| topo.iface_name(s.iface))
            .collect();
        format!("⟨{}⟩", names.join(", "))
    }
}

/// Topology + per-device FIBs + prefix announcements.
#[derive(Debug)]
pub struct Network {
    topo: Topology,
    fibs: Vec<Fib>,
    /// Memoized forwarding predicates per device: path enumeration reads a
    /// device's predicates at every DFS step, and each FIB is compiled
    /// once. Cleared on any FIB change.
    predicate_cache: Mutex<HashMap<DeviceId, Arc<HashMap<IfaceId, PacketSet>>>>,
    /// Prefixes announced at external interfaces (where that traffic
    /// ultimately exits the modeled network).
    announced: Vec<(IpPrefix, IfaceId)>,
    /// Explicit ingress-traffic matrix. When non-empty, only the listed
    /// interfaces admit traffic (and only the listed sets); when empty,
    /// every border interface admits the full announced universe.
    entering: Vec<(IfaceId, PacketSet)>,
}

impl Clone for Network {
    fn clone(&self) -> Network {
        Network {
            topo: self.topo.clone(),
            fibs: self.fibs.clone(),
            predicate_cache: Mutex::new(HashMap::new()),
            announced: self.announced.clone(),
            entering: self.entering.clone(),
        }
    }
}

impl Network {
    /// Wrap a topology with empty FIBs.
    pub fn new(topo: Topology) -> Network {
        let n = topo.device_count();
        Network {
            topo,
            fibs: (0..n).map(|_| Fib::new()).collect(),
            predicate_cache: Mutex::new(HashMap::new()),
            announced: Vec::new(),
            entering: Vec::new(),
        }
    }

    /// The topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// A device's FIB.
    pub fn fib(&self, d: DeviceId) -> &Fib {
        &self.fibs[d.index()]
    }

    /// Mutable FIB access (for hand-crafted routing like the Figure 1
    /// example). Invalidates the forwarding-predicate cache.
    pub fn fib_mut(&mut self, d: DeviceId) -> &mut Fib {
        self.predicate_cache.lock().expect("cache lock").clear();
        &mut self.fibs[d.index()]
    }

    /// Record that `prefix` is reachable out of the external interface
    /// `ext`, and should be routed there from everywhere.
    pub fn announce(&mut self, prefix: IpPrefix, ext: IfaceId) {
        assert!(
            self.topo.peer(ext).is_none(),
            "announcements must sit on external interfaces"
        );
        self.announced.push((prefix, ext));
    }

    /// The announcements.
    pub fn announced(&self) -> &[(IpPrefix, IfaceId)] {
        &self.announced
    }

    /// Compute shortest-path (ECMP) FIBs for every announcement: each
    /// device routes the prefix toward the announcing device along all
    /// shortest paths; the announcing device routes it out of the external
    /// interface. Pre-existing FIB entries are preserved.
    ///
    /// One BFS per distinct announcing device serves all of its
    /// announcements. Each FIB is then filled in one go, at exact
    /// capacity, by replaying the announcements in order, so it lists its
    /// entries as one BFS per announcement would; duplicates are dropped
    /// through a set of the device's entries that lives only for this call.
    pub fn compute_routes(&mut self) {
        self.predicate_cache.lock().expect("cache lock").clear();
        let mut hops: HashMap<DeviceId, Vec<Option<Vec<IfaceId>>>> = HashMap::new();
        for &(_, ext) in &self.announced {
            let target = self.topo.owner(ext);
            hops.entry(target)
                .or_insert_with(|| next_hops(&self.topo, target));
        }
        let mut seen: HashSet<(IpPrefix, IfaceId)> = HashSet::new();
        for (d, fib) in self.fibs.iter_mut().enumerate() {
            let outs = |a| route_outs(&self.topo, &hops, DeviceId(d as u32), a);
            fib.reserve(self.announced.iter().map(|a| outs(a).len()).sum());
            seen.clear();
            seen.extend(fib.entries().iter().map(|e| (e.prefix, e.out)));
            for a in &self.announced {
                for &out in outs(a) {
                    if seen.insert((a.0, out)) {
                        fib.push(FibEntry { prefix: a.0, out });
                    }
                }
            }
        }
    }

    /// Border interfaces of a scope: interfaces of scope devices whose peer
    /// lies outside the scope (or that are external).
    pub fn border_ifaces(&self, scope: &Scope) -> Vec<IfaceId> {
        let mut out = Vec::new();
        for d in self.topo.devices() {
            if !scope.contains(d) {
                continue;
            }
            for &i in self.topo.device_ifaces(d) {
                let is_border = match self.topo.peer(i) {
                    None => true,
                    Some(p) => !scope.contains(self.topo.owner(p)),
                };
                if is_border {
                    out.push(i);
                }
            }
        }
        out.sort();
        out
    }

    /// The forwarding predicates of one device (memoized).
    pub fn forwarding_predicates(&self, d: DeviceId) -> Arc<HashMap<IfaceId, PacketSet>> {
        let mut cache = self.predicate_cache.lock().expect("cache lock");
        cache
            .entry(d)
            .or_insert_with(|| Arc::new(self.fibs[d.index()].forwarding_predicates()))
            .clone()
    }

    /// The forwarding-predicate family `G_Ω` of a scope: every
    /// `(out-interface, packet set)` pair of every scope device. Input to
    /// FEC derivation (Eq. 2).
    pub fn scope_predicates(&self, scope: &Scope) -> Vec<(IfaceId, PacketSet)> {
        let mut out = Vec::new();
        let mut devs: Vec<DeviceId> = scope.devices().collect();
        devs.sort();
        for d in devs {
            let mut preds: Vec<(IfaceId, PacketSet)> = self
                .forwarding_predicates(d)
                .iter()
                .map(|(i, g)| (*i, g.clone()))
                .collect();
            preds.sort_by_key(|(i, _)| *i);
            out.extend(preds);
        }
        out
    }

    /// Declare the traffic entering the network at one interface (the
    /// paper's "IP management system" data). Once any entry is set, the
    /// traffic matrix is *explicit*: interfaces without an entry admit no
    /// traffic.
    pub fn set_entering(&mut self, iface: IfaceId, set: PacketSet) {
        if let Some(e) = self.entering.iter_mut().find(|(i, _)| *i == iface) {
            e.1 = set;
        } else {
            self.entering.push((iface, set));
        }
    }

    /// The announced destination universe (all routable traffic).
    pub fn announced_universe(&self) -> PacketSet {
        PacketSet::from_cubes(
            self.announced
                .iter()
                .map(|(p, _)| dst_cube(p.interval()))
                .collect(),
        )
    }

    /// The explicit traffic-matrix entries (empty when no matrix was
    /// declared and every border admits the universe).
    pub fn entering_entries(&self) -> &[(IfaceId, PacketSet)] {
        &self.entering
    }

    /// The traffic admitted at one interface: its explicit matrix entry, or
    /// (when no matrix was declared) the full announced universe.
    pub fn entering_at(&self, iface: IfaceId) -> PacketSet {
        self.admitted_at(iface).into_owned()
    }

    /// [`Network::entering_at`], borrowing an explicit matrix entry.
    fn admitted_at(&self, iface: IfaceId) -> Cow<'_, PacketSet> {
        if self.entering.is_empty() {
            return Cow::Owned(self.announced_universe());
        }
        self.entering
            .iter()
            .find(|(i, _)| *i == iface)
            .map_or(Cow::Owned(PacketSet::empty()), |(_, s)| Cow::Borrowed(s))
    }

    /// The traffic entering a scope — the `X_Ω` of Algorithm 1: per ingress
    /// border interface, what the traffic matrix admits there.
    pub fn entering_traffic(&self, scope: &Scope) -> Vec<(IfaceId, PacketSet)> {
        let mut out = Vec::new();
        for b in self.border_ifaces(scope) {
            let t = self.entering_at(b);
            if !t.is_empty() {
                out.push((b, t));
            }
        }
        out
    }

    /// Enumerate the paths a traffic class can take across the scope
    /// starting at ingress border interface `from` — the per-class `Y` of
    /// Algorithm 1. The class should be forwarding-uniform (an FEC or
    /// finer); membership on a hop is decided by set intersection, so a
    /// coarser class yields the union of its members' paths.
    ///
    /// Paths are loop-free (device-visited guard) and end at the first
    /// border interface the traffic is forwarded out of.
    pub fn paths_for_class(&self, scope: &Scope, from: IfaceId, class: &PacketSet) -> Vec<Path> {
        let dev = self.topo.owner(from);
        if !scope.contains(dev) || class.is_empty() {
            return Vec::new();
        }
        let mut paths = Vec::new();
        let mut visited: HashSet<DeviceId> = HashSet::new();
        let mut slots: Vec<Slot> = vec![Slot {
            iface: from,
            dir: Dir::In,
        }];
        self.dfs_paths(scope, dev, class, &mut visited, &mut slots, &mut paths);
        paths
    }

    fn dfs_paths(
        &self,
        scope: &Scope,
        dev: DeviceId,
        carried: &PacketSet,
        visited: &mut HashSet<DeviceId>,
        slots: &mut Vec<Slot>,
        paths: &mut Vec<Path>,
    ) {
        visited.insert(dev);
        let predicates = self.forwarding_predicates(dev);
        let mut preds: Vec<(IfaceId, &PacketSet)> =
            predicates.iter().map(|(i, g)| (*i, g)).collect();
        preds.sort_by_key(|(i, _)| *i);
        let in_iface = slots.last().expect("at least the ingress slot").iface;
        for (out, g) in preds {
            if out == in_iface {
                continue;
            }
            let narrowed = carried.intersect(g);
            if narrowed.is_empty() {
                continue;
            }
            slots.push(Slot {
                iface: out,
                dir: Dir::Out,
            });
            match self.topo.peer(out) {
                Some(peer) if scope.contains(self.topo.owner(peer)) => {
                    let nd = self.topo.owner(peer);
                    if !visited.contains(&nd) {
                        slots.push(Slot {
                            iface: peer,
                            dir: Dir::In,
                        });
                        self.dfs_paths(scope, nd, &narrowed, visited, slots, paths);
                        slots.pop();
                    }
                }
                // Exits the scope (external, or peer outside scope).
                _ => paths.push(Path {
                    slots: slots.clone(),
                    carried: narrowed,
                }),
            }
            slots.pop();
        }
        visited.remove(&dev);
    }

    /// All paths across the scope from every ingress border interface for
    /// the class — `P` restricted to the class and to the traffic matrix
    /// (a border interface only originates paths for traffic it admits).
    pub fn all_paths_for_class(&self, scope: &Scope, class: &PacketSet) -> Vec<Path> {
        let mut out = Vec::new();
        for b in self.border_ifaces(scope) {
            let admitted = class.intersect(&self.admitted_at(b));
            if admitted.is_empty() {
                continue;
            }
            out.extend(self.paths_for_class(scope, b, &admitted));
        }
        out
    }
}

/// Where `device` routes the announcement `(prefix, ext)`: out of `ext` on
/// the announcing device, to its next hops toward it elsewhere (`hops` is
/// [`next_hops`] per announcing device), nowhere when it is unreachable.
fn route_outs<'a>(
    topo: &Topology,
    hops: &'a HashMap<DeviceId, Vec<Option<Vec<IfaceId>>>>,
    device: DeviceId,
    (_, ext): &'a (IpPrefix, IfaceId),
) -> &'a [IfaceId] {
    let target = topo.owner(*ext);
    match &hops[&target][device.index()] {
        None => &[],
        Some(_) if device == target => std::slice::from_ref(ext),
        Some(next) => next,
    }
}

/// Per device (by index), its next hops toward `target` along every
/// shortest path: the interfaces whose peer device is one step closer.
/// `None` marks a device that cannot reach `target`; `target` itself has
/// none.
fn next_hops(topo: &Topology, target: DeviceId) -> Vec<Option<Vec<IfaceId>>> {
    let peer_device = |i: IfaceId| topo.peer(i).map(|p| topo.owner(p));
    let mut dist: Vec<Option<u32>> = vec![None; topo.device_count()];
    dist[target.index()] = Some(0);
    let mut q = VecDeque::from([target]);
    while let Some(d) = q.pop_front() {
        let dd = dist[d.index()].expect("queued devices have a distance");
        for &i in topo.device_ifaces(d) {
            if let Some(nd) = peer_device(i) {
                if dist[nd.index()].is_none() {
                    dist[nd.index()] = Some(dd + 1);
                    q.push_back(nd);
                }
            }
        }
    }
    topo.devices()
        .map(|d| {
            let dd = dist[d.index()]?;
            if d == target {
                return Some(Vec::new());
            }
            let closer =
                |i: &&IfaceId| peer_device(**i).is_some_and(|nd| dist[nd.index()] == Some(dd - 1));
            Some(
                topo.device_ifaces(d)
                    .iter()
                    .filter(closer)
                    .copied()
                    .collect(),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fib::{pfx, prefix_set};
    use crate::topology::TopologyBuilder;
    use jinjing_acl::Packet;

    /// A ─ B ─ C chain with external interfaces at both ends.
    ///   ext─[A0] A [A1]──[B0] B [B1]──[C0] C [C1]─ext
    fn chain() -> (Network, Vec<IfaceId>) {
        let mut tb = TopologyBuilder::new();
        let a = tb.device("A");
        let b = tb.device("B");
        let c = tb.device("C");
        let a0 = tb.iface(a, "0");
        let a1 = tb.iface(a, "1");
        let b0 = tb.iface(b, "0");
        let b1 = tb.iface(b, "1");
        let c0 = tb.iface(c, "0");
        let c1 = tb.iface(c, "1");
        tb.link(a1, b0);
        tb.link(b1, c0);
        let mut net = Network::new(tb.build());
        net.announce(pfx("1.0.0.0/8"), c1); // 1/8 exits at C:1
        net.announce(pfx("2.0.0.0/8"), a0); // 2/8 exits at A:0
        net.compute_routes();
        (net, vec![a0, a1, b0, b1, c0, c1])
    }

    #[test]
    fn routes_follow_shortest_path() {
        let (net, ifs) = chain();
        let p1 = Packet::to_dst(0x0100_0001);
        // A routes 1/8 toward B; B toward C; C out the external iface.
        assert_eq!(net.fib(DeviceId(0)).lookup(&p1), vec![ifs[1]]);
        assert_eq!(net.fib(DeviceId(1)).lookup(&p1), vec![ifs[3]]);
        assert_eq!(net.fib(DeviceId(2)).lookup(&p1), vec![ifs[5]]);
        let p2 = Packet::to_dst(0x0200_0001);
        assert_eq!(net.fib(DeviceId(2)).lookup(&p2), vec![ifs[4]]);
        assert_eq!(net.fib(DeviceId(0)).lookup(&p2), vec![ifs[0]]);
    }

    #[test]
    fn border_of_sub_scope() {
        let (net, ifs) = chain();
        let scope = Scope::of([DeviceId(0), DeviceId(1)]); // A, B
        let border = net.border_ifaces(&scope);
        // A0 external, B1 links to out-of-scope C.
        assert_eq!(border, vec![ifs[0], ifs[3]]);
        let whole = Scope::whole(net.topology());
        assert_eq!(net.border_ifaces(&whole), vec![ifs[0], ifs[5]]);
    }

    #[test]
    fn paths_cross_the_whole_chain() {
        let (net, ifs) = chain();
        let scope = Scope::whole(net.topology());
        let class = prefix_set(&pfx("1.0.0.0/8"));
        let paths = net.paths_for_class(&scope, ifs[0], &class);
        assert_eq!(paths.len(), 1);
        let p = &paths[0];
        assert_eq!(p.ingress(), ifs[0]);
        assert_eq!(p.egress(), ifs[5]);
        assert_eq!(p.slots.len(), 6); // in/out at each of A, B, C
        assert_eq!(p.display(net.topology()), "⟨A:0, A:1, B:0, B:1, C:0, C:1⟩");
        // Direction alternates starting with In.
        for (k, s) in p.slots.iter().enumerate() {
            assert_eq!(s.dir, if k % 2 == 0 { Dir::In } else { Dir::Out });
        }
    }

    #[test]
    fn no_path_for_unrouted_class() {
        let (net, ifs) = chain();
        let scope = Scope::whole(net.topology());
        let class = prefix_set(&pfx("9.0.0.0/8"));
        assert!(net.paths_for_class(&scope, ifs[0], &class).is_empty());
    }

    #[test]
    fn path_stops_at_scope_border() {
        let (net, ifs) = chain();
        let scope = Scope::of([DeviceId(0), DeviceId(1)]);
        let class = prefix_set(&pfx("1.0.0.0/8"));
        let paths = net.paths_for_class(&scope, ifs[0], &class);
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].egress(), ifs[3]); // leaves at B:1 toward C
        assert_eq!(paths[0].slots.len(), 4);
    }

    #[test]
    fn ecmp_produces_multiple_paths() {
        // Diamond: A → {B, C} → D, destination behind D.
        let mut tb = TopologyBuilder::new();
        let a = tb.device("A");
        let b = tb.device("B");
        let c = tb.device("C");
        let d = tb.device("D");
        let a0 = tb.iface(a, "0");
        let ab = tb.iface(a, "b");
        let ac = tb.iface(a, "c");
        let ba = tb.iface(b, "a");
        let bd = tb.iface(b, "d");
        let ca = tb.iface(c, "a");
        let cd = tb.iface(c, "d");
        let db = tb.iface(d, "b");
        let dc = tb.iface(d, "c");
        let d0 = tb.iface(d, "0");
        tb.link(ab, ba);
        tb.link(ac, ca);
        tb.link(bd, db);
        tb.link(cd, dc);
        let mut net = Network::new(tb.build());
        net.announce(pfx("1.0.0.0/8"), d0);
        net.compute_routes();
        let scope = Scope::whole(net.topology());
        let class = prefix_set(&pfx("1.0.0.0/8"));
        let paths = net.paths_for_class(&scope, a0, &class);
        assert_eq!(paths.len(), 2, "two ECMP paths through the diamond");
        let egresses: HashSet<IfaceId> = paths.iter().map(Path::egress).collect();
        assert_eq!(egresses, HashSet::from([d0]));
    }

    #[test]
    fn entering_traffic_covers_announcements() {
        let (net, _) = chain();
        let scope = Scope::whole(net.topology());
        let entering = net.entering_traffic(&scope);
        assert_eq!(entering.len(), 2); // two border ifaces
        for (_, set) in entering {
            assert!(set.contains(&Packet::to_dst(0x0100_0001)));
            assert!(set.contains(&Packet::to_dst(0x0200_0001)));
            assert!(!set.contains(&Packet::to_dst(0x0900_0001)));
        }
    }

    #[test]
    #[should_panic(expected = "external interfaces")]
    fn announce_on_internal_iface_rejected() {
        let (mut net, ifs) = chain();
        net.announce(pfx("9.0.0.0/8"), ifs[1]); // A:1 is linked
    }
}
