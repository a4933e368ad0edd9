//! On-disk network and ACL-configuration specifications.
//!
//! Jinjing's inputs in production come from an IP management system; the
//! equivalent for this library is a pair of JSON documents:
//!
//! - a [`NetworkSpec`]: devices, interfaces, links, prefix announcements,
//!   optional static FIB entries and an optional directional traffic
//!   matrix;
//! - an [`AclConfigSpec`]: the ACL text per interface slot.
//!
//! Both round-trip losslessly through [`Network`]/[`AclConfig`] (up to
//! route recomputation) and power the `jinjing` command-line tool. The
//! reader ([`NetworkSpec::from_json`], [`AclConfigSpec::from_json`]) and the
//! writer (`to_json_pretty`) are hand-written over
//! [`jinjing_obs::json`]: optional fields default as documented on each,
//! unknown keys are ignored, a known key given twice is an error, and every
//! error names where in the document it is (`devices[2].interfaces:
//! expected an array`). Example:
//!
//! ```json
//! {
//!   "devices": [
//!     {"name": "A", "interfaces": ["1", "2"]},
//!     {"name": "B", "interfaces": ["1"]}
//!   ],
//!   "links": [["A:2", "B:1"]],
//!   "announcements": [{"prefix": "1.0.0.0/8", "interface": "B:1"}],
//!   "entering": [{"interface": "A:1", "dst_prefixes": ["1.0.0.0/8"]}]
//! }
//! ```

use crate::config::AclConfig;
use crate::ids::{DeviceId, Dir, IfaceId, Slot};
use crate::network::Network;
use crate::topology::TopologyBuilder;
use jinjing_acl::parse::parse_acl;
use jinjing_acl::parse::parse_prefix;
use jinjing_acl::{Acl, IpPrefix, PacketSet};
use jinjing_obs::json::{self, Json};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Error reading a spec document or binding it to concrete objects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// What went wrong.
    pub message: String,
}

impl SpecError {
    fn new(message: impl Into<String>) -> SpecError {
        SpecError {
            message: message.into(),
        }
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for SpecError {}

/// One device and its interface names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceSpec {
    /// Device name (unique).
    pub name: String,
    /// Interface names (unique per device).
    pub interfaces: Vec<String>,
}

/// A prefix announced at an external interface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnnouncementSpec {
    /// Prefix literal, e.g. `"10.1.0.0/24"`.
    pub prefix: String,
    /// `"device:interface"` of the (external) exit point.
    pub interface: String,
}

/// A static FIB entry (for hand-crafted routing; optional — announcements
/// plus shortest-path computation usually suffice).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteSpec {
    /// Owning device.
    pub device: String,
    /// Destination prefix literal.
    pub prefix: String,
    /// Output `"device:interface"` (must belong to `device`).
    pub out: String,
}

/// Traffic admitted at one interface (directional traffic matrix entry).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnteringSpec {
    /// `"device:interface"` where the traffic enters.
    pub interface: String,
    /// Destination prefixes admitted there.
    pub dst_prefixes: Vec<String>,
}

/// A whole network document.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NetworkSpec {
    /// Devices and their interfaces.
    pub devices: Vec<DeviceSpec>,
    /// Bidirectional links as `["A:1", "B:2"]` pairs; absent = none.
    pub links: Vec<(String, String)>,
    /// Prefix announcements at external interfaces; absent = none.
    pub announcements: Vec<AnnouncementSpec>,
    /// Static FIB entries (applied after shortest-path computation);
    /// absent = none.
    pub routes: Vec<RouteSpec>,
    /// Directional traffic matrix; absent or empty = every border admits
    /// everything.
    pub entering: Vec<EnteringSpec>,
}

/// One configured ACL slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AclSlotSpec {
    /// `"device:interface"`.
    pub interface: String,
    /// `"in"` (the default when absent) or `"out"`.
    pub direction: String,
    /// Rule lines in the textual syntax of [`jinjing_acl::parse`], plus an
    /// optional trailing `default permit|deny`.
    pub acl: Vec<String>,
}

/// A whole ACL configuration document.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AclConfigSpec {
    /// The configured slots.
    pub slots: Vec<AclSlotSpec>,
}

/// `path: what`, or just `what` at the document root.
fn fail(path: &str, what: &str) -> SpecError {
    if path.is_empty() {
        SpecError::new(what)
    } else {
        SpecError::new(format!("{path}: {what}"))
    }
}

/// A binding error, prefixed with the document entry it came from.
fn entry<T>(section: &str, k: usize, bound: Result<T, SpecError>) -> Result<T, SpecError> {
    bound.map_err(|e| fail(&format!("{section}[{k}]"), &e.message))
}

fn parse_document(text: &str) -> Result<Json, SpecError> {
    json::parse(text).map_err(|e| SpecError::new(format!("invalid JSON: {e}")))
}

fn string(v: &Json, path: &str) -> Result<String, SpecError> {
    v.as_str()
        .map(str::to_string)
        .ok_or_else(|| fail(path, "expected a string"))
}

/// Every element of the array `v`, read by `item` under its indexed path.
fn list<T>(
    v: &Json,
    path: &str,
    item: impl Fn(&Json, &str) -> Result<T, SpecError>,
) -> Result<Vec<T>, SpecError> {
    let Json::Array(elems) = v else {
        return Err(fail(path, "expected an array"));
    };
    elems
        .iter()
        .enumerate()
        .map(|(i, elem)| item(elem, &format!("{path}[{i}]")))
        .collect()
}

/// A link is exactly two interface names.
fn link(v: &Json, path: &str) -> Result<(String, String), SpecError> {
    <[String; 2]>::try_from(list(v, path, string)?)
        .map(|[a, b]| (a, b))
        .map_err(|_| fail(path, "expected exactly two interface names"))
}

/// A JSON object being read field by field; `path` names it in errors
/// (empty for the document root). Keys the reader never asks for are
/// ignored.
struct Fields<'a> {
    path: &'a str,
    members: &'a [(String, Json)],
}

impl<'a> Fields<'a> {
    fn of(v: &'a Json, path: &'a str) -> Result<Fields<'a>, SpecError> {
        match v {
            Json::Object(members) => Ok(Fields { path, members }),
            _ => Err(fail(path, "expected an object")),
        }
    }

    fn at(&self, key: &str) -> String {
        if self.path.is_empty() {
            key.to_string()
        } else {
            format!("{}.{key}", self.path)
        }
    }

    /// The value of `key`, if present. A key given twice is two documents
    /// pasted together; taking either half silently would deploy half.
    fn get(&self, key: &str) -> Result<Option<&'a Json>, SpecError> {
        let mut found = self.members.iter().filter(|(k, _)| k == key);
        let first = found.next();
        if found.next().is_some() {
            return Err(fail(&self.at(key), "duplicate field"));
        }
        Ok(first.map(|(_, v)| v))
    }

    fn required(&self, key: &str) -> Result<&'a Json, SpecError> {
        self.get(key)?
            .ok_or_else(|| fail(&self.at(key), "missing field"))
    }

    fn string(&self, key: &str) -> Result<String, SpecError> {
        string(self.required(key)?, &self.at(key))
    }

    fn list<T>(
        &self,
        key: &str,
        item: impl Fn(&Json, &str) -> Result<T, SpecError>,
    ) -> Result<Vec<T>, SpecError> {
        list(self.required(key)?, &self.at(key), item)
    }

    fn list_or_empty<T>(
        &self,
        key: &str,
        item: impl Fn(&Json, &str) -> Result<T, SpecError>,
    ) -> Result<Vec<T>, SpecError> {
        match self.get(key)? {
            Some(v) => list(v, &self.at(key), item),
            None => Ok(Vec::new()),
        }
    }
}

fn strings(xs: &[String]) -> Json {
    Json::Array(xs.iter().cloned().map(Json::Str).collect())
}

fn object(members: Vec<(&str, Json)>) -> Json {
    Json::Object(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn text(s: &str) -> Json {
    Json::Str(s.to_string())
}

impl DeviceSpec {
    fn read(v: &Json, path: &str) -> Result<DeviceSpec, SpecError> {
        let f = Fields::of(v, path)?;
        Ok(DeviceSpec {
            name: f.string("name")?,
            interfaces: f.list("interfaces", string)?,
        })
    }
}

impl AnnouncementSpec {
    fn bind(&self, net: &Network) -> Result<(IpPrefix, IfaceId), SpecError> {
        let iface = parse_iface_ref(net, &self.interface)?;
        if net.topology().peer(iface).is_some() {
            return Err(SpecError::new(format!(
                "interface {:?} is linked; announcements sit on external interfaces",
                self.interface
            )));
        }
        let prefix = parse_prefix(&self.prefix)
            .map_err(|e| SpecError::new(format!("announcement {}: {e}", self.prefix)))?;
        Ok((prefix, iface))
    }

    fn read(v: &Json, path: &str) -> Result<AnnouncementSpec, SpecError> {
        let f = Fields::of(v, path)?;
        Ok(AnnouncementSpec {
            prefix: f.string("prefix")?,
            interface: f.string("interface")?,
        })
    }
}

impl RouteSpec {
    fn bind(&self, net: &Network) -> Result<(DeviceId, IpPrefix, IfaceId), SpecError> {
        let out = parse_iface_ref(net, &self.out)?;
        let dev = net
            .topology()
            .device_by_name(&self.device)
            .ok_or_else(|| SpecError::new(format!("unknown device {:?}", self.device)))?;
        if net.topology().owner(out) != dev {
            return Err(SpecError::new(format!(
                "route output {} does not belong to device {}",
                self.out, self.device
            )));
        }
        let prefix = parse_prefix(&self.prefix)
            .map_err(|e| SpecError::new(format!("route {}: {e}", self.prefix)))?;
        Ok((dev, prefix, out))
    }

    fn read(v: &Json, path: &str) -> Result<RouteSpec, SpecError> {
        let f = Fields::of(v, path)?;
        Ok(RouteSpec {
            device: f.string("device")?,
            prefix: f.string("prefix")?,
            out: f.string("out")?,
        })
    }
}

impl EnteringSpec {
    fn bind(&self, net: &Network) -> Result<(IfaceId, PacketSet), SpecError> {
        let iface = parse_iface_ref(net, &self.interface)?;
        let mut cubes = Vec::with_capacity(self.dst_prefixes.len());
        for p in &self.dst_prefixes {
            let prefix =
                parse_prefix(p).map_err(|err| SpecError::new(format!("entering {p}: {err}")))?;
            cubes.push(crate::fib::dst_cube(prefix.interval()));
        }
        Ok((iface, PacketSet::from_cubes(cubes)))
    }

    fn read(v: &Json, path: &str) -> Result<EnteringSpec, SpecError> {
        let f = Fields::of(v, path)?;
        Ok(EnteringSpec {
            interface: f.string("interface")?,
            dst_prefixes: f.list("dst_prefixes", string)?,
        })
    }
}

impl AclSlotSpec {
    fn bind(&self, net: &Network) -> Result<(Slot, Acl), SpecError> {
        let iface = parse_iface_ref(net, &self.interface)?;
        let dir = match self.direction.as_str() {
            "in" => Dir::In,
            "out" => Dir::Out,
            other => {
                return Err(SpecError::new(format!(
                    "direction must be in/out, got {other:?}"
                )))
            }
        };
        let acl = parse_acl(&self.acl.join("\n"))
            .map_err(|e| SpecError::new(format!("acl at {}: {e}", self.interface)))?;
        Ok((Slot { iface, dir }, acl))
    }

    fn read(v: &Json, path: &str) -> Result<AclSlotSpec, SpecError> {
        let f = Fields::of(v, path)?;
        Ok(AclSlotSpec {
            interface: f.string("interface")?,
            direction: match f.get("direction")? {
                Some(v) => string(v, &f.at("direction"))?,
                None => "in".to_string(),
            },
            acl: f.list("acl", string)?,
        })
    }
}

fn parse_iface_ref(net: &Network, s: &str) -> Result<IfaceId, SpecError> {
    let (dev, iface) = s
        .split_once(':')
        .ok_or_else(|| SpecError::new(format!("interface reference {s:?} needs device:iface")))?;
    net.topology()
        .iface_by_name(dev, iface)
        .ok_or_else(|| SpecError::new(format!("unknown interface {s:?}")))
}

impl NetworkSpec {
    /// Read a network document. `devices` is required; `links`,
    /// `announcements`, `routes` and `entering` default to empty.
    pub fn from_json(text: &str) -> Result<NetworkSpec, SpecError> {
        let doc = parse_document(text)?;
        let f = Fields::of(&doc, "")?;
        Ok(NetworkSpec {
            devices: f.list("devices", DeviceSpec::read)?,
            links: f.list_or_empty("links", link)?,
            announcements: f.list_or_empty("announcements", AnnouncementSpec::read)?,
            routes: f.list_or_empty("routes", RouteSpec::read)?,
            entering: f.list_or_empty("entering", EnteringSpec::read)?,
        })
    }

    /// Render the document (every field, in declaration order) in the
    /// shape of [`Json::to_pretty`]; [`NetworkSpec::from_json`] reads it
    /// back to an equal spec.
    pub fn to_json_pretty(&self) -> String {
        let devices = self.devices.iter().map(|d| {
            object(vec![
                ("name", text(&d.name)),
                ("interfaces", strings(&d.interfaces)),
            ])
        });
        let links = self
            .links
            .iter()
            .map(|(a, b)| Json::Array(vec![text(a), text(b)]));
        let announcements = self.announcements.iter().map(|a| {
            object(vec![
                ("prefix", text(&a.prefix)),
                ("interface", text(&a.interface)),
            ])
        });
        let routes = self.routes.iter().map(|r| {
            object(vec![
                ("device", text(&r.device)),
                ("prefix", text(&r.prefix)),
                ("out", text(&r.out)),
            ])
        });
        let entering = self.entering.iter().map(|e| {
            object(vec![
                ("interface", text(&e.interface)),
                ("dst_prefixes", strings(&e.dst_prefixes)),
            ])
        });
        object(vec![
            ("devices", Json::Array(devices.collect())),
            ("links", Json::Array(links.collect())),
            ("announcements", Json::Array(announcements.collect())),
            ("routes", Json::Array(routes.collect())),
            ("entering", Json::Array(entering.collect())),
        ])
        .to_pretty()
    }

    /// Build the concrete [`Network`]: topology, announcements, computed
    /// routes (BFS/ECMP), static routes, traffic matrix. A document the
    /// topology cannot hold — a repeated device or interface name, a link
    /// within one device or onto a linked interface, an announcement on a
    /// linked interface — is an error naming its entry.
    pub fn build(&self) -> Result<Network, SpecError> {
        let mut tb = TopologyBuilder::new();
        let mut by_name: HashMap<String, (DeviceId, IfaceId)> = HashMap::new();
        for (k, d) in self.devices.iter().enumerate() {
            if self.devices[..k].iter().any(|e| e.name == d.name) {
                let what = format!("duplicate device name {:?}", d.name);
                return Err(fail(&format!("devices[{k}]"), &what));
            }
            let dev = tb.device(&d.name);
            for (j, i) in d.interfaces.iter().enumerate() {
                if d.interfaces[..j].contains(i) {
                    let what = format!("duplicate interface name {i:?}");
                    return Err(fail(&format!("devices[{k}].interfaces[{j}]"), &what));
                }
                let id = tb.iface(dev, i);
                by_name.insert(format!("{}:{}", d.name, i), (dev, id));
            }
        }
        let mut linked: HashSet<IfaceId> = HashSet::new();
        for (k, (a, b)) in self.links.iter().enumerate() {
            let end = |name: &String| {
                let known = by_name.get(name).copied();
                known.ok_or_else(|| SpecError::new(format!("unknown interface {name:?}")))
            };
            let ends = || {
                let ((da, ia), (db, ib)) = (end(a)?, end(b)?);
                if da == db {
                    let what = format!("{a:?} and {b:?} are on one device");
                    return Err(SpecError::new(what));
                }
                for (i, name) in [(ia, a), (ib, b)] {
                    if linked.contains(&i) {
                        let what = format!("interface {name:?} is already linked");
                        return Err(SpecError::new(what));
                    }
                }
                Ok((ia, ib))
            };
            let (ia, ib) = entry("links", k, ends())?;
            linked.extend([ia, ib]);
            tb.link(ia, ib);
        }
        let mut net = Network::new(tb.build());
        for (k, a) in self.announcements.iter().enumerate() {
            let (prefix, iface) = entry("announcements", k, a.bind(&net))?;
            net.announce(prefix, iface);
        }
        net.compute_routes();
        for (k, r) in self.routes.iter().enumerate() {
            let (dev, prefix, out) = entry("routes", k, r.bind(&net))?;
            net.fib_mut(dev).add(prefix, out);
        }
        for (k, e) in self.entering.iter().enumerate() {
            let (iface, set) = entry("entering", k, e.bind(&net))?;
            net.set_entering(iface, set);
        }
        Ok(net)
    }

    /// Extract a spec from a live network (links, announcements and
    /// explicit traffic matrix; computed FIBs are *not* exported — they are
    /// recomputed on load).
    pub fn from_network(net: &Network) -> NetworkSpec {
        let topo = net.topology();
        let devices = topo
            .devices()
            .map(|d| DeviceSpec {
                name: topo.device(d).name.clone(),
                interfaces: topo
                    .device_ifaces(d)
                    .iter()
                    .map(|&i| topo.iface(i).name.clone())
                    .collect(),
            })
            .collect();
        let mut links = Vec::new();
        for d in topo.devices() {
            for &i in topo.device_ifaces(d) {
                if let Some(p) = topo.peer(i) {
                    if i < p {
                        links.push((topo.iface_name(i), topo.iface_name(p)));
                    }
                }
            }
        }
        let announcements = net
            .announced()
            .iter()
            .map(|(prefix, iface)| AnnouncementSpec {
                prefix: prefix.to_string(),
                interface: topo.iface_name(*iface),
            })
            .collect();
        // Export the explicit traffic matrix as prefix lists where the
        // entries are expressible that way (destination-only cubes);
        // arbitrary sets fall back to their cube decomposition's dst
        // prefixes, which is exact for matrices built from prefixes.
        let entering = net
            .entering_entries()
            .iter()
            .map(|(iface, set)| EnteringSpec {
                interface: topo.iface_name(*iface),
                dst_prefixes: jinjing_acl::decompose::set_to_matchspecs(set)
                    .into_iter()
                    .map(|m| m.dst.to_string())
                    .collect(),
            })
            .collect();
        NetworkSpec {
            devices,
            links,
            announcements,
            routes: Vec::new(),
            entering,
        }
    }
}

impl AclConfigSpec {
    /// Read an ACL configuration document. `slots` is required; a slot's
    /// `direction` defaults to `"in"` (its value is checked by
    /// [`AclConfigSpec::build`]).
    pub fn from_json(text: &str) -> Result<AclConfigSpec, SpecError> {
        let doc = parse_document(text)?;
        let slots = Fields::of(&doc, "")?.list("slots", AclSlotSpec::read)?;
        Ok(AclConfigSpec { slots })
    }

    /// Render the document in the shape of [`Json::to_pretty`];
    /// [`AclConfigSpec::from_json`] reads it back to an equal spec.
    pub fn to_json_pretty(&self) -> String {
        let slots = self.slots.iter().map(|s| {
            object(vec![
                ("interface", text(&s.interface)),
                ("direction", text(&s.direction)),
                ("acl", strings(&s.acl)),
            ])
        });
        object(vec![("slots", Json::Array(slots.collect()))]).to_pretty()
    }

    /// Bind to a network, producing an [`AclConfig`].
    pub fn build(&self, net: &Network) -> Result<AclConfig, SpecError> {
        let mut config = AclConfig::new();
        for (k, slot_spec) in self.slots.iter().enumerate() {
            let (slot, acl) = entry("slots", k, slot_spec.bind(net))?;
            config.set(slot, acl);
        }
        Ok(config)
    }

    /// Extract a spec from a live configuration.
    pub fn from_config(net: &Network, config: &AclConfig) -> AclConfigSpec {
        let topo = net.topology();
        let slots = config
            .slots()
            .into_iter()
            .map(|slot| AclSlotSpec {
                interface: topo.iface_name(slot.iface),
                direction: slot.dir.to_string(),
                acl: config.get(slot).expect("listed slot").lines(),
            })
            .collect();
        AclConfigSpec { slots }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jinjing_acl::Packet;

    fn chain_spec() -> NetworkSpec {
        NetworkSpec::from_json(
            r#"{
                "devices": [
                    {"name": "A", "interfaces": ["0", "1"]},
                    {"name": "B", "interfaces": ["0", "1"]}
                ],
                "links": [["A:1", "B:0"]],
                "announcements": [{"prefix": "1.0.0.0/8", "interface": "B:1"}],
                "entering": [{"interface": "A:0", "dst_prefixes": ["1.0.0.0/8"]}]
            }"#,
        )
        .expect("valid spec json")
    }

    #[test]
    fn build_routes_and_traffic() {
        let net = chain_spec().build().unwrap();
        assert_eq!(net.topology().device_count(), 2);
        let a = net.topology().device_by_name("A").unwrap();
        let p = Packet::to_dst(0x0100_0001);
        let outs = net.fib(a).lookup(&p);
        assert_eq!(outs.len(), 1);
        assert_eq!(net.topology().iface_name(outs[0]), "A:1");
        // Traffic matrix honored.
        let a0 = net.topology().iface_by_name("A", "0").unwrap();
        assert!(net.entering_at(a0).contains(&p));
        let b1 = net.topology().iface_by_name("B", "1").unwrap();
        assert!(net.entering_at(b1).is_empty());
    }

    #[test]
    fn acl_config_spec_binds_and_roundtrips() {
        let net = chain_spec().build().unwrap();
        let spec = AclConfigSpec::from_json(
            r#"{"slots": [
                {"interface": "A:0", "acl": ["deny dst 1.2.0.0/16", "default permit"]},
                {"interface": "B:0", "direction": "out", "acl": ["permit all"]}
            ]}"#,
        )
        .unwrap();
        let config = spec.build(&net).unwrap();
        assert_eq!(config.len(), 2);
        let a0 = net.topology().iface_by_name("A", "0").unwrap();
        assert!(!config.slot_permits(Slot::ingress(a0), &Packet::to_dst(0x0102_0304)));
        // Round-trip through from_config/build preserves semantics.
        let exported = AclConfigSpec::from_config(&net, &config);
        let back = exported.build(&net).unwrap();
        for slot in config.slots() {
            assert!(back
                .get(slot)
                .unwrap()
                .equivalent(config.get(slot).unwrap()));
        }
    }

    #[test]
    fn network_spec_roundtrip() {
        let net = chain_spec().build().unwrap();
        let exported = NetworkSpec::from_network(&net);
        let rebuilt = exported.build().unwrap();
        assert_eq!(
            rebuilt.topology().device_count(),
            net.topology().device_count()
        );
        assert_eq!(rebuilt.announced().len(), net.announced().len());
        // Routing equivalent after recomputation.
        let a = rebuilt.topology().device_by_name("A").unwrap();
        let p = Packet::to_dst(0x0100_0001);
        assert_eq!(rebuilt.fib(a).lookup(&p).len(), 1);
    }

    #[test]
    fn static_routes_and_errors() {
        let mut spec = chain_spec();
        spec.routes.push(RouteSpec {
            device: "A".into(),
            prefix: "9.0.0.0/8".into(),
            out: "A:1".into(),
        });
        let net = spec.build().unwrap();
        let a = net.topology().device_by_name("A").unwrap();
        assert_eq!(net.fib(a).lookup(&Packet::to_dst(0x0900_0001)).len(), 1);
        // Route output on the wrong device is rejected.
        spec.routes[0].out = "B:0".into();
        let err = spec.build().unwrap_err();
        assert!(err.message.contains("does not belong"));
        // Unknown interface in a link.
        let mut bad = chain_spec();
        bad.links.push(("A:9".into(), "B:1".into()));
        assert!(bad.build().is_err());
    }

    /// The committed Figure 1 documents: real operator-shaped input.
    const FIGURE1_NET: &str = include_str!("../../../examples/data/figure1-network.json");
    const FIGURE1_ACLS: &str = include_str!("../../../examples/data/figure1-acls.json");

    fn net_error(doc: &Json) -> Option<SpecError> {
        NetworkSpec::from_json(&doc.to_pretty()).err()
    }

    fn acls_error(doc: &Json) -> Option<SpecError> {
        AclConfigSpec::from_json(&doc.to_pretty()).err()
    }

    /// What a reader makes of an edited copy of its document.
    type Misread = fn(&Json) -> Option<SpecError>;

    /// Each committed document with its reader.
    const DOCUMENTS: [(&str, Misread); 2] = [(FIGURE1_NET, net_error), (FIGURE1_ACLS, acls_error)];

    /// Every value below `v`, in document order: its JSON path and its
    /// route (the child index taken at each level).
    fn values_below(v: &Json, path: &str, route: &[usize], out: &mut Vec<(String, Vec<usize>)>) {
        let keyed = v.members().iter().map(|(key, member)| {
            let dot = if path.is_empty() { "" } else { "." };
            (format!("{path}{dot}{key}"), member)
        });
        let indexed = v.elements().iter().enumerate();
        let indexed = indexed.map(|(i, elem)| (format!("{path}[{i}]"), elem));
        for (i, (below, child)) in keyed.chain(indexed).enumerate() {
            let route = [route, &[i]].concat();
            out.push((below.clone(), route.clone()));
            values_below(child, &below, &route, out);
        }
    }

    fn all_values(doc: &Json) -> Vec<(String, Vec<usize>)> {
        let mut out = Vec::new();
        values_below(doc, "", &[], &mut out);
        assert!(out.len() > 10, "the walk found the document");
        out
    }

    /// `doc` after `edit(container, i)` on the value the route leads to.
    fn edited(doc: &Json, route: &[usize], edit: fn(&mut Json, usize)) -> Json {
        let mut out = doc.clone();
        let (last, parents) = route.split_last().expect("a value below the root");
        let mut container = &mut out;
        for &i in parents {
            container = match container {
                Json::Object(members) => &mut members[i].1,
                Json::Array(elems) => &mut elems[i],
                _ => unreachable!("routes pass through containers"),
            };
        }
        edit(container, *last);
        out
    }

    fn replace_with_number(container: &mut Json, i: usize) {
        match container {
            Json::Object(members) => members[i].1 = Json::Num("7".to_string()),
            Json::Array(elems) => elems[i] = Json::Num("7".to_string()),
            _ => unreachable!(),
        }
    }

    fn remove(container: &mut Json, i: usize) {
        match container {
            Json::Object(members) => drop(members.remove(i)),
            Json::Array(elems) => drop(elems.remove(i)),
            _ => unreachable!(),
        }
    }

    fn duplicate(container: &mut Json, i: usize) {
        match container {
            Json::Object(members) => members.push(members[i].clone()),
            Json::Array(elems) => elems.push(elems[i].clone()),
            _ => unreachable!(),
        }
    }

    #[test]
    fn committed_documents_round_trip_byte_for_byte() {
        let net = NetworkSpec::from_json(FIGURE1_NET).unwrap();
        assert_eq!(net.to_json_pretty(), FIGURE1_NET);
        assert_eq!(net.devices.len(), 4);
        assert!(!net.routes.is_empty() && !net.entering.is_empty());
        let acls = AclConfigSpec::from_json(FIGURE1_ACLS).unwrap();
        assert_eq!(acls.to_json_pretty(), FIGURE1_ACLS);
        assert_eq!(acls.slots.len(), 3);
    }

    #[test]
    fn optional_fields_default_and_unknown_keys_are_ignored() {
        let net = NetworkSpec::from_json(
            r#"{"comment": "x", "comment": "unknown keys may even repeat",
                "devices": [{"name": "A", "interfaces": [], "vendor": {"deep": [1, null]}}]}"#,
        )
        .unwrap();
        assert_eq!(net.devices.len(), 1);
        assert!(net.links.is_empty() && net.announcements.is_empty());
        assert!(net.routes.is_empty() && net.entering.is_empty());
        let acls = AclConfigSpec::from_json(r#"{"slots": [{"interface": "A:0", "acl": []}]}"#);
        assert_eq!(acls.unwrap().slots[0].direction, "in");
    }

    #[test]
    fn a_wrong_type_anywhere_names_its_path() {
        for (text, read) in DOCUMENTS {
            let doc = json::parse(text).unwrap();
            for (path, route) in all_values(&doc) {
                let err = read(&edited(&doc, &route, replace_with_number))
                    .unwrap_or_else(|| panic!("a number at {path} was accepted"));
                let what = err.message.strip_prefix(&format!("{path}: "));
                assert!(
                    what.is_some_and(|w| w.starts_with("expected ")),
                    "{path}: {err}"
                );
            }
            for root in ["[]", "7", "null", "\"devices\""] {
                let err = read(&json::parse(root).unwrap()).unwrap();
                assert_eq!(err.message, "expected an object");
            }
        }
    }

    #[test]
    fn a_missing_or_repeated_field_names_its_path() {
        const OPTIONAL: [&str; 5] = ["links", "announcements", "routes", "entering", "direction"];
        for (text, read) in DOCUMENTS {
            let doc = json::parse(text).unwrap();
            // Object members only: dropping or repeating an array element
            // is a different, valid document.
            let members = all_values(&doc).into_iter();
            for (path, route) in members.filter(|(path, _)| !path.ends_with(']')) {
                let err = read(&edited(&doc, &route, duplicate)).expect("repeated key");
                assert_eq!(err.message, format!("{path}: duplicate field"));
                let missing = read(&edited(&doc, &route, remove));
                if OPTIONAL.iter().any(|key| path.ends_with(key)) {
                    assert_eq!(missing, None, "{path} is optional");
                } else {
                    let err = missing.unwrap_or_else(|| panic!("{path} is required"));
                    assert_eq!(err.message, format!("{path}: missing field"));
                }
            }
        }
        // Two files pasted together: the second `slots` must not win or lose
        // silently.
        let pasted = r#"{"slots": [], "slots": [{"interface": "A:0", "acl": ["deny all"]}]}"#;
        let err = AclConfigSpec::from_json(pasted).unwrap_err();
        assert_eq!(err.message, "slots: duplicate field");
    }

    #[test]
    fn links_are_exactly_two_strings() {
        let with_link = |link: &str| {
            NetworkSpec::from_json(&format!(
                r#"{{"devices": [], "links": [["A:1", "B:1"], {link}]}}"#
            ))
        };
        assert!(with_link(r#"["A:2", "B:2"]"#).is_ok());
        for (link, message) in [
            (
                r#"["A:2", "B:2", "C:2"]"#,
                "links[1]: expected exactly two interface names",
            ),
            (
                r#"["A:2"]"#,
                "links[1]: expected exactly two interface names",
            ),
            ("[]", "links[1]: expected exactly two interface names"),
            (r#"["A:2", 7]"#, "links[1][1]: expected a string"),
            (r#"{"a": "A:2", "b": "B:2"}"#, "links[1]: expected an array"),
        ] {
            assert_eq!(with_link(link).unwrap_err().message, message);
        }
    }

    #[test]
    fn hostile_bytes_are_errors_not_panics() {
        // Every proper prefix of a real document.
        for cut in 0..FIGURE1_NET.len() {
            let err = NetworkSpec::from_json(&FIGURE1_NET[..cut]).expect_err("truncated");
            assert!(err.message.starts_with("invalid JSON: "), "{cut}: {err}");
        }
        for cut in 0..FIGURE1_ACLS.len() {
            assert!(AclConfigSpec::from_json(&FIGURE1_ACLS[..cut]).is_err());
        }
        // Nesting far past any stack, in a field the reader would ignore.
        let deep = format!(r#"{{"devices": [], "x": {}"#, "[".repeat(10_000));
        let err = NetworkSpec::from_json(&deep).unwrap_err();
        assert!(
            err.message.starts_with("invalid JSON: nesting deeper than"),
            "{err}"
        );
        let deep = format!(r#"{{"slots": {}"#, r#"{"slots":"#.repeat(10_000));
        let err = AclConfigSpec::from_json(&deep).unwrap_err();
        assert!(
            err.message.starts_with("invalid JSON: nesting deeper than"),
            "{err}"
        );
        for junk in [
            "",
            " ",
            "\u{feff}{}",
            "{\"devices\": []} {}",
            "{'devices': []}",
        ] {
            assert!(NetworkSpec::from_json(junk).is_err(), "{junk:?}");
        }
    }

    #[test]
    fn binding_errors_name_the_entry() {
        let mut spec = chain_spec();
        spec.links.push(("A:9".into(), "B:1".into()));
        assert_eq!(
            spec.build().unwrap_err().message,
            "links[1]: unknown interface \"A:9\""
        );
        let mut spec = chain_spec();
        spec.entering[0].dst_prefixes.push("nonsense".into());
        let err = spec.build().unwrap_err();
        assert!(
            err.message.starts_with("entering[0]: entering nonsense: "),
            "{err}"
        );
        let net = chain_spec().build().unwrap();
        let acls = AclConfigSpec::from_json(
            r#"{"slots": [{"interface": "A:0", "acl": []}, {"interface": "Z:9", "acl": []}]}"#,
        )
        .unwrap();
        assert_eq!(
            acls.build(&net).unwrap_err().message,
            "slots[1]: unknown interface \"Z:9\""
        );
    }

    /// The error `chain_spec` edited by `edit` fails to build with.
    fn build_error(edit: impl FnOnce(&mut NetworkSpec)) -> String {
        let mut spec = chain_spec();
        edit(&mut spec);
        spec.build().unwrap_err().message
    }

    #[test]
    fn announcing_on_a_linked_interface_is_an_error() {
        assert_eq!(
            build_error(|s| s.announcements[0].interface = "A:1".into()),
            "announcements[0]: interface \"A:1\" is linked; announcements sit on external interfaces"
        );
    }

    #[test]
    fn a_repeated_device_name_is_an_error() {
        assert_eq!(
            build_error(|s| s.devices[1].name = "A".into()),
            "devices[1]: duplicate device name \"A\""
        );
    }

    #[test]
    fn a_repeated_interface_name_is_an_error() {
        assert_eq!(
            build_error(|s| s.devices[0].interfaces.push("0".into())),
            "devices[0].interfaces[2]: duplicate interface name \"0\""
        );
    }

    #[test]
    fn linking_within_one_device_is_an_error() {
        assert_eq!(
            build_error(|s| s.links.push(("B:1".into(), "B:0".into()))),
            "links[1]: \"B:1\" and \"B:0\" are on one device"
        );
        assert_eq!(
            build_error(|s| s.links.push(("B:1".into(), "B:1".into()))),
            "links[1]: \"B:1\" and \"B:1\" are on one device"
        );
    }

    #[test]
    fn linking_a_linked_interface_is_an_error() {
        assert_eq!(
            build_error(|s| s.links.push(("A:0".into(), "B:0".into()))),
            "links[1]: interface \"B:0\" is already linked"
        );
    }

    #[test]
    fn entering_prefixes_union_as_the_fold() {
        let mut spec = chain_spec();
        spec.entering[0].dst_prefixes = ["1.2.0.0/16", "1.0.0.0/8", "2.0.0.0/8", "1.0.0.0/8"]
            .map(String::from)
            .to_vec();
        let net = spec.build().unwrap();
        let a0 = net.topology().iface_by_name("A", "0").unwrap();
        let fold = spec.entering[0]
            .dst_prefixes
            .iter()
            .fold(PacketSet::empty(), |a, p| {
                a.union(&crate::fib::prefix_set(&parse_prefix(p).unwrap()))
            });
        assert_eq!(net.entering_at(a0), fold);
    }

    #[test]
    fn bad_direction_rejected() {
        let net = chain_spec().build().unwrap();
        let spec = AclConfigSpec::from_json(
            r#"{"slots": [{"interface": "A:0", "direction": "sideways", "acl": ["permit all"]}]}"#,
        )
        .unwrap();
        assert!(spec.build(&net).is_err());
    }
}
