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
//! route recomputation) and power the `jinjing` command-line tool. Example:
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
use crate::ids::{Dir, IfaceId, Slot};
use crate::network::Network;
use crate::topology::TopologyBuilder;
use jinjing_acl::parse::parse_acl;
use jinjing_acl::parse::parse_prefix;
use jinjing_acl::PacketSet;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Error binding a spec to concrete objects.
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
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Eq)]
pub struct DeviceSpec {
    /// Device name (unique).
    pub name: String,
    /// Interface names (unique per device).
    pub interfaces: Vec<String>,
}

/// A prefix announced at an external interface.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Eq)]
pub struct AnnouncementSpec {
    /// Prefix literal, e.g. `"10.1.0.0/24"`.
    pub prefix: String,
    /// `"device:interface"` of the (external) exit point.
    pub interface: String,
}

/// A static FIB entry (for hand-crafted routing; optional — announcements
/// plus shortest-path computation usually suffice).
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Eq)]
pub struct RouteSpec {
    /// Owning device.
    pub device: String,
    /// Destination prefix literal.
    pub prefix: String,
    /// Output `"device:interface"` (must belong to `device`).
    pub out: String,
}

/// Traffic admitted at one interface (directional traffic matrix entry).
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Eq)]
pub struct EnteringSpec {
    /// `"device:interface"` where the traffic enters.
    pub interface: String,
    /// Destination prefixes admitted there.
    pub dst_prefixes: Vec<String>,
}

/// A whole network document.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Eq, Default)]
pub struct NetworkSpec {
    /// Devices and their interfaces.
    pub devices: Vec<DeviceSpec>,
    /// Bidirectional links as `["A:1", "B:2"]` pairs.
    #[serde(default)]
    pub links: Vec<(String, String)>,
    /// Prefix announcements at external interfaces.
    #[serde(default)]
    pub announcements: Vec<AnnouncementSpec>,
    /// Static FIB entries (applied after shortest-path computation).
    #[serde(default)]
    pub routes: Vec<RouteSpec>,
    /// Directional traffic matrix; empty = every border admits everything.
    #[serde(default)]
    pub entering: Vec<EnteringSpec>,
}

/// One configured ACL slot.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Eq)]
pub struct AclSlotSpec {
    /// `"device:interface"`.
    pub interface: String,
    /// `"in"` (default) or `"out"`.
    #[serde(default = "default_dir")]
    pub direction: String,
    /// Rule lines in the textual syntax of [`jinjing_acl::parse`], plus an
    /// optional trailing `default permit|deny`.
    pub acl: Vec<String>,
}

fn default_dir() -> String {
    "in".to_string()
}

/// A whole ACL configuration document.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Eq, Default)]
pub struct AclConfigSpec {
    /// The configured slots.
    pub slots: Vec<AclSlotSpec>,
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
    /// Build the concrete [`Network`]: topology, announcements, computed
    /// routes (BFS/ECMP), static routes, traffic matrix.
    pub fn build(&self) -> Result<Network, SpecError> {
        let mut tb = TopologyBuilder::new();
        let mut by_name: std::collections::HashMap<String, IfaceId> =
            std::collections::HashMap::new();
        for d in &self.devices {
            let dev = tb.device(&d.name);
            for i in &d.interfaces {
                let id = tb.iface(dev, i);
                by_name.insert(format!("{}:{}", d.name, i), id);
            }
        }
        for (a, b) in &self.links {
            let fa = *by_name
                .get(a)
                .ok_or_else(|| SpecError::new(format!("unknown interface {a:?}")))?;
            let fb = *by_name
                .get(b)
                .ok_or_else(|| SpecError::new(format!("unknown interface {b:?}")))?;
            tb.link(fa, fb);
        }
        let mut net = Network::new(tb.build());
        for a in &self.announcements {
            let iface = parse_iface_ref(&net, &a.interface)?;
            let prefix = parse_prefix(&a.prefix)
                .map_err(|e| SpecError::new(format!("announcement {}: {e}", a.prefix)))?;
            net.announce(prefix, iface);
        }
        net.compute_routes();
        for r in &self.routes {
            let out = parse_iface_ref(&net, &r.out)?;
            let dev = net
                .topology()
                .device_by_name(&r.device)
                .ok_or_else(|| SpecError::new(format!("unknown device {:?}", r.device)))?;
            if net.topology().owner(out) != dev {
                return Err(SpecError::new(format!(
                    "route output {} does not belong to device {}",
                    r.out, r.device
                )));
            }
            let prefix = parse_prefix(&r.prefix)
                .map_err(|e| SpecError::new(format!("route {}: {e}", r.prefix)))?;
            net.fib_mut(dev).add(prefix, out);
        }
        for e in &self.entering {
            let iface = parse_iface_ref(&net, &e.interface)?;
            let mut set = PacketSet::empty();
            for p in &e.dst_prefixes {
                let prefix = parse_prefix(p)
                    .map_err(|err| SpecError::new(format!("entering {p}: {err}")))?;
                set = set.union(&crate::fib::prefix_set(&prefix));
            }
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
    /// Bind to a network, producing an [`AclConfig`].
    pub fn build(&self, net: &Network) -> Result<AclConfig, SpecError> {
        let mut config = AclConfig::new();
        for slot_spec in &self.slots {
            let iface = parse_iface_ref(net, &slot_spec.interface)?;
            let dir = match slot_spec.direction.as_str() {
                "in" => Dir::In,
                "out" => Dir::Out,
                other => {
                    return Err(SpecError::new(format!(
                        "direction must be in/out, got {other:?}"
                    )))
                }
            };
            let text = slot_spec.acl.join("\n");
            let acl = parse_acl(&text)
                .map_err(|e| SpecError::new(format!("acl at {}: {e}", slot_spec.interface)))?;
            config.set(Slot { iface, dir }, acl);
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
        serde_json::from_str(
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
        let spec: AclConfigSpec = serde_json::from_str(
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

    #[test]
    fn bad_direction_rejected() {
        let net = chain_spec().build().unwrap();
        let spec: AclConfigSpec = serde_json::from_str(
            r#"{"slots": [{"interface": "A:0", "direction": "sideways", "acl": ["permit all"]}]}"#,
        )
        .unwrap();
        assert!(spec.build(&net).is_err());
    }
}
