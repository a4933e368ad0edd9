//! Generation parameters and the §8 size presets.

/// The three evaluation network sizes of §8 (8% / 30% / 80% WAN slices,
/// scaled to a single-machine reproduction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetSize {
    /// The "small" testbed.
    Small,
    /// The "medium" testbed.
    Medium,
    /// The "large" testbed.
    Large,
}

impl NetSize {
    /// The per-figure sweep sizes, smallest first.
    pub const ALL: [NetSize; 3] = [NetSize::Small, NetSize::Medium, NetSize::Large];

    /// Display label used by the figures harness.
    pub fn label(self) -> &'static str {
        match self {
            NetSize::Small => "small",
            NetSize::Medium => "medium",
            NetSize::Large => "large",
        }
    }
}

/// Knobs for the WAN generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WanParams {
    /// Core routers (each with one backbone uplink).
    pub cores: usize,
    /// Cells (pods).
    pub cells: usize,
    /// Aggregation routers per cell.
    pub aggs_per_cell: usize,
    /// Edge routers per cell.
    pub edges_per_cell: usize,
    /// Customer /24 prefixes announced per edge router.
    pub prefixes_per_edge: usize,
    /// External /16 prefixes announced per uplink.
    pub external_per_uplink: usize,
    /// ACL rules generated per aggregation ingress slot.
    pub rules_per_slot: usize,
    /// RNG seed (generation is fully deterministic given the parameters).
    pub seed: u64,
}

impl WanParams {
    /// The preset for one of the §8 sizes.
    pub fn preset(size: NetSize) -> WanParams {
        match size {
            NetSize::Small => WanParams {
                cores: 2,
                cells: 2,
                aggs_per_cell: 2,
                edges_per_cell: 2,
                prefixes_per_edge: 6,
                external_per_uplink: 2,
                rules_per_slot: 25,
                seed: 0x5eed_0001,
            },
            NetSize::Medium => WanParams {
                cores: 3,
                cells: 3,
                aggs_per_cell: 2,
                edges_per_cell: 3,
                prefixes_per_edge: 8,
                external_per_uplink: 2,
                rules_per_slot: 50,
                seed: 0x5eed_0002,
            },
            NetSize::Large => WanParams {
                cores: 4,
                cells: 5,
                aggs_per_cell: 3,
                edges_per_cell: 4,
                prefixes_per_edge: 10,
                external_per_uplink: 3,
                rules_per_slot: 80,
                seed: 0x5eed_0003,
            },
        }
    }

    /// Total devices.
    pub fn device_count(&self) -> usize {
        self.cores + self.cells * (self.aggs_per_cell + self.edges_per_cell)
    }

    /// Total ACL slots (aggregation ingress interfaces facing cores).
    pub fn acl_slot_count(&self) -> usize {
        self.cells * self.aggs_per_cell * self.cores
    }

    /// Total generated rules.
    pub fn total_rules(&self) -> usize {
        self.acl_slot_count() * self.rules_per_slot
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_scale_monotonically() {
        let s = WanParams::preset(NetSize::Small);
        let m = WanParams::preset(NetSize::Medium);
        let l = WanParams::preset(NetSize::Large);
        assert!(s.device_count() < m.device_count());
        assert!(m.device_count() < l.device_count());
        assert!(s.total_rules() < m.total_rules());
        assert!(m.total_rules() < l.total_rules());
        // The large preset carries thousands of rules, as §8 describes.
        assert!(l.total_rules() >= 1000, "{}", l.total_rules());
    }

    #[test]
    fn labels() {
        assert_eq!(NetSize::Small.label(), "small");
        assert_eq!(NetSize::Large.label(), "large");
        assert_eq!(NetSize::ALL.len(), 3);
    }
}
