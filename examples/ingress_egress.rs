//! §7 Scenario 2: the hidden complexity of moving ACLs from ingress to
//! egress interfaces.
//!
//! A cell gateway G filters backbone traffic on its uplink *ingress*
//! interface. A network upgrade asks for the ACLs to move to the gateway's
//! *egress* interfaces (facing the cell). The move looks innocuous — all
//! southbound traffic still crosses the same rules — but intra-cell traffic
//! between the internal routers only traverses the gateway's egress
//! interfaces, so it suddenly hits rules it never saw before. Jinjing's
//! `check` reports the breakage within the original reachability, and
//! `fix` produces the offset rules.
//!
//! ```sh
//! cargo run --release -p jinjing-examples --example ingress_egress
//! ```

use jinjing_acl::{parse::parse_acl, Packet};
use jinjing_core::check::{check_configs, CheckConfig, CheckOutcome};
use jinjing_core::engine::render_plan;
use jinjing_core::fix::{fix, FixConfig};
use jinjing_core::Task;
use jinjing_lai::Command;
use jinjing_net::fib::{pfx, prefix_set};
use jinjing_net::{AclConfig, Network, Scope, Slot, TopologyBuilder};

/// The cell:
///
/// ```text
///   backbone ══ G:up
///                G:c1 ── I1:g    I1:dn ══ hosts 10.1.0.0/16
///                G:c2 ── I2:g    I2:dn ══ hosts 10.2.0.0/16
/// ```
///
/// Intra-cell traffic I1↔I2 hairpins through G, using only G's egress
/// (cell-facing) interfaces.
fn build() -> (Network, AclConfig, [Slot; 3]) {
    let mut tb = TopologyBuilder::new();
    let g = tb.device("G");
    let i1 = tb.device("I1");
    let i2 = tb.device("I2");
    let up = tb.iface(g, "up");
    let gc1 = tb.iface(g, "c1");
    let gc2 = tb.iface(g, "c2");
    let i1g = tb.iface(i1, "g");
    let i1dn = tb.iface(i1, "dn");
    let i2g = tb.iface(i2, "g");
    let i2dn = tb.iface(i2, "dn");
    tb.link(gc1, i1g);
    tb.link(gc2, i2g);
    let mut net = Network::new(tb.build());
    net.announce(pfx("10.1.0.0/16"), i1dn);
    net.announce(pfx("10.2.0.0/16"), i2dn);
    net.announce(pfx("0.0.0.0/1"), up); // "the internet"
    net.compute_routes();
    // Traffic matrix: backbone traffic enters at the uplink; host traffic
    // enters at the downlinks (toward the other cell and the internet).
    let cell = prefix_set(&pfx("10.1.0.0/16")).union(&prefix_set(&pfx("10.2.0.0/16")));
    net.set_entering(up, cell.clone());
    let out1 = prefix_set(&pfx("10.2.0.0/16")).union(&prefix_set(&pfx("0.0.0.0/1")));
    net.set_entering(i1dn, out1);
    let out2 = prefix_set(&pfx("10.1.0.0/16")).union(&prefix_set(&pfx("0.0.0.0/1")));
    net.set_entering(i2dn, out2);

    // The gateway's ingress policy: block a quarantined segment and an
    // attack source.
    let policy = parse_acl(
        "deny dst 10.1.9.0/24     # quarantined segment\n\
         deny src 66.6.0.0/16     # known-bad sources\n\
         default permit\n",
    )
    .expect("policy parses");
    let mut config = AclConfig::new();
    config.set(Slot::ingress(up), policy);
    (
        net,
        config,
        [Slot::ingress(up), Slot::egress(gc1), Slot::egress(gc2)],
    )
}

fn main() {
    println!("== §7 Scenario 2: moving gateway ACLs from ingress to egress ==\n");
    let (net, before, [up_in, gc1_out, gc2_out]) = build();
    println!("{}", net.topology());
    let topo = net.topology();

    // The proposed update: same rules, relocated to the egress interfaces.
    let mut after = before.clone();
    let policy = before.get(up_in).expect("uplink policy").clone();
    after.clear(up_in);
    after.set(gc1_out, policy.clone());
    after.set(gc2_out, policy);

    let scope = Scope::whole(topo);
    println!("checking the relocation plan…");
    let report =
        check_configs(&net, &scope, &before, &after, &[], &CheckConfig::default()).expect("check");
    match &report.outcome {
        CheckOutcome::Consistent => println!("consistent (unexpected!)"),
        CheckOutcome::Inconsistent(v) => {
            println!("INCONSISTENT, exactly as §7 warns:");
            println!("  witness packet: {}", v.packet);
            println!("  violated path : {}", v.path.display(topo));
            println!("  (intra-cell traffic now hits the relocated rules)\n");
        }
    }

    // Demonstrate the concrete breakage: I2 → quarantined segment of I1 was
    // never filtered before (it bypasses the uplink) but dies now.
    let intra = Packet::new(0x0a02_0101, 0x0a01_0905, 1234, 80, 6);
    let class = jinjing_acl::PacketSet::singleton(&intra);
    for path in net.all_paths_for_class(&scope, &class) {
        println!(
            "  path {}: before={} after={}",
            path.display(topo),
            if before.path_permits(&path, &intra) {
                "permit"
            } else {
                "deny"
            },
            if after.path_permits(&path, &intra) {
                "permit"
            } else {
                "deny"
            },
        );
    }

    // Fix: allow changes on the gateway only.
    let task = Task {
        scope: scope.clone(),
        allow: vec![up_in, gc1_out, gc2_out],
        before: before.clone(),
        after,
        modified: vec![up_in, gc1_out, gc2_out],
        controls: Vec::new(),
        command: Command::Fix,
    };
    let plan = fix(&net, &task, &CheckConfig::default(), &FixConfig::default()).expect("fix");
    println!(
        "\nfix: {} rules across {} neighborhoods",
        plan.added_rules.len(),
        plan.neighborhoods.len()
    );
    for (_, name, acl) in render_plan(&net, &task.after, &plan.fixed) {
        println!("--- {name} (after fixing) ---\n{acl}");
    }
    let verdict = jinjing_core::check::check_exact(&net, &scope, &before, &plan.fixed, &[]);
    println!(
        "\nexact verification: {}",
        if verdict.is_consistent() {
            "reachability fully restored"
        } else {
            "VIOLATION (bug!)"
        }
    );
}
