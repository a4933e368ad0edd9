//! §7 Scenario 1: isolating a service area.
//!
//! A new service S is deployed behind the backbone with prefix
//! `1.2.0.0/16`. The operators must isolate traffic between S and the
//! gateway R3 (which manages an important private subnet), but cannot
//! simply add a deny on R3 — that could side-effect un-recycled IP
//! segments inside R3's network. They express the intent with two
//! `control … isolate` statements and let Jinjing `generate` the ACLs.
//!
//! ```sh
//! cargo run --release -p jinjing-examples --example isolate_service
//! ```

use jinjing_acl::Packet;
use jinjing_core::check::{check_exact, CheckConfig};
use jinjing_core::generate::{generate, GenerateConfig};
use jinjing_core::resolve::resolve;
use jinjing_lai::{parse_program, validate};
use jinjing_net::fib::{pfx, prefix_set};
use jinjing_net::{AclConfig, Network, TopologyBuilder};

/// Build the scenario network:
///
/// ```text
///   backbone ══ R1:s ─┐             ┌─ R3:net ══ private subnet
///                     R1:d ── R3:a ─┤              (9.9.0.0/16)
///   backbone ══ R2:s ─┐             │
///                     R2:d ── R3:b ─┘
/// ```
///
/// S (`1.2.0.0/16`) and other backbone prefixes are reachable via both R1
/// and R2.
fn build() -> (Network, AclConfig) {
    let mut tb = TopologyBuilder::new();
    let r1 = tb.device("R1");
    let r2 = tb.device("R2");
    let r3 = tb.device("R3");
    let r1s = tb.iface(r1, "s");
    let r1d = tb.iface(r1, "d");
    let r2s = tb.iface(r2, "s");
    let r2d = tb.iface(r2, "d");
    let r3a = tb.iface(r3, "a");
    let r3b = tb.iface(r3, "b");
    let r3net = tb.iface(r3, "net");
    tb.link(r1d, r3a);
    tb.link(r2d, r3b);
    let mut net = Network::new(tb.build());
    // Backbone prefixes: the new service S and an unrelated service.
    net.announce(pfx("1.2.0.0/16"), r1s);
    net.announce(pfx("1.2.0.0/16"), r2s);
    net.announce(pfx("8.8.0.0/16"), r1s);
    net.announce(pfx("8.8.0.0/16"), r2s);
    // R3's private subnet.
    net.announce(pfx("9.9.0.0/16"), r3net);
    net.compute_routes();
    // Traffic matrix: backbone traffic (including S's) enters at R1:s/R2:s
    // toward the subnet; subnet traffic enters at R3:net toward the
    // backbone.
    let toward_subnet = prefix_set(&pfx("9.9.0.0/16"));
    net.set_entering(r1s, toward_subnet.clone());
    net.set_entering(r2s, toward_subnet);
    let toward_backbone = prefix_set(&pfx("1.2.0.0/16")).union(&prefix_set(&pfx("8.8.0.0/16")));
    net.set_entering(r3net, toward_backbone);
    (net, AclConfig::new())
}

const INTENT: &str = r#"
scope R1:*, R2:*, R3:*
allow R1:*-in, R2:*-in, R3:*-in
control R1:s, R2:s -> R3:net isolate src 1.2.0.0/16
control R3:net -> R1:s, R2:s isolate dst 1.2.0.0/16
generate
"#;

fn main() {
    println!("== §7 Scenario 1: isolating service S (1.2.0.0/16) from R3 ==");
    let (net, config) = build();
    println!("{}", net.topology());
    println!("LAI program:{INTENT}");
    let program = validate(parse_program(INTENT).expect("parse")).expect("validate");
    let task = resolve(&net, &program, &config).expect("resolve");
    let t = std::time::Instant::now();
    let report = generate(
        &net,
        &task,
        &CheckConfig::default(),
        &GenerateConfig::default(),
    )
    .expect("generate");
    println!("plan generated in {:?}\n", t.elapsed());
    for slot in report.generated.slots() {
        let acl = report.generated.get(slot).expect("slot");
        if acl.is_empty() {
            continue;
        }
        println!(
            "--- generated {}-{} ---\n{acl}\n",
            net.topology().iface_name(slot.iface),
            slot.dir
        );
    }
    // Verify against the desired reachability.
    let verdict = check_exact(
        &net,
        &task.scope,
        &task.before,
        &report.generated,
        &task.controls,
    );
    println!(
        "exact verification: {}",
        if verdict.is_consistent() {
            "desired reachability achieved"
        } else {
            "VIOLATION (bug!)"
        }
    );
    // Spot-check the semantics on concrete packets.
    let scope = task.scope.clone();
    let from_s = Packet::new(0x0102_0304, 0x0909_0101, 40000, 443, 6); // S → subnet
    let from_other = Packet::new(0x0808_0101, 0x0909_0101, 40000, 443, 6); // other → subnet
    for (label, pkt, expect) in [
        ("service S -> subnet", from_s, false),
        ("other service -> subnet", from_other, true),
    ] {
        let mut permitted = false;
        for path in net.all_paths_for_class(&scope, &jinjing_acl::PacketSet::singleton(&pkt)) {
            if report.generated.path_permits(&path, &pkt) {
                permitted = true;
            }
        }
        println!(
            "  {label}: {} (expected {})",
            if permitted { "permitted" } else { "isolated" },
            if expect { "permitted" } else { "isolated" }
        );
        assert_eq!(permitted, expect, "{label}");
    }
}
