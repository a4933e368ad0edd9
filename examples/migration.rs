//! ACL migration (§5 and §7 Scenario 3).
//!
//! Without arguments, runs the paper's worked example: migrate the ACLs of
//! interfaces A1 and D2 of the Figure 1 subnet onto {C1, C2, D1} while
//! preserving reachability — reproducing the ACL equivalence classes of
//! Table 3, the DEC split of §5.3 and the synthesized decisions of
//! Table 4b.
//!
//! With a size argument (`small` / `medium` / `large`), runs the §8
//! migration experiment instead: drain every aggregation-layer ACL of a
//! synthetic WAN and regenerate equivalent filtering at the edge layer.
//!
//! ```sh
//! cargo run --release -p jinjing-examples --example migration
//! cargo run --release -p jinjing-examples --example migration -- medium
//! ```

use jinjing_core::check::{check_exact, CheckConfig};
use jinjing_core::figure1::Figure1;
use jinjing_core::generate::{generate, GenerateConfig};
use jinjing_core::resolve::resolve;
use jinjing_core::Task;
use jinjing_lai::{parse_program, print_program, validate, Command};
use jinjing_wan::{build_wan, scenarios, NetSize, WanParams};

fn figure1_migration() {
    println!("== ACL migration on the Figure 1 subnet (§5) ==\n");
    let fig = Figure1::new();
    let src = r#"
acl PermitAll { permit all }
scope A:*, B:*, C:*, D:*
allow C:1-in, C:2-in, D:1-in
modify A:1 to PermitAll
modify D:2 to PermitAll
generate
"#;
    println!("LAI program:{src}");
    let program = validate(parse_program(src).expect("parse")).expect("validate");
    let task: Task = resolve(&fig.net, &program, &fig.config).expect("resolve");
    let report = generate(
        &fig.net,
        &task,
        &CheckConfig::default(),
        &GenerateConfig::default(),
    )
    .expect("generate");
    println!(
        "ACL equivalence classes: {} (Table 3 has 4)\nAECs needing a DEC split: {} (§5.3 splits [1]AEC)\nDECs created: {}",
        report.aec_count, report.aecs_split, report.dec_count
    );
    println!("sequence-encoding rows: {}\n", report.rows);
    let topo = fig.net.topology();
    for name in ["C1", "C2", "D1"] {
        let slot = fig.slot(name);
        let acl = report.generated.get(slot).expect("synthesized");
        println!(
            "--- synthesized {}-in ---\n{acl}\n",
            topo.iface_name(slot.iface)
        );
    }
    let verdict = check_exact(&fig.net, &task.scope, &task.before, &report.generated, &[]);
    println!(
        "exact verification: {}",
        if verdict.is_consistent() {
            "reachability preserved on every path"
        } else {
            "VIOLATION (bug!)"
        }
    );
}

fn wan_migration(size: NetSize) {
    println!("== §8 migration experiment, {} network ==\n", size.label());
    let wan = build_wan(&WanParams::preset(size));
    println!(
        "devices: {}, ACL slots: {}, installed rules: {}",
        wan.net.topology().device_count(),
        wan.all_acl_slots().len(),
        wan.installed_rules()
    );
    let sc = scenarios::migration(&wan);
    println!(
        "LAI program: {} statements ({} lines printed)",
        jinjing_lai::printer::statement_count(&sc.program),
        print_program(&sc.program).lines().count()
    );
    assert_eq!(sc.task.command, Command::Generate);
    let t = std::time::Instant::now();
    let report = generate(
        &wan.net,
        &sc.task,
        &CheckConfig::default(),
        &GenerateConfig::default(),
    )
    .expect("generate");
    let elapsed = t.elapsed();
    println!(
        "generated {} rules across {} edge slots in {:?}",
        report.rules_final,
        sc.task.allow.len(),
        elapsed
    );
    println!(
        "  phases: derive AEC {:?} | solve {:?} | synthesize {:?}",
        report.phases.derive_aec, report.phases.solve, report.phases.synthesize
    );
    println!(
        "  classes: {} AECs, {} split into {} DECs",
        report.aec_count, report.aecs_split, report.dec_count
    );
    let t = std::time::Instant::now();
    let verdict = check_exact(
        &wan.net,
        &sc.task.scope,
        &sc.task.before,
        &report.generated,
        &[],
    );
    println!(
        "exact verification in {:?}: {}",
        t.elapsed(),
        if verdict.is_consistent() {
            "reachability preserved"
        } else {
            "VIOLATION (bug!)"
        }
    );
}

fn main() {
    match std::env::args().nth(1).as_deref() {
        None => figure1_migration(),
        Some("small") => wan_migration(NetSize::Small),
        Some("medium") => wan_migration(NetSize::Medium),
        Some("large") => wan_migration(NetSize::Large),
        Some(other) => {
            eprintln!("unknown size {other:?}; expected small|medium|large");
            std::process::exit(1);
        }
    }
}
