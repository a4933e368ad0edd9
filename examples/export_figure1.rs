//! Export the Figure 1 running example as on-disk specs for the `jinjing`
//! CLI, then show the command lines to replay the paper's workflow.
//!
//! ```sh
//! cargo run --release -p jinjing-examples --example export_figure1
//! cargo run --release -p jinjing-cli --bin jinjing -- run \
//!     --network examples/data/figure1-network.json \
//!     --acls examples/data/figure1-acls.json \
//!     --intent examples/data/running-example.lai
//! ```

use jinjing_core::figure1::Figure1;

const INTENT: &str = r#"# The paper's Figure 3 intent: clean up C and D, with `check`.
# Change the last line to `fix` to let Jinjing repair the plan.
acl PermitAll { permit all }
acl A1' {
    deny dst 1.0.0.0/8
    deny dst 2.0.0.0/8
    deny dst 6.0.0.0/8
    permit all
}
acl A3' {
    deny dst 7.0.0.0/8
    permit all
}

scope A:*, B:*, C:*, D:*
allow A:*, B:*
modify D:2 to PermitAll
modify C:1 to PermitAll
modify A:1 to A1'
modify A:3-out to A3'
check
"#;

fn main() {
    let (spec, acls) = Figure1::new().specs();

    std::fs::create_dir_all("examples/data").expect("create examples/data");
    let net_path = "examples/data/figure1-network.json";
    let acl_path = "examples/data/figure1-acls.json";
    let lai_path = "examples/data/running-example.lai";
    std::fs::write(net_path, spec.to_json_pretty()).expect("write network spec");
    std::fs::write(acl_path, acls.to_json_pretty()).expect("write acl spec");
    std::fs::write(lai_path, INTENT).expect("write intent");

    // Round-trip sanity: the rebuilt network reproduces the figure's paths.
    let rebuilt = spec.build().expect("rebuild");
    let scope = jinjing_net::Scope::whole(rebuilt.topology());
    let a1 = rebuilt.topology().iface_by_name("A", "1").unwrap();
    let class = jinjing_net::fib::prefix_set(&jinjing_net::fib::pfx("2.0.0.0/8"));
    let paths = rebuilt.paths_for_class(&scope, a1, &class);
    assert_eq!(paths.len(), 2, "traffic 2 keeps its two paths");

    println!("wrote {net_path}\nwrote {acl_path}\nwrote {lai_path}\n");
    println!("replay the paper's workflow with:\n");
    println!(
        "  cargo run --release -p jinjing-cli --bin jinjing -- run \\\n      --network {net_path} --acls {acl_path} --intent {lai_path}"
    );
}
