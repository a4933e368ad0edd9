//! Property tests for the LAI language: printing a random program and
//! parsing it back is the identity, and the Table 5 statement count is
//! stable under the roundtrip.

mod cases;

use jinjing_acl::{Acl, Action, IpPrefix, Rule};
use jinjing_lai::printer::{line_count, statement_count};
use jinjing_lai::{
    parse_program, print_program, AclDef, Command, ControlStmt, ControlVerb, DirSpec, HeaderSel,
    IfaceSel, Modify, Program, SlotPattern,
};
use rand::rngs::StdRng;
use rand::RngExt;

const SUITE: &str = "prop_lai";

const LETTERS: &str = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz";
const IDENT_TAIL: &str = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_";

/// One of `xs`, uniformly.
fn pick<T: Clone>(rng: &mut StdRng, xs: &[T]) -> T {
    xs[rng.random_range(0..xs.len())].clone()
}

/// `len` items drawn by `item`.
fn several<T>(rng: &mut StdRng, len: usize, mut item: impl FnMut(&mut StdRng) -> T) -> Vec<T> {
    (0..len).map(|_| item(rng)).collect()
}

/// Up to `max_len` characters of `alphabet`.
fn text_over(rng: &mut StdRng, alphabet: &str, max_len: usize) -> String {
    let alphabet: Vec<char> = alphabet.chars().collect();
    let len = rng.random_range(0..=max_len);
    (0..len).map(|_| pick(rng, &alphabet)).collect()
}

/// `[A-Za-z][A-Za-z0-9_]{0,6}`
fn ident(rng: &mut StdRng) -> String {
    let head = pick(rng, &LETTERS.chars().collect::<Vec<_>>());
    format!("{head}{}", text_over(rng, IDENT_TAIL, 6))
}

fn pattern(rng: &mut StdRng) -> SlotPattern {
    SlotPattern {
        device: ident(rng),
        iface: if rng.random() {
            IfaceSel::Star
        } else {
            IfaceSel::Named(ident(rng))
        },
        dir: pick(rng, &[None, Some(DirSpec::In), Some(DirSpec::Out)]),
    }
}

fn prefix(rng: &mut StdRng) -> IpPrefix {
    let addr = rng.random_range(0..=u32::MAX);
    IpPrefix::new(addr, rng.random_range(0..=32u32))
}

fn acl_def(rng: &mut StdRng, idx: usize) -> AclDef {
    let denies = rng.random_range(0..4usize);
    let rules = several(rng, denies, |rng| Rule::on_dst(Action::Deny, prefix(rng)));
    AclDef {
        name: format!("Acl{idx}"),
        acl: Acl::new(rules, Action::from_bool(rng.random())),
    }
}

fn header_sel(rng: &mut StdRng) -> HeaderSel {
    match rng.random_range(0..3u32) {
        0 => HeaderSel::All,
        1 => HeaderSel::Src(prefix(rng)),
        _ => HeaderSel::Dst(prefix(rng)),
    }
}

fn control(rng: &mut StdRng) -> ControlStmt {
    let (from, to) = (rng.random_range(1..3usize), rng.random_range(1..3usize));
    ControlStmt {
        from: several(rng, from, pattern),
        to: several(rng, to, pattern),
        verb: pick(
            rng,
            &[
                ControlVerb::Isolate,
                ControlVerb::Open,
                ControlVerb::Maintain,
            ],
        ),
        header: header_sel(rng),
    }
}

fn program(rng: &mut StdRng) -> Program {
    let defs = rng.random_range(0..3usize);
    let acl_defs: Vec<AclDef> = (0..defs).map(|idx| acl_def(rng, idx)).collect();
    let modify_refs = rng.random_range(0..=defs.min(3));
    let modify_refs = several(rng, modify_refs, |rng| rng.random_range(0..defs.max(1)));
    let modifies = modify_refs
        .into_iter()
        .filter(|&i| i < acl_defs.len())
        .map(|i| Modify {
            target: SlotPattern::named("Dev", "1"),
            acl: acl_defs[i].name.clone(),
        })
        .collect();
    let (scope, allow) = (rng.random_range(1..4usize), rng.random_range(0..4usize));
    let controls = rng.random_range(0..4usize);
    Program {
        acl_defs,
        scope: several(rng, scope, pattern),
        allow: several(rng, allow, pattern),
        modifies,
        controls: several(rng, controls, control),
        command: Some(pick(
            rng,
            &[Command::Check, Command::Fix, Command::Generate],
        )),
    }
}

/// print → parse is the identity on the AST.
#[test]
fn print_parse_roundtrip() {
    cases::run(SUITE, "print_parse_roundtrip", 128, program, |p| {
        let printed = print_program(p);
        let back = parse_program(&printed)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\n---\n{printed}"));
        assert_eq!(&back, p, "printed:\n{printed}");
    });
}

/// Statement counts are roundtrip-stable and bounded by line counts.
#[test]
fn statement_count_stable() {
    cases::run(SUITE, "statement_count_stable", 128, program, |p| {
        let printed = print_program(p);
        let back = parse_program(&printed).expect("reparse");
        assert_eq!(statement_count(&back), statement_count(p));
        assert!(statement_count(p) <= line_count(p));
    });
}

/// Spec round-trips: a network exported to its JSON spec and rebuilt keeps
/// its topology, announcements and traffic matrix semantics.
mod spec_roundtrip {
    use super::{cases, SUITE};
    use jinjing_net::spec::{AclConfigSpec, NetworkSpec};
    use rand::rngs::StdRng;
    use rand::RngExt;

    /// Random small chain/star networks.
    fn arbitrary_network(rng: &mut StdRng) -> NetworkSpec {
        let (n, prefixes) = (rng.random_range(2..5usize), rng.random_range(1..4usize));
        let mut spec = NetworkSpec::default();
        for i in 0..n {
            spec.devices.push(jinjing_net::spec::DeviceSpec {
                name: format!("R{i}"),
                interfaces: vec!["l".into(), "r".into(), "x".into()],
            });
        }
        for i in 0..n - 1 {
            spec.links
                .push((format!("R{i}:r"), format!("R{}:l", i + 1)));
        }
        for k in 0..prefixes {
            spec.announcements
                .push(jinjing_net::spec::AnnouncementSpec {
                    prefix: format!("{}.0.0.0/8", k + 1),
                    interface: format!("R{}:x", k % n),
                });
        }
        spec
    }

    #[test]
    fn network_spec_roundtrip() {
        let name = "spec_roundtrip::network_spec_roundtrip";
        cases::run(SUITE, name, 32, arbitrary_network, |spec| {
            let net = spec.build().expect("buildable");
            let exported = NetworkSpec::from_network(&net);
            let rebuilt = exported.build().expect("rebuildable");
            assert_eq!(
                rebuilt.topology().device_count(),
                net.topology().device_count()
            );
            assert_eq!(rebuilt.announced().len(), net.announced().len());
            // Forwarding agrees on a sample of each announced prefix.
            for (p, _) in net.announced() {
                let pkt = jinjing_acl::Packet::to_dst(p.addr() | 1);
                for d in net.topology().devices() {
                    let mut a = net.fib(d).lookup(&pkt);
                    let mut b = rebuilt.fib(d).lookup(&pkt);
                    a.sort();
                    b.sort();
                    assert_eq!(a, b);
                }
            }
            // JSON round-trip is the identity on the document.
            let json = exported.to_json_pretty();
            let back = NetworkSpec::from_json(&json).unwrap();
            assert_eq!(back, exported);
        });
    }

    #[test]
    fn acl_spec_roundtrip() {
        let generate = |rng: &mut StdRng| (arbitrary_network(rng), rng.random_range(0..5usize));
        let name = "spec_roundtrip::acl_spec_roundtrip";
        cases::run(SUITE, name, 32, generate, |(spec, deny_count)| {
            let net = spec.build().expect("buildable");
            // Configure a random-ish ACL on the first device's ingress.
            let iface = net.topology().iface_by_name("R0", "l").unwrap();
            let mut acl = jinjing_acl::AclBuilder::default_permit();
            for i in 0..*deny_count {
                acl = acl.deny_dst(&format!("{}.1.0.0/16", i + 1));
            }
            let mut config = jinjing_net::AclConfig::new();
            config.set(jinjing_net::Slot::ingress(iface), acl.build());
            let exported = AclConfigSpec::from_config(&net, &config);
            let rebuilt = exported.build(&net).expect("rebuildable");
            for slot in config.slots() {
                assert!(rebuilt
                    .get(slot)
                    .unwrap()
                    .equivalent(config.get(slot).unwrap()));
            }
            // JSON round-trip is the identity on the document.
            let back = AclConfigSpec::from_json(&exported.to_json_pretty()).unwrap();
            assert_eq!(back, exported);
        });
    }
}

/// Robustness: the parsers are total — arbitrary input yields `Err`, never
/// a panic.
mod no_panic {
    use super::{cases, pick, text_over, SUITE};
    use rand::rngs::StdRng;
    use rand::RngExt;

    const CASES: u64 = 256;

    /// Up to `max_len` characters, each any Unicode scalar value that is
    /// not a control character (a superset of the `\PC` the suite used to
    /// draw from); half of them ASCII.
    fn printable(rng: &mut StdRng, max_len: usize) -> String {
        let len = rng.random_range(0..=max_len);
        (0..len)
            .map(|_| loop {
                let hi = if rng.random() { 0x7f } else { 0x10_ffff };
                // `None` on a surrogate.
                match char::from_u32(rng.random_range(0..=hi)) {
                    Some(c) if !c.is_control() => break c,
                    _ => {}
                }
            })
            .collect()
    }

    #[test]
    fn lai_parser_never_panics() {
        let name = "no_panic::lai_parser_never_panics";
        cases::run(
            SUITE,
            name,
            CASES,
            |rng| printable(rng, 200),
            |input| {
                let _ = jinjing_lai::parse_program(input);
            },
        );
    }

    #[test]
    fn lai_parser_never_panics_on_structured() {
        const HEADS: [&str; 8] = [
            "scope", "allow", "modify", "control", "acl", "check", "fix", "generate",
        ];
        const BODY: &str =
            " ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789:*,.>/{}-";
        let generate = |rng: &mut StdRng| (pick(rng, &HEADS), text_over(rng, BODY, 80));
        let name = "no_panic::lai_parser_never_panics_on_structured";
        cases::run(SUITE, name, CASES, generate, |(head, body)| {
            let _ = jinjing_lai::parse_program(&format!("{head} {body}\n"));
        });
    }

    #[test]
    fn rule_parser_never_panics() {
        let name = "no_panic::rule_parser_never_panics";
        cases::run(
            SUITE,
            name,
            CASES,
            |rng| printable(rng, 120),
            |input| {
                let _ = jinjing_acl::parse::parse_rule(input);
            },
        );
    }

    #[test]
    fn acl_parser_never_panics() {
        let name = "no_panic::acl_parser_never_panics";
        cases::run(
            SUITE,
            name,
            CASES,
            |rng| printable(rng, 200),
            |input| {
                let _ = jinjing_acl::parse::parse_acl(input);
            },
        );
    }

    #[test]
    fn prefix_parser_never_panics() {
        let name = "no_panic::prefix_parser_never_panics";
        let generate = |rng: &mut StdRng| text_over(rng, "0123456789./", 24);
        cases::run(SUITE, name, CASES, generate, |input| {
            let _ = jinjing_acl::parse::parse_prefix(input);
        });
    }
}
