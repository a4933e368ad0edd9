#![forbid(unsafe_code)]

//! The `jinjing` binary: the usage text plus a shim. Everything else —
//! flag checking, the subcommands, the exit-code rule — is
//! [`jinjing_cli::run_cli`], which the library's unit tests drive
//! directly.

use jinjing_cli::{load_acls, load_network, run_cli, Loaders};

const USAGE: &str = "\
jinjing — safely and automatically update in-network ACL configurations

USAGE:
    jinjing run --network <net.json> --acls <acls.json> --intent <prog.lai>
                [--format text|json] [--session <deltas.txt>]
                [--plan-out <plan.json>] [--rollback-out <rollback.json>]
                [--metrics-out <metrics.json>] [--trace] [--threads <N>]
    jinjing watch --network <net.json> --acls <acls.json> --intent <prog.lai>
                --deltas <deltas.txt> [--format text|json]
                [--metrics-out <metrics.json>] [--trace] [--threads <N>]
    jinjing trace --network <net.json> --acls <acls.json> --intent <prog.lai>
                [--trace-out <trace.json>] [--threads <N>]
    jinjing plan --network <net.json> --acls <acls.json> --intent <prog.lai>
                [--target <deltas.txt>] [--max-waves <N>]
                [--format text|json] [--metrics-out <metrics.json>]
                [--trace] [--threads <N>]
    jinjing lint --network <net.json> --acls <acls.json> [--intent <prog.lai>]
                [--intent <tenant>=<prog.lai>] ... [--priority <a,b,...>]
                [--format text|json|sarif] [--deny <CODE|JL3*|all>] ...
                [--metrics-out <metrics.json>] [--trace] [--threads <N>]
    jinjing show --network <net.json>
    jinjing audit --network <net.json> --acls <acls.json>
    jinjing simplify --acl-file <acl.txt>
    jinjing convert --cisco-config <conf.txt> --map <LIST=dev:iface[-dir]> ...
                [--out <acls.json>]
    jinjing serve --network <net.json> --acls <acls.json>
                [--addr <host:port>] [--workers <N>] [--queue <N>]
                [--deadline-ms <N>] [--max-body-bytes <BYTES>]
                [--max-sessions <N>] [--max-traces <N>] [--threads <N>]
                [--metrics-out <m.json>] [--port-file <p>]
                [--drain-on-stdin-eof] [--trace]
    jinjing shard --network <net.json> --acls <acls.json>
                --backends <host:port,host:port,...> [--addr <host:port>]
                [--threads <N>] [--max-body-bytes <BYTES>] [--timeout-ms <N>]
                [--metrics-out <m.json>] [--port-file <p>] [--trace]
    jinjing call [--addr <host:port>] --path </v1/check>
                [--method POST|GET|DELETE] [--body-file <f> | --body <text>]
                [--timeout-ms <N>] [--header <Name: value>] ...
                [--shards <host:port,host:port,...>]

COMMANDS:
    run        Parse the LAI intent and execute its command (check/fix/generate).
               With --session <deltas.txt> the run becomes an incremental
               check session (same as `watch`)
    watch      Incremental re-checking: open a session over the intent's
               scope and current ACLs, then re-check a stream of deltas
               (--deltas script: `step <label>` / `set DEV:IFACE[-in|-out]
               <rules;…>` / `clear DEV:IFACE[-in|-out]` lines). Only the
               FECs each delta dirties are re-solved; verdicts are
               byte-identical to cold per-step checks. Exits 3 when any
               delta is rejected as inconsistent
    trace      Flight-recorder run: execute the intent like `run`, capturing
               timestamped spans from the engine, the worker pool, and the
               solver; write the capture as Chrome trace_event JSON
               (--trace-out, default trace.json — load it in
               chrome://tracing or Perfetto) and print a span summary
               (slowest spans first, with self time). Report bytes are
               identical to an untraced run; exits 3 on a failed check
    plan       Safe update sequencing: decompose the diff between the current
               ACLs and the target (the intent's update, or --target
               <deltas.txt> applied to the current ACLs) into per-device
               steps, and synthesize an ordering whose every intermediate
               state satisfies the intent, verifying each prefix state
               through a warm incremental session. Provably-commuting steps
               (disjoint differential covers) are batched into parallel
               waves, each certified by the wave-boundary state's check;
               --max-waves caps the wave count. When no safe ordering
               exists the output carries a minimal infeasibility core and
               the command exits 3
    lint       Static analysis: shadowed/redundant/conflicting rules (JL0xx),
               contradictory or vacuous intent clauses (JL1xx), dangling
               references and silent-allow paths (JL2xx). With repeated
               --intent tenant=FILE flags it runs the cross-tenant pass
               (JL3xx): solver-certified conflicts between tenants' intents
               with witness packets, cross-tenant subsumption, and — given
               --priority a,b,... — a merge preview of who wins each
               contested region. --format sarif emits SARIF 2.1.0 for
               code-scanning CI. Exits 4 when any error-severity diagnostic
               (or a --deny'd code; globs like JL3* and `all` work) is
               reported.
    show       Print the topology and announcements of a network spec
    audit      Report data-quality anomalies (unrouted prefixes, black holes,
               unused ACLs, shadowed rules)
    simplify   Minimize a standalone ACL (decision-preserving)
    convert    Translate Cisco IOS extended access lists into an ACL spec,
               binding each list to an interface slot via --map
    serve      Long-running verification daemon: keep the network resident
               and answer POST /v1/check|fix|generate|lint|lint/multi, session
               endpoints (POST /v1/sessions, POST /v1/sessions/{id}/delta,
               DELETE /v1/sessions/{id}) and GET /healthz|/metrics over
               HTTP. Response bodies are byte-identical to the CLI's
               --format json output. A full queue answers 429; POST
               /v1/shutdown (or stdin EOF with --drain-on-stdin-eof)
               drains gracefully
    shard      Sharded-verification coordinator: keep the network resident
               and fan POST /v1/check|lint|plan out over the --backends
               daemons, each evaluating only the equivalence-class slice
               its X-Jinjing-Shard header names. Merged responses are
               byte-identical to a single-process run at any backend
               count. A request carrying an X-Jinjing-Stream header is
               answered as a chunked stream: progress documents as shards
               report, then the complete canonical body
    call       Thin HTTP client for the daemon: sends one request, prints
               the response body, and exits with the server's
               X-Jinjing-Exit code (0 ok, 1 error, 3 check-inconsistent /
               watch-rejected, 4 lint gate) — pipelines gate on a remote
               daemon exactly as on a local run. The connection is reused
               (HTTP/1.1 keep-alive) when the server allows it. With
               --shards a,b,... a lint request fans out over the listed
               backends directly and prints the merged report

The plan JSON written by --plan-out lists every changed slot with its full
replacement ACL, ready for a deployment pipeline to consume.

--metrics-out writes the run's observability snapshot (per-phase span tree,
solver histograms, counters, events) as JSON. --trace (or the JINJING_TRACE
environment variable) streams events to stderr as they happen.

--threads N fans the engine's solver queries out over N worker threads
(default: the JINJING_THREADS environment variable, else 1). Reports are
byte-identical for every thread count.";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let loaders = Loaders {
        network: load_network,
        acls: load_acls,
    };
    std::process::exit(run_cli(&args, USAGE, &loaders));
}
