//! v2 dataflow rules: the WAL-before-effect, epoch-fencing, and
//! settle-once contracts of the migration coordinator.
//!
//! These rules encode the crash-recovery discipline `coordinator_crash`
//! tests dynamically, as a static check over the modules of
//! `core/src/runtime/` (the only files where the coordinator's side
//! effects live — `spare.rs` defines the lease API and its tests exercise
//! double-settles on purpose). They run on [`crate::parse`]'s intraprocedural facts:
//! function spans, textual call order, block paths, and full argument
//! text.
//!
//! The analysis is an approximation — textual order within one function
//! stands in for dominance — but it is calibrated to be exact for the
//! shapes the runtime actually uses, and any future drift fails CI
//! loudly rather than silently weakening the contract.

use crate::lexer::SourceFile;
use crate::parse::{self, CallSite};
use crate::Finding;

/// The coordinator's directory: these contracts cover every file in it.
const SCOPED_DIR: &str = "core/src/runtime/";

fn in_scope(src: &SourceFile) -> bool {
    let p = src.path.to_string_lossy().replace('\\', "/");
    p.contains(SCOPED_DIR)
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Whole-word containment (so `FTB_MIGRATE` does not match
/// `FTB_MIGRATE_PIIC`).
fn contains_word(hay: &str, tok: &str) -> bool {
    let mut start = 0;
    while let Some(rel) = hay[start..].find(tok) {
        let pos = start + rel;
        let before_ok = pos == 0 || !hay[..pos].chars().next_back().is_some_and(is_ident_char);
        let after_ok = !hay[pos + tok.len()..]
            .chars()
            .next()
            .is_some_and(is_ident_char);
        if before_ok && after_ok {
            return true;
        }
        start = pos + tok.len();
    }
    false
}

/// Is this call one of the side effects that must be journaled first?
///
/// - `publish` of the fenced commands (`FTB_MIGRATE` / `FTB_RESTART`):
///   once the broadcast is out, ranks suspend or restart — a crash
///   before the matching WAL record leaves the standby blind to it.
///   The NLA-side acks (`FTB_MIGRATE_PIIC`, `FTB_RESTART_DONE`,
///   `FTB_SUSPEND_ACK`) are not coordinator effects and do not match.
/// - `consume_at` / `discard_at`: terminal lease settlements — the
///   spare leaves the pool for good, so the binding must be on record.
///   (`lease_at` / `release_front_at` are deliberately excluded: the
///   lease is acquired *before* `CycleStart` by design — the pool
///   itself survives a coordinator crash and is reconciled against the
///   journal on takeover.)
fn journaled_effect(call: &CallSite) -> bool {
    match call.callee.as_str() {
        "publish" => {
            contains_word(&call.args, "FTB_MIGRATE") || contains_word(&call.args, "FTB_RESTART")
        }
        "consume_at" | "discard_at" => true,
        _ => false,
    }
}

/// Does this call append a WAL record (`append(WalRecord::…)`)?
fn wal_append(call: &CallSite) -> bool {
    call.callee == "append" && call.args.trim_start().starts_with("WalRecord::")
}

/// `wal_before_effect`: every externally visible coordinator side
/// effect must be preceded, within the same function, by a WAL append —
/// write-ahead means the standby can always reconstruct intent.
pub fn wal_before_effect(src: &SourceFile, out: &mut Vec<Finding>) {
    if !in_scope(src) {
        return;
    }
    for f in parse::functions(src) {
        for (i, call) in f.calls.iter().enumerate() {
            if !journaled_effect(call) {
                continue;
            }
            if f.calls[..i].iter().any(wal_append) {
                continue;
            }
            let what = match call.callee.as_str() {
                "publish" => "fenced command publish".to_string(),
                c => format!("terminal lease settlement `{c}`"),
            };
            out.push(Finding {
                path: src.path.clone(),
                line: call.line,
                rule: "wal_before_effect",
                message: format!(
                    "{what} in `{}` with no preceding `append(WalRecord::…)` — a \
                     coordinator crash here leaves an effect the standby cannot \
                     see in the journal; record intent first",
                    f.name
                ),
            });
        }
    }
}

/// `epoch_fence`: both halves of the fencing contract.
///
/// Send side: every `FTB_MIGRATE`/`FTB_RESTART` publish must carry the
/// coordinator's epoch in its payload — an un-stamped command from a
/// deposed coordinator would be indistinguishable from a live one.
///
/// Receive side: any function that both handles those commands (names
/// them) and decodes their payloads (`MigrateMsg`/`RestartMsg`) must
/// consult `fencing_epoch` to reject stale-epoch traffic. Functions
/// that decode `RestartMsg` only as the `FTB_RESTART_DONE` ack are the
/// coordinator's own wait loops and are exempt (acks flow *to* the
/// fencer, not from it).
pub fn epoch_fence(src: &SourceFile, out: &mut Vec<Finding>) {
    if !in_scope(src) {
        return;
    }
    for f in parse::functions(src) {
        for call in &f.calls {
            let fenced_publish = call.callee == "publish"
                && (contains_word(&call.args, "FTB_MIGRATE")
                    || contains_word(&call.args, "FTB_RESTART"));
            if fenced_publish && !contains_word(&call.args, "epoch") {
                out.push(Finding {
                    path: src.path.clone(),
                    line: call.line,
                    rule: "epoch_fence",
                    message: format!(
                        "fenced command published in `{}` without an `epoch` \
                         stamp — a deposed coordinator's replay would be obeyed",
                        f.name
                    ),
                });
            }
        }
        let decodes_cmd = f.body.contains("payload_as::<MigrateMsg>")
            || f.body.contains("payload_as::<RestartMsg>");
        let handles_cmd =
            contains_word(&f.body, "FTB_MIGRATE") || contains_word(&f.body, "FTB_RESTART");
        if decodes_cmd && handles_cmd && !contains_word(&f.body, "fencing_epoch") {
            out.push(Finding {
                path: src.path.clone(),
                line: f.line,
                rule: "epoch_fence",
                message: format!(
                    "`{}` decodes a fenced command (MigrateMsg/RestartMsg) but \
                     never consults `fencing_epoch` — stale commands from a \
                     deposed coordinator would be obeyed",
                    f.name
                ),
            });
        }
    }
}

/// The two settlement families tracked by [`lease_settle_once`]: a
/// spare lease and a standby outcome must each settle exactly once per
/// execution path.
const SETTLE_FAMILIES: &[(&str, &[&str])] = &[
    (
        "lease settlement",
        &["consume_at", "discard_at", "release_front_at"],
    ),
    ("standby outcome settlement", &["settle_standby_outcome"]),
];

/// `lease_settle_once`: two settlements of the same family in the same
/// straight-line block double-settle on every path through it. Sibling
/// branches (`if`/`else`, match arms) have distinct block paths and are
/// fine — that is how the runtime legitimately picks *which* settlement
/// applies.
pub fn lease_settle_once(src: &SourceFile, out: &mut Vec<Finding>) {
    if !in_scope(src) {
        return;
    }
    for f in parse::functions(src) {
        for (family, members) in SETTLE_FAMILIES {
            let mut seen: Vec<&CallSite> = Vec::new();
            for call in &f.calls {
                if !members.contains(&call.callee.as_str()) {
                    continue;
                }
                if let Some(prev) = seen.iter().find(|p| p.block == call.block) {
                    out.push(Finding {
                        path: src.path.clone(),
                        line: call.line,
                        rule: "lease_settle_once",
                        message: format!(
                            "second {family} (`{}`) in the same block as `{}` \
                             (line {}) in `{}` — every path through this block \
                             settles twice",
                            call.callee, prev.callee, prev.line, f.name
                        ),
                    });
                } else {
                    seen.push(call);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    const RT: &str = "crates/core/src/runtime/coordinator.rs";

    fn run(rule: fn(&SourceFile, &mut Vec<Finding>), path: &str, text: &str) -> Vec<Finding> {
        let src = SourceFile::parse(Path::new(path), text);
        let mut out = Vec::new();
        rule(&src, &mut out);
        out
    }

    #[test]
    fn wal_before_effect_requires_a_preceding_append() {
        let bad = "fn go() {\n\
                   \x20   ftb.publish(ctx, FtbEvent::with_payload(S, FTB_MIGRATE, m));\n\
                   \x20   journal.append(WalRecord::PhaseEnter { cycle });\n\
                   }\n";
        let f = run(wal_before_effect, RT, bad);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 2);

        let good = "fn go() {\n\
                    \x20   journal.append(WalRecord::PhaseEnter { cycle });\n\
                    \x20   ftb.publish(ctx, FtbEvent::with_payload(S, FTB_MIGRATE, m));\n\
                    \x20   pool.consume_at(n, job, epoch);\n\
                    }\n";
        assert!(run(wal_before_effect, RT, good).is_empty());
    }

    #[test]
    fn wal_before_effect_skips_acks_and_acquisitions() {
        let text = "fn go() {\n\
                    \x20   ftb.publish(ctx, FtbEvent::with_payload(S, FTB_MIGRATE_PIIC, m));\n\
                    \x20   ftb.publish(ctx, FtbEvent::with_payload(S, FTB_RESTART_DONE, m));\n\
                    \x20   let lease = pool.lease_at(job, epoch);\n\
                    \x20   pool.release_front_at(n, job, epoch);\n\
                    }\n";
        assert!(run(wal_before_effect, RT, text).is_empty());
        // and the whole rule is scoped to the coordinator's modules
        let elsewhere = "fn go() { pool.consume_at(n, job, epoch); }\n";
        assert!(run(wal_before_effect, "crates/core/src/spare.rs", elsewhere).is_empty());
    }

    #[test]
    fn wal_before_effect_covers_every_coordinator_module() {
        // The takeover lives in its own module; an unjournaled restart
        // broadcast there is flagged like one in the coordinator.
        let bad = "fn rebroadcast() {\n\
                   \x20   ftb.publish(ctx, FtbEvent::with_payload(S, FTB_RESTART, msg(epoch)));\n\
                   }\n";
        let f = run(
            wal_before_effect,
            "crates/core/src/runtime/takeover.rs",
            bad,
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn epoch_fence_send_side_requires_the_stamp() {
        let bad = "fn go() {\n\
                   \x20   ftb.publish(ctx, FtbEvent::with_payload(S, FTB_RESTART,\n\
                   \x20       RestartMsg { cycle, target, ranks }));\n\
                   }\n";
        let f = run(epoch_fence, RT, bad);
        assert_eq!(f.len(), 1, "{f:?}");
        let good = bad.replace("ranks }", "ranks, epoch }");
        assert!(run(epoch_fence, RT, &good).is_empty());
    }

    #[test]
    fn epoch_fence_receive_side_requires_the_check() {
        let bad = "fn on_event(ev: &FtbEvent) {\n\
                   \x20   if ev.name == FTB_MIGRATE {\n\
                   \x20       let m = ev.payload_as::<MigrateMsg>();\n\
                   \x20       act(m);\n\
                   \x20   }\n\
                   }\n";
        let f = run(epoch_fence, RT, bad);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 1);
        let good = bad.replace(
            "act(m);",
            "if m.epoch < rt.fencing_epoch() { return; } act(m);",
        );
        assert!(run(epoch_fence, RT, &good).is_empty());
        // The coordinator's own ack wait loop decodes RestartMsg under
        // FTB_RESTART_DONE — not a fenced command path.
        let ack = "fn wait_ack(ev: &FtbEvent) {\n\
                   \x20   if ev.name == FTB_RESTART_DONE {\n\
                   \x20       let m = ev.payload_as::<RestartMsg>();\n\
                   \x20       note(m);\n\
                   \x20   }\n\
                   }\n";
        assert!(run(epoch_fence, RT, ack).is_empty());
    }

    #[test]
    fn calibrated_against_the_live_runtime() {
        // If the parser regressed and stopped seeing the coordinator's
        // call sites, every dataflow rule would pass vacuously. Pin the
        // census of the runtime modules: exactly five effect sites —
        //   `Attempt::enter` (coordinator.rs): the FTB_MIGRATE publish;
        //   `broadcast` (restart.rs): the one FTB_RESTART publish;
        //   `run_migration` (coordinator.rs) and `roll_forward`
        //   (takeover.rs): `consume_at`;
        //   `Attempt::fail` (abort.rs): `discard_at` —
        // and a journal full of appends, all satisfying the contracts.
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../core/src/runtime");
        let mut paths: Vec<_> = std::fs::read_dir(&dir)
            .expect("runtime modules")
            .map(|e| e.expect("dir entry").path())
            .collect();
        paths.sort();
        let (mut effects, mut appends) = (0, 0);
        for path in paths {
            let text = std::fs::read_to_string(&path).expect("readable module");
            let name = path.file_name().expect("file name").to_string_lossy();
            let src = SourceFile::parse(&Path::new("crates/core/src/runtime").join(&*name), &text);
            let fns = parse::functions(&src);
            let all: Vec<&CallSite> = fns.iter().flat_map(|f| &f.calls).collect();
            effects += all.iter().filter(|c| journaled_effect(c)).count();
            appends += all.iter().filter(|c| wal_append(c)).count();
            for rule in [wal_before_effect, epoch_fence, lease_settle_once] {
                let mut out = Vec::new();
                rule(&src, &mut out);
                assert!(out.is_empty(), "live runtime violates a contract: {out:?}");
            }
        }
        assert_eq!(effects, 5, "coordinator effect sites moved");
        assert!(appends >= 10, "parser lost WAL appends: {appends}");
    }

    #[test]
    fn lease_settle_once_flags_same_block_only() {
        let bad = "fn go() {\n\
                   \x20   pool.release_front_at(n, job, epoch);\n\
                   \x20   pool.discard_at(n, job, epoch);\n\
                   }\n";
        let f = run(lease_settle_once, RT, bad);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 3);

        let branches = "fn go(alive: bool) {\n\
                        \x20   if alive {\n\
                        \x20       pool.release_front_at(n, job, epoch);\n\
                        \x20   } else {\n\
                        \x20       pool.discard_at(n, job, epoch);\n\
                        \x20   }\n\
                        }\n";
        assert!(run(lease_settle_once, RT, branches).is_empty());

        let twice = "fn go() {\n\
                     \x20   settle_standby_outcome(ctx, rt, fl, t, 0, 0, O::Lost);\n\
                     \x20   settle_standby_outcome(ctx, rt, fl, t, 0, 0, O::Lost);\n\
                     }\n";
        assert_eq!(run(lease_settle_once, RT, twice).len(), 1);
    }
}
