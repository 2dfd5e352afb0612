//! The v1 token-level lint rules. All operate on lexed [`SourceFile`]s —
//! comment text and literal contents are already blanked, so plain
//! substring scans don't trip over prose.
//!
//! Rules emit *every* finding they see; allow markers are resolved
//! centrally by [`crate::suppress`], which also reports markers that
//! suppress nothing (`stale_allow`).

use crate::lexer::SourceFile;
use crate::Finding;

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Does `code` contain `tok` as a whole word (ident-boundary on both
/// sides)?
fn contains_word(code: &str, tok: &str) -> bool {
    find_word(code, tok, 0).is_some()
}

/// First occurrence of `tok` at or after `from` with ident boundaries.
fn find_word(code: &str, tok: &str, from: usize) -> Option<usize> {
    let mut start = from;
    while let Some(rel) = code[start..].find(tok) {
        let pos = start + rel;
        let before_ok = pos == 0 || !code[..pos].chars().next_back().is_some_and(is_ident_char);
        let after_ok = !code[pos + tok.len()..]
            .chars()
            .next()
            .is_some_and(is_ident_char);
        if before_ok && after_ok {
            return Some(pos);
        }
        start = pos + tok.len();
    }
    None
}

/// Extract the trailing identifier of `s` (after trimming whitespace).
fn trailing_ident(s: &str) -> Option<&str> {
    let s = s.trim_end();
    let end = s.len();
    let start = s
        .char_indices()
        .rev()
        .take_while(|(_, c)| is_ident_char(*c))
        .last()
        .map(|(i, _)| i)?;
    let id = &s[start..end];
    id.chars().next().filter(|c| !c.is_ascii_digit())?;
    Some(id)
}

/// The identifier right after a keyword like `let` / `let mut`.
fn ident_after(code: &str, pos: usize) -> Option<&str> {
    let rest = code[pos..].trim_start();
    let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
    let end = rest.find(|c: char| !is_ident_char(c)).unwrap_or(rest.len());
    (end > 0).then_some(&rest[..end])
}

// ---------------------------------------------------------------------------
// hash_iter
// ---------------------------------------------------------------------------

/// Method calls that iterate a map/set.
const ITER_TOKENS: &[&str] = &[
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".drain(",
    ".retain(",
    ".into_iter()",
];

/// The hash-typed struct fields of every file in `sources`.
///
/// `jmlint` collects them from every linted file before any file is
/// checked, so iterating a field declared in another module
/// (`result.images`, typed in `bufpool.rs`) is flagged wherever it
/// happens. Parameters and locals stay per file: their names are too
/// common to track across the workspace.
pub fn hash_fields<'a>(sources: impl IntoIterator<Item = &'a SourceFile>) -> Vec<String> {
    let mut out = Vec::new();
    for src in sources {
        for f in struct_fields(src) {
            if f.is_hash() {
                push_unique(&mut out, &f.name);
            }
        }
    }
    out
}

/// One named field directly inside a `struct` body.
struct Field {
    /// The struct that declares it.
    owner: String,
    /// Line number (1-based) of the struct's `struct` keyword.
    owner_line: usize,
    name: String,
    /// The type text, up to the next field's colon on the same line.
    ty: String,
}

impl Field {
    fn is_hash(&self) -> bool {
        ["HashMap", "HashSet"]
            .iter()
            .any(|t| find_word(&self.ty, t, 0).is_some())
    }

    /// Whether the type is `Mutex<…>`, `Arc<Mutex<…>>`, `Atomic*` or
    /// `Arc<Atomic*>`, path-qualified or not.
    fn is_lock(&self) -> bool {
        let ty = strip_path(self.ty.trim());
        let ty = ty.strip_prefix("Arc<").map_or(ty, strip_path);
        ty.starts_with("Mutex<") || ty.starts_with("Atomic")
    }
}

/// `ty` without leading path segments (`std::sync::`).
fn strip_path(mut ty: &str) -> &str {
    while let Some(sep) = ty.find("::") {
        if ty[..sep].chars().all(is_ident_char) {
            ty = &ty[sep + 2..];
        } else {
            break;
        }
    }
    ty
}

/// The struct fields declared in `src` (`IDENT: TYPE` directly inside a
/// `struct` body).
fn struct_fields(src: &SourceFile) -> Vec<Field> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    // Brace depth of the innermost open struct body.
    let mut body: Option<usize> = None;
    // Name and line of the struct whose body is pending or open.
    let mut owner: Option<(String, usize)> = None;
    let mut struct_pending = false;
    for (n, line) in src.lines.iter().enumerate() {
        let code = &line.code;
        let structs = word_positions(code, "struct");
        let bytes = code.as_bytes();
        for (i, c) in code.char_indices() {
            if structs.contains(&i) {
                struct_pending = true;
                let name = ident_after(code, i + "struct".len()).unwrap_or_default();
                owner = Some((name.to_string(), n + 1));
            }
            if single_colon(bytes, i) && body == Some(depth) {
                if let (Some(id), Some((name, line))) = (trailing_ident(&code[..i]), &owner) {
                    // The type runs to the next field's colon.
                    let ty = &code[i + 1..];
                    let ty = &ty[..next_single_colon(ty).unwrap_or(ty.len())];
                    out.push(Field {
                        owner: name.clone(),
                        owner_line: *line,
                        name: id.to_string(),
                        ty: ty.to_string(),
                    });
                }
            }
            match c {
                '{' => {
                    depth += 1;
                    if struct_pending {
                        body = Some(depth);
                        struct_pending = false;
                    }
                }
                '}' => {
                    if body == Some(depth) {
                        body = None;
                    }
                    depth = depth.saturating_sub(1);
                }
                ';' => struct_pending = false,
                _ => {}
            }
        }
    }
    out
}

/// Whether `b[i]` is a `:` that is not half of a `::`.
fn single_colon(b: &[u8], i: usize) -> bool {
    b[i] == b':' && b.get(i + 1) != Some(&b':') && (i == 0 || b[i - 1] != b':')
}

/// Offset of the first `:` in `s` that is not half of a `::`.
fn next_single_colon(s: &str) -> Option<usize> {
    (0..s.len()).find(|&i| single_colon(s.as_bytes(), i))
}

/// Every start offset of the word `tok` in `code`.
fn word_positions(code: &str, tok: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(pos) = find_word(code, tok, from) {
        out.push(pos);
        from = pos + tok.len();
    }
    out
}

/// The `IDENT` of `IDENT: ...` ending at a type's position, skipping
/// path separators (`std::collections::HashMap`).
fn typed_ident(before: &str) -> Option<&str> {
    let cpos = before.rfind(':')?;
    if before[..cpos].ends_with(':') || before[cpos + 1..].contains("::") {
        return None;
    }
    trailing_ident(&before[..cpos])
}

/// `let [mut] IDENT ... HashMap` on the same line, with the type at
/// `tpos`.
fn let_binding(code: &str, tpos: usize) -> Option<&str> {
    let lpos = find_word(code, "let", 0).filter(|&l| l < tpos)?;
    ident_after(code, lpos + 3)
}

/// Flag iteration over identifiers declared as `HashMap`/`HashSet`.
///
/// The identifiers are the hash-typed fields of every linted file
/// (`fields`, from [`hash_fields`]) plus this file's own bindings of a
/// hash collection (`let x = HashMap::new()`, `x: Mutex<HashMap<..>>`,
/// fn params). A field name this file declares with another type is its
/// own field, not the hash-typed one. A line is flagged where such an
/// identifier is iterated — via an [`ITER_TOKENS`] method call reached
/// from the identifier, or as the direct sequence of a `for .. in`.
pub fn hash_iter(src: &SourceFile, fields: &[String], out: &mut Vec<Finding>) {
    let own = struct_fields(src);
    let mut idents: Vec<String> = fields
        .iter()
        .filter(|f| !own.iter().any(|o| o.name == **f && !o.is_hash()))
        .cloned()
        .collect();
    for line in &src.lines {
        let code = &line.code;
        for ty in ["HashMap", "HashSet"] {
            let Some(tpos) = find_word(code, ty, 0) else {
                continue;
            };
            if let Some(id) = let_binding(code, tpos).or_else(|| typed_ident(&code[..tpos])) {
                push_unique(&mut idents, id);
            }
        }
    }
    if idents.is_empty() {
        return;
    }

    for (n, line) in src.lines.iter().enumerate() {
        let lineno = n + 1;
        let code = &line.code;
        for id in &idents {
            let flagged = iterates(code, id) || for_in_target(code, id);
            if flagged {
                out.push(Finding {
                    path: src.path.clone(),
                    line: lineno,
                    rule: "hash_iter",
                    message: format!(
                        "iteration over hash collection `{id}` — order is \
                         nondeterministic; use BTreeMap/BTreeSet or collect-and-sort"
                    ),
                });
                break; // one finding per line is enough
            }
        }
    }
}

fn push_unique(v: &mut Vec<String>, id: &str) {
    if !v.iter().any(|x| x == id) {
        v.push(id.to_string());
    }
}

/// Is `id` followed (possibly through `.lock()`-style adapters) by an
/// iterating method call on this line?
fn iterates(code: &str, id: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = find_word(code, id, from) {
        let after = &code[pos + id.len()..];
        // Walk a chain of `.method()` adapters until an iter token or
        // something else.
        let mut rest = after;
        loop {
            if ITER_TOKENS.iter().any(|t| rest.starts_with(t)) {
                return true;
            }
            // accept `.word()` adapters (lock, borrow, as_ref, ...)
            let Some(stripped) = rest.strip_prefix('.') else {
                break;
            };
            let end = stripped
                .find(|c: char| !is_ident_char(c))
                .unwrap_or(stripped.len());
            if end == 0 || !stripped[end..].starts_with("()") {
                break;
            }
            rest = &stripped[end + 2..];
        }
        from = pos + id.len();
    }
    false
}

/// Is `id` the direct sequence of a `for .. in` on this line
/// (`for x in map`, `for x in &map`, `for x in self.map`)?
fn for_in_target(code: &str, id: &str) -> bool {
    let Some(fpos) = find_word(code, "for", 0) else {
        return false;
    };
    let Some(ipos) = find_word(code, "in", fpos) else {
        return false;
    };
    let rest = code[ipos + 2..].trim_start();
    let rest = rest.strip_prefix('&').unwrap_or(rest);
    let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
    // a dotted path whose final segment is `id`, with no call after it
    let path_end = rest
        .find(|c: char| !is_ident_char(c) && c != '.')
        .unwrap_or(rest.len());
    let path = &rest[..path_end];
    path.rsplit('.').next() == Some(id) && !rest[path_end..].trim_start().starts_with('(')
}

// ---------------------------------------------------------------------------
// one_lock
// ---------------------------------------------------------------------------

/// Flag a struct with two or more fields typed `Mutex<…>`,
/// `Arc<Mutex<…>>`, `Atomic*` or `Arc<Atomic*>`.
///
/// One host thread runs every simulated process, so splitting an
/// object's state over several locks buys no concurrency: it only loses
/// the invariants that span two fields and costs a lock round trip per
/// field. Each shared model object keeps its mutable state in one
/// `…State` struct behind one lock. `simkit` is exempt: it implements
/// the synchronisation primitives themselves.
pub fn one_lock(src: &SourceFile, out: &mut Vec<Finding>) {
    if src.path.to_string_lossy().contains("simkit/src/") {
        return;
    }
    let fields = struct_fields(src);
    let mut i = 0;
    while i < fields.len() {
        let (owner, line) = (&fields[i].owner, fields[i].owner_line);
        let end = i + fields[i..]
            .iter()
            .take_while(|f| f.owner_line == line)
            .count();
        let locks: Vec<&str> = fields[i..end]
            .iter()
            .filter(|f| f.is_lock())
            .map(|f| f.name.as_str())
            .collect();
        if locks.len() >= 2 {
            out.push(Finding {
                path: src.path.clone(),
                line,
                rule: "one_lock",
                message: format!(
                    "struct `{owner}` splits its state over {} locks/atomics \
                     ({}) — move them into one `…State` behind one `Mutex`",
                    locks.len(),
                    locks.join(", ")
                ),
            });
        }
        i = end;
    }
}

// ---------------------------------------------------------------------------
// wall_clock
// ---------------------------------------------------------------------------

const CLOCK_TOKENS: &[(&str, &str)] = &[
    ("SystemTime", "host wall clock"),
    ("Instant::now", "host monotonic clock"),
    ("thread_rng", "entropy-seeded RNG"),
    ("from_entropy", "entropy-seeded RNG"),
    ("rand::random", "entropy-seeded RNG"),
];

/// Flag host time / entropy sources outside the simulator's virtual
/// clock. Simulated code reads time from `ctx.now()` and randomness from
/// seeded generators; anything else diverges between runs.
pub fn wall_clock(src: &SourceFile, out: &mut Vec<Finding>) {
    // The one sanctioned home for host-time plumbing.
    if src.path.to_string_lossy().contains("simkit/src/time") {
        return;
    }
    for (n, line) in src.lines.iter().enumerate() {
        let lineno = n + 1;
        for (tok, what) in CLOCK_TOKENS {
            let hit = if tok.contains("::") {
                line.code.contains(tok)
            } else {
                contains_word(&line.code, tok)
            };
            if hit {
                out.push(Finding {
                    path: src.path.clone(),
                    line: lineno,
                    rule: "wall_clock",
                    message: format!(
                        "`{tok}` is a {what} — simulated code must use \
                         simkit's virtual time / seeded RNGs"
                    ),
                });
                break;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// hot_unwrap
// ---------------------------------------------------------------------------

/// Files whose non-test code is a protocol hot path (every module under
/// `core/src/runtime/`, `bufpool.rs`, the CR baseline and BLCR's
/// checkpoint/restart operations): the fault plane can reach almost every
/// line, and an injected failure must degrade to a `MigrationOutcome` or
/// a refused restart, not panic.
const HOT_FILES: &[&str] = &[
    "core/src/runtime/",
    "core/src/bufpool.rs",
    "core/src/cr_baseline.rs",
    "blcrsim/src/ops.rs",
];

/// Flag `.unwrap()` / `.expect(` / `panic!(` in protocol hot paths.
pub fn hot_unwrap(src: &SourceFile, out: &mut Vec<Finding>) {
    let p = src.path.to_string_lossy().replace('\\', "/");
    if !HOT_FILES.iter().any(|f| p.contains(f)) {
        return;
    }
    for (n, line) in src.lines.iter().enumerate() {
        let lineno = n + 1;
        let code = &line.code;
        // The unit-test module at the bottom of a file is not a hot path.
        if code.contains("#[cfg(test)]") {
            break;
        }
        for tok in [".unwrap()", ".expect(", "panic!("] {
            if code.contains(tok) {
                out.push(Finding {
                    path: src.path.clone(),
                    line: lineno,
                    rule: "hot_unwrap",
                    message: format!(
                        "`{tok}` in a protocol hot path — route the failure \
                         into a typed error / MigrationOutcome instead"
                    ),
                });
                break;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// span_exit
// ---------------------------------------------------------------------------

/// Flag trace spans without a matching exit.
///
/// A span opened in statement position (`ctx.span_with(...);`) or bound
/// to `_` is dropped immediately and records zero duration. A named
/// binding (`let ph = ctx.span(...)`) must reach `ph.end()` /
/// `ph.end_with(...)` before the name is rebound or the file ends.
/// Bindings whose name starts with `_` are deliberate drop-guards
/// (simkit's `Span` ends itself on `Drop`) and are accepted.
pub fn span_exit(src: &SourceFile, out: &mut Vec<Finding>) {
    // pending: (ident, line) spans awaiting an `.end()`
    let mut pending: Vec<(String, usize)> = Vec::new();
    let flag = |path: &std::path::Path, line: usize, msg: String, out: &mut Vec<Finding>| {
        out.push(Finding {
            path: path.to_path_buf(),
            line,
            rule: "span_exit",
            message: msg,
        });
    };
    for (n, line) in src.lines.iter().enumerate() {
        let lineno = n + 1;
        let code = &line.code;

        // resolve pending ends first: `ident.end(` / `ident.end_with(`
        pending.retain(|(id, _)| {
            !find_word(code, id, 0).is_some_and(|pos| {
                let after = &code[pos + id.len()..];
                after.starts_with(".end()") || after.starts_with(".end_with(")
            })
        });

        let span_call = code.contains(".span(") || code.contains(".span_with(");
        if !span_call || code.contains("fn span") {
            continue;
        }
        match find_word(code, "let", 0) {
            Some(lpos) => {
                let Some(id) = ident_after(code, lpos + 3) else {
                    continue;
                };
                if id == "_" {
                    flag(
                        &src.path,
                        lineno,
                        "span bound to `_` is dropped immediately (zero-length span); \
                         bind it and call .end()"
                            .into(),
                        out,
                    );
                } else if !id.starts_with('_') {
                    // rebinding before the old span ended?
                    if let Some(i) = pending.iter().position(|(p, _)| p == id) {
                        let (_, opened) = pending.remove(i);
                        flag(
                            &src.path,
                            opened,
                            format!("span `{id}` is rebound before .end()/.end_with() was called"),
                            out,
                        );
                    }
                    pending.push((id.to_string(), lineno));
                }
            }
            None => {
                // statement-position span, dropped at the `;`
                if code.trim_end().ends_with(';') && !code.contains('=') {
                    flag(
                        &src.path,
                        lineno,
                        "span created and dropped in the same statement (zero-length \
                         span); bind it and call .end()"
                            .into(),
                        out,
                    );
                }
            }
        }
    }
    for (id, opened) in pending {
        flag(
            &src.path,
            opened,
            format!("span `{id}` never reaches .end()/.end_with()"),
            out,
        );
    }
}

// ---------------------------------------------------------------------------
// hot_alloc
// ---------------------------------------------------------------------------

/// Files on the chunk data path: every non-test function here runs once
/// per chunk (or per slice) during a migration, so a byte-vector clone
/// or materialization multiplies with image size.
const CHUNK_PATH_FILES: &[&str] = &[
    "core/src/bufpool.rs",
    "ibfabric/src/payload.rs",
    "ibfabric/src/sparsebuf.rs",
    "ibfabric/src/verbs.rs",
    "blcrsim/src/stream.rs",
    "blcrsim/src/ops.rs",
    "storesim/src/localfs.rs",
    "storesim/src/pvfs.rs",
    "livemig/src/delta.rs",
];

/// Receiver names that hold payload slice tables or whole images. A
/// `.clone()` reached from one of these is either an O(slices) table
/// copy (regression) or a sanctioned O(1) rope/`Arc` clone — the latter
/// carries an allow marker stating why it is cheap.
const PAYLOAD_IDENTS: &[&str] = &["slices", "chunk", "image", "img", "memory", "stream"];

/// Flag `.clone()` on payload-table receivers and `.to_vec()` byte
/// materializations inside chunk-path files. The zero-copy data path
/// moves slice *views* (`DataSlice`, `Rope`); cloning the backing
/// tables or materializing bytes undoes it silently. Cheap-by-design
/// clones (rope refcount bumps, `Arc` handles) carry
/// `// jmlint: allow(hot_alloc)` markers documenting why.
pub fn hot_alloc(src: &SourceFile, out: &mut Vec<Finding>) {
    let p = src.path.to_string_lossy().replace('\\', "/");
    if !CHUNK_PATH_FILES.iter().any(|f| p.ends_with(f)) {
        return;
    }
    for (n, line) in src.lines.iter().enumerate() {
        let lineno = n + 1;
        let code = &line.code;
        // The unit-test module at the bottom of a file is not a hot path.
        if code.contains("#[cfg(test)]") {
            break;
        }
        if code.contains(".to_vec()") {
            out.push(Finding {
                path: src.path.clone(),
                line: lineno,
                rule: "hot_alloc",
                message: "`.to_vec()` materializes payload bytes on the chunk path — \
                          keep slice views (`DataSlice`/`Rope`) instead"
                    .to_string(),
            });
            continue;
        }
        let mut from = 0;
        while let Some(rel) = code[from..].find(".clone()") {
            let pos = from + rel;
            from = pos + ".clone()".len();
            let Some(recv) = trailing_ident(&code[..pos]) else {
                continue;
            };
            if PAYLOAD_IDENTS.contains(&recv) {
                out.push(Finding {
                    path: src.path.clone(),
                    line: lineno,
                    rule: "hot_alloc",
                    message: format!(
                        "`{recv}.clone()` on the chunk path — if this copies a slice \
                         table or bytes, hand out a `Rope`/`DataSlice` view; if it is \
                         an O(1) refcount bump, say so with an allow marker"
                    ),
                });
                break; // one finding per line is enough
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn run(rule: fn(&SourceFile, &mut Vec<Finding>), path: &str, text: &str) -> Vec<Finding> {
        let src = SourceFile::parse(Path::new(path), text);
        let mut out = Vec::new();
        rule(&src, &mut out);
        out
    }

    /// `hash_iter` on one file, with that file's own fields as the
    /// workspace's.
    fn hash_iter_alone(src: &SourceFile, out: &mut Vec<Finding>) {
        hash_iter(src, &hash_fields([src]), out);
    }

    #[test]
    fn hash_iter_catches_field_and_let_bindings() {
        let text = "struct S { m: Mutex<HashMap<u32, u64>> }\n\
                    fn f(s: &S) { for (k, v) in s.m.lock().iter() {} }\n\
                    fn g() { let mut seen = HashSet::new(); seen.insert(1); }\n\
                    fn h(seen: &HashSet<u32>) { for x in seen {} }\n";
        let f = run(hash_iter_alone, "crates/x/src/a.rs", text);
        assert_eq!(
            f.len(),
            2,
            "{:?}",
            f.iter().map(|f| f.line).collect::<Vec<_>>()
        );
        assert_eq!(f[0].line, 2);
        assert_eq!(f[1].line, 4);
    }

    #[test]
    fn hash_iter_emits_raw_finding_that_suppression_absorbs() {
        // Rules no longer consult markers; the centralized pass does.
        let text = "let m = HashMap::new();\n\
                    // jmlint: allow(hash_iter) — sorted right after\n\
                    let mut v: Vec<_> = m.keys().collect();\n";
        let src = SourceFile::parse(Path::new("a.rs"), text);
        let mut raw = Vec::new();
        hash_iter_alone(&src, &mut raw);
        assert_eq!(raw.len(), 1, "rule emits unconditionally");
        assert!(crate::suppress::apply(&src, raw).is_empty());
    }

    #[test]
    fn hash_iter_ignores_lookups_and_btreemaps() {
        let text = "let m = HashMap::new(); let b = BTreeMap::new();\n\
                    m.get(&k); m.insert(k, v); m.remove(&k);\n\
                    for x in b.values() {}\n";
        assert!(run(hash_iter_alone, "a.rs", text).is_empty());
    }

    #[test]
    fn hash_iter_sees_fields_declared_in_another_file() {
        let decl = SourceFile::parse(
            Path::new("crates/x/src/pool.rs"),
            "pub struct TargetResult {\n    pub images: HashMap<u32, Image>,\n    pub bytes: u64,\n}\n\
             fn helper(names: &HashSet<u32>) {}\n",
        );
        let user = SourceFile::parse(
            Path::new("crates/y/src/phase.rs"),
            "fn f(result: TargetResult) {\n\
             let v: Vec<_> = result.images.into_iter().collect();\n\
             for n in names.iter() {}\n}\n",
        );
        let fields = hash_fields([&decl, &user]);
        assert_eq!(fields, ["images"], "fields only, not parameters");
        let mut out = Vec::new();
        hash_iter(&user, &fields, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(
            (out[0].path.to_str(), out[0].line),
            (Some("crates/y/src/phase.rs"), 2)
        );

        // A file that declares the name with another type uses its own.
        let shadow = SourceFile::parse(
            Path::new("crates/z/src/rank.rs"),
            "struct Endpoints { images: Vec<u32> }\nfn g(e: Endpoints) { for i in e.images.iter() {} }\n",
        );
        let mut out = Vec::new();
        hash_iter(&shadow, &fields, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn one_lock_flags_two_locks_in_one_struct() {
        let text = "pub struct Two {\n\
                    \x20   id: u32,\n\
                    \x20   a: Mutex<Vec<u64>>,\n\
                    \x20   b: std::sync::Arc<parking_lot::Mutex<u64>>,\n\
                    }\n\
                    struct One { s: Mutex<State>, done: Event }\n\
                    struct Counters { n: AtomicU64, m: Arc<AtomicBool> }\n";
        let f = run(one_lock, "crates/x/src/a.rs", text);
        let lines: Vec<usize> = f.iter().map(|f| f.line).collect();
        assert_eq!(lines, [1, 7], "{f:?}");
        assert!(f[0].message.contains("(a, b)"), "{}", f[0].message);
        assert!(run(one_lock, "crates/simkit/src/sync.rs", text).is_empty());
    }

    #[test]
    fn wall_clock_flags_entropy_and_time() {
        let text =
            "let t = Instant::now();\nlet r = thread_rng();\nlet ok = StdRng::seed_from_u64(7);\n";
        let f = run(wall_clock, "crates/core/src/x.rs", text);
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn hot_unwrap_scopes_to_hot_files_and_skips_tests() {
        let text = "fn f() { x.unwrap(); }\n\
                    fn g() { y.unwrap_or(0); z.expect_err(\"no\"); }\n\
                    fn h() { w.unwrap_or_else(|| panic!(\"gone\")); }\n\
                    fn k() { debug_assert!(ok); should_panic(); }\n\
                    #[cfg(test)]\n\
                    mod tests { fn t() { q.unwrap(); panic!(); } }\n";
        for hot in [
            "crates/core/src/runtime/coordinator.rs",
            "crates/core/src/cr_baseline.rs",
            "crates/blcrsim/src/ops.rs",
        ] {
            let f = run(hot_unwrap, hot, text);
            let lines: Vec<usize> = f.iter().map(|f| f.line).collect();
            assert_eq!(lines, [1, 3], "{hot}: {f:?}");
            assert!(f[1].message.contains("panic!("), "{}", f[1].message);
        }
        assert!(run(hot_unwrap, "crates/ftb/src/agent.rs", text).is_empty());
    }

    #[test]
    fn span_exit_requires_an_end() {
        let good = "let ph = ctx.span_with(\"p\", \"x\", args);\nph.end();\n";
        assert!(run(span_exit, "a.rs", good).is_empty());
        let never = "let ph = ctx.span(\"p\", \"x\");\nwork();\n";
        let f = run(span_exit, "a.rs", never);
        assert_eq!(f.len(), 1);
        let rebound =
            "let ph = ctx.span(\"p\", \"x\");\nlet ph = ctx.span(\"p\", \"y\");\nph.end();\n";
        let f = run(span_exit, "a.rs", rebound);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 1);
        let stmt = "ctx.span_with(\"p\", \"x\", args);\n";
        assert_eq!(run(span_exit, "a.rs", stmt).len(), 1);
        let guard = "let _ph = ctx.span(\"p\", \"x\");\n"; // Drop-guard: ok
        assert!(run(span_exit, "a.rs", guard).is_empty());
    }
}
