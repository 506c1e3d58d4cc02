//! The repo-specific lint pass behind `cargo xtask check`.
//!
//! Four hygiene lints, each encoding an invariant this workspace
//! already paid to learn:
//!
//! * **no-unwrap** — no `.unwrap()` in non-test code, and `.expect(…)`
//!   must carry a string-literal message. Simulator state is deep; a
//!   bare panic with no context costs an afternoon.
//! * **no-bare-cast** — no `as` cast to a narrow integer type on a
//!   statement involving cycle/credit/lag quantities; use
//!   `From`/`TryFrom` so truncation is a decision, not an accident
//!   (the control-packet lag lives in a `u8` precisely because the
//!   analyzer proves its bounds — a silent `as u8` elsewhere would
//!   bypass that proof).
//! * **no-counter-poke** — the fault counters audited by the runtime
//!   watchdog may only be mutated inside `noc/src/faults.rs`, through
//!   the `note_*` methods; direct `+=` from other modules is how the
//!   watchdog's invariants drifted historically.
//! * **must-use-errors** — public `*Error` types must be
//!   `#[must_use]`: allocation results that can be silently dropped
//!   become silently lost packets.
//!
//! Test code (`#[cfg(test)]` items, `#[test]` functions, `tests/`
//! directories) is exempt from all four.
//!
//! Plus four **determinism lints** guarding the byte-identical-artifact
//! contract (sweep CSV/JSON, digests, checkpoint journals are compared
//! with `cmp` in CI — one nondeterministic byte breaks resume
//! equivalence):
//!
//! * **no-hashmap-iteration** — `HashMap`/`HashSet` iterate in a
//!   per-process randomized order; use `BTreeMap`/`BTreeSet`.
//! * **no-wallclock** — `SystemTime`/`Instant` read the host clock;
//!   simulated time comes from the cycle counter and timeouts from
//!   config.
//! * **no-ambient-randomness** — `thread_rng`-style OS entropy; all
//!   randomness must flow from the seeded `nistats` RNG.
//! * **no-lossy-float-format** — `{}` on a float-named value formats a
//!   shortest-roundtrip decimal whose *text* is not stable under
//!   re-parse/re-format pipelines; digest-covered floats go out as
//!   `f64::to_bits()` hex (`{:016x}`), the journal's rule.
//!
//! The determinism lints apply only to digest-covered paths (see
//! [`digest_covered`]): `tests/`, `examples/` and the `bench` crate are
//! human-facing and exempt. Audited sites are suppressed with a
//! `det:allow(<lint>)` comment on the flagged line or in the comment
//! block directly above it; a directive on its own line attaches to
//! the next code line.
//!
//! Plus one **performance lint** guarding the zero-allocation contract
//! of the per-cycle simulation path (pinned end-to-end by the
//! `alloc_steady_state` counting-allocator test in `crates/noc`):
//!
//! * **no-hot-loop-alloc** — a function opted in with a standalone
//!   `// hot` marker comment directly above it must not contain
//!   `Box::new`, `vec!`, or `.to_vec()`. These constructs allocate on
//!   every call; the hot loop runs them millions of times per second
//!   and must reuse preallocated scratch buffers instead (see
//!   `StepScratch` in `noc/src/mesh.rs`). The marker is opt-in and the
//!   lint runs wherever it appears; today that is the per-cycle phase
//!   functions in `crates/noc`. Audited sites are suppressed with the
//!   same `det:allow(<lint>)` mechanism as the determinism lints.
//!
//! Plus one **cross-file rule**, run by [`dead_api`] rather than per
//! file, so `lint_tree` never reports it:
//!
//! * **dead-api** — every `pub` fn, method, struct, enum, trait, type
//!   alias, const, static and named field under `crates/*/src` must be
//!   named as an identifier somewhere outside its own file's
//!   `#[cfg(test)]` code: in any workspace source, test, bench or
//!   example, or in `perfbench/src`. Inline format arguments
//!   (`"{NAME}"`) count; doc comments and `pub use` re-exports do not.
//!   Matching is by name, so write-only state stays invisible to it. An
//!   item that must stay goes in [`DEAD_API_ALLOW`] as `(file, name,
//!   reason)`; an entry that is used again or names no item fails the
//!   rule, so the list cannot go stale.

use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Component, Path, PathBuf};

use crate::lexer::{tokenize, Token, TokenKind};

/// Watchdog-audited counters of `noc::faults::FaultStats`. Keep in sync
/// with that struct; the `counters_match_fault_stats` test cross-checks
/// the list against the actual source.
pub const AUDITED_COUNTERS: [&str; 10] = [
    "transient_link_faults",
    "permanent_link_faults",
    "router_faults",
    "credits_lost",
    "control_drops",
    "lost_packets",
    "lost_flits",
    "injections_refused",
    "blocked_by_fault_cycles",
    "faulted_chain_cancels",
];

/// Narrow integer targets a bare `as` cast may silently truncate to.
const NARROW_INTS: [&str; 6] = ["u8", "u16", "u32", "i8", "i16", "i32"];

/// Identifier substrings marking a quantity the cast lint protects.
const GUARDED_QUANTITIES: [&str; 3] = ["cycle", "credit", "lag"];

/// Hash-based std collections with per-process randomized iteration
/// order; banned wholesale in digest-covered code (merely *holding* one
/// invites the iteration that breaks byte-stability).
const HASH_COLLECTIONS: [&str; 2] = ["HashMap", "HashSet"];

/// Host-clock types banned in digest-covered code.
const WALLCLOCK_TYPES: [&str; 2] = ["SystemTime", "Instant"];

/// Ambient (OS-seeded) randomness entry points banned in
/// digest-covered code.
const AMBIENT_RANDOMNESS: [&str; 6] = [
    "thread_rng",
    "ThreadRng",
    "OsRng",
    "from_entropy",
    "getrandom",
    "RandomState",
];

/// Underscore-separated identifier parts that mark a float quantity
/// for the lossy-format lint. A part must match *exactly*, so `crate`
/// never matches `rate`.
const FLOAT_NAME_PARTS: [&str; 10] = [
    "f32", "f64", "float", "rate", "ratio", "frac", "fraction", "mean", "avg", "weight",
];

/// Path components marking human-facing code outside the
/// digest/artifact perimeter; the determinism lints skip files under
/// them.
const UNCOVERED_COMPONENTS: [&str; 4] = ["tests", "examples", "benches", "bench"];

/// Standalone marker comment opting the next function into the
/// hot-loop allocation lint. Matched against the whole trimmed line,
/// so prose like "the hot loop" in a doc comment never opts in.
const HOT_MARKER: &str = "// hot";

/// Whether `path` is inside the digest/artifact perimeter the
/// determinism lints guard. Everything is covered except trees whose
/// path contains a component in [`UNCOVERED_COMPONENTS`] — integration
/// tests, examples and the `bench` crate print for humans, not for
/// digests.
#[must_use]
pub fn digest_covered(path: &Path) -> bool {
    !path.components().any(|c| match c {
        Component::Normal(n) => n
            .to_str()
            .is_some_and(|s| UNCOVERED_COMPONENTS.contains(&s)),
        _ => false,
    })
}

/// Collects `det:allow(<lint>)` suppressions from comments in `src` as
/// `(line, lint)` pairs keyed by the line they *suppress*: the
/// directive's own line if it trails code, otherwise the next code
/// line below the comment block (so a multi-line justification above
/// the flagged site works).
fn allowed_lines(src: &str) -> BTreeSet<(u32, String)> {
    let lines: Vec<&str> = src.lines().collect();
    let comment_only = |idx: usize| {
        let t = lines[idx].trim_start();
        t.is_empty() || t.starts_with("//")
    };
    let mut out = BTreeSet::new();
    for (idx, line) in lines.iter().enumerate() {
        let Some(cpos) = line.find("//") else {
            continue;
        };
        let mut rest = &line[cpos..];
        while let Some(p) = rest.find("det:allow(") {
            rest = &rest[p + "det:allow(".len()..];
            let Some(close) = rest.find(')') else { break };
            let mut target = idx;
            if line[..cpos].trim().is_empty() {
                target = idx + 1;
                while target < lines.len() && comment_only(target) {
                    target += 1;
                }
            }
            let tline = u32::try_from(target + 1).unwrap_or(u32::MAX);
            for name in rest[..close].split(',') {
                out.insert((tline, name.trim().to_string()));
            }
            rest = &rest[close..];
        }
    }
    out
}

/// Whether an identifier names a float quantity: one of its
/// `_`-separated parts matches [`FLOAT_NAME_PARTS`] exactly. Idents
/// with a `fmt` part are formatting helpers, presumed audited.
fn float_named(ident: &str) -> bool {
    let lower = ident.to_ascii_lowercase();
    let mut parts = lower.split('_').filter(|p| !p.is_empty());
    if parts.clone().any(|p| p.contains("fmt")) {
        return false;
    }
    parts.any(|p| FLOAT_NAME_PARTS.contains(&p))
}

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// File the finding is in.
    pub file: PathBuf,
    /// 1-based line.
    pub line: u32,
    /// Lint name (stable, kebab-case).
    pub lint: &'static str,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.lint,
            self.message
        )
    }
}

/// Removes items annotated `#[cfg(test)]` / `#[test]` from the token
/// stream, so the lints only see production code. An attribute group
/// mentioning `test` (without `not`) causes the following item — through
/// its matching closing brace or terminating semicolon — to be dropped,
/// along with any attributes stacked between.
fn strip_test_code(tokens: &[Token]) -> Vec<Token> {
    let mut out = Vec::with_capacity(tokens.len());
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].is_punct('#') && i + 1 < tokens.len() && tokens[i + 1].is_punct('[') {
            // Collect the attribute group.
            let mut j = i + 2;
            let mut depth = 1u32;
            let mut has_test = false;
            let mut has_not = false;
            while j < tokens.len() && depth > 0 {
                if tokens[j].is_punct('[') {
                    depth += 1;
                } else if tokens[j].is_punct(']') {
                    depth -= 1;
                } else if tokens[j].is_ident("test") {
                    has_test = true;
                } else if tokens[j].is_ident("not") {
                    has_not = true;
                }
                j += 1;
            }
            if has_test && !has_not {
                // Skip stacked attributes, then the item itself.
                let mut k = j;
                while k + 1 < tokens.len() && tokens[k].is_punct('#') && tokens[k + 1].is_punct('[')
                {
                    let mut d = 1u32;
                    k += 2;
                    while k < tokens.len() && d > 0 {
                        if tokens[k].is_punct('[') {
                            d += 1;
                        } else if tokens[k].is_punct(']') {
                            d -= 1;
                        }
                        k += 1;
                    }
                }
                let mut brace = 0i64;
                let mut entered = false;
                while k < tokens.len() {
                    if tokens[k].is_punct('{') {
                        brace += 1;
                        entered = true;
                    } else if tokens[k].is_punct('}') {
                        brace -= 1;
                    } else if tokens[k].is_punct(';') && !entered {
                        k += 1;
                        break; // declaration without a body (`mod tests;`)
                    }
                    k += 1;
                    if entered && brace == 0 {
                        break;
                    }
                }
                i = k;
                continue;
            }
        }
        out.push(tokens[i].clone());
        i += 1;
    }
    out
}

/// Whether `path` is inside the one module allowed to mutate the
/// audited counters.
fn owns_fault_counters(path: &Path) -> bool {
    path.ends_with("noc/src/faults.rs")
}

fn push(violations: &mut Vec<Violation>, file: &Path, line: u32, lint: &'static str, msg: String) {
    violations.push(Violation {
        file: file.to_path_buf(),
        line,
        lint,
        message: msg,
    });
}

/// Runs the full lint battery over one file's source text: the four
/// hygiene lints everywhere, the four determinism lints when `file` is
/// [`digest_covered`], minus any `det:allow(<lint>)` suppressions.
pub fn lint_source(file: &Path, src: &str) -> Vec<Violation> {
    let tokens = strip_test_code(&tokenize(src));
    let mut v = Vec::new();
    lint_unwrap(&tokens, file, &mut v);
    lint_bare_casts(&tokens, file, &mut v);
    if !owns_fault_counters(file) {
        lint_counter_pokes(&tokens, file, &mut v);
    }
    lint_must_use_errors(&tokens, file, &mut v);
    if digest_covered(file) {
        lint_banned_idents(
            &tokens,
            file,
            &mut v,
            "no-hashmap-iteration",
            &HASH_COLLECTIONS,
            "iterates in a per-process randomized order; use BTreeMap/BTreeSet so artifacts stay byte-stable",
        );
        lint_banned_idents(
            &tokens,
            file,
            &mut v,
            "no-wallclock",
            &WALLCLOCK_TYPES,
            "reads the host clock in digest-covered code; simulated time comes from the cycle counter, timeouts from config",
        );
        lint_banned_idents(
            &tokens,
            file,
            &mut v,
            "no-ambient-randomness",
            &AMBIENT_RANDOMNESS,
            "draws OS entropy; all randomness must flow from the seeded nistats RNG",
        );
        lint_lossy_float_format(&tokens, file, &mut v);
    }
    lint_hot_loop_allocs(&tokens, src, file, &mut v);
    let allowed = allowed_lines(src);
    v.retain(|viol| !allowed.contains(&(viol.line, viol.lint.to_string())));
    v
}

/// The hot-loop allocation lint: inside a function marked with a
/// standalone `// hot` comment, flag `Box::new`, `vec!` and
/// `.to_vec()` — each heap-allocates on every call, and the marked
/// functions are the per-cycle phases the `alloc_steady_state` test
/// proves allocation-free.
///
/// The marker lives in a comment the lexer discards, so marker lines
/// come from the raw source text; the function body is then located
/// and brace-tracked on the token stream, where strings and comments
/// can never masquerade as code.
fn lint_hot_loop_allocs(t: &[Token], src: &str, file: &Path, v: &mut Vec<Violation>) {
    for (idx, line) in src.lines().enumerate() {
        if line.trim() != HOT_MARKER {
            continue;
        }
        let marker = u32::try_from(idx + 1).unwrap_or(u32::MAX);
        // First `fn` after the marker line — attributes and doc
        // comments stacked between are skipped naturally (attributes
        // contain no `fn` ident, comments are not tokens at all).
        let Some(fn_idx) = t.iter().position(|x| x.line > marker && x.is_ident("fn")) else {
            continue;
        };
        let name = t
            .get(fn_idx + 1)
            .filter(|x| x.kind == TokenKind::Ident)
            .map_or("?", |x| x.text.as_str());
        // Walk to the body's opening brace; a `;` first means a bodyless
        // declaration (trait method), which has nothing to lint.
        let mut open = fn_idx;
        while open < t.len() && !t[open].is_punct('{') {
            if t[open].is_punct(';') {
                break;
            }
            open += 1;
        }
        if open >= t.len() || !t[open].is_punct('{') {
            continue;
        }
        let mut depth = 0i64;
        let mut end = open;
        while end < t.len() {
            if t[end].is_punct('{') {
                depth += 1;
            } else if t[end].is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            end += 1;
        }
        for j in open..end {
            let construct = if t[j].is_ident("Box")
                && t.get(j + 1).is_some_and(|x| x.is_punct(':'))
                && t.get(j + 2).is_some_and(|x| x.is_punct(':'))
                && t.get(j + 3).is_some_and(|x| x.is_ident("new"))
            {
                Some(("Box::new", t[j].line))
            } else if t[j].is_ident("vec") && t.get(j + 1).is_some_and(|x| x.is_punct('!')) {
                Some(("vec!", t[j].line))
            } else if t[j].is_punct('.')
                && t.get(j + 1).is_some_and(|x| x.is_ident("to_vec"))
                && t.get(j + 2).is_some_and(|x| x.is_punct('('))
            {
                Some((".to_vec()", t[j + 1].line))
            } else {
                None
            };
            if let Some((what, at)) = construct {
                push(
                    v,
                    file,
                    at,
                    "no-hot-loop-alloc",
                    format!(
                        "`{what}` heap-allocates inside `// hot`-marked fn `{name}`; the per-cycle path must reuse preallocated scratch (see StepScratch in noc/src/mesh.rs and the alloc_steady_state test)"
                    ),
                );
            }
        }
    }
}

/// Flags every occurrence of a banned identifier.
fn lint_banned_idents(
    t: &[Token],
    file: &Path,
    v: &mut Vec<Violation>,
    lint: &'static str,
    banned: &[&str],
    why: &str,
) {
    for tok in t {
        if tok.kind == TokenKind::Ident && banned.contains(&tok.text.as_str()) {
            push(v, file, tok.line, lint, format!("`{}` {why}", tok.text));
        }
    }
}

/// One `{…}` placeholder in a format string.
struct Placeholder {
    /// Inline-captured name (`{rate}`), empty for positional `{}`.
    name: String,
    /// Whether the format spec prints a lossy decimal: anything except
    /// the radix specs (`x`/`X`/`b`/`o`) and scientific (`e`/`E`).
    lossy: bool,
}

/// Parses the placeholders out of a format-string body, honouring the
/// `{{` escape.
fn parse_placeholders(body: &str) -> Vec<Placeholder> {
    let chars: Vec<char> = body.chars().collect();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < chars.len() {
        if chars[i] != '{' {
            i += 1;
            continue;
        }
        if chars.get(i + 1) == Some(&'{') {
            i += 2;
            continue;
        }
        let mut j = i + 1;
        while j < chars.len() && chars[j] != '}' {
            j += 1;
        }
        let inner: String = chars[i + 1..j].iter().collect();
        let (name, spec) = inner.split_once(':').unwrap_or((inner.as_str(), ""));
        out.push(Placeholder {
            name: name.to_string(),
            lossy: !spec.contains(['x', 'X', 'b', 'o', 'e', 'E']),
        });
        i = j + 1;
    }
    out
}

/// The text between a string literal's quotes (stripping `r#`/`b`
/// prefixes and hash fences), or `None` for a quoteless token.
fn string_body(text: &str) -> Option<&str> {
    let start = text.find('"')?;
    let end = text.rfind('"')?;
    (end > start).then(|| &text[start + 1..end])
}

/// The lossy-float-format lint: a `{}`-style placeholder applied to a
/// float-named value in digest-covered code. Catches both inline
/// captures (`"{inj_rate}"`) and positional placeholders whose
/// argument list names a float. `ident.to_bits()` chains are exempt
/// (the journal's own rule), as are `fmt`-named helper calls.
fn lint_lossy_float_format(t: &[Token], file: &Path, v: &mut Vec<Violation>) {
    for i in 0..t.len() {
        if t[i].kind != TokenKind::Str {
            continue;
        }
        let Some(body) = string_body(&t[i].text) else {
            continue;
        };
        let placeholders = parse_placeholders(body);
        for p in &placeholders {
            if p.lossy && float_named(&p.name) {
                push(
                    v,
                    file,
                    t[i].line,
                    "no-lossy-float-format",
                    format!(
                        "`{{{}}}` prints a float as lossy decimal text; emit `{}.to_bits()` as `{{:016x}}` like the journal does",
                        p.name, p.name
                    ),
                );
            }
        }
        // Positional `{}` placeholders: look at the rest of the macro
        // argument list for float-named idents.
        if !placeholders.iter().any(|p| p.lossy && p.name.is_empty()) {
            continue;
        }
        if i == 0 || !(t[i - 1].is_punct('(') || t[i - 1].is_punct(',')) {
            continue; // not a macro/call argument position
        }
        let mut depth = 0u32;
        let mut j = i + 1;
        while j < t.len() {
            if t[j].is_punct('(') {
                depth += 1;
            } else if t[j].is_punct(')') {
                if depth == 0 {
                    break; // end of the enclosing argument list
                }
                depth -= 1;
            } else if depth == 0 && t[j].kind == TokenKind::Ident && float_named(&t[j].text) {
                let to_bits = t.get(j + 1).is_some_and(|x| x.is_punct('.'))
                    && t.get(j + 2).is_some_and(|x| x.is_ident("to_bits"));
                if !to_bits {
                    push(
                        v,
                        file,
                        t[j].line,
                        "no-lossy-float-format",
                        format!(
                            "`{}` reaches a `{{}}` placeholder as lossy decimal text; emit `{}.to_bits()` as `{{:016x}}` like the journal does",
                            t[j].text, t[j].text
                        ),
                    );
                }
            }
            j += 1;
        }
    }
}

fn lint_unwrap(t: &[Token], file: &Path, v: &mut Vec<Violation>) {
    for i in 0..t.len() {
        if !t[i].is_punct('.') {
            continue;
        }
        let Some(name) = t.get(i + 1) else { continue };
        if name.is_ident("unwrap")
            && t.get(i + 2).is_some_and(|x| x.is_punct('('))
            && t.get(i + 3).is_some_and(|x| x.is_punct(')'))
        {
            push(
                v,
                file,
                name.line,
                "no-unwrap",
                "`.unwrap()` in non-test code; return a typed error or use `.expect(\"why this cannot fail\")`".to_string(),
            );
        } else if name.is_ident("expect") && t.get(i + 2).is_some_and(|x| x.is_punct('(')) {
            // `self.expect(…)` is a local method (e.g. the JSON
            // parser), not `Option`/`Result::expect`.
            let on_self = i > 0 && t[i - 1].is_ident("self");
            let literal_msg = t.get(i + 3).is_some_and(|x| x.kind == TokenKind::Str);
            if !on_self && !literal_msg {
                push(
                    v,
                    file,
                    name.line,
                    "no-unwrap",
                    "`.expect(…)` without a string-literal message; say why it cannot fail"
                        .to_string(),
                );
            }
        }
    }
}

fn lint_bare_casts(t: &[Token], file: &Path, v: &mut Vec<Violation>) {
    for i in 0..t.len() {
        if !t[i].is_ident("as") {
            continue;
        }
        let Some(target) = t.get(i + 1) else { continue };
        if target.kind != TokenKind::Ident || !NARROW_INTS.contains(&target.text.as_str()) {
            continue;
        }
        let line = t[i].line;
        let guarded = t.iter().enumerate().any(|(j, x)| {
            j != i + 1 && x.line == line && x.kind == TokenKind::Ident && {
                let lower = x.text.to_ascii_lowercase();
                GUARDED_QUANTITIES.iter().any(|q| lower.contains(q))
            }
        });
        if guarded {
            push(
                v,
                file,
                line,
                "no-bare-cast",
                format!(
                    "bare `as {}` cast on a cycle/credit/lag quantity; use `{}::from` or `{}::try_from` so truncation is explicit",
                    target.text, target.text, target.text
                ),
            );
        }
    }
}

fn lint_counter_pokes(t: &[Token], file: &Path, v: &mut Vec<Violation>) {
    const COMPOUND_OPS: [char; 8] = ['+', '-', '*', '/', '%', '&', '|', '^'];
    for i in 0..t.len() {
        if !t[i].is_punct('.') {
            continue;
        }
        let Some(field) = t.get(i + 1) else { continue };
        if field.kind != TokenKind::Ident || !AUDITED_COUNTERS.contains(&field.text.as_str()) {
            continue;
        }
        let mutated = match (t.get(i + 2), t.get(i + 3)) {
            (Some(op), Some(eq)) if eq.is_punct('=') => {
                COMPOUND_OPS.iter().any(|&c| op.is_punct(c))
            }
            _ => false,
        } || {
            t.get(i + 2).is_some_and(|x| x.is_punct('='))
                && !t.get(i + 3).is_some_and(|x| x.is_punct('='))
        };
        if mutated {
            push(
                v,
                file,
                field.line,
                "no-counter-poke",
                format!(
                    "direct mutation of watchdog-audited counter `{}` outside noc/src/faults.rs; add or use a `note_*` method on `FaultState`",
                    field.text
                ),
            );
        }
    }
}

fn lint_must_use_errors(t: &[Token], file: &Path, v: &mut Vec<Violation>) {
    for i in 0..t.len() {
        if !t[i].is_ident("pub") {
            continue;
        }
        // Skip an optional visibility scope: `pub(crate)`, `pub(in …)`.
        let mut j = i + 1;
        if t.get(j).is_some_and(|x| x.is_punct('(')) {
            let mut depth = 1u32;
            j += 1;
            while j < t.len() && depth > 0 {
                if t[j].is_punct('(') {
                    depth += 1;
                } else if t[j].is_punct(')') {
                    depth -= 1;
                }
                j += 1;
            }
        }
        let is_type_def = t
            .get(j)
            .is_some_and(|x| x.is_ident("enum") || x.is_ident("struct"));
        if !is_type_def {
            continue;
        }
        let Some(name) = t.get(j + 1) else { continue };
        if name.kind != TokenKind::Ident || !name.text.ends_with("Error") {
            continue;
        }
        if !attrs_before_contain(t, i, "must_use") {
            push(
                v,
                file,
                name.line,
                "must-use-errors",
                format!(
                    "public result type `{}` is missing `#[must_use]`; a dropped allocation error is a lost packet",
                    name.text
                ),
            );
        }
    }
}

/// Whether the attribute groups immediately preceding token `i` contain
/// the identifier `want` (e.g. `must_use`). Walks backwards over
/// stacked `#[…]` groups.
fn attrs_before_contain(t: &[Token], mut i: usize, want: &str) -> bool {
    loop {
        if i == 0 || !t[i - 1].is_punct(']') {
            return false;
        }
        // Find the matching `[` backwards.
        let mut depth = 1u32;
        let mut k = i - 1;
        while k > 0 && depth > 0 {
            k -= 1;
            if t[k].is_punct(']') {
                depth += 1;
            } else if t[k].is_punct('[') {
                depth -= 1;
            }
        }
        if depth != 0 || k == 0 || !t[k - 1].is_punct('#') {
            return false;
        }
        if t[k..i - 1].iter().any(|x| x.is_ident(want)) {
            return true;
        }
        i = k - 1; // continue at the `#`, looking for more groups above
    }
}

/// Every `.rs` file under `dir`, skipping `tests`, `benches` and
/// `target` subdirectories (integration tests are test code by
/// definition).
fn rs_files(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for e in fs::read_dir(&d)? {
            let p = e?.path();
            if p.is_dir() {
                let skip = p
                    .file_name()
                    .is_some_and(|n| n == "tests" || n == "benches" || n == "target");
                if !skip {
                    stack.push(p);
                }
            } else if p.extension().is_some_and(|x| x == "rs") {
                out.push(p);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Recursively lints every `.rs` file under `dir` (see [`rs_files`]).
///
/// # Errors
///
/// Propagates the first I/O error from the directory walk.
pub fn lint_tree(dir: &Path) -> io::Result<Vec<Violation>> {
    let mut out = Vec::new();
    for p in rs_files(dir)? {
        out.extend(lint_source(&p, &fs::read_to_string(&p)?));
    }
    out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(out)
}

/// Public items `dead-api` must not report, as `(file relative to the
/// workspace root, item name, why it stays)`. An entry whose item is
/// used, or names no `pub` item of that file, is itself a finding.
pub const DEAD_API_ALLOW: [(&str, &str, &str); 2] = [
    (
        "crates/sysmodel/src/system.rs",
        "attach_watchdog",
        "backs the full-system invariant test watchdog_stays_quiet_on_healthy_mesh",
    ),
    (
        "crates/xtask/fixtures/dead_api_crate/src/lib.rs",
        "kept_for_the_allow_list",
        "the dead-api fixture's allow-listed item",
    ),
];

/// One `pub` item definition: file, line, item keyword, name.
type ApiDef = (PathBuf, u32, &'static str, String);

/// The `pub` item definitions in `t` (`pub(…)` is not public API, and
/// `pub use` re-exports define nothing) and every identifier it uses
/// outside those definitions and outside `pub use` statements,
/// including inline format arguments (`"{NAME}"`).
fn api_scan(t: &[Token], file: &Path) -> (Vec<ApiDef>, BTreeSet<String>) {
    const ITEMS: [&str; 7] = ["fn", "struct", "enum", "trait", "type", "const", "static"];
    const QUALIFIERS: [&str; 3] = ["unsafe", "async", "extern"];
    let is = |j: usize, f: &dyn Fn(&Token) -> bool| t.get(j).is_some_and(f);
    let (mut defs, mut uses) = (Vec::new(), BTreeSet::new());
    let mut i = 0usize;
    while i < t.len() {
        if t[i].is_ident("pub") && !is(i + 1, &|x| x.is_punct('(')) {
            let mut j = i + 1;
            if is(j, &|x| x.is_ident("use")) {
                while j < t.len() && !t[j].is_punct(';') {
                    j += 1;
                }
                i = j + 1;
                continue;
            }
            // `pub const unsafe fn`, `pub extern "C" fn`: `const` only
            // qualifies when a fn follows.
            let qualifier = |x: &Token| QUALIFIERS.iter().any(|q| x.is_ident(q));
            while is(j, &|x| x.kind == TokenKind::Str || qualifier(x))
                || (is(j, &|x| x.is_ident("const"))
                    && is(j + 1, &|x| x.is_ident("fn") || qualifier(x)))
            {
                j += 1;
            }
            let kind = match ITEMS.iter().find(|k| is(j, &|x| x.is_ident(k))) {
                Some(item) => Some((
                    *item,
                    j + 1 + usize::from(is(j + 1, &|x| x.is_ident("mut"))),
                )),
                None if is(j + 1, &|x| x.is_punct(':')) && !is(j + 2, &|x| x.is_punct(':')) => {
                    Some(("field", j))
                }
                None => None,
            };
            if let Some((kind, n)) =
                kind.filter(|&(_, n)| is(n, &|x| x.kind == TokenKind::Ident && x.text != "_"))
            {
                defs.push((file.to_path_buf(), t[n].line, kind, t[n].text.clone()));
                i = n + 1;
                continue;
            }
        }
        match t[i].kind {
            TokenKind::Ident => {
                uses.insert(t[i].text.clone());
            }
            TokenKind::Str => {
                let body = string_body(&t[i].text).unwrap_or("");
                uses.extend(parse_placeholders(body).into_iter().map(|p| p.name));
            }
            _ => {}
        }
        i += 1;
    }
    (defs, uses)
}

/// The cross-file **dead-api** rule: every `pub` fn, method, struct,
/// enum, trait, type alias, const, static and named field defined under
/// `def_dirs` whose name appears as an identifier nowhere in
/// `search_dirs` outside the defining file's `#[cfg(test)]` code (and
/// outside the definition itself). Matching is by name, so an item
/// sharing its name with anything used survives; doc comments and
/// `pub use` re-exports are not uses. [`DEAD_API_ALLOW`] entries under
/// a `def_dirs` tree (paths relative to `root`) suppress their item, and
/// are reported when stale.
///
/// # Errors
///
/// Propagates the first I/O error from the directory walks.
pub fn dead_api(
    root: &Path,
    def_dirs: &[PathBuf],
    search_dirs: &[PathBuf],
    allow: &[(&str, &str, &str)],
) -> io::Result<Vec<Violation>> {
    let (mut defs, mut own_uses, mut all_uses) = (Vec::new(), Vec::new(), Vec::new());
    for d in def_dirs {
        for p in rs_files(d)? {
            let (found, uses) = api_scan(&strip_test_code(&tokenize(&fs::read_to_string(&p)?)), &p);
            defs.extend(found);
            own_uses.push((p, uses));
        }
    }
    for d in search_dirs {
        for p in rs_files(d)? {
            let uses = api_scan(&tokenize(&fs::read_to_string(&p)?), &p).1;
            all_uses.push((p, uses));
        }
    }
    let used = |file: &Path, name: &str| {
        own_uses.iter().any(|(f, u)| f == file && u.contains(name))
            || all_uses.iter().any(|(f, u)| f != file && u.contains(name))
    };
    let rel = |p: &Path| p.strip_prefix(root).unwrap_or(p).to_path_buf();
    let mut out = Vec::new();
    for (file, line, kind, name) in &defs {
        let allowed = allow
            .iter()
            .any(|(f, n, _)| rel(file) == Path::new(f) && n == name);
        if !allowed && !used(file, name) {
            let msg = format!("pub {kind} `{name}` has no caller outside this file's tests; delete it or list it in DEAD_API_ALLOW with a reason");
            push(&mut out, file, *line, "dead-api", msg);
        }
    }
    for (f, n, _) in allow {
        if !def_dirs.iter().any(|d| Path::new(f).starts_with(rel(d))) {
            continue; // outside this run's trees
        }
        let def = defs
            .iter()
            .find(|(file, _, _, name)| rel(file) == Path::new(f) && name == n);
        let stale = match def {
            None => "names no pub item of that file",
            Some((file, ..)) if used(file, n) => "names an item that has callers",
            Some(_) => continue,
        };
        let msg = format!("stale DEAD_API_ALLOW entry `{n}`: it {stale}; remove the entry");
        push(
            &mut out,
            &root.join(f),
            def.map_or(1, |d| d.1),
            "dead-api",
            msg,
        );
    }
    out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(out)
}

/// Every workspace member directory under `crates/`, sorted.
fn members(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut members: Vec<PathBuf> = fs::read_dir(root.join("crates"))?
        .map(|e| e.map(|e| e.path()))
        .collect::<io::Result<_>>()?;
    members.sort();
    Ok(members)
}

/// The source directories `cargo xtask check` lints: the facade crate's
/// `src/`, the workspace-root `tests/` and `examples/` trees, plus
/// every workspace member's `src/`. Explicitly listed roots are always
/// walked — [`lint_tree`]'s skip list only prunes *sub*directories —
/// but `tests/` and `examples/` fall outside the digest perimeter
/// ([`digest_covered`]), so only the hygiene lints apply there.
///
/// # Errors
///
/// Propagates I/O errors from enumerating `crates/`.
pub fn workspace_src_dirs(root: &Path) -> io::Result<Vec<PathBuf>> {
    let roots = ["src", "tests", "examples"].map(|t| root.join(t));
    let srcs = members(root)?.into_iter().map(|m| m.join("src"));
    Ok(roots
        .into_iter()
        .chain(srcs)
        .filter(|d| d.is_dir())
        .collect())
}

/// The trees [`dead_api`] reads for the workspace, as `(definitions,
/// search)`: definitions come from every member's `src/`; the search
/// adds every member's `tests/`, `benches/` and `examples/`, the root
/// `src/`, `tests/` and `examples/`, and `perfbench/src` (read, never
/// linted).
///
/// # Errors
///
/// Propagates I/O errors from enumerating `crates/`.
pub fn workspace_api_dirs(root: &Path) -> io::Result<(Vec<PathBuf>, Vec<PathBuf>)> {
    let members = members(root)?;
    let defs = members.iter().map(|m| m.join("src")).filter(|d| d.is_dir());
    let search = members
        .iter()
        .flat_map(|m| ["src", "tests", "benches", "examples"].map(|t| m.join(t)))
        .chain(["src", "tests", "examples", "perfbench/src"].map(|t| root.join(t)))
        .filter(|d| d.is_dir());
    Ok((defs.collect(), search.collect()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lints_of(src: &str) -> Vec<&'static str> {
        lint_source(Path::new("mem.rs"), src)
            .into_iter()
            .map(|v| v.lint)
            .collect()
    }

    #[test]
    fn unwrap_in_production_code_is_flagged() {
        assert_eq!(lints_of("fn f() { x.unwrap(); }"), vec!["no-unwrap"]);
    }

    #[test]
    fn unwrap_in_test_module_is_exempt() {
        let src = "#[cfg(test)]\nmod tests { fn f() { x.unwrap(); } }";
        assert!(lints_of(src).is_empty());
        let src = "#[test]\nfn t() { x.unwrap(); }";
        assert!(lints_of(src).is_empty());
    }

    #[test]
    fn cfg_not_test_is_production_code() {
        let src = "#[cfg(not(test))]\nfn f() { x.unwrap(); }";
        assert_eq!(lints_of(src), vec!["no-unwrap"]);
    }

    #[test]
    fn expect_requires_a_literal_message() {
        assert_eq!(lints_of("fn f() { x.expect(msg); }"), vec!["no-unwrap"]);
        assert!(lints_of("fn f() { x.expect(\"bounded by config\"); }").is_empty());
        assert!(lints_of("fn f() { self.expect(b'[') }").is_empty());
    }

    #[test]
    fn unwrap_or_variants_are_not_flagged() {
        assert!(lints_of("fn f() { x.unwrap_or(0); x.unwrap_or_default(); }").is_empty());
    }

    #[test]
    fn narrow_cast_on_guarded_quantity_is_flagged() {
        assert_eq!(
            lints_of("fn f(lag: u64) -> u8 { lag as u8 }"),
            vec!["no-bare-cast"]
        );
        assert_eq!(
            lints_of("fn f(c: Credit) { let x = c.count as u16; }"),
            vec!["no-bare-cast"]
        );
    }

    #[test]
    fn unguarded_or_wide_casts_pass() {
        assert!(lints_of("fn f(n: usize) -> u8 { n as u8 }").is_empty());
        assert!(lints_of("fn f(lag: u8) -> u64 { lag as u64 }").is_empty());
    }

    #[test]
    fn counter_mutation_outside_faults_module_is_flagged() {
        assert_eq!(
            lints_of("fn f(s: &mut S) { s.stats.control_drops += 1; }"),
            vec!["no-counter-poke"]
        );
        assert_eq!(
            lints_of("fn f(s: &mut S) { s.lost_packets = 0; }"),
            vec!["no-counter-poke"]
        );
    }

    #[test]
    fn counter_reads_and_owner_module_are_exempt() {
        assert!(lints_of("fn f(s: &S) -> u64 { s.control_drops + s.lost_flits }").is_empty());
        assert!(lints_of("fn f(s: &S) { assert!(s.control_drops == 0); }").is_empty());
        let owner = Path::new("crates/noc/src/faults.rs");
        let v = lint_source(owner, "fn f(s: &mut S) { s.control_drops += 1; }");
        assert!(v.is_empty());
    }

    #[test]
    fn public_error_type_without_must_use_is_flagged() {
        assert_eq!(
            lints_of("pub enum AllocError { Full }"),
            vec!["must-use-errors"]
        );
        assert!(lints_of("#[must_use]\npub enum AllocError { Full }").is_empty());
        assert!(
            lints_of("#[must_use]\n#[derive(Debug, Clone)]\npub struct InstallError(u8);")
                .is_empty()
        );
        assert!(lints_of("#[derive(Debug)]\n#[must_use]\npub struct IoError;").is_empty());
    }

    #[test]
    fn private_and_non_error_types_are_exempt() {
        assert!(lints_of("enum AllocError { Full }").is_empty());
        assert!(lints_of("pub struct Report { x: u8 }").is_empty());
    }

    #[test]
    fn hash_collections_are_banned_in_covered_code() {
        assert_eq!(
            lints_of("use std::collections::HashMap;"),
            vec!["no-hashmap-iteration"]
        );
        assert_eq!(
            lints_of("fn f(s: &HashSet<u32>) {}"),
            vec!["no-hashmap-iteration"]
        );
        assert!(lints_of("use std::collections::BTreeMap;").is_empty());
    }

    #[test]
    fn wallclock_and_randomness_are_banned_in_covered_code() {
        assert_eq!(
            lints_of("fn f() { let t = Instant::now(); }"),
            vec!["no-wallclock"]
        );
        assert_eq!(
            lints_of("fn f() { let t = SystemTime::now(); }"),
            vec!["no-wallclock"]
        );
        assert_eq!(
            lints_of("fn f() { let r = thread_rng(); }"),
            vec!["no-ambient-randomness"]
        );
        assert_eq!(
            lints_of("fn f() { let s = RandomState::new(); }"),
            vec!["no-ambient-randomness"]
        );
        // `Duration` and a seeded RNG are fine.
        assert!(lints_of("fn f(d: Duration, rng: Pcg32) {}").is_empty());
    }

    #[test]
    fn determinism_lints_skip_uncovered_paths() {
        let src = "fn f() { let t = Instant::now(); let m = HashMap::new(); }";
        for exempt in [
            "tests/chaos.rs",
            "examples/quickstart.rs",
            "crates/bench/src/bin/nocsim.rs",
        ] {
            assert!(
                lint_source(Path::new(exempt), src).is_empty(),
                "{exempt} must be outside the determinism perimeter"
            );
        }
        assert_eq!(
            lint_source(Path::new("crates/runner/src/lease.rs"), src).len(),
            2
        );
    }

    #[test]
    fn det_allow_suppresses_on_the_same_line() {
        let src = "fn f() { let t = Instant::now(); } // det:allow(no-wallclock) audited\n";
        assert!(lints_of(src).is_empty());
    }

    #[test]
    fn det_allow_attaches_through_a_comment_block_above() {
        let src = "\
fn f() {
    // det:allow(no-wallclock) — staleness epoch only;
    // never reaches an artifact or digest.
    let t = Instant::now();
}";
        assert!(lints_of(src).is_empty());
    }

    #[test]
    fn det_allow_for_the_wrong_lint_does_not_suppress() {
        let src = "// det:allow(no-hashmap-iteration)\nfn f() { let t = Instant::now(); }";
        assert_eq!(lints_of(src), vec!["no-wallclock"]);
    }

    #[test]
    fn lossy_float_format_flags_inline_captures() {
        assert_eq!(
            lints_of("fn f(inj_rate: f64) -> String { format!(\"{inj_rate}\") }"),
            vec!["no-lossy-float-format"]
        );
        assert_eq!(
            lints_of("fn f(mean: f64) -> String { format!(\"{mean:.3}\") }"),
            vec!["no-lossy-float-format"]
        );
    }

    #[test]
    fn lossy_float_format_flags_positional_args() {
        assert_eq!(
            lints_of("fn f(w: f64) { out.push(format!(\"{}\", hit_ratio)); }"),
            vec!["no-lossy-float-format"]
        );
    }

    #[test]
    fn to_bits_hex_and_fmt_helpers_are_exempt() {
        assert!(
            lints_of("fn f(rate: f64) -> String { format!(\"{:016x}\", rate.to_bits()) }")
                .is_empty()
        );
        assert!(
            lints_of("fn f(rate: f64) -> String { format!(\"{}\", rate.to_bits()) }").is_empty()
        );
        assert!(
            lints_of("fn f(rate: f64) -> String { format!(\"{}\", fmt_rate(rate)) }").is_empty()
        );
    }

    #[test]
    fn float_name_parts_match_exactly() {
        // `crate` must not match `rate`, `average_cycles` is an integer
        // quantity, but `avg_weight` is float-named.
        assert!(lints_of("fn f() { let s = format!(\"{}\", the_crate); }").is_empty());
        assert!(lints_of("fn f() { let s = format!(\"{}\", average_cycles); }").is_empty());
        assert_eq!(
            lints_of("fn f() { let s = format!(\"{}\", avg_weight); }"),
            vec!["no-lossy-float-format"]
        );
        // Hex/scientific specs are not lossy; `{{` is an escape.
        assert!(lints_of("fn f(rate: u64) { let s = format!(\"{rate:x} {rate:e}\"); }").is_empty());
        assert!(lints_of("fn f() { let s = format!(\"{{}} literal\", inj_rate); }").is_empty());
    }

    #[test]
    fn hot_fn_allocations_are_flagged() {
        let src = "\
// hot
fn step(&mut self) {
    let b = Box::new(Flit::default());
    let v = vec![0u8; 4];
    let w = self.slots.to_vec();
}";
        assert_eq!(
            lints_of(src),
            vec![
                "no-hot-loop-alloc",
                "no-hot-loop-alloc",
                "no-hot-loop-alloc"
            ]
        );
    }

    #[test]
    fn hot_marker_reaches_past_stacked_attributes() {
        let src = "\
// hot
#[allow(clippy::too_many_arguments)]
#[inline]
fn eligible(&self) { let v = vec![1]; }";
        assert_eq!(lints_of(src), vec!["no-hot-loop-alloc"]);
    }

    #[test]
    fn hot_marker_covers_only_the_next_function() {
        let src = "\
// hot
fn stepped(&mut self) { self.cursor += 1; }
fn cold(&mut self) { let v = vec![0u8; 4]; }";
        assert!(lints_of(src).is_empty());
    }

    #[test]
    fn unmarked_functions_may_allocate() {
        assert!(lints_of("fn build() -> Vec<u8> { vec![0u8; 4] }").is_empty());
        // Prose mentioning the hot loop is not a marker; neither is a
        // trailing `// hot` on a code line.
        let src = "\
/// The hot loop walks this.
fn build(x: u8) -> Vec<u8> { vec![x] } // hot path adjacent
fn later() { let b = Box::new(3); }";
        assert!(lints_of(src).is_empty());
    }

    #[test]
    fn hot_fn_reuse_patterns_pass() {
        let src = "\
// hot
fn step(&mut self) {
    self.scratch.clear();
    let cap = Vec::with_capacity(self.n);
    let s = \"vec! in a string, Box::new too\";
    // vec![] in a comment is invisible to the lexer
}";
        assert!(lints_of(src).is_empty());
    }

    #[test]
    fn det_allow_suppresses_hot_loop_alloc() {
        let src = "\
// hot
fn step(&mut self) {
    // det:allow(no-hot-loop-alloc) — cold error path, runs once
    let b = Box::new(err);
}";
        assert!(lints_of(src).is_empty());
    }

    #[test]
    fn api_scan_sees_public_items_and_their_uses() {
        let src = "\
pub const fn a() {} pub(crate) fn hidden() {} pub const unsafe extern \"C\" fn b() {}
pub static mut C: u8 = 0; pub const D: u8 = 0; pub const _: () = ();
pub struct E(pub u32, pub std::num::Wrapping<u8>); pub struct F { pub g: u8, h: u8 }
pub use x::{y, z};
fn body() { println!(\"{w} {{not_this}}\"); v.map(a); }";
        let (defs, uses) = api_scan(&tokenize(src), Path::new("mem.rs"));
        let names: Vec<_> = defs.iter().map(|d| (d.2, d.3.as_str())).collect();
        assert_eq!(
            names,
            [
                ("fn", "a"),
                ("fn", "b"),
                ("static", "C"),
                ("const", "D"),
                ("struct", "E"),
                ("struct", "F"),
                ("field", "g")
            ]
        );
        for used in ["w", "a", "map", "hidden", "h"] {
            assert!(uses.contains(used), "{used}");
        }
        for unused in ["y", "z", "not_this", "C", "g"] {
            assert!(!uses.contains(unused), "{unused}");
        }
    }

    #[test]
    fn counters_match_fault_stats() {
        // The audited-counter list must track the real FaultStats
        // fields; this test fails when a field is added or renamed
        // without updating the lint.
        let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
        let faults = manifest.join("../noc/src/faults.rs");
        let src = fs::read_to_string(&faults).expect("noc/src/faults.rs exists in the workspace");
        let struct_body = src
            .split("pub struct FaultStats {")
            .nth(1)
            .and_then(|rest| rest.split('}').next())
            .expect("FaultStats struct present");
        for counter in AUDITED_COUNTERS {
            assert!(
                struct_body.contains(&format!("pub {counter}:")),
                "lint counter `{counter}` is not a FaultStats field"
            );
        }
        let fields = struct_body.matches("pub ").count();
        assert_eq!(
            fields,
            AUDITED_COUNTERS.len(),
            "FaultStats field count drifted"
        );
    }
}
