//! Tree-wide invariant checks that clippy cannot express.
//!
//! Five rules, each guarding a policy this workspace has adopted:
//!
//! * **R1 — SAFETY comments.** Every `unsafe` token must have a
//!   `// SAFETY:` (or rustdoc `# Safety` section) within the ten
//!   preceding lines. An unsafe block whose obligation is not written
//!   down decays into folklore.
//! * **R2 — unsafe allowlist.** `unsafe` may only appear in the
//!   modules listed in [`UNSAFE_ALLOWLIST`] — the hot-path files
//!   whose pointer arithmetic has been reviewed. New unsafe anywhere
//!   else is a deliberate, reviewed decision: extend the allowlist in
//!   the same commit. And the converse: an entry whose file is gone or
//!   holds no `unsafe` any more is a violation too, so a deletion
//!   cannot leave a standing permission behind.
//! * **R1b — deny escalation.** Any crate (or test binary) containing
//!   `unsafe` must carry `#![deny(unsafe_op_in_unsafe_fn)]` at its
//!   root, so an `unsafe fn` body cannot silently perform unsafe ops
//!   without an inner block to hang R1 on.
//! * **R4 — poison-aware locks in serve and durable.** `crates/serve`
//!   and `crates/durable` must acquire locks through the
//!   `isi_core::sync` helpers (`plock`/`pread`/`pwrite`/`pwait`),
//!   never bare `.lock().unwrap()` — the helpers turn a poisoned lock
//!   into a tagged panic that names the protocol instead of an opaque
//!   `PoisonError`. (The rule matches the `unwrap` spellings only: the
//!   unwind-time cleanups that `isi_core::sync` exempts take the
//!   guard out of the `PoisonError` and are not flagged.)
//! * **R5 — no ad-hoc stat atomics in serve.** `crates/serve/src` must
//!   not use `AtomicU64` directly: counters register through the
//!   `isi_obs` registry, whose registration-order snapshot contract
//!   is what keeps cross-counter invariants (`wal_syncs ≤
//!   wal_records`, flushes ≤ batches) coherent. A bare atomic field
//!   is invisible to snapshots and reintroduces the skew the registry
//!   exists to prevent.
//!
//! Rules operate on an in-memory `(path, content)` list so the unit
//! tests below can prove each rule fires on a seeded violation, not
//! just that the current tree is clean.

use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

/// Files allowed to contain `unsafe` (repo-relative, `/`-separated).
/// Extending this list is a reviewed decision: the new module's
/// invariants must be documented at its unsafe sites (R1 enforces
/// the comments; this list enforces the review).
const UNSAFE_ALLOWLIST: &[&str] = &[
    "crates/core/src/coro.rs",
    "crates/core/src/mem.rs",
    "crates/core/src/par.rs",
    "crates/core/src/prefetch.rs",
    "crates/core/src/sched.rs",
    "crates/core/src/stats.rs",
    "crates/core/src/topo.rs",
    "crates/obs/tests/support/thread_alloc.rs",
];

/// Directories (relative to the repo root) the lint walks. `vendor/`
/// is deliberately excluded: the stubs mimic external crates and are
/// not covered by workspace policy.
const WALK_ROOTS: &[&str] = &["crates", "src", "examples", "tests", "xtask"];

/// One finding, formatted like a compiler diagnostic.
pub struct Violation {
    pub path: String,
    pub line: usize,
    pub rule: &'static str,
    pub msg: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.msg
        )
    }
}

/// Walk the tree under `root` and run every rule.
pub fn run(root: &Path) -> io::Result<Vec<Violation>> {
    let mut files = Vec::new();
    for dir in WALK_ROOTS {
        let dir = root.join(dir);
        if dir.is_dir() {
            collect_rs_files(root, &dir, &mut files)?;
        }
    }
    files.sort_by(|a, b| a.0.cmp(&b.0));
    let mut violations = check_files(&files);
    violations.extend(check_allowlist_is_live(&files));
    Ok(violations)
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<(String, String)>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .expect("walked path under root")
                .to_string_lossy()
                .replace('\\', "/");
            out.push((rel, fs::read_to_string(&path)?));
        }
    }
    Ok(())
}

/// Run every rule over an in-memory file set (unit-testable core).
fn check_files(files: &[(String, String)]) -> Vec<Violation> {
    let mut out = Vec::new();
    for (path, content) in files {
        check_unsafe_rules(path, content, files, &mut out);
        check_serve_locks(path, content, &mut out);
        check_serve_stat_atomics(path, content, &mut out);
    }
    out
}

// ---- source sanitization ----

/// Blank out comments and string/char literals with spaces,
/// preserving line structure, so token scans cannot be fooled by
/// prose or data.
fn sanitize(content: &str) -> String {
    let bytes = content.as_bytes();
    let mut out = bytes.to_vec();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    out[i] = b' ';
                    i += 1;
                }
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let mut depth = 0usize;
                while i < bytes.len() {
                    if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        out[i] = b' ';
                        out[i + 1] = b' ';
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        out[i] = b' ';
                        out[i + 1] = b' ';
                        i += 2;
                        if depth == 0 {
                            break;
                        }
                    } else {
                        if bytes[i] != b'\n' {
                            out[i] = b' ';
                        }
                        i += 1;
                    }
                }
            }
            b'"' => i = skip_string(bytes, &mut out, i),
            b'r' if matches!(bytes.get(i + 1), Some(&b'"') | Some(&b'#')) => {
                i = skip_raw_string(bytes, &mut out, i);
            }
            b'\'' => {
                // Lifetime (`'a`) vs char literal (`'a'`): a lifetime's
                // identifier is not followed by a closing quote.
                let is_lifetime = bytes
                    .get(i + 1)
                    .is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_')
                    && bytes.get(i + 2) != Some(&b'\'');
                if is_lifetime {
                    i += 1;
                } else {
                    let start = i;
                    i += 1;
                    while i < bytes.len() && bytes[i] != b'\'' {
                        if bytes[i] == b'\\' {
                            i += 1;
                        }
                        i += 1;
                    }
                    i = (i + 1).min(bytes.len());
                    blank(&mut out[start..i]);
                }
            }
            _ => i += 1,
        }
    }
    String::from_utf8(out).expect("sanitizer only writes ASCII spaces")
}

/// Overwrite everything but newlines with spaces.
fn blank(span: &mut [u8]) {
    for b in span {
        if *b != b'\n' {
            *b = b' ';
        }
    }
}

fn skip_string(bytes: &[u8], out: &mut [u8], start: usize) -> usize {
    let mut i = start + 1;
    while i < bytes.len() && bytes[i] != b'"' {
        if bytes[i] == b'\\' {
            i += 1;
        }
        i += 1;
    }
    let end = (i + 1).min(bytes.len());
    blank(&mut out[start..end]);
    end
}

fn skip_raw_string(bytes: &[u8], out: &mut [u8], start: usize) -> usize {
    let mut hashes = 0;
    let mut i = start + 1;
    while bytes.get(i) == Some(&b'#') {
        hashes += 1;
        i += 1;
    }
    if bytes.get(i) != Some(&b'"') {
        // `r#ident` (raw identifier), not a raw string.
        return start + 1;
    }
    i += 1;
    'scan: while i < bytes.len() {
        if bytes[i] == b'"' {
            let mut j = i + 1;
            for _ in 0..hashes {
                if bytes.get(j) != Some(&b'#') {
                    i += 1;
                    continue 'scan;
                }
                j += 1;
            }
            i = j;
            break;
        }
        i += 1;
    }
    blank(&mut out[start..i.min(bytes.len())]);
    i
}

/// Does `line` contain `unsafe` as a standalone token?
fn has_unsafe_token(line: &str) -> bool {
    let bytes = line.as_bytes();
    let mut from = 0;
    while let Some(pos) = line[from..].find("unsafe") {
        let start = from + pos;
        let end = start + "unsafe".len();
        let pre_ok =
            start == 0 || !(bytes[start - 1].is_ascii_alphanumeric() || bytes[start - 1] == b'_');
        let post_ok =
            end >= bytes.len() || !(bytes[end].is_ascii_alphanumeric() || bytes[end] == b'_');
        if pre_ok && post_ok {
            return true;
        }
        from = end;
    }
    false
}

// ---- R1 / R1b / R2: unsafe discipline ----

/// How far above an `unsafe` token a SAFETY comment may sit and still
/// count as "adjacent".
const SAFETY_WINDOW: usize = 10;

fn check_unsafe_rules(
    path: &str,
    content: &str,
    files: &[(String, String)],
    out: &mut Vec<Violation>,
) {
    let code = sanitize(content);
    let raw_lines: Vec<&str> = content.lines().collect();
    let mut any_unsafe = false;
    for (idx, line) in code.lines().enumerate() {
        if !has_unsafe_token(line) {
            continue;
        }
        any_unsafe = true;
        if !UNSAFE_ALLOWLIST.contains(&path) {
            out.push(Violation {
                path: path.to_string(),
                line: idx + 1,
                rule: "unsafe-allowlist",
                msg: "`unsafe` outside the reviewed allowlist (xtask/src/lint.rs \
                      UNSAFE_ALLOWLIST); keep unsafe in the designated hot-path modules"
                    .to_string(),
            });
        }
        let window_start = idx.saturating_sub(SAFETY_WINDOW);
        let documented = raw_lines[window_start..=idx.min(raw_lines.len() - 1)]
            .iter()
            .any(|l| l.contains("SAFETY:") || l.contains("# Safety"));
        if !documented {
            out.push(Violation {
                path: path.to_string(),
                line: idx + 1,
                rule: "safety-comment",
                msg: format!(
                    "`unsafe` without an adjacent `// SAFETY:` comment (within {SAFETY_WINDOW} \
                     lines); write down the obligation being discharged"
                ),
            });
        }
    }
    // R1b: a crate that uses unsafe anywhere must escalate
    // unsafe_op_in_unsafe_fn to deny at its root.
    if any_unsafe {
        let root = crate_root_of(path);
        let root_content = if root == path {
            Some(content)
        } else {
            files
                .iter()
                .find(|(p, _)| *p == root)
                .map(|(_, c)| c.as_str())
        };
        let has_deny = root_content.is_some_and(|c| c.contains("#![deny(unsafe_op_in_unsafe_fn)]"));
        if !has_deny {
            out.push(Violation {
                path: root.clone(),
                line: 1,
                rule: "deny-unsafe-op",
                msg: format!(
                    "crate root must carry #![deny(unsafe_op_in_unsafe_fn)] because \
                     {path} contains unsafe"
                ),
            });
        }
    }
}

/// R2's converse: every [`UNSAFE_ALLOWLIST`] entry names a file of the
/// walked tree that still contains an `unsafe` token. (Over the whole
/// file set, not per file — hence apart from [`check_files`], whose
/// unit tests seed one or two files at a time.)
fn check_allowlist_is_live(files: &[(String, String)]) -> Vec<Violation> {
    let mut out = Vec::new();
    for entry in UNSAFE_ALLOWLIST {
        let content = files.iter().find(|(p, _)| p == entry).map(|(_, c)| c);
        let msg = match content {
            None => "allowlisted file does not exist",
            Some(c) if !sanitize(c).lines().any(has_unsafe_token) => {
                "allowlisted file contains no `unsafe`"
            }
            Some(_) => continue,
        };
        out.push(Violation {
            path: entry.to_string(),
            line: 1,
            rule: "unsafe-allowlist",
            msg: format!("{msg}; remove it from UNSAFE_ALLOWLIST (xtask/src/lint.rs)"),
        });
    }
    out
}

/// The crate-root file responsible for `path`'s `#![...]` attributes.
/// Integration tests, benches, examples and `src/bin` files are their
/// own crate roots.
fn crate_root_of(path: &str) -> String {
    let own_root = path.contains("/tests/")
        || path.contains("/benches/")
        || path.contains("/examples/")
        || path.contains("/bin/")
        || path.ends_with("src/lib.rs")
        || path.ends_with("src/main.rs");
    if own_root {
        return path.to_string();
    }
    if let Some(pos) = path.rfind("/src/") {
        return format!("{}/src/lib.rs", &path[..pos]);
    }
    path.to_string()
}

// ---- R4: poison-aware locks in serve and durable ----

/// Bare-unwrap lock patterns forbidden in the crates under R4 (the
/// poison-swallowing `.lock().unwrap()` family).
const BARE_LOCK_PATTERNS: &[&str] = &[".lock().unwrap()", ".read().unwrap()", ".write().unwrap()"];

/// Calls that must go through the `CondvarExt`/`MutexExt` helpers
/// when followed by `.unwrap()` nearby (chained across lines or not).
const BARE_WAIT_HEADS: &[&str] = &[".lock()", ".read()", ".write()", ".wait(", ".wait_timeout("];

fn check_serve_locks(path: &str, content: &str, out: &mut Vec<Violation>) {
    if !path.starts_with("crates/serve/") && !path.starts_with("crates/durable/") {
        return;
    }
    let code = sanitize(content);
    let lines: Vec<&str> = code.lines().collect();
    for (idx, line) in lines.iter().enumerate() {
        let single = BARE_LOCK_PATTERNS.iter().any(|p| line.contains(p));
        // A chained `.lock()\n.unwrap()` split across lines is the
        // same violation with rustfmt in the middle.
        let chained = BARE_WAIT_HEADS.iter().any(|head| {
            line.contains(head)
                && lines[idx..(idx + 3).min(lines.len())]
                    .iter()
                    .any(|l| l.contains(".unwrap()"))
        });
        if single || chained {
            out.push(Violation {
                path: path.to_string(),
                line: idx + 1,
                rule: "serve-poison-policy",
                msg:
                    "bare lock/wait unwrap in an R4 crate (serve/durable); use the isi_core::sync \
                      helpers (plock/pread/pwrite/pwait/pwait_timeout) so a poisoned \
                      lock panics with a protocol tag"
                        .to_string(),
            });
        }
    }
}

// ---- R5: no ad-hoc stat atomics in serve ----

/// Does `line` contain `AtomicU64` as a standalone token?
fn has_atomic_u64_token(line: &str) -> bool {
    let bytes = line.as_bytes();
    let mut from = 0;
    while let Some(pos) = line[from..].find("AtomicU64") {
        let start = from + pos;
        let end = start + "AtomicU64".len();
        let pre_ok =
            start == 0 || !(bytes[start - 1].is_ascii_alphanumeric() || bytes[start - 1] == b'_');
        let post_ok =
            end >= bytes.len() || !(bytes[end].is_ascii_alphanumeric() || bytes[end] == b'_');
        if pre_ok && post_ok {
            return true;
        }
        from = end;
    }
    false
}

fn check_serve_stat_atomics(path: &str, content: &str, out: &mut Vec<Violation>) {
    // Production code only: test binaries may use raw atomics for
    // harness machinery (stop flags, barriers), which no registry
    // snapshot covers.
    if !path.starts_with("crates/serve/src/") {
        return;
    }
    let code = sanitize(content);
    for (idx, line) in code.lines().enumerate() {
        if has_atomic_u64_token(line) {
            out.push(Violation {
                path: path.to_string(),
                line: idx + 1,
                rule: "serve-obs-registry",
                msg: "bare AtomicU64 in crates/serve; register a Counter/Gauge/Hist through \
                      the isi_obs registry instead, so snapshots keep cross-counter \
                      invariants coherent"
                    .to_string(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn files(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(p, c)| (p.to_string(), c.to_string()))
            .collect()
    }

    fn rules_fired(violations: &[Violation]) -> Vec<&'static str> {
        violations.iter().map(|v| v.rule).collect()
    }

    #[test]
    fn clean_tree_passes() {
        let fs = files(&[
            (
                "crates/core/src/lib.rs",
                "#![deny(unsafe_op_in_unsafe_fn)]\npub mod par;\n",
            ),
            (
                "crates/core/src/par.rs",
                "fn f(p: *const u8) -> u8 {\n    // SAFETY: caller guarantees p is valid.\n    unsafe { *p }\n}\n",
            ),
            (
                "crates/serve/src/store/mod.rs",
                "use isi_core::MutexExt;\nfn f(m: &std::sync::Mutex<u32>) -> u32 { *m.plock(\"shard\") }\n",
            ),
        ]);
        let v = check_files(&fs);
        assert!(v.is_empty(), "clean tree flagged: {:?}", rules_fired(&v));
    }

    #[test]
    fn unsafe_without_safety_comment_fires() {
        let fs = files(&[
            (
                "crates/core/src/lib.rs",
                "#![deny(unsafe_op_in_unsafe_fn)]\n",
            ),
            (
                "crates/core/src/par.rs",
                "fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n",
            ),
        ]);
        let v = check_files(&fs);
        assert!(
            rules_fired(&v).contains(&"safety-comment"),
            "{:?}",
            rules_fired(&v)
        );
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn unsafe_outside_allowlist_fires() {
        let fs = files(&[(
            "crates/serve/src/store/mod.rs",
            "// SAFETY: seeded violation for the lint's own test.\nfn f() { unsafe { std::hint::unreachable_unchecked() } }\n",
        )]);
        let v = check_files(&fs);
        assert!(
            rules_fired(&v).contains(&"unsafe-allowlist"),
            "{:?}",
            rules_fired(&v)
        );
    }

    #[test]
    fn stale_allowlist_entry_fires() {
        // Every entry live: clean.
        let live = "// SAFETY: test.\nfn f(p: *const u8) -> u8 { unsafe { *p } }\n";
        let mut fs: Vec<_> = UNSAFE_ALLOWLIST
            .iter()
            .map(|p| (p.to_string(), live.to_string()))
            .collect();
        assert!(check_allowlist_is_live(&fs).is_empty());
        // One file lost its last `unsafe` (a comment does not count),
        // another was deleted.
        fs[0].1 = "// no unsafe here any more\nfn f() {}\n".to_string();
        let gone = fs.pop().expect("allowlist is not empty").0;
        let v = check_allowlist_is_live(&fs);
        assert_eq!(rules_fired(&v), ["unsafe-allowlist", "unsafe-allowlist"]);
        assert_eq!(v[0].path, UNSAFE_ALLOWLIST[0]);
        assert!(v[0].msg.contains("contains no `unsafe`"), "{}", v[0].msg);
        assert_eq!(v[1].path, gone);
        assert!(v[1].msg.contains("does not exist"), "{}", v[1].msg);
    }

    #[test]
    fn missing_deny_attr_fires() {
        let fs = files(&[
            ("crates/core/src/lib.rs", "pub mod par;\n"),
            (
                "crates/core/src/par.rs",
                "fn f(p: *const u8) -> u8 {\n    // SAFETY: test.\n    unsafe { *p }\n}\n",
            ),
        ]);
        let v = check_files(&fs);
        assert!(
            rules_fired(&v).contains(&"deny-unsafe-op"),
            "{:?}",
            rules_fired(&v)
        );
        assert_eq!(v[0].path, "crates/core/src/lib.rs");
    }

    #[test]
    fn test_files_are_their_own_crate_root() {
        let fs = files(&[(
            "crates/obs/tests/support/thread_alloc.rs",
            "// SAFETY: test.\nfn f(p: *const u8) -> u8 { unsafe { *p } }\n",
        )]);
        let v = check_files(&fs);
        assert!(
            rules_fired(&v).contains(&"deny-unsafe-op"),
            "{:?}",
            rules_fired(&v)
        );
        assert_eq!(v[0].path, "crates/obs/tests/support/thread_alloc.rs");
    }

    #[test]
    fn unsafe_in_comments_and_strings_ignored() {
        let fs = files(&[(
            "crates/serve/src/store/mod.rs",
            "// this comment says unsafe\nconst X: &str = \"unsafe\"; /* unsafe */\n",
        )]);
        assert!(check_files(&fs).is_empty());
    }

    #[test]
    fn bare_lock_unwrap_in_serve_fires() {
        // At the crate root and in a nested module alike.
        for path in ["crates/serve/src/lib.rs", "crates/serve/src/store/delta.rs"] {
            let fs = files(&[(
                path,
                "fn f(m: &std::sync::Mutex<u32>) -> u32 { *m.lock().unwrap() }\n",
            )]);
            let v = check_files(&fs);
            assert!(
                rules_fired(&v).contains(&"serve-poison-policy"),
                "{path}: {:?}",
                rules_fired(&v)
            );
        }
    }

    #[test]
    fn chained_wait_unwrap_in_serve_fires() {
        let fs = files(&[(
            "crates/serve/src/service/mod.rs",
            "fn f() {\n    let g = cv\n        .wait(guard)\n        .unwrap();\n}\n",
        )]);
        let v = check_files(&fs);
        assert!(
            rules_fired(&v).contains(&"serve-poison-policy"),
            "{:?}",
            rules_fired(&v)
        );
    }

    #[test]
    fn bare_lock_unwrap_in_durable_fires() {
        let fs = files(&[(
            "crates/durable/src/fault.rs",
            "fn f(m: &std::sync::Mutex<u32>) -> u32 { *m.lock().unwrap() }\n",
        )]);
        let v = check_files(&fs);
        assert!(
            rules_fired(&v).contains(&"serve-poison-policy"),
            "{:?}",
            rules_fired(&v)
        );
    }

    #[test]
    fn bare_lock_unwrap_outside_serve_allowed() {
        let fs = files(&[(
            "crates/core/src/par.rs",
            "fn f(m: &std::sync::Mutex<u32>) -> u32 { *m.lock().unwrap() }\n",
        )]);
        assert!(check_files(&fs).is_empty());
    }

    #[test]
    fn atomic_u64_in_serve_fires() {
        // At the crate root and in a nested module alike.
        for path in ["crates/serve/src/lib.rs", "crates/serve/src/store/delta.rs"] {
            let fs = files(&[(
                path,
                "use std::sync::atomic::AtomicU64;\nstruct S { hits: AtomicU64 }\n",
            )]);
            let v = check_files(&fs);
            let fired = rules_fired(&v);
            assert!(fired.contains(&"serve-obs-registry"), "{path}: {fired:?}");
            assert_eq!(
                v.iter().filter(|x| x.rule == "serve-obs-registry").count(),
                2
            );
        }
    }

    #[test]
    fn atomic_u64_outside_serve_allowed() {
        let fs = files(&[
            (
                "crates/core/src/stats.rs",
                "// SAFETY-free file\nuse std::sync::atomic::AtomicU64;\nstatic N: AtomicU64 = AtomicU64::new(0);\n",
            ),
            (
                "crates/serve/src/store/mod.rs",
                "// AtomicU64 in a comment is fine\nconst X: &str = \"AtomicU64\";\nuse std::sync::atomic::AtomicU32 as _;\n",
            ),
        ]);
        assert!(check_files(&fs).is_empty());
    }

    #[test]
    fn sanitizer_handles_lifetimes_and_raw_strings() {
        let src = "fn f<'a>(x: &'a str) -> char { let c = 'x'; let s = r#\"unsafe\"#; c }\n";
        let fs = files(&[("crates/serve/src/store/mod.rs", src)]);
        assert!(check_files(&fs).is_empty());
    }
}
