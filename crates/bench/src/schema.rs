//! The bench JSON schema-tag registry: the **only** place a
//! `"isi-…/vN"` tag literal may be spelled out.
//!
//! Every harness stamps its result document with a schema tag and
//! every verifier dispatches on it; if a writer and a reader each
//! spell the tag themselves, a version bump in one silently orphans
//! the other. `xtask lint` (rule `schema-registry`) therefore rejects
//! tag literals anywhere else in the tree — harnesses import these
//! constants (directly or through the re-exports in [`crate::serve`]
//! and [`crate::throughput`]).
//!
//! Bumping a version is an API change to every consumer of the JSON
//! files: bump the constant here, and grep for the old tag in
//! `README.md`/`ROADMAP.md` prose while you're at it.

/// `BENCH_throughput.json` — morsel-parallel lookup throughput sweep.
pub const THROUGHPUT: &str = "isi-throughput/v1";

/// `BENCH_serve.json` — admission-batched lookup-service load sweep
/// (v2: caller-runs admission — the flush-deadline policy column and
/// the deadline-flush cell column are gone, cells record
/// `caller_runs`).
pub const SERVE: &str = "isi-serve/v2";

/// `BENCH_serve_mixed.json` — mixed read/write sweep (v2 added the
/// per-policy merge/cache columns; v3 added the durability columns:
/// WAL mode, fsync mode, record/sync counts, recovery time; v4 added
/// the observability columns: `config.obs`, per-cell end-to-end
/// latency sums, per-shard per-stage latency rows and the
/// chrome-trace event count; v5 added the merge-threshold sweep axis
/// — `config.merge_thresholds` replaces the scalar
/// `config.merge_threshold`, each cell records its `merge_threshold`
/// — plus the run-stack columns `runs` (immutable delta runs
/// published) and `compactions` (stack folds past `max_runs`); v7
/// follows caller-runs admission — `config.policy` loses its flush
/// deadline, each cell records `caller_runs`; v8 removed the
/// adaptive-dispatch axis v6 had added).
pub const SERVE_MIXED: &str = "isi-serve-mixed/v8";

#[cfg(test)]
mod tests {
    /// The registry is the schema's format contract; keep the tags
    /// well-formed so verifiers can dispatch on `name/version`.
    #[test]
    fn tags_are_well_formed() {
        for tag in [super::THROUGHPUT, super::SERVE, super::SERVE_MIXED] {
            let (name, version) = tag.split_once('/').expect("tag has a /version suffix");
            assert!(name.starts_with("isi-"), "{tag}: registry namespace");
            assert!(
                name.bytes()
                    .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-'),
                "{tag}: kebab-case name"
            );
            assert!(
                version
                    .strip_prefix('v')
                    .is_some_and(|v| v.parse::<u32>().is_ok()),
                "{tag}: vN version"
            );
        }
    }
}
