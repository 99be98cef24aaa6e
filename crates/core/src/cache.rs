//! Pattern-keyed cache of per-structure customization artifacts.
//!
//! Everything the customization pipeline produces — the LZW structure set,
//! the First-Fit CVB layout, the [`ArchConfig`](rsqp_arch::ArchConfig), the
//! η report — depends only on the *sparsity structure* of `P` and `A`, and
//! so does the symbolic half of the direct KKT factorization (the
//! fill-reducing ordering). Repeated-solve workloads (MPC, backtesting,
//! batched QPs) re-solve one structure with new values at every step, so
//! these artifacts should be computed **once per pattern** and shared.
//!
//! [`CustomizationCache`] keys on [`PatternKey`] (a structure-only
//! fingerprint), stores the artifacts behind `Arc`s so concurrent jobs and
//! sessions share one copy, and is bounded with LRU eviction. The key
//! invariant: because the key is structure-only, **value updates never
//! invalidate an entry** — `update_q`/`update_bounds`/`update_matrices`
//! all map to the same key, and only a genuinely new sparsity pattern pays
//! the pipeline again.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use rsqp_solver::{kkt_ordering, KktOrdering, QpProblem, SolverError};
use rsqp_sparse::PatternKey;

use crate::customize::{customize, CustomizationResult};

/// Pipeline parameters a cache instance is fixed to. Entries produced under
/// different parameters are not interchangeable, so the parameters live on
/// the cache rather than the key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheParams {
    /// Architecture width `C` passed to [`customize`].
    pub c: usize,
    /// Structure-set size budget `|S|` passed to [`customize`].
    pub s_target: usize,
    /// Fill-reducing ordering computed for the KKT pattern.
    pub ordering: KktOrdering,
}

impl Default for CacheParams {
    fn default() -> Self {
        // The paper's default design point (C = 16, |S| ≤ 4) and the
        // solver's default ordering.
        CacheParams { c: 16, s_target: 4, ordering: KktOrdering::Amd }
    }
}

/// Everything computed once per sparsity pattern and shared across solves.
#[derive(Debug)]
pub struct PatternArtifacts {
    /// The structure fingerprint these artifacts belong to.
    pub key: PatternKey,
    /// Parameters they were computed under.
    pub params: CacheParams,
    /// Full customization pipeline output (§4): structure set, CVB layout
    /// summary, `ArchConfig`, η scores, resource estimates.
    pub customization: CustomizationResult,
    /// Fill-reducing permutation of the KKT pattern under
    /// [`CacheParams::ordering`] (`None` for
    /// [`KktOrdering::Natural`]). Replay through
    /// [`rsqp_solver::DirectLdltBackend::with_permutation`] to skip the
    /// symbolic analysis on every rebuild.
    pub kkt_perm: Option<Vec<usize>>,
}

/// Outcome of one cache consultation.
#[derive(Debug, Clone)]
pub struct CacheLookup {
    /// The (possibly just computed) shared artifacts.
    pub artifacts: Arc<PatternArtifacts>,
    /// `true` when the artifacts were already cached.
    pub hit: bool,
}

struct Entry {
    artifacts: Arc<PatternArtifacts>,
    last_used: u64,
}

struct Inner {
    entries: HashMap<PatternKey, Entry>,
    tick: u64,
}

/// A bounded, `Arc`-sharing cache of [`PatternArtifacts`] keyed by
/// [`PatternKey`].
///
/// Misses compute the artifacts while holding the cache lock, so a pattern
/// is customized **exactly once** even when many threads race on it — the
/// losers of the race block and then share the winner's `Arc`. (The
/// pipeline is the expensive part; serializing distinct-pattern misses is
/// an accepted cost of that exactly-once guarantee.) Hits are a map lookup
/// plus an `Arc` clone.
pub struct CustomizationCache {
    params: CacheParams,
    capacity: usize,
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl std::fmt::Debug for CustomizationCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CustomizationCache")
            .field("params", &self.params)
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish_non_exhaustive()
    }
}

impl CustomizationCache {
    /// A cache holding at most `capacity` patterns (clamped to ≥ 1) under
    /// the default [`CacheParams`].
    pub fn new(capacity: usize) -> Self {
        Self::with_params(capacity, CacheParams::default())
    }

    /// A cache with explicit pipeline parameters.
    ///
    /// # Panics
    ///
    /// Panics unless `params.c` is a datapath width [`customize`] accepts
    /// (a power of two in `[2, 128]`), so that a bad width fails here and
    /// not on the first miss.
    pub fn with_params(capacity: usize, params: CacheParams) -> Self {
        rsqp_encode::Alphabet::new(params.c);
        CustomizationCache {
            params,
            capacity: capacity.max(1),
            inner: Mutex::new(Inner { entries: HashMap::new(), tick: 0 }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Number of currently cached patterns.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner).entries.len()
    }

    /// True when nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime hit count.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lifetime miss count.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Returns the artifacts for `problem`'s sparsity pattern, computing
    /// and caching them on first sight of the pattern. Every call counts as
    /// exactly one hit or one miss.
    ///
    /// # Errors
    ///
    /// Returns an error if the KKT ordering computation fails (shape
    /// inconsistency); the customization pipeline itself is infallible on a
    /// validated [`QpProblem`].
    pub fn get_or_customize(&self, problem: &QpProblem) -> Result<CacheLookup, SolverError> {
        self.lookup(PatternKey::new(problem.p(), problem.a()), problem)
    }

    /// [`Self::get_or_customize`] with the key already computed: a caller
    /// that holds `problem`'s [`PatternKey`] (a session whose updates keep
    /// the structure) skips fingerprinting `P` and `A` again. `key` must be
    /// `PatternKey::new(problem.p(), problem.a())`; a miss customizes
    /// `problem` and files the artifacts under `key`.
    ///
    /// # Errors
    ///
    /// As [`Self::get_or_customize`].
    pub fn lookup(&self, key: PatternKey, problem: &QpProblem) -> Result<CacheLookup, SolverError> {
        debug_assert_eq!(key, PatternKey::new(problem.p(), problem.a()), "a stale pattern key");
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(entry) = inner.entries.get_mut(&key) {
            entry.last_used = tick;
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(CacheLookup { artifacts: Arc::clone(&entry.artifacts), hit: true });
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let customization = customize(problem, self.params.c, self.params.s_target);
        let kkt_perm = kkt_ordering(problem.p(), problem.a(), self.params.ordering)?;
        let artifacts =
            Arc::new(PatternArtifacts { key, params: self.params, customization, kkt_perm });
        if inner.entries.len() >= self.capacity {
            // Evict the least-recently-used pattern to stay bounded.
            if let Some(&victim) =
                inner.entries.iter().min_by_key(|(_, e)| e.last_used).map(|(k, _)| k)
            {
                inner.entries.remove(&victim);
            }
        }
        inner.entries.insert(key, Entry { artifacts: Arc::clone(&artifacts), last_used: tick });
        Ok(CacheLookup { artifacts, hit: false })
    }

    /// The cached artifacts for `key`, if present. Does **not** touch the
    /// hit/miss ledger or the LRU order — this is an inspection helper, not
    /// the solve path.
    pub fn peek(&self, key: &PatternKey) -> Option<Arc<PatternArtifacts>> {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.entries.get(key).map(|e| Arc::clone(&e.artifacts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsqp_problems::{generate, Domain};

    #[test]
    #[should_panic(expected = "power of two in [2, 128], got 256")]
    fn unsupported_width_fails_when_the_cache_is_built() {
        CustomizationCache::with_params(4, CacheParams { c: 256, ..CacheParams::default() });
    }

    #[test]
    fn repeat_patterns_hit_and_share() {
        let cache = CustomizationCache::new(4);
        let qp1 = generate(Domain::Control, 3, 1);
        let qp2 = generate(Domain::Control, 3, 2); // same structure, new values
        let first = cache.get_or_customize(&qp1).unwrap();
        assert!(!first.hit);
        let second = cache.get_or_customize(&qp2).unwrap();
        assert!(second.hit, "a value change must not invalidate the entry");
        assert!(Arc::ptr_eq(&first.artifacts, &second.artifacts), "hits share the same allocation");
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_patterns_miss_independently() {
        let cache = CustomizationCache::new(4);
        let control = generate(Domain::Control, 3, 1);
        let svm = generate(Domain::Svm, 3, 1);
        assert!(!cache.get_or_customize(&control).unwrap().hit);
        assert!(!cache.get_or_customize(&svm).unwrap().hit);
        assert!(cache.get_or_customize(&control).unwrap().hit);
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn capacity_bounds_with_lru_eviction() {
        let cache = CustomizationCache::new(1);
        let control = generate(Domain::Control, 3, 1);
        let svm = generate(Domain::Svm, 3, 1);
        cache.get_or_customize(&control).unwrap();
        cache.get_or_customize(&svm).unwrap(); // evicts control
        assert_eq!(cache.len(), 1);
        assert!(!cache.get_or_customize(&control).unwrap().hit, "evicted entry re-misses");
    }

    #[test]
    fn artifacts_carry_customization_and_ordering() {
        let cache = CustomizationCache::new(2);
        let qp = generate(Domain::Control, 3, 1);
        let lookup = cache.get_or_customize(&qp).unwrap();
        let art = &lookup.artifacts;
        assert_eq!(art.key, rsqp_sparse::PatternKey::new(qp.p(), qp.a()));
        assert!(art.customization.eta_custom >= art.customization.eta_baseline);
        let perm = art.kkt_perm.as_ref().expect("AMD produces a permutation");
        assert_eq!(perm.len(), qp.num_vars() + qp.num_constraints());
        assert!(cache.peek(&art.key).is_some());
    }

    #[test]
    fn a_keyed_lookup_shares_the_ledger_and_the_entry() {
        let cache = CustomizationCache::new(2);
        let qp = generate(Domain::Control, 3, 1);
        let key = PatternKey::new(qp.p(), qp.a());
        let first = cache.lookup(key, &qp).unwrap();
        assert!(!first.hit);
        assert_eq!(first.artifacts.key, key);
        let second = cache.get_or_customize(&qp).unwrap();
        assert!(second.hit && Arc::ptr_eq(&first.artifacts, &second.artifacts));
        assert!(cache.lookup(key, &generate(Domain::Control, 3, 2)).unwrap().hit);
        assert_eq!((cache.hits(), cache.misses()), (2, 1));
    }

    #[test]
    fn natural_ordering_caches_no_permutation() {
        let params = CacheParams { ordering: KktOrdering::Natural, ..Default::default() };
        let cache = CustomizationCache::with_params(2, params);
        let qp = generate(Domain::Control, 3, 1);
        assert!(cache.get_or_customize(&qp).unwrap().artifacts.kkt_perm.is_none());
    }
}
