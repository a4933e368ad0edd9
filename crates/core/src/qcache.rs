//! The per-scope query store for the check/fix/generate hot loops.
//!
//! Every Eq. 3 consistency query compares a *path decision model* — the
//! conjunction of per-slot ACL circuits — before and after the update,
//! confined to a packet region. WAN topologies route many FECs through the
//! same ACL chains, so the identical `(ordered slot ACLs, encoding, verb,
//! region)` comparison recurs across paths, classes, and even across
//! engine phases (`fix` re-certifies with the same queries `check` just
//! ran). The [`QueryCache`] solves each distinct comparison once.
//!
//! **Keying.** A [`QueryKey`] stores the *full* structural inputs — the
//! reduced before/after ACL pair per slot (in path order), the control
//! verb, the encoding kind, and the confining packet region — plus a
//! precomputed 64-bit fingerprint. `Hash` writes only the fingerprint;
//! `Eq` compares the full structure, so fingerprint collisions degrade to
//! ordinary `HashMap` bucket collisions and can never return a wrong
//! entry. The fingerprint function is injectable
//! ([`QueryCache::with_fingerprint`]) precisely so tests can force
//! collisions-by-construction and pin that property.
//!
//! **Fingerprinting once.** A key's fingerprint mixes one word per slot —
//! the slot's [`QueryCache::pair_fingerprint`] — and one for the region
//! ([`region_fingerprint`]). A check computes each slot pair's word once,
//! when it preprocesses the slot, and the cover's once per run; every key
//! of the run is then built by [`QueryCache::key_fingerprinted`] from words
//! it already has, instead of re-hashing the same ACLs and cover byte by
//! byte per lookup. [`QueryCache::key`] computes the same words itself, so
//! both constructions give equal keys with equal hashes.
//!
//! **Determinism.** A [`CachedSolve`] stores everything a query execution
//! would have produced: the verdict, the decoded model packet (for `Sat`),
//! the per-query [`SolverStats`] delta and the instance size. Replaying a
//! hit is therefore observationally identical to re-solving (the CDCL
//! solver is deterministic), which is what keeps `CheckReport`s
//! byte-identical whatever the store already holds — private to one run
//! or shared across runs, phases and session re-checks.
//!
//! **Sharding.** The map is split into [`SHARDS`] shards, each behind its
//! own [`Mutex`], selected by key fingerprint. Lookups never hold a shard
//! lock across a solver call: miss → release → solve → re-lock → insert
//! (first writer wins), so concurrent workers at worst duplicate a solve,
//! never serialize on one.
//!
//! **Generations.** Long-lived caches (the incremental
//! [`CheckSession`](crate::incr::CheckSession)) tag every entry with the
//! cache's current *generation* — a monotonically increasing epoch bumped
//! once per `recheck` via [`QueryCache::advance_generation`]. A hit
//! refreshes the entry's tag, so [`QueryCache::evict_stale`] can drop
//! entries that no recent generation touched, bounding the resident set of
//! a session that runs for thousands of deltas. Eviction only ever causes
//! a re-solve (the solver is deterministic), never a wrong answer, so
//! generations are invisible to the determinism contract.

use jinjing_acl::{Acl, Field, Packet, PacketSet};
use jinjing_lai::ControlVerb;
use jinjing_solver::aclenc::Encoding;
use jinjing_solver::{acl_fingerprint, SolveResult, SolverStats};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Number of independently locked shards (power of two).
pub const SHARDS: usize = 16;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_mix(h: &mut u64, v: u64) {
    for byte in v.to_le_bytes() {
        *h ^= u64::from(byte);
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

/// The fingerprint a key mixes for its confining region: FNV-1a over the
/// set's cubes, field by field. Not injectable — regions are compared in
/// full on lookup just like ACLs.
#[must_use]
pub fn region_fingerprint(set: &PacketSet) -> u64 {
    let mut h = FNV_OFFSET;
    fnv_mix(&mut h, set.cubes().len() as u64);
    for cube in set.cubes() {
        for f in Field::ALL {
            let iv = cube.get(f);
            fnv_mix(&mut h, iv.lo());
            fnv_mix(&mut h, iv.hi());
        }
    }
    h
}

/// The full structural identity of one decision-model comparison query.
///
/// Two keys are equal iff every component is structurally equal; the
/// stored fingerprint only routes hashing. Construct via
/// [`QueryCache::key`] so the fingerprint matches the cache's function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryKey {
    /// Precomputed fingerprint over all components (the only thing
    /// `Hash` sees).
    hash: u64,
    /// Ordered `(before, after)` reduced ACL pair per slot on the path.
    chain: Vec<(Acl, Acl)>,
    /// Control verb rewriting the desired side (`None` = maintain).
    verb: Option<ControlVerb>,
    /// Decision-model encoding the circuit was built with.
    encoding: Encoding,
    /// Packet region the query is confined to (the full space when the
    /// differential reduction is off).
    region: PacketSet,
}

impl QueryKey {
    /// The precomputed fingerprint (exposed for diagnostics/tests).
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.hash
    }
}

impl Hash for QueryKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// Everything one query execution produces, stored for replay.
#[derive(Debug, Clone)]
pub struct CachedSolve {
    /// The verdict.
    pub result: SolveResult,
    /// Decoded model packet when `Sat`.
    pub model: Option<Packet>,
    /// Per-query stats delta (merged into reports on hit exactly as a
    /// fresh solve would be).
    pub stats: SolverStats,
    /// Instance size at solve time: variables.
    pub vars: usize,
    /// Instance size at solve time: clauses.
    pub clauses: usize,
}

/// One stored entry: the replayable solve plus the last generation that
/// touched it (insert or hit).
#[derive(Debug, Clone)]
struct Entry {
    value: CachedSolve,
    last_used: u64,
}

/// A sharded, collision-safe, cross-query solver cache with generation
/// tags for session-style eviction.
pub struct QueryCache {
    shards: Vec<Mutex<HashMap<QueryKey, Entry>>>,
    fingerprint: fn(&Acl) -> u64,
    /// Current generation (epoch). Entries are stamped with this on insert
    /// and refreshed on hit.
    generation: AtomicU64,
}

impl std::fmt::Debug for QueryCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryCache")
            .field("shards", &self.shards.len())
            .field("entries", &self.len())
            .finish()
    }
}

impl Default for QueryCache {
    fn default() -> QueryCache {
        QueryCache::new()
    }
}

impl QueryCache {
    /// Fresh cache using the real ACL fingerprint.
    #[must_use]
    pub fn new() -> QueryCache {
        QueryCache::with_fingerprint(acl_fingerprint)
    }

    /// Fresh cache with an injected ACL fingerprint function. Tests use
    /// degenerate functions (e.g. `|_| 0`) to force every key into one
    /// bucket and prove that correctness never depends on fingerprint
    /// quality.
    #[must_use]
    pub fn with_fingerprint(fingerprint: fn(&Acl) -> u64) -> QueryCache {
        QueryCache {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            fingerprint,
            generation: AtomicU64::new(0),
        }
    }

    /// The current generation (epoch) of the cache.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }

    /// Start a new generation and return it. Sessions call this once per
    /// `recheck`, so "entry untouched for `n` generations" means "unused by
    /// the last `n` rechecks".
    pub fn advance_generation(&self) -> u64 {
        self.generation.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Drop every entry whose last use is more than `keep` generations old
    /// (i.e. `last_used + keep < current`). Returns the number of evicted
    /// entries. `keep == u64::MAX` never evicts.
    pub fn evict_stale(&self, keep: u64) -> usize {
        let current = self.generation();
        let mut evicted = 0;
        for s in &self.shards {
            let mut map = s.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            let before = map.len();
            map.retain(|_, e| e.last_used.saturating_add(keep) >= current);
            evicted += before - map.len();
        }
        evicted
    }

    /// The fingerprint of one slot's `(before, after)` pair under this
    /// cache's ACL fingerprint — the word a key mixes for that slot. A pair
    /// whose two sides are one value is fingerprinted once.
    #[must_use]
    pub fn pair_fingerprint(&self, before: &Acl, after: &Acl) -> u64 {
        let fb = (self.fingerprint)(before);
        let fa = if std::ptr::eq(before, after) {
            fb
        } else {
            (self.fingerprint)(after)
        };
        let mut h = FNV_OFFSET;
        fnv_mix(&mut h, fb);
        fnv_mix(&mut h, fa);
        h
    }

    /// Build a key for the comparison of the ordered slot `chain` under
    /// `verb`/`encoding`, confined to `region`.
    #[must_use]
    pub fn key(
        &self,
        chain: &[(&Acl, &Acl)],
        verb: Option<ControlVerb>,
        encoding: Encoding,
        region: &PacketSet,
    ) -> QueryKey {
        let pair_fingerprints: Vec<u64> = chain
            .iter()
            .map(|(b, a)| self.pair_fingerprint(b, a))
            .collect();
        let region = (region, region_fingerprint(region));
        self.key_fingerprinted(chain, &pair_fingerprints, verb, encoding, region)
    }

    /// [`QueryCache::key`] from words computed earlier: `pair_fingerprints[i]`
    /// must be this cache's [`QueryCache::pair_fingerprint`] of `chain[i]`,
    /// and a region comes with its [`region_fingerprint`]. The key is equal,
    /// hash included, to the one [`QueryCache::key`] builds.
    #[must_use]
    pub fn key_fingerprinted(
        &self,
        chain: &[(&Acl, &Acl)],
        pair_fingerprints: &[u64],
        verb: Option<ControlVerb>,
        encoding: Encoding,
        region: (&PacketSet, u64),
    ) -> QueryKey {
        assert_eq!(chain.len(), pair_fingerprints.len(), "one word per slot");
        let mut h = FNV_OFFSET;
        fnv_mix(&mut h, chain.len() as u64);
        for &fp in pair_fingerprints {
            fnv_mix(&mut h, fp);
        }
        fnv_mix(
            &mut h,
            match verb {
                None => 0,
                Some(ControlVerb::Maintain) => 1,
                Some(ControlVerb::Isolate) => 2,
                Some(ControlVerb::Open) => 3,
            },
        );
        fnv_mix(
            &mut h,
            match encoding {
                Encoding::Sequential => 0,
                Encoding::Tree => 1,
            },
        );
        fnv_mix(&mut h, region.1);
        QueryKey {
            hash: h,
            chain: chain
                .iter()
                .map(|(b, a)| ((*b).clone(), (*a).clone()))
                .collect(),
            verb,
            encoding,
            region: region.0.clone(),
        }
    }

    fn shard(&self, key: &QueryKey) -> &Mutex<HashMap<QueryKey, Entry>> {
        &self.shards[(key.hash as usize) & (SHARDS - 1)]
    }

    /// Look up a key, refreshing its generation tag on hit. Clones the
    /// stored value (all components are cheap).
    #[must_use]
    pub fn get(&self, key: &QueryKey) -> Option<CachedSolve> {
        let generation = self.generation();
        let mut map = self
            .shard(key)
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        map.get_mut(key).map(|e| {
            e.last_used = generation;
            e.value.clone()
        })
    }

    /// Insert a value; the first writer wins so the stored value stays
    /// canonical even if concurrent workers raced on the same miss (a
    /// duplicate insert still refreshes the generation tag).
    pub fn insert(&self, key: QueryKey, value: CachedSolve) {
        let generation = self.generation();
        self.shard(&key)
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .entry(key)
            .and_modify(|e| e.last_used = generation)
            .or_insert(Entry {
                value,
                last_used: generation,
            });
    }

    /// Fetch the cached result for `key`, or run `solve` and remember it.
    /// Returns `(value, hit)`. The shard lock is **not** held while
    /// `solve` runs, so concurrent misses on the same key duplicate work
    /// (benignly — the solver is deterministic) instead of serializing.
    pub fn get_or_solve(
        &self,
        key: QueryKey,
        solve: impl FnOnce() -> CachedSolve,
    ) -> (CachedSolve, bool) {
        if let Some(v) = self.get(&key) {
            return (v, true);
        }
        let v = solve();
        self.insert(key, v.clone());
        (v, false)
    }

    /// Total entries across shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .len()
            })
            .sum()
    }

    /// `true` when no entry is stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jinjing_acl::AclBuilder;

    fn acl_a() -> Acl {
        AclBuilder::default_permit().deny_dst("1.0.0.0/8").build()
    }

    fn acl_b() -> Acl {
        AclBuilder::default_permit().deny_dst("2.0.0.0/8").build()
    }

    fn dummy(result: SolveResult) -> CachedSolve {
        CachedSolve {
            result,
            model: None,
            stats: SolverStats::default(),
            vars: 1,
            clauses: 1,
        }
    }

    #[test]
    fn hit_and_miss_round_trip() {
        let cache = QueryCache::new();
        let a = acl_a();
        let b = acl_b();
        let key = cache.key(&[(&a, &b)], None, Encoding::Tree, &PacketSet::full());
        assert!(cache.get(&key).is_none());
        let (v, hit) = cache.get_or_solve(key.clone(), || dummy(SolveResult::Unsat));
        assert!(!hit);
        assert_eq!(v.result, SolveResult::Unsat);
        let (v2, hit2) = cache.get_or_solve(key, || panic!("must not re-solve"));
        assert!(hit2);
        assert_eq!(v2.result, SolveResult::Unsat);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_components_make_distinct_keys() {
        let cache = QueryCache::new();
        let a = acl_a();
        let b = acl_b();
        let base = cache.key(&[(&a, &b)], None, Encoding::Tree, &PacketSet::full());
        let swapped = cache.key(&[(&b, &a)], None, Encoding::Tree, &PacketSet::full());
        let verbed = cache.key(
            &[(&a, &b)],
            Some(ControlVerb::Isolate),
            Encoding::Tree,
            &PacketSet::full(),
        );
        let seq = cache.key(&[(&a, &b)], None, Encoding::Sequential, &PacketSet::full());
        let region = PacketSet::from_cube(
            jinjing_acl::MatchSpec::dst(jinjing_acl::IpPrefix::new(0x0a00_0000, 8)).cube(),
        );
        let regioned = cache.key(&[(&a, &b)], None, Encoding::Tree, &region);
        for other in [&swapped, &verbed, &seq, &regioned] {
            assert_ne!(&base, other);
        }
        cache.insert(base.clone(), dummy(SolveResult::Unsat));
        assert!(cache.get(&swapped).is_none());
        assert!(cache.get(&verbed).is_none());
        assert!(cache.get(&seq).is_none());
        assert!(cache.get(&regioned).is_none());
    }

    #[test]
    fn colliding_fingerprints_never_alias_entries() {
        // Degenerate fingerprint: every ACL hashes to 0, so every key
        // lands in one shard bucket chain. Structural Eq must still keep
        // the entries apart.
        let cache = QueryCache::with_fingerprint(|_| 0);
        let a = acl_a();
        let b = acl_b();
        let k1 = cache.key(&[(&a, &b)], None, Encoding::Tree, &PacketSet::full());
        let k2 = cache.key(&[(&b, &a)], None, Encoding::Tree, &PacketSet::full());
        let k3 = cache.key(&[(&a, &a)], None, Encoding::Tree, &PacketSet::full());
        assert_eq!(k1.fingerprint(), k2.fingerprint());
        assert_eq!(k1.fingerprint(), k3.fingerprint());
        assert_ne!(k1, k2);
        assert_ne!(k1, k3);
        cache.insert(k1.clone(), dummy(SolveResult::Sat));
        cache.insert(k2.clone(), dummy(SolveResult::Unsat));
        assert_eq!(cache.get(&k1).unwrap().result, SolveResult::Sat);
        assert_eq!(cache.get(&k2).unwrap().result, SolveResult::Unsat);
        assert!(cache.get(&k3).is_none());
        assert_eq!(cache.len(), 2);
    }

    /// The two constructions agree: a key from precomputed pair and region
    /// words equals the one [`QueryCache::key`] builds from the ACLs, hash
    /// included, under the real and a degenerate fingerprint, and one is
    /// found in the store under the other.
    #[test]
    fn precomputed_fingerprints_build_the_same_key() {
        let (a, b) = (acl_a(), acl_b());
        let twin = acl_a(); // equal to `a`, another allocation
        let full = PacketSet::full();
        let region = PacketSet::from_cube(
            jinjing_acl::MatchSpec::dst(jinjing_acl::IpPrefix::new(0x0a00_0000, 8)).cube(),
        );
        let chains: [&[(&Acl, &Acl)]; 4] = [
            &[],
            &[(&a, &b)],
            &[(&a, &a), (&b, &a)],
            &[(&a, &twin), (&b, &b), (&a, &b)],
        ];
        for cache in [QueryCache::new(), QueryCache::with_fingerprint(|_| 0)] {
            for chain in chains {
                for (verb, reg) in [(None, &full), (Some(ControlVerb::Open), &region)] {
                    let words: Vec<u64> = chain
                        .iter()
                        .map(|(x, y)| cache.pair_fingerprint(x, y))
                        .collect();
                    let keyed = (reg, region_fingerprint(reg));
                    let pre = cache.key_fingerprinted(chain, &words, verb, Encoding::Tree, keyed);
                    let built = cache.key(chain, verb, Encoding::Tree, reg);
                    assert_eq!(pre, built);
                    assert_eq!(pre.fingerprint(), built.fingerprint());
                    cache.insert(built, dummy(SolveResult::Sat));
                    assert!(cache.get(&pre).is_some());
                }
            }
            assert_eq!(
                cache.pair_fingerprint(&a, &a),
                cache.pair_fingerprint(&a, &twin),
                "the one-value shortcut changes no word"
            );
        }
    }

    #[test]
    fn first_writer_wins() {
        let cache = QueryCache::new();
        let a = acl_a();
        let key = cache.key(&[(&a, &a)], None, Encoding::Tree, &PacketSet::full());
        cache.insert(key.clone(), dummy(SolveResult::Sat));
        cache.insert(key.clone(), dummy(SolveResult::Unsat));
        assert_eq!(cache.get(&key).unwrap().result, SolveResult::Sat);
    }

    #[test]
    fn generations_advance_and_evict_stale_entries() {
        let cache = QueryCache::new();
        let a = acl_a();
        let b = acl_b();
        let old_key = cache.key(&[(&a, &b)], None, Encoding::Tree, &PacketSet::full());
        cache.insert(old_key.clone(), dummy(SolveResult::Unsat)); // gen 0
        assert_eq!(cache.generation(), 0);
        assert_eq!(cache.advance_generation(), 1);
        let new_key = cache.key(&[(&b, &a)], None, Encoding::Tree, &PacketSet::full());
        cache.insert(new_key.clone(), dummy(SolveResult::Sat)); // gen 1
        assert_eq!(cache.advance_generation(), 2);
        // keep=2: gen-0 entry still within the window.
        assert_eq!(cache.evict_stale(2), 0);
        // keep=1: the gen-0 entry is stale, the gen-1 entry survives.
        assert_eq!(cache.evict_stale(1), 1);
        assert!(cache.get(&old_key).is_none());
        assert!(cache.get(&new_key).is_some());
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn hits_refresh_the_generation_tag() {
        let cache = QueryCache::new();
        let a = acl_a();
        let b = acl_b();
        let hot = cache.key(&[(&a, &b)], None, Encoding::Tree, &PacketSet::full());
        let cold = cache.key(&[(&b, &a)], None, Encoding::Tree, &PacketSet::full());
        cache.insert(hot.clone(), dummy(SolveResult::Unsat)); // gen 0
        cache.insert(cold.clone(), dummy(SolveResult::Unsat)); // gen 0
        for _ in 0..3 {
            cache.advance_generation();
            assert!(cache.get(&hot).is_some(), "hit refreshes the tag");
        }
        // gen is now 3; `hot` was touched at gen 3, `cold` at gen 0.
        assert_eq!(cache.evict_stale(1), 1);
        assert!(cache.get(&hot).is_some());
        assert!(cache.get(&cold).is_none());
    }

    #[test]
    fn keep_max_never_evicts() {
        let cache = QueryCache::new();
        let a = acl_a();
        let key = cache.key(&[(&a, &a)], None, Encoding::Tree, &PacketSet::full());
        cache.insert(key, dummy(SolveResult::Unsat));
        for _ in 0..10 {
            cache.advance_generation();
        }
        assert_eq!(cache.evict_stale(u64::MAX), 0);
        assert_eq!(cache.len(), 1);
    }
}
