//! The global radix prefix cache over the block pool — the one
//! mechanism behind every reuse of prompt-prefix K/V.
//!
//! A serving front-end sees the same system prompt across thousands of
//! requests, some concurrent and most not. Any request whose prompt
//! starts with a prefix that another request computed — earlier in the
//! same planning round, in an earlier round, or in a batch long gone —
//! reuses those pages through one [`PrefixCache::lookup`]: no pairing
//! of requests, no liveness requirement on the producer.
//!
//! [`PrefixCache`] is a radix tree over token-id prefixes at **block
//! granularity**: one node per pool block, keyed by the exact
//! `block_tokens` token ids that block holds. Only *full* prompt blocks
//! are cached, which makes every cached block immutable — decode writes
//! land in later (partial) blocks, and copy-on-write protects against
//! any rewrite by a reader. The cache holds its own reference on every
//! cached block (refcount +1), so cached pages survive their producing
//! request's release and are never recycled underneath a reader.
//!
//! # Pending nodes (same-round reuse)
//!
//! A node's page is either **filled** (a resident pool block) or
//! **pending** (promised by a *producer* — a segment of the current
//! planning round whose prefill has not run yet):
//!
//! 1. At plan time, every admitted segment calls
//!    [`PrefixCache::insert_pending`] for its full prompt pages. Pages
//!    already in the tree are left alone; new ones become
//!    `Pending(producer)` nodes, stamped one round back like any insert.
//! 2. A later admission in the same round finds them through its normal
//!    lookup. [`CachedPrefix::producers`] names the segments the hit
//!    depends on, and the planner gates the reader's admission on each
//!    producer's prefill completing. The lookup stamps the nodes with
//!    the current round — the usual eviction claim.
//! 3. The producer's prefill-finish [`PrefixCache::insert`] fills its
//!    own pending nodes with its blocks (retaining them). It never adds
//!    a page it did not promise: filled nodes keep winning collisions,
//!    and another producer's pending node or a vacant slot ends the
//!    walk.
//! 4. The reader's admission resolves the pages its hit named along
//!    their exact path ([`PrefixCache::resident`]); a page still pending
//!    at that point means the producer failed, was cancelled or was
//!    preempted, and the admission fails as a contained, retryable
//!    error.
//! 5. [`PrefixCache::begin_round`] drops every pending node that was
//!    never filled. At plan time, [`PrefixCache::drop_pending`]
//!    withdraws a promise nobody reads (preemption, reclaimed
//!    residency), and [`PrefixCache::close_pending`] hides a promise
//!    from later lookups while its planned readers still get it; once
//!    the producer and those readers are done,
//!    [`PrefixCache::evict_subtree`] takes its pages back.
//!
//! Pending nodes hold no block: eviction and flush skip them, and
//! dropping them never touches the pool. A pending node only ever has
//! pending descendants, because an insert fills a path root-down.
//!
//! # Eviction (ref-count-aware, round-granular LRU)
//!
//! Under pool pressure the serving planner evicts cold cached prefixes
//! leaf-first. A node is evictable only when
//!
//! * it is filled and has no children (evicting an interior node would
//!   orphan the path below it),
//! * its pool refcount is exactly 1 — the cache's own reference — so a
//!   prefix **mid-reuse by a live request is refused**, and
//! * it was not touched in the current round (a lookup this round is a
//!   claim: the hit's admission task has not retained the blocks yet).
//!
//! # Determinism
//!
//! Recency is stamped at **round** granularity (the serving loop calls
//! [`PrefixCache::begin_round`] once per planning pass), never from a
//! wall clock or a per-operation counter: concurrent inserts from
//! prefill-finish tasks executing in any lane order produce identical
//! stamps, and eviction orders candidates by `(stamp, token path)` — a
//! total order independent of thread timing. Insert collisions (two
//! requests computing the same prefix privately) are first-wins on the
//! *block id*, which is sound because colliding blocks hold
//! bit-identical K/V rows (same model, same tokens, same absolute RoPE
//! positions); no stream bit or page count depends on which id won.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use llmnpu_obs::{EventKind, Plane, TraceSink};

use crate::pool::{BlockId, BlockPool};
use crate::{Error, Result};

/// Where a cached page's K/V rows live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CachedBlock {
    /// Resident in this pool block; the cache holds a reference on it.
    Filled(BlockId),
    /// Promised by this producer segment of the current round, whose
    /// prefill has not published the page yet.
    Pending(usize),
}

/// One cached page: where its rows live, plus recency/child bookkeeping.
#[derive(Debug)]
struct Node {
    block: CachedBlock,
    /// Round of the last lookup/insert that touched this node.
    stamp: u64,
    children: BTreeMap<Box<[u32]>, Node>,
}

/// A successful [`PrefixCache::lookup`]: the longest cached chain of
/// full blocks matching the probe, plus an optional partial tail.
#[derive(Debug, Clone, Default)]
pub struct CachedPrefix {
    /// Cached pages covering the matched full blocks, root-down. Filled
    /// blocks are *not* retained for the caller — they are cache-held
    /// and claim-protected until the next [`PrefixCache::begin_round`];
    /// an admission path retains them via
    /// `BlockTable::reserve_with_prefix`.
    pub blocks: Vec<CachedBlock>,
    /// Tokens covered by `blocks` (`blocks.len() × block_tokens`).
    pub tokens: usize,
    /// A cached page sharing only its leading rows with the probe's
    /// remainder: `(page, rows)` — the sub-block tail recovered by a
    /// partial-row copy into the reader's first private page.
    pub tail: Option<(CachedBlock, usize)>,
}

impl CachedPrefix {
    /// Total matched tokens: full blocks plus the partial tail.
    #[must_use]
    pub fn matched_tokens(&self) -> usize {
        self.tokens + self.tail.map_or(0, |(_, rows)| rows)
    }

    /// The producer segments whose pending pages the hit depends on,
    /// ascending and deduplicated (empty for an all-resident hit).
    #[must_use]
    pub fn producers(&self) -> Vec<usize> {
        let mut out: Vec<usize> = self
            .blocks
            .iter()
            .chain(self.tail.iter().map(|(b, _)| b))
            .filter_map(|b| match b {
                CachedBlock::Pending(p) => Some(*p),
                CachedBlock::Filled(_) => None,
            })
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// Cumulative cache counters (serving reports snapshot and diff these).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefixCacheMetrics {
    /// Lookups answered with at least one matched token.
    pub hits: u64,
    /// Lookups answered with nothing.
    pub misses: u64,
    /// Tokens served from cache across all hits (full blocks + tails).
    pub hit_tokens: u64,
    /// Pool pages reused from cache across all hits (full blocks only;
    /// a tail reuses rows, not a page).
    pub hit_blocks: u64,
    /// Blocks newly retained by inserts.
    pub inserted_blocks: u64,
    /// Cached blocks released by LRU eviction.
    pub evicted_blocks: u64,
}

#[derive(Debug, Default)]
struct Inner {
    children: BTreeMap<Box<[u32]>, Node>,
    /// Current round (see [`PrefixCache::begin_round`]).
    round: u64,
    /// Filled node count (the cache's held pages).
    held: usize,
    /// Producers whose pending pages this round's later lookups and
    /// promises no longer see (see [`PrefixCache::close_pending`]).
    closed: Vec<usize>,
    metrics: PrefixCacheMetrics,
}

/// Global radix/trie prefix cache over a [`BlockPool`]. See the module
/// docs for the design.
///
/// Interior mutability: lookups and inserts run from planner code and
/// from prefill-finish tasks on executor lanes, so the tree lives
/// behind a mutex. All lock acquisitions recover from poisoning — the
/// tree is validate-then-apply under the lock, and a panicking task
/// must not turn the shared cache into a denial of service.
#[derive(Debug, Default)]
pub struct PrefixCache {
    inner: Mutex<Inner>,
    block_tokens: usize,
    /// Optional trace recorder for cache traffic. Numeric plane: no
    /// wall timestamps; Exec plane (lookups run from executor tasks).
    trace: OnceLock<Arc<TraceSink>>,
}

fn lock(inner: &Mutex<Inner>) -> std::sync::MutexGuard<'_, Inner> {
    inner.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Longest common prefix of two token slices.
fn lcp(a: &[u32], b: &[u32]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

impl PrefixCache {
    /// An empty cache for pools with the given page size.
    #[must_use]
    pub fn new(block_tokens: usize) -> Self {
        PrefixCache {
            inner: Mutex::new(Inner::default()),
            block_tokens,
            trace: OnceLock::new(),
        }
    }

    /// Installs a trace sink for cache events (hit / miss / insert /
    /// evict). First install wins; later calls are ignored (the cache
    /// outlives individual serving sessions).
    pub fn install_trace(&self, sink: Arc<TraceSink>) {
        let _ = self.trace.set(sink);
    }

    fn trace_event(&self, kind: EventKind, detail: impl FnOnce() -> String) {
        if let Some(sink) = self.trace.get() {
            sink.event(Plane::Exec, kind, None, detail);
        }
    }

    /// The page size the cache's node keys are sliced at.
    #[must_use]
    pub fn block_tokens(&self) -> usize {
        self.block_tokens
    }

    /// Blocks currently held (retained) by the cache.
    #[must_use]
    pub fn held_blocks(&self) -> usize {
        lock(&self.inner).held
    }

    /// Cumulative counters.
    #[must_use]
    pub fn metrics(&self) -> PrefixCacheMetrics {
        lock(&self.inner).metrics
    }

    /// Starts a planning round: recency stamps written from here on
    /// carry the new round id, and nodes touched in the *new* round are
    /// claim-protected from eviction. Pending nodes left unfilled by the
    /// previous round (their producer failed, was cancelled or was
    /// preempted) are dropped; they hold no block, so the pool is not
    /// touched. Call once per serve planning pass.
    pub fn begin_round(&self) {
        let mut g = lock(&self.inner);
        g.round += 1;
        g.closed.clear();
        prune(&mut g.children, &mut |b| {
            matches!(b, CachedBlock::Pending(_))
        });
    }

    /// Longest cached prefix of `tokens`: the deepest chain of full
    /// blocks whose keys match, plus (optionally) one more cached block
    /// sharing only leading rows with the remainder. Pending pages match
    /// like filled ones and are reported with their producer — except
    /// that a pending page is never a tail on its own (a sub-page
    /// remainder is worth waiting for only by a reader that already
    /// waits on a pending full page), and a closed producer's pages do
    /// not match at all. Touched nodes are stamped with the current
    /// round (LRU bump + eviction claim).
    ///
    /// Pass the probe already capped to the maximum shareable length
    /// (a prefill must still compute at least one suffix token).
    #[must_use]
    pub fn lookup(&self, tokens: &[u32]) -> CachedPrefix {
        let bt = self.block_tokens;
        let mut guard = lock(&self.inner);
        let g = &mut *guard;
        let mut hit = CachedPrefix::default();
        descend(&mut g.children, tokens, bt, g.round, &g.closed, &mut hit);
        let matched = hit.matched_tokens();
        if matched > 0 {
            g.metrics.hits += 1;
            g.metrics.hit_tokens += matched as u64;
            g.metrics.hit_blocks += hit.blocks.len() as u64;
        } else {
            g.metrics.misses += 1;
        }
        drop(guard);
        if matched > 0 {
            let blocks = hit.blocks.len();
            self.trace_event(EventKind::CacheHit, || {
                format!("{matched} token(s) over {blocks} cached block(s)")
            });
        } else {
            self.trace_event(EventKind::CacheMiss, || {
                format!("probe of {} token(s)", tokens.len())
            });
        }
        hit
    }

    /// The blocks filling the full pages along `path`, root-down, or
    /// `None` if a page is missing or still pending. An exact walk — no
    /// tail scan, stamps or counters: an admission resolves the pages
    /// its planner already looked up (and counted), which were pending
    /// then.
    #[must_use]
    pub fn resident(&self, path: &[u32]) -> Option<Vec<BlockId>> {
        let g = lock(&self.inner);
        let mut children = &g.children;
        path.chunks_exact(self.block_tokens)
            .map(|key| {
                let node = children.get(key)?;
                children = &node.children;
                match node.block {
                    CachedBlock::Filled(block) => Some(block),
                    CachedBlock::Pending(_) => None,
                }
            })
            .collect()
    }

    /// Promises the full-block prefix of `tokens` on behalf of
    /// `producer` (a segment of the current round whose prefill will
    /// [`PrefixCache::insert`] it): every page not yet in the tree
    /// becomes a pending node. The walk stops at a closed producer's
    /// page. Returns the number of pages promised — the pages this
    /// producer's insert will newly retain, always the last ones of its
    /// path.
    pub fn insert_pending(&self, tokens: &[u32], producer: usize) -> usize {
        let mut guard = lock(&self.inner);
        let g = &mut *guard;
        let stamp = g.round.saturating_sub(1);
        let mut promised = 0;
        let mut children = &mut g.children;
        for key in tokens.chunks_exact(self.block_tokens) {
            let node = match children.entry(key.into()) {
                Entry::Occupied(e) => e.into_mut(),
                Entry::Vacant(e) => {
                    promised += 1;
                    e.insert(Node {
                        block: CachedBlock::Pending(producer),
                        stamp,
                        children: BTreeMap::new(),
                    })
                }
            };
            if hidden(node.block, &g.closed) {
                break;
            }
            children = &mut node.children;
        }
        promised
    }

    /// Withdraws `producer`'s unfilled promises made this round (it was
    /// preempted, or its pages will not stay resident and nobody reads
    /// them), so no later lookup depends on them. Never touches the
    /// pool.
    pub fn drop_pending(&self, producer: usize) {
        prune(&mut lock(&self.inner).children, &mut |b| {
            b == CachedBlock::Pending(producer)
        });
    }

    /// Hides `producer`'s pending pages — and so every page promised
    /// below them — from the rest of this round's lookups and promises,
    /// while keeping them for the readers already planned on them: the
    /// producer still fills them, those readers still resolve them, and
    /// [`PrefixCache::evict_subtree`] then takes them back. Lasts until
    /// the next [`PrefixCache::begin_round`].
    pub fn close_pending(&self, producer: usize) {
        lock(&self.inner).closed.push(producer);
    }

    /// Fills `producer`'s pending pages along the full-block prefix of
    /// `tokens` with `blocks` (the producer's leading table blocks,
    /// prefill complete), retaining each in `pool` (the cache's own
    /// reference). Filled nodes on the path are walked through (they
    /// win ties: their block already holds bit-identical rows); the
    /// walk stops at a page another producer promised (that producer
    /// fills it) and at a vacant slot, so every page retained is one
    /// [`PrefixCache::insert_pending`] promised — and charged — for
    /// this producer. Returns the number of blocks newly cached.
    ///
    /// Inserted nodes are stamped one round *back*: a block published
    /// mid-round is immediately reclaimable by a memory-pressure
    /// eviction once its producer releases it (refcounts protect pages
    /// mid-use), while claims lookups placed this round (stamp ==
    /// round) are never downgraded.
    ///
    /// # Errors
    ///
    /// Returns pool errors if a block to retain is invalid or free. The
    /// walk retains one block per step *before* descending, so the
    /// nodes cached before the failing step stay consistent with the
    /// pool and the held count.
    pub fn insert(
        &self,
        pool: &BlockPool,
        tokens: &[u32],
        blocks: &[BlockId],
        producer: usize,
    ) -> Result<usize> {
        let bt = self.block_tokens;
        let mut g = lock(&self.inner);
        let Inner {
            children,
            round,
            held,
            metrics,
            ..
        } = &mut *g;
        let stamp = round.saturating_sub(1);
        let mut added = 0;
        let mut children = children;
        for (key, &block) in tokens.chunks_exact(bt).zip(blocks) {
            let Some(node) = children.get_mut(key) else {
                break;
            };
            match node.block {
                CachedBlock::Pending(p) if p == producer => {
                    pool.retain_blocks(&[block])?;
                    node.block = CachedBlock::Filled(block);
                    added += 1;
                    *held += 1;
                    metrics.inserted_blocks += 1;
                }
                CachedBlock::Pending(_) => break,
                CachedBlock::Filled(_) => {}
            }
            node.stamp = node.stamp.max(stamp);
            children = &mut node.children;
        }
        if added > 0 {
            let held = *held;
            drop(g);
            self.trace_event(EventKind::CacheInsert, || {
                format!("{added} block(s) cached, {held} held")
            });
        }
        Ok(added)
    }

    /// Evicts cold cached prefixes leaf-first until at least
    /// `want_blocks` pages were freed or no evictable node remains,
    /// releasing each evicted block back to `pool`. Returns blocks
    /// freed. See the module docs for what "evictable" means; the scan
    /// order is `(stamp, token path)` — fully deterministic. Pending
    /// nodes are never touched.
    ///
    /// # Errors
    ///
    /// Returns pool errors only if the cache's accounting disagrees
    /// with the pool (a cached block it holds a reference on was freed
    /// behind its back).
    pub fn evict_lru(&self, pool: &BlockPool, want_blocks: usize) -> Result<usize> {
        let mut g = lock(&self.inner);
        let round = g.round;
        let mut freed = 0;
        while freed < want_blocks {
            // Coldest evictable leaf: filled, no children, untouched
            // this round, refcount exactly 1 (cache-only — a prefix
            // mid-reuse is refused).
            let Some(path) = coldest_leaf(&g.children, round, pool)? else {
                break;
            };
            let Some(CachedBlock::Filled(block)) = remove_path(&mut g.children, &path) else {
                return Err(Error::Inconsistent {
                    what: "eviction path vanished under the cache lock".to_owned(),
                });
            };
            pool.release_blocks(&[block])?;
            g.held -= 1;
            g.metrics.evicted_blocks += 1;
            freed += 1;
        }
        if freed > 0 {
            drop(g);
            self.trace_event(EventKind::CacheEvict, || {
                format!("{freed} of {want_blocks} wanted block(s) evicted")
            });
        }
        Ok(freed)
    }

    /// Evicts the page at the end of `path` (whole pages) and every page
    /// below it, leaf-first and regardless of recency or claims, and
    /// drops the pending pages among them. A page still referenced
    /// outside the cache stays, and so do its ancestors. Returns blocks
    /// freed. The serving planner's last-resort reclaim runs this once
    /// the closed producer and all its readers are done.
    ///
    /// # Errors
    ///
    /// Returns pool errors on accounting disagreement (double free).
    pub fn evict_subtree(&self, pool: &BlockPool, path: &[u32]) -> Result<usize> {
        let mut g = lock(&self.inner);
        let mut keys = path.chunks_exact(self.block_tokens);
        let mut children = &mut g.children;
        let last = keys.next_back().unwrap_or_default();
        for key in keys {
            let Some(node) = children.get_mut(key) else {
                return Ok(0);
            };
            children = &mut node.children;
        }
        let Some(root) = children.remove_entry(last) else {
            return Ok(0);
        };
        let mut subtree = BTreeMap::from([root]);
        let mut freed = Vec::new();
        prune(&mut subtree, &mut |b| match b {
            CachedBlock::Pending(_) => true,
            CachedBlock::Filled(block) => {
                let cache_only = pool.ref_count(block).is_ok_and(|n| n == 1);
                if cache_only {
                    freed.push(block);
                }
                cache_only
            }
        });
        children.extend(subtree);
        pool.release_blocks(&freed)?;
        g.held -= freed.len();
        g.metrics.evicted_blocks += freed.len() as u64;
        drop(g);
        let n = freed.len();
        self.trace_event(EventKind::CacheEvict, || {
            format!("{n} reclaimed block(s) evicted")
        });
        Ok(n)
    }

    /// Releases every cached block back to `pool` and empties the tree
    /// (end of a transient serving session); pending nodes hold no
    /// block and are simply dropped. Returns blocks freed.
    ///
    /// # Errors
    ///
    /// Returns pool errors on accounting disagreement (double free).
    pub fn flush(&self, pool: &BlockPool) -> Result<usize> {
        let mut g = lock(&self.inner);
        let mut blocks = Vec::with_capacity(g.held);
        collect_blocks(&g.children, &mut blocks);
        pool.release_blocks(&blocks)?;
        g.children.clear();
        g.held = 0;
        Ok(blocks.len())
    }
}

/// Whether lookups and promises must not use `block`: a page pending
/// for a closed producer.
fn hidden(block: CachedBlock, closed: &[usize]) -> bool {
    matches!(block, CachedBlock::Pending(p) if closed.contains(&p))
}

/// Removes, leaf-first, every childless node whose page `doomed`
/// selects (a filled page it selects is the caller's to release).
fn prune(children: &mut BTreeMap<Box<[u32]>, Node>, doomed: &mut impl FnMut(CachedBlock) -> bool) {
    children.retain(|_, node| {
        prune(&mut node.children, doomed);
        !(node.children.is_empty() && doomed(node.block))
    });
}

/// One step of the lookup walk: follow the full-block child matching
/// `tokens`' head if present, else resolve the partial tail among the
/// current children. (The full-block membership test runs *before* the
/// mutable descent so the tail scan never overlaps a live child loan —
/// the borrow checker cannot express "hand the map back on miss".)
fn descend(
    children: &mut BTreeMap<Box<[u32]>, Node>,
    tokens: &[u32],
    bt: usize,
    round: u64,
    closed: &[usize],
    hit: &mut CachedPrefix,
) {
    let full_match = tokens.len() >= bt
        && children
            .get(&tokens[..bt])
            .is_some_and(|node| !hidden(node.block, closed));
    if full_match {
        if let Some(node) = children.get_mut(&tokens[..bt]) {
            node.stamp = round;
            hit.blocks.push(node.block);
            hit.tokens += bt;
            descend(&mut node.children, &tokens[bt..], bt, round, closed, hit);
        }
        return;
    }
    // Partial tail: a child block whose leading rows match the
    // remainder. A pending page qualifies only below a pending full
    // page: waiting on a producer's prefill for a sub-page remainder
    // alone costs more than recomputing those rows; a closed
    // producer's page never qualifies. Among equally long matches a
    // filled page beats a pending one, and the argmax is deterministic:
    // BTreeMap iteration is key-ordered and the strict comparison makes
    // the smallest key win full ties.
    if tokens.is_empty() {
        return;
    }
    let waits = hit
        .blocks
        .iter()
        .any(|b| matches!(b, CachedBlock::Pending(_)));
    let mut best: Option<(&mut Node, (usize, bool))> = None;
    for (key, node) in children.iter_mut() {
        let filled = matches!(node.block, CachedBlock::Filled(_));
        let rank = (lcp(tokens, key), filled);
        let usable = filled || (waits && !hidden(node.block, closed));
        if rank.0 > 0 && usable && best.as_ref().is_none_or(|(_, b)| rank > *b) {
            best = Some((node, rank));
        }
    }
    if let Some((node, (rows, _))) = best {
        node.stamp = round;
        hit.tail = Some((node.block, rows));
    }
}

/// Depth-first scan for the coldest evictable leaf, returning its key
/// path from the root. `None` when nothing is evictable.
fn coldest_leaf(
    children: &BTreeMap<Box<[u32]>, Node>,
    round: u64,
    pool: &BlockPool,
) -> Result<Option<Vec<Box<[u32]>>>> {
    fn walk(
        children: &BTreeMap<Box<[u32]>, Node>,
        round: u64,
        pool: &BlockPool,
        path: &mut Vec<Box<[u32]>>,
        best: &mut Option<(u64, Vec<Box<[u32]>>)>,
    ) -> Result<()> {
        for (key, node) in children {
            path.push(key.clone());
            if !node.children.is_empty() {
                walk(&node.children, round, pool, path, best)?;
            } else if let CachedBlock::Filled(block) = node.block {
                let claimed = node.stamp == round;
                if !claimed && pool.ref_count(block)? == 1 {
                    // BTreeMap iteration is key-ordered, so on equal
                    // stamps the first (smallest-path) candidate wins —
                    // strict `<` keeps it.
                    let colder = best.as_ref().is_none_or(|(s, _)| node.stamp < *s);
                    if colder {
                        *best = Some((node.stamp, path.clone()));
                    }
                }
            }
            path.pop();
        }
        Ok(())
    }
    let mut best = None;
    let mut path = Vec::new();
    walk(children, round, pool, &mut path, &mut best)?;
    Ok(best.map(|(_, p)| p))
}

/// Removes the node at `path` (produced by [`coldest_leaf`] under the
/// same lock guard, so present, filled, and a leaf) and returns its
/// page.
fn remove_path(
    children: &mut BTreeMap<Box<[u32]>, Node>,
    path: &[Box<[u32]>],
) -> Option<CachedBlock> {
    match path {
        [] => None,
        [last] => children.remove(last).map(|node| node.block),
        [head, rest @ ..] => remove_path(&mut children.get_mut(head)?.children, rest),
    }
}

fn collect_blocks(children: &BTreeMap<Box<[u32]>, Node>, out: &mut Vec<BlockId>) {
    for node in children.values() {
        if let CachedBlock::Filled(block) = node.block {
            out.push(block);
        }
        collect_blocks(&node.children, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{BlockTable, PoolConfig};

    fn pool(blocks: usize) -> BlockPool {
        BlockPool::new(PoolConfig {
            layers: 1,
            kv_dim: 2,
            block_tokens: 4,
            blocks,
        })
        .unwrap()
    }

    fn toks(n: usize, base: u32) -> Vec<u32> {
        (0..n as u32).map(|i| base + i).collect()
    }

    fn filled(blocks: &[BlockId]) -> Vec<CachedBlock> {
        blocks.iter().map(|&b| CachedBlock::Filled(b)).collect()
    }

    /// Caches `tokens` the way a serving producer does: promise the
    /// pages at plan time, fill them at prefill finish.
    fn publish(cache: &PrefixCache, p: &BlockPool, tokens: &[u32], blocks: &[BlockId]) -> usize {
        cache.insert_pending(tokens, 0);
        cache.insert(p, tokens, blocks, 0).unwrap()
    }

    #[test]
    fn miss_then_insert_then_hit() {
        let p = pool(8);
        let cache = PrefixCache::new(4);
        cache.begin_round();
        let prompt = toks(10, 0);
        assert_eq!(cache.lookup(&prompt).matched_tokens(), 0);

        // Producer computed the prompt privately; cache its 2 full blocks.
        let mut table = BlockTable::reserve(&p, 10).unwrap();
        let added = publish(&cache, &p, &prompt, table.blocks());
        assert_eq!(added, 2);
        assert_eq!(cache.held_blocks(), 2);
        // Cache holds its own reference: producer release keeps them live.
        table.release(&p).unwrap();
        assert_eq!(p.used_blocks(), 2);

        let hit = cache.lookup(&prompt[..9]);
        assert_eq!(hit.tokens, 8);
        assert_eq!(hit.blocks.len(), 2);
        assert_eq!(hit.tail, None, "third block was partial, never cached");
        let m = cache.metrics();
        assert_eq!((m.hits, m.misses), (1, 1));
        assert_eq!(m.hit_tokens, 8);
    }

    #[test]
    fn partial_tail_match_mid_block() {
        let p = pool(8);
        let cache = PrefixCache::new(4);
        cache.begin_round();
        let prompt = toks(8, 0);
        let table = BlockTable::reserve(&p, 8).unwrap();
        publish(&cache, &p, &prompt, table.blocks());

        // Probe shares block 0 fully and 2 rows of block 1.
        let probe = [0, 1, 2, 3, 4, 5, 99];
        let hit = cache.lookup(&probe);
        assert_eq!(hit.tokens, 4);
        assert_eq!(hit.blocks, filled(&table.blocks()[..1]));
        assert_eq!(hit.tail, Some((CachedBlock::Filled(table.blocks()[1]), 2)));
        assert_eq!(hit.matched_tokens(), 6);

        // Probe diverging inside the first block: tail only.
        let hit = cache.lookup(&[0, 1, 7, 7]);
        assert_eq!(hit.tokens, 0);
        assert_eq!(hit.tail, Some((CachedBlock::Filled(table.blocks()[0]), 2)));
    }

    #[test]
    fn eviction_is_lru_leaf_first_and_refuses_claims_and_reuse() {
        let p = pool(16);
        let cache = PrefixCache::new(4);

        cache.begin_round(); // round 1
        let cold = toks(4, 100);
        let mut t_cold = BlockTable::reserve(&p, 4).unwrap();
        let cold_block = t_cold.blocks()[0];
        publish(&cache, &p, &cold, t_cold.blocks());
        t_cold.release(&p).unwrap();

        cache.begin_round(); // round 2
        let warm = toks(8, 0);
        let mut t_warm = BlockTable::reserve(&p, 8).unwrap();
        let warm_blocks = t_warm.blocks().to_vec();
        publish(&cache, &p, &warm, &warm_blocks);
        t_warm.release(&p).unwrap();

        cache.begin_round(); // round 3: nothing claimed yet
                             // Coldest leaf is the round-1 entry; the warm chain would go
                             // leaf-first (deep block before its parent) next.
        assert_eq!(cache.evict_lru(&p, 1).unwrap(), 1);
        assert_eq!(p.ref_count(cold_block).unwrap(), 0, "cold entry gone");
        assert_eq!(cache.held_blocks(), 2);

        // A lookup this round claims the warm chain: eviction refused.
        let hit = cache.lookup(&warm[..7]);
        assert_eq!(hit.blocks.len(), 1);
        assert!(hit.tail.is_some());
        assert_eq!(cache.evict_lru(&p, 2).unwrap(), 0, "claims protect hits");

        cache.begin_round(); // round 4: claims expire…
        let mut sharer = BlockTable::reserve_with_prefix(&p, &[warm_blocks[0]], 8).unwrap();
        // …but block 0 is mid-reuse (refcount 2: cache + sharer), and
        // the leaf (block 1) cannot be evicted either without breaking
        // the claim-free chain? No — the leaf is cache-only (refcount
        // 1) and cold, so exactly the leaf goes; the mid-reuse parent
        // is refused.
        assert_eq!(
            cache.evict_lru(&p, 2).unwrap(),
            1,
            "leaf evicts, parent refused"
        );
        assert_eq!(
            p.ref_count(warm_blocks[0]).unwrap(),
            2,
            "mid-reuse block survives"
        );
        assert_eq!(cache.held_blocks(), 1);
        sharer.release(&p).unwrap();

        cache.begin_round(); // round 5: no user left — parent evicts.
        assert_eq!(cache.evict_lru(&p, 1).unwrap(), 1);
        assert_eq!(cache.held_blocks(), 0);
        assert_eq!(p.used_blocks(), 0);
    }

    #[test]
    fn reinsertion_after_eviction() {
        let p = pool(8);
        let cache = PrefixCache::new(4);
        cache.begin_round();
        let prompt = toks(4, 0);
        let mut t = BlockTable::reserve(&p, 4).unwrap();
        publish(&cache, &p, &prompt, t.blocks());
        t.release(&p).unwrap();

        cache.begin_round();
        assert_eq!(cache.evict_lru(&p, 1).unwrap(), 1);
        assert_eq!(p.used_blocks(), 0);
        assert_eq!(cache.lookup(&prompt).matched_tokens(), 0);

        // Fresh producer re-caches the same tokens under a new block.
        let mut t2 = BlockTable::reserve(&p, 4).unwrap();
        assert_eq!(publish(&cache, &p, &prompt, t2.blocks()), 1);
        let hit = cache.lookup(&prompt);
        assert_eq!(hit.blocks, filled(t2.blocks()));
        t2.release(&p).unwrap();
        cache.flush(&p).unwrap();
        assert_eq!(p.used_blocks(), 0);
    }

    #[test]
    fn first_wins_on_colliding_inserts() {
        let p = pool(8);
        let cache = PrefixCache::new(4);
        cache.begin_round();
        let prompt = toks(4, 0);
        let a = BlockTable::reserve(&p, 4).unwrap();
        let b = BlockTable::reserve(&p, 4).unwrap();
        assert_eq!(publish(&cache, &p, &prompt, a.blocks()), 1);
        assert_eq!(publish(&cache, &p, &prompt, b.blocks()), 0);
        assert_eq!(cache.lookup(&prompt).blocks, filled(a.blocks()));
        assert_eq!(cache.held_blocks(), 1);
    }

    #[test]
    fn flush_returns_every_block() {
        let p = pool(16);
        let cache = PrefixCache::new(4);
        cache.begin_round();
        for base in [0u32, 500, 1000] {
            let prompt = toks(8, base);
            let mut t = BlockTable::reserve(&p, 8).unwrap();
            publish(&cache, &p, &prompt, t.blocks());
            t.release(&p).unwrap();
        }
        assert_eq!(cache.held_blocks(), 6);
        assert_eq!(p.used_blocks(), 6);
        assert_eq!(cache.flush(&p).unwrap(), 6);
        assert_eq!(p.used_blocks(), 0);
        assert_eq!(cache.held_blocks(), 0);
    }

    #[test]
    fn lookup_over_pending_nodes_reports_their_producers() {
        let p = pool(8);
        let cache = PrefixCache::new(4);
        cache.begin_round();
        // Producer 3 promises two pages; producer 5 extends them by one.
        let prompt = toks(12, 0);
        assert_eq!(cache.insert_pending(&prompt[..8], 3), 2);
        assert_eq!(cache.insert_pending(&prompt, 5), 1, "shared pages exist");

        let hit = cache.lookup(&prompt[..11]);
        assert_eq!(hit.tokens, 8);
        assert_eq!(
            hit.blocks,
            vec![CachedBlock::Pending(3), CachedBlock::Pending(3)]
        );
        assert_eq!(hit.tail, Some((CachedBlock::Pending(5), 3)));
        assert_eq!(hit.producers(), vec![3, 5]);
        assert_eq!(cache.resident(&prompt[..4]), None, "nothing is filled yet");
        // A pending page alone is never a sub-page tail: waiting on a
        // producer for less than a page is not worth it.
        assert_eq!(cache.lookup(&[0, 1, 99]).matched_tokens(), 0);
        assert_eq!(cache.metrics().hits, 1, "a pending hit is a hit");
        assert_eq!(cache.metrics().misses, 1);
        assert_eq!(cache.held_blocks(), 0, "promises hold no block");
        assert_eq!(p.used_blocks(), 0);
    }

    #[test]
    fn insert_fills_pending_nodes() {
        let p = pool(8);
        let cache = PrefixCache::new(4);
        cache.begin_round();
        let prompt = toks(8, 0);
        cache.insert_pending(&prompt, 0);
        let table = BlockTable::reserve(&p, 8).unwrap();
        // Only the promising producer fills its pages.
        assert_eq!(cache.insert(&p, &prompt, table.blocks(), 1).unwrap(), 0);
        assert_eq!(cache.insert(&p, &prompt, table.blocks(), 0).unwrap(), 2);
        assert_eq!(cache.held_blocks(), 2);
        assert_eq!(p.ref_count(table.blocks()[0]).unwrap(), 2);
        assert_eq!(cache.resident(&prompt), Some(table.blocks().to_vec()));
        assert_eq!(cache.metrics().hits, 0, "resident does not count");

        // Filled nodes still win a later collision.
        let other = BlockTable::reserve(&p, 8).unwrap();
        assert_eq!(cache.insert(&p, &prompt, other.blocks(), 0).unwrap(), 0);
        assert_eq!(cache.lookup(&prompt).blocks, filled(table.blocks()));
    }

    #[test]
    fn insert_never_adds_unpromised_pages() {
        let p = pool(8);
        let cache = PrefixCache::new(4);
        cache.begin_round();
        // Producer 0 promises nothing beyond an existing filled page: its
        // insert walks through that page and stops at the vacant slot.
        let prompt = toks(8, 0);
        let mut first = BlockTable::reserve(&p, 4).unwrap();
        publish(&cache, &p, &prompt[..4], first.blocks());
        first.release(&p).unwrap();
        cache.begin_round();
        assert_eq!(cache.insert_pending(&prompt[..4], 1), 0);
        let table = BlockTable::reserve(&p, 8).unwrap();
        assert_eq!(cache.insert(&p, &prompt, table.blocks(), 1).unwrap(), 0);
        // Evicted between promise and fill, a walked-through page leaves
        // a vacant slot the insert does not fill either.
        cache.begin_round();
        assert_eq!(cache.evict_lru(&p, 1).unwrap(), 1);
        assert_eq!(cache.insert(&p, &prompt, table.blocks(), 1).unwrap(), 0);
        assert_eq!(cache.held_blocks(), 0);
        assert_eq!(p.used_blocks(), 2, "only the producer's own pages");
    }

    #[test]
    fn eviction_and_flush_never_touch_pending_nodes() {
        let p = pool(8);
        let cache = PrefixCache::new(4);
        cache.begin_round();
        // A cold filled chain of one page with a pending child below it,
        // plus a pending page of its own.
        let prompt = toks(8, 0);
        let mut t = BlockTable::reserve(&p, 4).unwrap();
        publish(&cache, &p, &prompt[..4], t.blocks());
        t.release(&p).unwrap();
        cache.begin_round();
        assert_eq!(cache.insert_pending(&prompt, 1), 1);
        assert_eq!(cache.insert_pending(&toks(4, 100), 2), 1);

        // The filled page is an interior node now, the rest is pending:
        // nothing is evictable.
        assert_eq!(cache.evict_lru(&p, 4).unwrap(), 0);
        assert_eq!(cache.held_blocks(), 1);
        assert_eq!(cache.lookup(&prompt).producers(), vec![1]);

        // Flush returns the one filled page and drops the promises.
        assert_eq!(cache.flush(&p).unwrap(), 1);
        assert_eq!(p.used_blocks(), 0);
        assert_eq!(cache.lookup(&prompt).matched_tokens(), 0);
    }

    #[test]
    fn begin_round_drops_unfilled_nodes_and_leaves_the_pool_alone() {
        let p = pool(8);
        let cache = PrefixCache::new(4);
        cache.begin_round();
        let kept = toks(4, 0);
        let mut t = BlockTable::reserve(&p, 4).unwrap();
        let kept_block = t.blocks()[0];
        publish(&cache, &p, &kept, t.blocks());
        t.release(&p).unwrap();
        // Producer 1 extends the filled page; producer 2 never runs.
        let mut longer = kept.clone();
        longer.extend(toks(4, 50));
        cache.insert_pending(&longer, 1);
        cache.insert_pending(&toks(8, 200), 2);
        let before = p.stats();

        cache.begin_round();
        let after = p.stats();
        assert_eq!(
            (after.used_blocks, after.free_blocks),
            (before.used_blocks, before.free_blocks)
        );
        assert_eq!(cache.held_blocks(), 1);
        let hit = cache.lookup(&longer);
        assert_eq!(hit.blocks, filled(&[kept_block]), "filled parent kept");
        assert_eq!(cache.lookup(&toks(8, 200)).matched_tokens(), 0);
    }

    #[test]
    fn drop_pending_withdraws_one_producer() {
        let cache = PrefixCache::new(4);
        cache.begin_round();
        let a = toks(8, 0);
        let mut b = toks(4, 0);
        b.extend(toks(4, 70));
        cache.insert_pending(&a, 0);
        cache.insert_pending(&b, 1);
        cache.drop_pending(0);
        // Producer 0's first page carries producer 1's child: it stays.
        assert_eq!(cache.lookup(&b).producers(), vec![0, 1]);
        assert_eq!(cache.lookup(&a).tokens, 4, "leaf of producer 0 gone");
        cache.drop_pending(1);
        cache.drop_pending(0);
        assert_eq!(cache.lookup(&a).matched_tokens(), 0);
    }

    #[test]
    fn closed_promises_still_fill_and_resolve_then_evict_as_a_subtree() {
        let p = pool(8);
        let cache = PrefixCache::new(4);
        cache.begin_round();
        // Producer 0 promises two pages; its reader 1 promises a third
        // below them.
        let prompt = toks(12, 0);
        assert_eq!(cache.insert_pending(&prompt[..8], 0), 2);
        assert_eq!(cache.lookup(&prompt[..11]).producers(), vec![0]);
        assert_eq!(cache.insert_pending(&prompt, 1), 1);

        // Closed: later lookups and promises stop above its pages.
        cache.close_pending(0);
        assert_eq!(cache.lookup(&prompt[..11]).matched_tokens(), 0);
        assert_eq!(cache.insert_pending(&prompt, 2), 0);

        // The planned producers still fill, the reader still resolves.
        let producer = BlockTable::reserve(&p, 8).unwrap();
        assert_eq!(cache.insert(&p, &prompt, producer.blocks(), 0).unwrap(), 2);
        let mut reader = BlockTable::reserve_with_prefix(&p, producer.blocks(), 12).unwrap();
        assert_eq!(
            cache.resident(&prompt[..8]),
            Some(producer.blocks().to_vec())
        );
        assert_eq!(cache.insert(&p, &prompt, reader.blocks(), 1).unwrap(), 1);
        assert_eq!(cache.held_blocks(), 3);

        // Pages in use stay, with their ancestors.
        assert_eq!(cache.evict_subtree(&p, &prompt[..4]).unwrap(), 0);
        reader.release(&p).unwrap();
        let mut producer = producer;
        producer.release(&p).unwrap();
        // Once producer and reader are done, the subtree goes at once,
        // claims notwithstanding.
        assert_eq!(cache.evict_subtree(&p, &prompt[..4]).unwrap(), 3);
        assert_eq!(cache.held_blocks(), 0);
        assert_eq!(p.used_blocks(), 0);
        assert_eq!(cache.metrics().evicted_blocks, 3);
        // Reopened next round.
        cache.begin_round();
        assert_eq!(cache.insert_pending(&prompt, 3), 3);
    }
}
