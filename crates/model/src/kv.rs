//! Per-layer key/value cache.
//!
//! The KV cache is one of the custom operators llm.npu implements on top of
//! QNN (§4). Its semantic role in this reproduction is the chunk-level
//! causal dependency of §3.2: chunk *i*'s attention reads the keys/values
//! appended by chunks `0..i`, which is exactly the cross-chunk dependency
//! the scheduler must respect (Equation 2).

use std::sync::Arc;

use llmnpu_kv::{BlockPool, BlockTable};
use llmnpu_tensor::Tensor;

use crate::{Error, Result};

/// Key/value storage for one layer: rows are token positions, columns are
/// the `kv_dim` feature width.
///
/// Keys and values live in **flat contiguous** `[len, kv_dim]` tensors
/// that grow in place (amortized, no per-position heap allocation — the
/// seed held one `Vec` per token position and re-materialized the full
/// history on every attention call). [`LayerKv::keys_tensor`] /
/// [`LayerKv::values_tensor`] are zero-copy borrows of that storage.
#[derive(Debug, Clone)]
pub struct LayerKv {
    keys: Tensor<f32>,
    values: Tensor<f32>,
}

impl Default for LayerKv {
    fn default() -> Self {
        LayerKv {
            keys: Tensor::zeros([0, 0]),
            values: Tensor::zeros([0, 0]),
        }
    }
}

/// Extends a flat `[rows, width]` tensor with `new_rows` more rows.
fn grow(t: &mut Tensor<f32>, src: &Tensor<f32>, rows: usize, new_rows: usize, width: usize) {
    let grown = std::mem::replace(t, Tensor::zeros([0, 0]));
    let mut data = grown.into_vec();
    data.extend_from_slice(src.as_slice());
    *t = Tensor::from_vec(data, [rows + new_rows, width]).expect("kv growth arithmetic");
}

impl LayerKv {
    /// Number of cached positions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.keys.matrix_dims().0
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends `rows` new positions from `[rows, kv_dim]` tensors.
    ///
    /// # Errors
    ///
    /// Returns an error if key/value shapes disagree, or if the feature
    /// width differs from previously appended positions.
    pub fn append(&mut self, k: &Tensor<f32>, v: &Tensor<f32>) -> Result<()> {
        if k.shape() != v.shape() {
            return Err(Error::Tensor(llmnpu_tensor::Error::ShapeMismatch {
                op: "kv_append",
                lhs: k.shape().dims().to_vec(),
                rhs: v.shape().dims().to_vec(),
            }));
        }
        let (rows, width) = k.matrix_dims();
        let (cur, cur_width) = self.keys.matrix_dims();
        if cur > 0 && width != cur_width {
            return Err(Error::Tensor(llmnpu_tensor::Error::ShapeMismatch {
                op: "kv_append",
                lhs: vec![cur, cur_width],
                rhs: k.shape().dims().to_vec(),
            }));
        }
        grow(&mut self.keys, k, cur, rows, width);
        grow(&mut self.values, v, cur, rows, width);
        Ok(())
    }

    /// All cached keys as a `[len, kv_dim]` tensor — a zero-copy borrow
    /// of the flat storage.
    ///
    /// # Errors
    ///
    /// Returns an error only if the cache is empty (no width known).
    pub fn keys_tensor(&self) -> Result<&Tensor<f32>> {
        check_non_empty("kv_keys", &self.keys)
    }

    /// All cached values as a `[len, kv_dim]` tensor — a zero-copy borrow
    /// of the flat storage.
    ///
    /// # Errors
    ///
    /// Returns an error only if the cache is empty.
    pub fn values_tensor(&self) -> Result<&Tensor<f32>> {
        check_non_empty("kv_values", &self.values)
    }

    /// Elements held (keys + values).
    pub(crate) fn elements(&self) -> usize {
        self.keys.len() + self.values.len()
    }
}

fn check_non_empty<'a>(op: &'static str, t: &'a Tensor<f32>) -> Result<&'a Tensor<f32>> {
    if t.is_empty() {
        return Err(Error::Tensor(llmnpu_tensor::Error::InvalidDimension {
            op,
            what: "empty kv cache".to_owned(),
        }));
    }
    Ok(t)
}

/// KV caches for every layer of a model.
#[derive(Debug, Clone, Default)]
pub struct KvCache {
    layers: Vec<LayerKv>,
}

impl KvCache {
    /// Creates an empty cache for `layers` layers.
    #[must_use]
    pub fn new(layers: usize) -> Self {
        KvCache {
            layers: vec![LayerKv::default(); layers],
        }
    }

    /// Number of layers.
    #[must_use]
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }

    /// Cached sequence length (positions in layer 0).
    #[must_use]
    pub fn seq_len(&self) -> usize {
        self.layers.first().map_or(0, LayerKv::len)
    }

    /// Access one layer's cache.
    ///
    /// # Errors
    ///
    /// Returns [`Error::LayerOutOfRange`] for a bad index.
    pub fn layer(&self, idx: usize) -> Result<&LayerKv> {
        self.layers.get(idx).ok_or(Error::LayerOutOfRange {
            layer: idx,
            layers: self.layers.len(),
        })
    }

    /// Mutable access to one layer's cache.
    ///
    /// # Errors
    ///
    /// Returns [`Error::LayerOutOfRange`] for a bad index.
    pub fn layer_mut(&mut self, idx: usize) -> Result<&mut LayerKv> {
        let layers = self.layers.len();
        self.layers
            .get_mut(idx)
            .ok_or(Error::LayerOutOfRange { layer: idx, layers })
    }

    /// Bytes held by the cache assuming `dtype_bytes` per element.
    #[must_use]
    pub fn bytes(&self, dtype_bytes: usize) -> u64 {
        let elems: usize = self.layers.iter().map(LayerKv::elements).sum();
        (elems * dtype_bytes) as u64
    }
}

/// A request's KV cache backed by the shared paged [`BlockPool`]
/// (`llmnpu-kv`): block-table addressing instead of private contiguous
/// growth.
///
/// This is the serving-side sibling of [`KvCache`]: same per-layer
/// `[len, kv_dim]` semantics, but rows live in fixed pool pages named by
/// a per-request [`BlockTable`], so
///
/// * capacity is **reserved** against the pool (admission by free
///   pages),
/// * a common prompt prefix can start on pages another request
///   computed and published to the prefix cache
///   ([`PagedKvCache::reserve_with_prefix`]: ref-counted blocks,
///   copy-on-write on divergence), and
/// * eviction is `release()` — pages go back to the pool and the
///   request can be recomputed later.
///
/// Positions are absolute and writes are position-addressed, matching
/// the out-of-order prefill executor's invariant. Attention reads go
/// through [`PagedKvCache::view`] as whole-page slices — the gather-free
/// loop `forward::attention_over_pages` consumes, bit-identical to the
/// contiguous path.
#[derive(Debug)]
pub struct PagedKvCache {
    pool: Arc<BlockPool>,
    table: BlockTable,
}

impl PagedKvCache {
    /// Reserves pool capacity for `tokens` positions (every block
    /// fresh).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Kv`] if the pool cannot supply the pages.
    pub fn reserve(pool: &Arc<BlockPool>, tokens: usize) -> Result<Self> {
        Ok(PagedKvCache {
            pool: Arc::clone(pool),
            table: BlockTable::reserve(pool, tokens)?,
        })
    }

    /// Reserves capacity for `total_tokens` on top of already-resident
    /// **cached** prefix blocks (a hit in the global radix prefix cache,
    /// `llmnpu_kv::prefix` — the one way caches share a prompt prefix):
    /// the cached blocks are retained by id and the remainder allocated
    /// fresh.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Kv`] if any prefix block is invalid or free, or
    /// on pool exhaustion (the retain is rolled back).
    pub fn reserve_with_prefix(
        pool: &Arc<BlockPool>,
        prefix_blocks: &[llmnpu_kv::BlockId],
        total_tokens: usize,
    ) -> Result<Self> {
        Ok(PagedKvCache {
            pool: Arc::clone(pool),
            table: BlockTable::reserve_with_prefix(pool, prefix_blocks, total_tokens)?,
        })
    }

    /// The backing pool.
    #[must_use]
    pub fn pool(&self) -> &Arc<BlockPool> {
        &self.pool
    }

    /// The request's block table.
    #[must_use]
    pub fn table(&self) -> &BlockTable {
        &self.table
    }

    /// Reserved token capacity.
    #[must_use]
    pub fn capacity_tokens(&self) -> usize {
        self.table.capacity_tokens()
    }

    /// Writes one position's K/V rows in one layer (copy-on-write if the
    /// position's block is shared).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Kv`] on bad addressing or width.
    pub fn write_position(
        &mut self,
        layer: usize,
        pos: usize,
        k_row: &[f32],
        v_row: &[f32],
    ) -> Result<()> {
        self.table.write_row(&self.pool, layer, pos, k_row, v_row)?;
        Ok(())
    }

    /// Runs `f` over the first `visible_rows` cached positions of one
    /// layer as whole-page K/V slices.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Kv`] if `visible_rows` exceeds capacity.
    pub fn view<R>(
        &self,
        layer: usize,
        visible_rows: usize,
        f: impl FnOnce(&[&[f32]], &[&[f32]]) -> R,
    ) -> Result<R> {
        Ok(self.table.with_pages(&self.pool, layer, visible_rows, f)?)
    }

    /// Returns every page to the pool (eviction / request completion).
    /// Returns the number of blocks that became free.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Kv`] on a double release.
    pub fn release(&mut self) -> Result<usize> {
        Ok(self.table.release(&self.pool)?)
    }

    /// A read-only snapshot of this cache (shared pool handle + a copy
    /// of the block list, **no** refcount change), so a reader can drop
    /// whatever lock owns the cache before the page walk — long
    /// attention reads must not serialize against the owner's lock.
    ///
    /// Sound only while the owning cache is alive and not released:
    /// the serving executor's dependency edges guarantee a request's
    /// eviction/release never overlaps its own attention tasks, and
    /// prefix-shared blocks are never rewritten (appends land in fresh
    /// blocks, so the owner's concurrent copy-on-write can't swap a
    /// snapshot block out from under a reader).
    #[must_use]
    pub fn reader(&self) -> PagedKvReader {
        PagedKvReader {
            pool: Arc::clone(&self.pool),
            table: self.table.clone(),
        }
    }
}

/// A detached read-only view of a [`PagedKvCache`] — see
/// [`PagedKvCache::reader`] for the validity contract.
#[derive(Debug, Clone)]
pub struct PagedKvReader {
    pool: Arc<BlockPool>,
    table: BlockTable,
}

impl PagedKvReader {
    /// Runs `f` over the first `visible_rows` cached positions of one
    /// layer as whole-page K/V slices (the same walk as
    /// [`PagedKvCache::view`]).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Kv`] if `visible_rows` exceeds capacity.
    pub fn view<R>(
        &self,
        layer: usize,
        visible_rows: usize,
        f: impl FnOnce(&[&[f32]], &[&[f32]]) -> R,
    ) -> Result<R> {
        Ok(self.table.with_pages(&self.pool, layer, visible_rows, f)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kv_pair(rows: usize, width: usize, base: f32) -> (Tensor<f32>, Tensor<f32>) {
        let k = Tensor::from_vec(
            (0..rows * width).map(|i| base + i as f32).collect(),
            [rows, width],
        )
        .unwrap();
        let v = Tensor::from_vec(
            (0..rows * width).map(|i| -(base + i as f32)).collect(),
            [rows, width],
        )
        .unwrap();
        (k, v)
    }

    #[test]
    fn append_accumulates_positions() {
        let mut cache = KvCache::new(2);
        let (k, v) = kv_pair(3, 4, 0.0);
        cache.layer_mut(0).unwrap().append(&k, &v).unwrap();
        assert_eq!(cache.seq_len(), 3);
        let (k2, v2) = kv_pair(2, 4, 100.0);
        cache.layer_mut(0).unwrap().append(&k2, &v2).unwrap();
        assert_eq!(cache.layer(0).unwrap().len(), 5);
        // Layer 1 untouched.
        assert!(cache.layer(1).unwrap().is_empty());
    }

    #[test]
    fn tensors_round_trip() {
        let mut cache = KvCache::new(1);
        let (k, v) = kv_pair(2, 3, 1.0);
        cache.layer_mut(0).unwrap().append(&k, &v).unwrap();
        let kt = cache.layer(0).unwrap().keys_tensor().unwrap();
        assert_eq!(kt.shape().dims(), &[2, 3]);
        assert_eq!(kt.as_slice(), k.as_slice());
        let vt = cache.layer(0).unwrap().values_tensor().unwrap();
        assert_eq!(vt.as_slice(), v.as_slice());
    }

    #[test]
    fn chunked_appends_equal_one_big_append() {
        // The §3.2 invariant at the cache level.
        let (k, v) = kv_pair(6, 4, 0.0);
        let mut whole = LayerKv::default();
        whole.append(&k, &v).unwrap();

        let mut chunked = LayerKv::default();
        for chunk in 0..3 {
            let rows: Vec<f32> = (chunk * 2 * 4..(chunk + 1) * 2 * 4)
                .map(|i| i as f32)
                .collect();
            let kc = Tensor::from_vec(rows.clone(), [2, 4]).unwrap();
            let vc = Tensor::from_vec(rows.iter().map(|&x| -x).collect(), [2, 4]).unwrap();
            chunked.append(&kc, &vc).unwrap();
        }
        assert_eq!(
            whole.keys_tensor().unwrap().as_slice(),
            chunked.keys_tensor().unwrap().as_slice()
        );
    }

    #[test]
    fn mismatched_kv_shapes_rejected() {
        let mut cache = LayerKv::default();
        let (k, _) = kv_pair(2, 3, 0.0);
        let (_, v) = kv_pair(2, 4, 0.0);
        assert!(cache.append(&k, &v).is_err());
    }

    #[test]
    fn empty_cache_errors_on_tensor_view() {
        let cache = LayerKv::default();
        assert!(cache.keys_tensor().is_err());
    }

    #[test]
    fn inconsistent_widths_across_appends_rejected() {
        let mut cache = LayerKv::default();
        let (k, v) = kv_pair(2, 3, 0.0);
        cache.append(&k, &v).unwrap();
        let (k2, v2) = kv_pair(2, 4, 0.0);
        assert!(cache.append(&k2, &v2).is_err());
        // The failed append must not have corrupted the cache.
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.keys_tensor().unwrap().shape().dims(), &[2, 3]);
    }

    #[test]
    fn layer_bounds_checked() {
        let mut cache = KvCache::new(2);
        assert!(cache.layer(2).is_err());
        assert!(cache.layer_mut(5).is_err());
    }

    #[test]
    fn bytes_accounts_keys_and_values() {
        let mut cache = KvCache::new(1);
        let (k, v) = kv_pair(4, 8, 0.0);
        cache.layer_mut(0).unwrap().append(&k, &v).unwrap();
        assert_eq!(cache.bytes(2), (4 * 8 * 2 * 2) as u64);
    }
}
