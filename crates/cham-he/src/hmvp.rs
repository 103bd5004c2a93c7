//! Homomorphic matrix-vector product (paper Alg. 1), with tiling.
//!
//! For an `m × n` matrix `A` and encrypted vector `v`:
//!
//! 1. `v` is coefficient-encoded and encrypted (augmented basis), one
//!    ciphertext per `N`-column tile,
//! 2. every row tile is encoded per Eq. 1 and lifted to NTT form
//!    (precomputable — the matrix is plaintext),
//! 3. **dot product**: NTT-domain multiply-accumulate across column tiles
//!    (pipeline stages 1–3),
//! 4. **rescale** by the special modulus (stage 4),
//! 5. **extract** the constant coefficient as an LWE ciphertext (stage 4),
//! 6. **pack** the `m` LWEs into `⌈m/N⌉` RLWE ciphertexts (stages 5–9).
//!
//! Complexity is `O(m)` ciphertext operations — the paper's headline
//! advantage over batch-encoded HMVP's `O(m log N)` (§II-E). Together with
//! mini-batching this supports "data of any scale" (§V-B.3).

use crate::ciphertext::{LweCiphertext, RlweCiphertext};
use crate::encoding::CoeffEncoder;
use crate::encrypt::{Decryptor, Encryptor};
use crate::extract::{extract_lwe, rescale_extract};
use crate::keys::GaloisKeys;
use crate::ops::{lift_plaintext_ntt, rescale};
use crate::pack::{pack_lwes, PackedRlwe};
use crate::params::ChamParams;
use crate::{HeError, Result};
use cham_math::rns::{FusedAccumulator, RnsPoly};
use cham_telemetry::span::{phase, Span};
use rand::Rng;
use std::sync::Arc;

/// A dense row-major matrix over `Z_t`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<u64>,
}

impl Matrix {
    /// Builds a matrix from row-major data.
    ///
    /// # Errors
    /// [`HeError::ShapeMismatch`] when `data.len() != rows * cols`.
    pub fn from_data(rows: usize, cols: usize, data: Vec<u64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(HeError::ShapeMismatch {
                expected: rows * cols,
                got: data.len(),
            });
        }
        Ok(Self { rows, cols, data })
    }

    /// A random matrix with entries below `t`.
    pub fn random<R: Rng + ?Sized>(rows: usize, cols: usize, t: u64, rng: &mut R) -> Self {
        let data = (0..rows * cols).map(|_| rng.gen_range(0..t)).collect();
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row `i` as a slice.
    ///
    /// # Panics
    /// Panics when `i >= rows`.
    pub fn row(&self, i: usize) -> &[u64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Plain (reference) matrix-vector product mod `t`.
    ///
    /// # Errors
    /// [`HeError::ShapeMismatch`] when `v.len() != cols`.
    pub fn mul_vector_mod(&self, v: &[u64], t: &cham_math::Modulus) -> Result<Vec<u64>> {
        if v.len() != self.cols {
            return Err(HeError::ShapeMismatch {
                expected: self.cols,
                got: v.len(),
            });
        }
        Ok((0..self.rows)
            .map(|i| {
                self.row(i)
                    .iter()
                    .zip(v)
                    .fold(0u64, |acc, (&a, &x)| t.add(acc, t.mul(a, t.reduce(x))))
            })
            .collect())
    }
}

/// A matrix pre-encoded for HMVP: per row, per column tile, the Eq. 1
/// plaintext lifted to NTT form over the augmented basis.
///
/// The prepared tiles live behind an `Arc`, so `clone()` is a cheap handle
/// copy — a cache can hand the same NTT-form encoding to many workers
/// without duplicating `rows × col_tiles` polynomials.
#[derive(Debug, Clone)]
pub struct EncodedMatrix {
    rows: usize,
    cols: usize,
    /// `rows × col_tiles` prepared plaintexts (shared, immutable).
    tiles: Arc<Vec<Vec<RnsPoly>>>,
}

impl EncodedMatrix {
    /// Number of column tiles (`⌈cols/N⌉`).
    pub fn col_tiles(&self) -> usize {
        self.tiles.first().map_or(0, Vec::len)
    }

    /// Matrix shape `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Rebuilds an encoded matrix from already-prepared tiles (the
    /// wire/restore path — tiles must be NTT-form over the augmented
    /// basis, exactly as [`Hmvp::encode_matrix`] produces them).
    pub(crate) fn from_tiles(rows: usize, cols: usize, tiles: Vec<Vec<RnsPoly>>) -> Self {
        Self {
            rows,
            cols,
            tiles: Arc::new(tiles),
        }
    }

    /// The prepared tiles, row-major.
    pub(crate) fn tiles(&self) -> &[Vec<RnsPoly>] {
        &self.tiles
    }
}

/// The packed result of an HMVP: `⌈m/N⌉` packed ciphertexts covering the
/// `m` output entries in order.
#[derive(Debug, Clone)]
pub struct HmvpResult {
    /// Packed outputs, each covering up to `N` entries.
    pub packed: Vec<PackedRlwe>,
    /// Total number of output entries (`m`).
    pub len: usize,
}

/// The HMVP engine: encodes, multiplies, and decodes.
///
/// The parameter set is held behind an `Arc`: [`Hmvp::new`] clones the
/// parameters once, while [`Hmvp::from_arc`] shares an existing handle —
/// so a session cache can mint one engine per worker at pointer cost.
#[derive(Debug, Clone)]
pub struct Hmvp {
    params: Arc<ChamParams>,
    coder: CoeffEncoder,
}

impl Hmvp {
    /// Creates an HMVP engine for the parameter set.
    pub fn new(params: &ChamParams) -> Self {
        Self::from_arc(Arc::new(params.clone()))
    }

    /// Creates an HMVP engine sharing an existing parameter handle
    /// without cloning the parameter set.
    pub fn from_arc(params: Arc<ChamParams>) -> Self {
        let coder = CoeffEncoder::from_arc(Arc::clone(&params));
        Self { params, coder }
    }

    /// The parameter set the engine operates over.
    #[inline]
    pub fn params(&self) -> &ChamParams {
        &self.params
    }

    /// The coefficient encoder in use.
    #[inline]
    pub fn encoder(&self) -> &CoeffEncoder {
        &self.coder
    }

    /// Encrypts a vector as `⌈len/N⌉` augmented-basis ciphertexts.
    ///
    /// # Errors
    /// [`HeError::InvalidParams`] for an empty vector.
    pub fn encrypt_vector<R: Rng + ?Sized>(
        &self,
        v: &[u64],
        enc: &Encryptor,
        rng: &mut R,
    ) -> Result<Vec<RlweCiphertext>> {
        if v.is_empty() {
            return Err(HeError::InvalidParams("vector must be non-empty"));
        }
        let n = self.params.degree();
        v.chunks(n)
            .map(|chunk| {
                let pt = self.coder.encode_vector(chunk)?;
                Ok(enc.encrypt_augmented(&pt, rng))
            })
            .collect()
    }

    /// Pre-encodes a matrix: every row tile becomes an NTT-form plaintext
    /// (done once; reusable across many vectors).
    ///
    /// # Errors
    /// [`HeError::InvalidParams`] for an empty matrix.
    pub fn encode_matrix(&self, a: &Matrix) -> Result<EncodedMatrix> {
        if a.rows() == 0 || a.cols() == 0 {
            return Err(HeError::InvalidParams("matrix must be non-empty"));
        }
        let n = self.params.degree();
        let aug = self.params.augmented_context();
        let tiles = (0..a.rows())
            .map(|i| {
                a.row(i)
                    .chunks(n)
                    .map(|chunk| {
                        let pt = self.coder.encode_row(chunk)?;
                        lift_plaintext_ntt(&pt, &self.params, aug)
                    })
                    .collect::<Result<Vec<_>>>()
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(EncodedMatrix {
            rows: a.rows(),
            cols: a.cols(),
            tiles: Arc::new(tiles),
        })
    }

    /// Computes the dot-product/extract phase: one LWE ciphertext per row
    /// (Alg. 1 lines 1–4).
    ///
    /// # Errors
    /// [`HeError::ShapeMismatch`] when the ciphertext count differs from
    /// the matrix's column tiling.
    pub fn dot_products(
        &self,
        matrix: &EncodedMatrix,
        cts: &[RlweCiphertext],
    ) -> Result<Vec<LweCiphertext>> {
        if cts.len() != matrix.col_tiles() {
            return Err(HeError::ShapeMismatch {
                expected: matrix.col_tiles(),
                got: cts.len(),
            });
        }
        let cts_ntt = Self::lift_inputs_ntt(cts);
        matrix
            .tiles
            .iter()
            .map(|row_tiles| self.dot_row(row_tiles, &cts_ntt))
            .collect()
    }

    /// Transforms the input ciphertexts to NTT form once; every matrix row
    /// reuses them (the pipeline keeps the vector resident in the NTT
    /// domain across the whole DOTPRODUCT stage, §V-B.1). The per-tile
    /// transforms are independent, so they fan out across the shared
    /// `cham-pool` thread pool.
    fn lift_inputs_ntt(cts: &[RlweCiphertext]) -> Vec<RlweCiphertext> {
        // Request-scoped phase span: free when no recorder is installed
        // (see cham_telemetry::span), so the kernel stays uninstrumented
        // outside the serving stack's traced requests.
        let _span = Span::enter(phase::ENCODE);
        cham_pool::map(cts, |_, ct| {
            let mut c = ct.clone();
            c.to_ntt();
            c
        })
    }

    /// One row's dot product against NTT-form inputs: fused pointwise
    /// multiply-accumulate per column tile ("a row residing in multiple
    /// ciphertexts needs to be aggregated", §V-B.2), then the fused
    /// rescale/extract tail ([`rescale_extract`]) for the row: one INTT
    /// per limb of `a`, none of `b`.
    ///
    /// Products are accumulated with reduction deferred
    /// ([`FusedAccumulator`]) into per-worker scratch, so the tile loop
    /// performs no modular correction and no heap allocation — bit-identical
    /// to the strict [`Hmvp::dot_products_unfused`] twin.
    fn dot_row(
        &self,
        row_tiles: &[cham_math::rns::RnsPoly],
        cts_ntt: &[RlweCiphertext],
    ) -> Result<LweCiphertext> {
        let aug = self.params.augmented_context();
        let lanes = aug.len() * aug.degree();
        let dot_span = Span::enter(phase::DOT);
        let (b, a) = crate::scratch::with_dot_scratch(lanes, |s| -> Result<_> {
            let mut b_acc = FusedAccumulator::new(aug, &mut s.b_acc)?;
            let mut a_acc = FusedAccumulator::new(aug, &mut s.a_acc)?;
            for (pt_ntt, ct) in row_tiles.iter().zip(cts_ntt) {
                b_acc.accumulate(ct.b(), pt_ntt)?;
                a_acc.accumulate(ct.a(), pt_ntt)?;
            }
            Ok((b_acc.finish(), a_acc.finish()))
        })?;
        drop(dot_span);
        let _span = Span::enter(phase::RESCALE);
        rescale_extract(RlweCiphertext::new(b, a)?, &self.params)
    }

    /// Strict-reduction, allocating twin of [`Hmvp::dot_row`] — kept for
    /// equivalence tests and the `fig8_hmvp` ablation column. Its tail is
    /// the reference [`rescale`] + [`extract_lwe`] pair, which pins the
    /// fused tail too.
    fn dot_row_unfused(
        &self,
        row_tiles: &[cham_math::rns::RnsPoly],
        cts_ntt: &[RlweCiphertext],
    ) -> Result<LweCiphertext> {
        let mut acc: Option<(cham_math::rns::RnsPoly, cham_math::rns::RnsPoly)> = None;
        for (pt_ntt, ct) in row_tiles.iter().zip(cts_ntt) {
            let b = ct.b().mul_pointwise(pt_ntt)?;
            let a = ct.a().mul_pointwise(pt_ntt)?;
            acc = Some(match acc {
                Some((xb, xa)) => (xb.add(&b)?, xa.add(&a)?),
                None => (b, a),
            });
        }
        let (b, a) = acc.expect("at least one column tile");
        let rescaled = rescale(&RlweCiphertext::new(b, a)?, &self.params)?;
        extract_lwe(&rescaled, 0)
    }

    /// Dot-product phase through the strict per-tile multiply/add path (no
    /// deferred reduction, two allocations per row×tile) — the ablation
    /// baseline for the fused kernel; results are bit-identical to
    /// [`Hmvp::dot_products`].
    ///
    /// # Errors
    /// Same conditions as [`Hmvp::dot_products`].
    pub fn dot_products_unfused(
        &self,
        matrix: &EncodedMatrix,
        cts: &[RlweCiphertext],
    ) -> Result<Vec<LweCiphertext>> {
        if cts.len() != matrix.col_tiles() {
            return Err(HeError::ShapeMismatch {
                expected: matrix.col_tiles(),
                got: cts.len(),
            });
        }
        let cts_ntt = Self::lift_inputs_ntt(cts);
        matrix
            .tiles
            .iter()
            .map(|row_tiles| self.dot_row_unfused(row_tiles, &cts_ntt))
            .collect()
    }

    /// Multi-threaded dot-product phase: rows fan out across the shared
    /// `cham-pool` work-stealing pool (the multi-thread host side of
    /// Fig. 1b; also the honest way to measure a parallel CPU baseline).
    /// `threads` caps the row-level parallelism; actual concurrency is
    /// additionally bounded by the pool's worker count. Results are
    /// bit-identical to [`Hmvp::dot_products`] at any thread count — every
    /// row's reduction runs whole on one task.
    ///
    /// # Errors
    /// Same conditions as [`Hmvp::dot_products`].
    pub fn dot_products_parallel(
        &self,
        matrix: &EncodedMatrix,
        cts: &[RlweCiphertext],
        threads: usize,
    ) -> Result<Vec<LweCiphertext>> {
        if cts.len() != matrix.col_tiles() {
            return Err(HeError::ShapeMismatch {
                expected: matrix.col_tiles(),
                got: cts.len(),
            });
        }
        let cts_ntt = Self::lift_inputs_ntt(cts);
        cham_pool::map_capped(&matrix.tiles, threads.max(1), |_, row_tiles| {
            self.dot_row(row_tiles, &cts_ntt)
        })
        .into_iter()
        .collect()
    }

    /// Full HMVP (Alg. 1): dot products, extraction, and packing.
    ///
    /// # Errors
    /// Propagates shape mismatches and missing Galois keys.
    pub fn multiply(
        &self,
        matrix: &EncodedMatrix,
        cts: &[RlweCiphertext],
        gkeys: &GaloisKeys,
    ) -> Result<HmvpResult> {
        cham_telemetry::counter_add!("cham_he.hmvp.multiply", 1);
        cham_telemetry::time_scope!("cham_he.hmvp.multiply");
        let lwes = self.dot_products(matrix, cts)?;
        let n = self.params.degree();
        let pack_span = Span::enter(phase::KEYSWITCH);
        let packed = lwes
            .chunks(n)
            .map(|chunk| pack_lwes(chunk, gkeys, &self.params))
            .collect::<Result<Vec<_>>>()?;
        drop(pack_span);
        Ok(HmvpResult {
            packed,
            len: matrix.rows,
        })
    }

    /// Full HMVP with the dot-product phase fanned out across the shared
    /// pool, capped at `threads` concurrent rows (packing parallelises
    /// per level inside [`pack_lwes`] — the reduction tree's pairs at one
    /// level are independent).
    ///
    /// # Errors
    /// Propagates shape mismatches and missing Galois keys.
    pub fn multiply_parallel(
        &self,
        matrix: &EncodedMatrix,
        cts: &[RlweCiphertext],
        gkeys: &GaloisKeys,
        threads: usize,
    ) -> Result<HmvpResult> {
        cham_telemetry::counter_add!("cham_he.hmvp.multiply", 1);
        cham_telemetry::time_scope!("cham_he.hmvp.multiply");
        let lwes = self.dot_products_parallel(matrix, cts, threads)?;
        let n = self.params.degree();
        let pack_span = Span::enter(phase::KEYSWITCH);
        let packed = lwes
            .chunks(n)
            .map(|chunk| pack_lwes(chunk, gkeys, &self.params))
            .collect::<Result<Vec<_>>>()?;
        drop(pack_span);
        Ok(HmvpResult {
            packed,
            len: matrix.rows,
        })
    }

    /// One coalesced dispatch of the same matrix against many encrypted
    /// vectors: the batch fans out across the shared `cham-pool` pool
    /// (capped at `threads` concurrent inputs), each task running the full
    /// per-vector pipeline (dot products + packing).
    ///
    /// This is the service-layer entry point: a batching scheduler that
    /// has coalesced `k` queued requests against one [`EncodedMatrix`]
    /// pays zero thread spawns — the work rides the persistent kernel
    /// pool, so many serve workers compose without oversubscribing the
    /// machine. Results come back in input order. A single-element batch
    /// falls through to [`Hmvp::multiply_parallel`] so the row-partitioned
    /// path still applies.
    ///
    /// # Errors
    /// Propagates shape mismatches and missing Galois keys; the first
    /// failing input aborts the batch.
    pub fn multiply_many(
        &self,
        matrix: &EncodedMatrix,
        inputs: &[Vec<RlweCiphertext>],
        gkeys: &GaloisKeys,
        threads: usize,
    ) -> Result<Vec<HmvpResult>> {
        cham_telemetry::counter_add!("cham_he.hmvp.multiply_many", 1);
        cham_telemetry::time_scope!("cham_he.hmvp.multiply_many");
        for cts in inputs {
            if cts.len() != matrix.col_tiles() {
                return Err(HeError::ShapeMismatch {
                    expected: matrix.col_tiles(),
                    got: cts.len(),
                });
            }
        }
        match inputs.len() {
            0 => Ok(Vec::new()),
            1 => Ok(vec![
                self.multiply_parallel(matrix, &inputs[0], gkeys, threads)?
            ]),
            _ => cham_pool::map_capped(inputs, threads.max(1), |_, cts| {
                self.multiply(matrix, cts, gkeys)
            })
            .into_iter()
            .collect(),
        }
    }

    /// Decrypts and decodes an HMVP result into the `m` output values.
    ///
    /// # Errors
    /// Decode-shape errors from the packing layer.
    pub fn decrypt_result(&self, result: &HmvpResult, dec: &Decryptor) -> Result<Vec<u64>> {
        let mut out = Vec::with_capacity(result.len);
        for packed in &result.packed {
            let pt = dec.decrypt(&packed.ciphertext);
            out.extend(packed.decode(&pt, &self.params)?);
        }
        out.truncate(result.len);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::SecretKey;
    use rand::SeedableRng;

    fn setup() -> (
        ChamParams,
        SecretKey,
        Encryptor,
        Decryptor,
        GaloisKeys,
        rand::rngs::StdRng,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2002);
        let params = ChamParams::insecure_test_default().unwrap();
        let sk = SecretKey::generate(&params, &mut rng);
        let enc = Encryptor::new(&params, &sk);
        let dec = Decryptor::new(&params, &sk);
        let gkeys = GaloisKeys::generate_for_packing(&sk, params.max_pack_log(), &mut rng).unwrap();
        (params, sk, enc, dec, gkeys, rng)
    }

    fn run_hmvp(m: usize, n_cols: usize) {
        let (params, _, enc, dec, gkeys, mut rng) = setup();
        let t = params.plain_modulus();
        let a = Matrix::random(m, n_cols, t.value(), &mut rng);
        let v: Vec<u64> = (0..n_cols).map(|_| rng.gen_range(0..t.value())).collect();
        let hmvp = Hmvp::new(&params);
        let cts = hmvp.encrypt_vector(&v, &enc, &mut rng).unwrap();
        let em = hmvp.encode_matrix(&a).unwrap();
        let result = hmvp.multiply(&em, &cts, &gkeys).unwrap();
        let got = hmvp.decrypt_result(&result, &dec).unwrap();
        let expect = a.mul_vector_mod(&v, t).unwrap();
        assert_eq!(got, expect, "m={m} n={n_cols}");
    }

    #[test]
    fn square_small() {
        run_hmvp(8, 8);
    }

    #[test]
    fn tall_matrix() {
        run_hmvp(64, 16);
    }

    #[test]
    fn wide_matrix_multiple_column_tiles() {
        // cols > N (=256 in test params): vector spans 3 ciphertexts.
        run_hmvp(8, 700);
    }

    #[test]
    fn rows_exceed_degree_multiple_packs() {
        // m > N: two packed outputs.
        run_hmvp(300, 16);
    }

    #[test]
    fn single_row_and_column() {
        run_hmvp(1, 1);
    }

    #[test]
    fn full_degree_square() {
        run_hmvp(256, 256);
    }

    #[test]
    fn matrix_validation() {
        let t = cham_math::Modulus::new(65537).unwrap();
        assert!(Matrix::from_data(2, 3, vec![0; 5]).is_err());
        let m = Matrix::from_data(2, 2, vec![1, 2, 3, 4]).unwrap();
        assert_eq!(m.row(1), &[3, 4]);
        assert!(m.mul_vector_mod(&[1], &t).is_err());
        assert_eq!(m.mul_vector_mod(&[1, 1], &t).unwrap(), vec![3, 7]);
    }

    #[test]
    fn shape_mismatch_between_matrix_and_ciphertexts() {
        let (params, _, enc, _, gkeys, mut rng) = setup();
        let a = Matrix::random(4, 300, 65537, &mut rng); // 2 column tiles
        let hmvp = Hmvp::new(&params);
        let em = hmvp.encode_matrix(&a).unwrap();
        let v = vec![1u64; 256]; // only 1 ciphertext
        let cts = hmvp.encrypt_vector(&v, &enc, &mut rng).unwrap();
        assert!(hmvp.multiply(&em, &cts, &gkeys).is_err());
    }

    #[test]
    fn empty_inputs_rejected() {
        let (params, _, enc, _, _, mut rng) = setup();
        let hmvp = Hmvp::new(&params);
        assert!(hmvp.encrypt_vector(&[], &enc, &mut rng).is_err());
        let empty = Matrix::from_data(0, 0, vec![]).unwrap();
        assert!(hmvp.encode_matrix(&empty).is_err());
    }

    #[test]
    fn multiply_parallel_matches_serial() {
        let (params, _, enc, dec, gkeys, mut rng) = setup();
        let t = params.plain_modulus();
        let a = Matrix::random(24, 32, t.value(), &mut rng);
        let v: Vec<u64> = (0..32).map(|_| rng.gen_range(0..t.value())).collect();
        let hmvp = Hmvp::new(&params);
        let cts = hmvp.encrypt_vector(&v, &enc, &mut rng).unwrap();
        let em = hmvp.encode_matrix(&a).unwrap();
        let par = hmvp.multiply_parallel(&em, &cts, &gkeys, 3).unwrap();
        let got = hmvp.decrypt_result(&par, &dec).unwrap();
        assert_eq!(got, a.mul_vector_mod(&v, t).unwrap());
    }

    #[test]
    fn parallel_dot_products_match_serial() {
        let (params, _, enc, _, _, mut rng) = setup();
        let t = params.plain_modulus();
        let a = Matrix::random(37, 300, t.value(), &mut rng); // odd row count, 2 tiles
        let v: Vec<u64> = (0..300).map(|_| rng.gen_range(0..t.value())).collect();
        let hmvp = Hmvp::new(&params);
        let cts = hmvp.encrypt_vector(&v, &enc, &mut rng).unwrap();
        let em = hmvp.encode_matrix(&a).unwrap();
        let serial = hmvp.dot_products(&em, &cts).unwrap();
        for threads in [1usize, 2, 4, 64] {
            let par = hmvp.dot_products_parallel(&em, &cts, threads).unwrap();
            assert_eq!(par, serial, "threads={threads}");
        }
        // Shape mismatch propagates from workers too.
        assert!(hmvp.dot_products_parallel(&em, &cts[..1], 2).is_err());
    }

    #[test]
    fn fused_dot_products_match_unfused() {
        let (params, _, enc, _, _, mut rng) = setup();
        let t = params.plain_modulus();
        // 2 column tiles exercises cross-tile accumulation; 37 rows the
        // odd-count path.
        let a = Matrix::random(37, 300, t.value(), &mut rng);
        let v: Vec<u64> = (0..300).map(|_| rng.gen_range(0..t.value())).collect();
        let hmvp = Hmvp::new(&params);
        let cts = hmvp.encrypt_vector(&v, &enc, &mut rng).unwrap();
        let em = hmvp.encode_matrix(&a).unwrap();
        let fused = hmvp.dot_products(&em, &cts).unwrap();
        let unfused = hmvp.dot_products_unfused(&em, &cts).unwrap();
        assert_eq!(fused, unfused, "lazy datapath must be bit-identical");
    }

    #[test]
    fn fused_dot_products_match_unfused_at_paper_parameters() {
        // N = 4096 over the CHAM chain: the fused tail's NTT-domain read
        // of `b` and the Shoup rescale against the reference INTT +
        // rescale + extract, with 1 and 2 column tiles.
        let mut rng = rand::rngs::StdRng::seed_from_u64(4096);
        let params = ChamParams::cham_default().unwrap();
        let sk = SecretKey::generate(&params, &mut rng);
        let enc = Encryptor::new(&params, &sk);
        let dec = Decryptor::new(&params, &sk);
        let t = params.plain_modulus();
        let n = params.degree();
        let hmvp = Hmvp::new(&params);
        for (cols, tiles) in [(n, 1), (n + 300, 2)] {
            let a = Matrix::random(3, cols, t.value(), &mut rng);
            let v: Vec<u64> = (0..cols).map(|_| rng.gen_range(0..t.value())).collect();
            let cts = hmvp.encrypt_vector(&v, &enc, &mut rng).unwrap();
            assert_eq!(cts.len(), tiles);
            let em = hmvp.encode_matrix(&a).unwrap();
            let fused = hmvp.dot_products(&em, &cts).unwrap();
            let unfused = hmvp.dot_products_unfused(&em, &cts).unwrap();
            assert_eq!(fused, unfused, "tiles={tiles}");
            let expect = a.mul_vector_mod(&v, t).unwrap();
            let got: Vec<u64> = fused.iter().map(|lwe| dec.decrypt_lwe(lwe)).collect();
            assert_eq!(got, expect, "tiles={tiles}");
        }
    }

    #[test]
    fn steady_state_dot_phase_does_not_allocate_scratch() {
        let (params, _, enc, _, _, mut rng) = setup();
        let t = params.plain_modulus();
        let a = Matrix::random(16, 300, t.value(), &mut rng);
        let v: Vec<u64> = (0..300).map(|_| rng.gen_range(0..t.value())).collect();
        let hmvp = Hmvp::new(&params);
        let cts = hmvp.encrypt_vector(&v, &enc, &mut rng).unwrap();
        let em = hmvp.encode_matrix(&a).unwrap();
        // Warm-up populates every worker's scratch slot.
        hmvp.dot_products_parallel(&em, &cts, 4).unwrap();
        // The dot phase runs on the global pool's workers, which sibling
        // tests share, and the process-wide counters also count their
        // first-call misses; retry so only a systematic per-row miss fails.
        let mut flat = false;
        for _ in 0..5 {
            let (_, misses_before) = crate::scratch::scratch_stats();
            for _ in 0..3 {
                hmvp.dot_products_parallel(&em, &cts, 4).unwrap();
            }
            let (_, misses_after) = crate::scratch::scratch_stats();
            if misses_after == misses_before {
                flat = true;
                break;
            }
        }
        assert!(flat, "steady-state dot phase must not allocate scratch");
    }

    #[test]
    fn multiply_many_matches_per_request_results() {
        let (params, _, enc, dec, gkeys, mut rng) = setup();
        let t = params.plain_modulus();
        let a = Matrix::random(16, 300, t.value(), &mut rng); // 2 column tiles
        let hmvp = Hmvp::from_arc(std::sync::Arc::new(params.clone()));
        let em = hmvp.encode_matrix(&a).unwrap();
        // A cheap handle clone must see the same tiles.
        let em2 = em.clone();
        assert_eq!(em2.shape(), em.shape());
        let inputs: Vec<Vec<RlweCiphertext>> = (0..5)
            .map(|_| {
                let v: Vec<u64> = (0..300).map(|_| rng.gen_range(0..t.value())).collect();
                hmvp.encrypt_vector(&v, &enc, &mut rng).unwrap()
            })
            .collect();
        for threads in [1usize, 2, 8] {
            let batch = hmvp.multiply_many(&em2, &inputs, &gkeys, threads).unwrap();
            assert_eq!(batch.len(), inputs.len());
            for (cts, result) in inputs.iter().zip(&batch) {
                let single = hmvp.multiply(&em, cts, &gkeys).unwrap();
                assert_eq!(
                    hmvp.decrypt_result(result, &dec).unwrap(),
                    hmvp.decrypt_result(&single, &dec).unwrap(),
                    "threads={threads}"
                );
            }
        }
        // Empty batch is a no-op; a bad input aborts the batch.
        assert!(hmvp.multiply_many(&em, &[], &gkeys, 2).unwrap().is_empty());
        let bad = vec![inputs[0][..1].to_vec()];
        assert!(hmvp.multiply_many(&em, &bad, &gkeys, 2).is_err());
    }

    #[test]
    fn noise_budget_survives_full_pipeline() {
        let (params, _, enc, dec, gkeys, mut rng) = setup();
        let t = params.plain_modulus();
        let n = params.degree();
        let a = Matrix::random(n, n, t.value(), &mut rng);
        let v: Vec<u64> = (0..n).map(|_| rng.gen_range(0..t.value())).collect();
        let hmvp = Hmvp::new(&params);
        let cts = hmvp.encrypt_vector(&v, &enc, &mut rng).unwrap();
        let em = hmvp.encode_matrix(&a).unwrap();
        let result = hmvp.multiply(&em, &cts, &gkeys).unwrap();
        let report = dec.decrypt_with_noise(&result.packed[0].ciphertext);
        assert!(report.budget_bits > 0.0, "budget {}", report.budget_bits);
    }
}
