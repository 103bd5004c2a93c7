//! Residue-number-system (RNS) machinery.
//!
//! CHAM ciphertexts live in `Z_Q[X]/(X^N+1)` with `Q = q0·q1`, *augmented*
//! with a special modulus `p` during dot product and key-switch (§II-F). In
//! RNS form each polynomial is a tuple of limbs, one per prime, and all the
//! heavy arithmetic stays word-sized — this is what lets each FPGA functional
//! unit operate on an independent polynomial (§III-A: "all the polynomials
//! within a plaintext and a ciphertext are processed in parallel").
//!
//! Provided here:
//! * [`RnsContext`] — a prime chain with per-limb NTT tables and CRT
//!   constants,
//! * [`RnsPoly`] — a multi-limb polynomial tracked as coefficient- or
//!   NTT-domain,
//! * CRT reconstruction (decryption needs the integer value of each
//!   coefficient),
//! * **rescale** — divide-and-round by the last prime, pipeline stage-4 of
//!   the paper,
//! * digit decomposition for the RNS key-switch used by `cham-he`.

use crate::modulus::Modulus;
use crate::ntt::NttTable;
use crate::poly::Poly;
use crate::{MathError, Result};
use std::sync::Arc;

/// Which domain an [`RnsPoly`]'s limbs are currently in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Form {
    /// Plain coefficient representation.
    Coeff,
    /// NTT (evaluation) representation, bit-reversed index order.
    Ntt,
}

/// A chain of NTT-friendly primes with shared degree and precomputed tables.
///
/// Contexts are cheap to clone (`Arc` internals) and compared by their prime
/// chain + degree.
///
/// # Example
/// ```
/// use cham_math::rns::RnsContext;
/// use cham_math::modulus::{Q0, Q1, SPECIAL_P};
/// let ctx = RnsContext::new(1 << 12, &[Q0, Q1, SPECIAL_P])?;
/// assert_eq!(ctx.len(), 3);
/// assert_eq!(ctx.degree(), 4096);
/// # Ok::<(), cham_math::MathError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RnsContext {
    degree: usize,
    moduli: Arc<Vec<Modulus>>,
    tables: Arc<Vec<NttTable>>,
    /// Rescale constants for each limb `i < len − 1` (see [`RescaleLimb`]).
    rescale: Arc<Vec<RescaleLimb>>,
}

/// Limb-`i` constants of the rescale by the last prime `p`: `p⁻¹ mod q_i`
/// with its Shoup companion, and `p mod q_i` for the centred lift.
#[derive(Debug, Clone, Copy)]
struct RescaleLimb {
    inv_p: u64,
    inv_p_shoup: u64,
    p_mod: u64,
}

impl RescaleLimb {
    /// `(x − [c]_p) · p⁻¹ mod q_i` for the limb-`i` residue `x` and the
    /// dropped residue `c < p`, where `[c]_p` is the centred lift (`c − p`
    /// when `c > ⌊p/2⌋`), which makes the division round to nearest. The
    /// lift is taken mod `q_i` as `c mod q_i`, minus `p mod q_i` when
    /// negative — no signed arithmetic, no division.
    #[inline]
    fn apply(&self, m: &Modulus, half_p: u64, x: u64, c: u64) -> u64 {
        let lift = if c > half_p { self.p_mod } else { 0 };
        let cp = m.sub(m.reduce(c), lift);
        m.mul_shoup(m.sub(x, cp), self.inv_p, self.inv_p_shoup)
    }
}

/// How digit residues `x < q_i` re-embed into a modulus `q_j` during
/// [`RnsPoly::decompose_digits`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Embed {
    /// `q_i ≤ q_j`: `x` is already canonical mod `q_j`.
    Copy,
    /// `q_i ≤ 2·q_j`: one conditional subtraction.
    CondSub,
    /// Otherwise: a Barrett reduction.
    Barrett,
}

impl Embed {
    fn between(from: u64, to: &Modulus) -> Self {
        if from <= to.value() {
            Self::Copy
        } else if from <= to.two_q() {
            Self::CondSub
        } else {
            Self::Barrett
        }
    }

    fn apply(self, src: &[u64], to: &Modulus) -> Vec<u64> {
        match self {
            Self::Copy => src.to_vec(),
            Self::CondSub => src
                .iter()
                .map(|&x| if x >= to.value() { x - to.value() } else { x })
                .collect(),
            Self::Barrett => src.iter().map(|&x| to.reduce(x)).collect(),
        }
    }
}

impl PartialEq for RnsContext {
    fn eq(&self, other: &Self) -> bool {
        self.degree == other.degree
            && self
                .moduli
                .iter()
                .map(Modulus::value)
                .eq(other.moduli.iter().map(Modulus::value))
    }
}
impl Eq for RnsContext {}

impl RnsContext {
    /// Builds a context over `primes` for ring degree `degree`.
    ///
    /// # Errors
    /// * [`MathError::InvalidParameter`] when `primes` is empty or contains
    ///   duplicates,
    /// * errors from [`Modulus::new`] / [`NttTable::new`] for unusable
    ///   primes.
    pub fn new(degree: usize, primes: &[u64]) -> Result<Self> {
        if primes.is_empty() {
            return Err(MathError::InvalidParameter("prime chain must be non-empty"));
        }
        let mut seen = std::collections::HashSet::new();
        for &p in primes {
            if !seen.insert(p) {
                return Err(MathError::InvalidParameter(
                    "prime chain contains duplicates",
                ));
            }
        }
        let moduli: Vec<Modulus> = primes
            .iter()
            .map(|&p| Modulus::new(p))
            .collect::<Result<_>>()?;
        let tables: Vec<NttTable> = moduli
            .iter()
            .map(|&m| NttTable::new(degree, m))
            .collect::<Result<_>>()?;
        let last = *primes.last().expect("non-empty");
        let rescale = moduli[..moduli.len() - 1]
            .iter()
            .map(|m| {
                let p_mod = last % m.value();
                let inv_p = m.inv(p_mod)?;
                Ok(RescaleLimb {
                    inv_p,
                    inv_p_shoup: m.shoup(inv_p),
                    p_mod,
                })
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(Self {
            degree,
            moduli: Arc::new(moduli),
            tables: Arc::new(tables),
            rescale: Arc::new(rescale),
        })
    }

    /// Ring degree `N`.
    #[inline]
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// Number of limbs.
    #[inline]
    pub fn len(&self) -> usize {
        self.moduli.len()
    }

    /// True when the chain is empty (never, by construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.moduli.is_empty()
    }

    /// The limb moduli.
    #[inline]
    pub fn moduli(&self) -> &[Modulus] {
        &self.moduli
    }

    /// The per-limb NTT tables.
    #[inline]
    pub fn tables(&self) -> &[NttTable] {
        &self.tables
    }

    /// Product of all limb moduli as a `u128`.
    ///
    /// # Panics
    /// Panics if the product overflows `u128` (cannot happen for the CHAM
    /// chain: 34 + 34 + 38 bits).
    pub fn modulus_product(&self) -> u128 {
        self.moduli.iter().fold(1u128, |acc, m| {
            acc.checked_mul(m.value() as u128)
                .expect("modulus product overflows u128")
        })
    }

    /// A context over all limbs except the last — the target of
    /// [`RnsPoly::rescale_by_last`].
    ///
    /// # Errors
    /// Returns [`MathError::InvalidParameter`] for a single-limb context.
    pub fn drop_last(&self) -> Result<Self> {
        if self.len() < 2 {
            return Err(MathError::InvalidParameter(
                "cannot drop the last limb of a single-limb context",
            ));
        }
        let primes: Vec<u64> = self.moduli[..self.len() - 1]
            .iter()
            .map(Modulus::value)
            .collect();
        Self::new(self.degree, &primes)
    }

    /// Reconstructs the integer value of a single coefficient from its limb
    /// residues via CRT. Result is in `[0, Q)` with `Q` the modulus product.
    ///
    /// # Panics
    /// Panics if `residues.len() != self.len()`.
    pub fn crt_lift(&self, residues: &[u64]) -> u128 {
        assert_eq!(residues.len(), self.len(), "residue count mismatch");
        // Garner's algorithm in mixed radix, exact in u128 for <= 90-bit Q.
        let q = self.modulus_product();
        let mut result: u128 = 0;
        let mut radix: u128 = 1;
        // x = v0 + q0*(v1 + q1*(v2 ...)) with vi computed mod qi.
        let mut vs = Vec::with_capacity(self.len());
        for (i, m) in self.moduli.iter().enumerate() {
            // t = (residues[i] - partial) / (prod of earlier moduli), mod q_i
            let mut t = residues[i];
            // subtract the already-fixed mixed-radix digits
            let mut prod_mod = 1u64;
            let mut partial = 0u64;
            for (j, &vj) in vs.iter().enumerate() {
                partial = m.add(partial, m.mul(prod_mod, vj));
                prod_mod = m.mul(prod_mod, self.moduli[j].value() % m.value());
            }
            t = m.sub(t, partial);
            let inv = m.inv(prod_mod).expect("moduli are pairwise coprime");
            let v = m.mul(t, inv);
            vs.push(v);
            result += radix * v as u128;
            radix = radix.saturating_mul(m.value() as u128);
        }
        debug_assert!(result < q);
        result
    }

    /// Reconstructs the *centred* integer value of a coefficient, in
    /// `(−Q/2, Q/2]`.
    ///
    /// # Panics
    /// Panics if `residues.len() != self.len()`.
    pub fn crt_lift_centered(&self, residues: &[u64]) -> i128 {
        let q = self.modulus_product();
        let v = self.crt_lift(residues);
        if v > q / 2 {
            v as i128 - q as i128
        } else {
            v as i128
        }
    }

    /// Rescales one coefficient, given as its residues over this context,
    /// by the last prime: the scalar twin of [`RnsPoly::rescale_by_last`],
    /// returning the residues over [`RnsContext::drop_last`]'s basis.
    ///
    /// # Panics
    /// Panics if `residues.len() != self.len()` or the context has a
    /// single limb.
    pub fn rescale_residues(&self, residues: &[u64]) -> Vec<u64> {
        assert_eq!(residues.len(), self.len(), "residue count mismatch");
        let (&c, kept) = residues.split_last().expect("non-empty");
        assert!(!kept.is_empty(), "rescale requires at least two limbs");
        let half_p = self.moduli[self.len() - 1].value() / 2;
        kept.iter()
            .zip(self.moduli.iter().zip(self.rescale.iter()))
            .map(|(&x, (m, r))| r.apply(m, half_p, x, c))
            .collect()
    }

    /// Embeds an integer (given as `u128`, reduced mod `Q`) into residues.
    pub fn residues_of(&self, x: u128) -> Vec<u64> {
        self.moduli
            .iter()
            .map(|m| (x % m.value() as u128) as u64)
            .collect()
    }
}

/// A polynomial in RNS form: one [`Poly`] limb per context prime.
///
/// Operations validate that operands share a context and domain
/// ([`Form`]); domain conversions are explicit ([`RnsPoly::to_ntt`],
/// [`RnsPoly::to_coeff`]), mirroring the explicit NTT/INTT pipeline stages
/// of the accelerator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RnsPoly {
    ctx: RnsContext,
    limbs: Vec<Poly>,
    form: Form,
}

impl RnsPoly {
    /// The zero polynomial in coefficient form.
    pub fn zero(ctx: &RnsContext) -> Self {
        Self {
            limbs: vec![Poly::zero(ctx.degree()); ctx.len()],
            ctx: ctx.clone(),
            form: Form::Coeff,
        }
    }

    /// Builds an RNS polynomial from per-limb polys.
    ///
    /// # Errors
    /// Returns [`MathError::ContextMismatch`] if the limb count or any limb
    /// length disagrees with the context.
    pub fn from_limbs(ctx: &RnsContext, limbs: Vec<Poly>, form: Form) -> Result<Self> {
        if limbs.len() != ctx.len() || limbs.iter().any(|l| l.len() != ctx.degree()) {
            return Err(MathError::ContextMismatch);
        }
        Ok(Self {
            ctx: ctx.clone(),
            limbs,
            form,
        })
    }

    /// Lifts small signed coefficients (e.g. plaintext or noise) into every
    /// limb.
    pub fn from_signed(ctx: &RnsContext, coeffs: &[i64]) -> Result<Self> {
        if coeffs.len() != ctx.degree() {
            return Err(MathError::ContextMismatch);
        }
        let limbs = ctx
            .moduli()
            .iter()
            .map(|m| Poly::from_signed(coeffs, m))
            .collect();
        Ok(Self {
            ctx: ctx.clone(),
            limbs,
            form: Form::Coeff,
        })
    }

    /// The owning context.
    #[inline]
    pub fn context(&self) -> &RnsContext {
        &self.ctx
    }

    /// Current representation domain.
    #[inline]
    pub fn form(&self) -> Form {
        self.form
    }

    /// Borrow the limbs.
    #[inline]
    pub fn limbs(&self) -> &[Poly] {
        &self.limbs
    }

    /// Mutably borrow the limbs (callers must preserve canonical form).
    #[inline]
    pub fn limbs_mut(&mut self) -> &mut [Poly] {
        &mut self.limbs
    }

    fn check_compat(&self, rhs: &Self) -> Result<()> {
        if self.ctx != rhs.ctx || self.form != rhs.form {
            return Err(MathError::ContextMismatch);
        }
        Ok(())
    }

    /// Converts to NTT form in place (no-op when already there).
    ///
    /// The limb transforms are independent (one prime each — exactly the
    /// parallelism the FPGA exploits with per-limb functional units), so
    /// they fan out across the `cham-pool` thread pool.
    pub fn to_ntt(&mut self) {
        if self.form == Form::Ntt {
            return;
        }
        let tables = self.ctx.tables.as_slice();
        cham_pool::for_each_mut(&mut self.limbs, |i, limb| {
            tables[i].forward(limb.coeffs_mut());
        });
        self.form = Form::Ntt;
    }

    /// Converts to coefficient form in place (no-op when already there).
    /// Limb-parallel like [`RnsPoly::to_ntt`].
    pub fn to_coeff(&mut self) {
        if self.form == Form::Coeff {
            return;
        }
        let tables = self.ctx.tables.as_slice();
        cham_pool::for_each_mut(&mut self.limbs, |i, limb| {
            tables[i].inverse(limb.coeffs_mut());
        });
        self.form = Form::Coeff;
    }

    /// Out-of-place batch domain conversion: fills `dst`'s existing limb
    /// buffers with `NTT(self)` via [`NttTable::forward_into`], so repeated
    /// conversions (e.g. lifting rows into scratch) allocate nothing.
    /// `self` stays in coefficient form; `dst` ends in NTT form.
    /// Limb-parallel like [`RnsPoly::to_ntt`].
    ///
    /// # Errors
    /// [`MathError::ContextMismatch`] unless `self` is in coefficient form
    /// and `dst` shares this context.
    pub fn to_ntt_into(&self, dst: &mut Self) -> Result<()> {
        if self.form != Form::Coeff || self.ctx != dst.ctx {
            return Err(MathError::ContextMismatch);
        }
        let tables = self.ctx.tables.as_slice();
        let src = self.limbs.as_slice();
        cham_pool::for_each_mut(&mut dst.limbs, |i, limb| {
            tables[i].forward_into(src[i].coeffs(), limb.coeffs_mut());
        });
        dst.form = Form::Ntt;
        Ok(())
    }

    /// Limb-wise addition.
    ///
    /// # Errors
    /// [`MathError::ContextMismatch`] if contexts or forms differ.
    pub fn add(&self, rhs: &Self) -> Result<Self> {
        self.check_compat(rhs)?;
        let limbs = self
            .limbs
            .iter()
            .zip(&rhs.limbs)
            .zip(self.ctx.moduli())
            .map(|((a, b), m)| a.add(b, m))
            .collect();
        Ok(Self {
            ctx: self.ctx.clone(),
            limbs,
            form: self.form,
        })
    }

    /// In-place limb-wise addition — the allocation-free twin of
    /// [`RnsPoly::add`].
    ///
    /// # Errors
    /// [`MathError::ContextMismatch`] if contexts or forms differ.
    pub fn add_assign(&mut self, rhs: &Self) -> Result<()> {
        self.check_compat(rhs)?;
        for ((a, b), m) in self
            .limbs
            .iter_mut()
            .zip(&rhs.limbs)
            .zip(self.ctx.moduli.iter())
        {
            a.add_assign(b, m);
        }
        Ok(())
    }

    /// In-place limb-wise subtraction — the allocation-free twin of
    /// [`RnsPoly::sub`].
    ///
    /// # Errors
    /// [`MathError::ContextMismatch`] if contexts or forms differ.
    pub fn sub_assign(&mut self, rhs: &Self) -> Result<()> {
        self.check_compat(rhs)?;
        for ((a, b), m) in self
            .limbs
            .iter_mut()
            .zip(&rhs.limbs)
            .zip(self.ctx.moduli.iter())
        {
            a.sub_assign(b, m);
        }
        Ok(())
    }

    /// Limb-wise subtraction.
    ///
    /// # Errors
    /// [`MathError::ContextMismatch`] if contexts or forms differ.
    pub fn sub(&self, rhs: &Self) -> Result<Self> {
        self.check_compat(rhs)?;
        let limbs = self
            .limbs
            .iter()
            .zip(&rhs.limbs)
            .zip(self.ctx.moduli())
            .map(|((a, b), m)| a.sub(b, m))
            .collect();
        Ok(Self {
            ctx: self.ctx.clone(),
            limbs,
            form: self.form,
        })
    }

    /// Limb-wise negation.
    pub fn neg(&self) -> Self {
        let limbs = self
            .limbs
            .iter()
            .zip(self.ctx.moduli())
            .map(|(a, m)| a.neg(m))
            .collect();
        Self {
            ctx: self.ctx.clone(),
            limbs,
            form: self.form,
        }
    }

    /// Coefficient-wise product — both operands must be in NTT form (a
    /// coefficient-form product would be a convolution, which callers should
    /// express explicitly via `to_ntt`).
    ///
    /// # Errors
    /// [`MathError::ContextMismatch`] if contexts differ or either operand
    /// is in coefficient form.
    pub fn mul_pointwise(&self, rhs: &Self) -> Result<Self> {
        self.check_compat(rhs)?;
        if self.form != Form::Ntt {
            return Err(MathError::ContextMismatch);
        }
        let limbs = self
            .limbs
            .iter()
            .zip(&rhs.limbs)
            .zip(self.ctx.moduli())
            .map(|((a, b), m)| a.mul_pointwise(b, m))
            .collect();
        Ok(Self {
            ctx: self.ctx.clone(),
            limbs,
            form: self.form,
        })
    }

    /// In-place coefficient-wise product — the allocation-free twin of
    /// [`RnsPoly::mul_pointwise`].
    ///
    /// # Errors
    /// [`MathError::ContextMismatch`] if contexts differ or either operand
    /// is in coefficient form.
    pub fn mul_pointwise_assign(&mut self, rhs: &Self) -> Result<()> {
        self.check_compat(rhs)?;
        if self.form != Form::Ntt {
            return Err(MathError::ContextMismatch);
        }
        for ((a, b), m) in self
            .limbs
            .iter_mut()
            .zip(&rhs.limbs)
            .zip(self.ctx.moduli.iter())
        {
            a.mul_pointwise_assign(b, m);
        }
        Ok(())
    }

    /// Multiplies by a small scalar in either form.
    pub fn mul_scalar(&self, s: u64) -> Self {
        let limbs = self
            .limbs
            .iter()
            .zip(self.ctx.moduli())
            .map(|(a, m)| a.mul_scalar(s, m))
            .collect();
        Self {
            ctx: self.ctx.clone(),
            limbs,
            form: self.form,
        }
    }

    /// `SHIFTNEG` across limbs — multiplication by `X^s` (coefficient form
    /// only).
    ///
    /// # Errors
    /// [`MathError::ContextMismatch`] when in NTT form.
    pub fn shift_neg(&self, s: usize) -> Result<Self> {
        if self.form != Form::Coeff {
            return Err(MathError::ContextMismatch);
        }
        let limbs = self
            .limbs
            .iter()
            .zip(self.ctx.moduli())
            .map(|(a, m)| a.shift_neg(s, m))
            .collect();
        Ok(Self {
            ctx: self.ctx.clone(),
            limbs,
            form: self.form,
        })
    }

    /// `AUTOMORPH` across limbs (coefficient form only).
    ///
    /// # Errors
    /// [`MathError::ContextMismatch`] when in NTT form;
    /// [`MathError::InvalidParameter`] for even `k`.
    pub fn automorph(&self, k: usize) -> Result<Self> {
        if self.form != Form::Coeff {
            return Err(MathError::ContextMismatch);
        }
        let limbs = self
            .limbs
            .iter()
            .zip(self.ctx.moduli())
            .map(|(a, m)| a.automorph(k, m))
            .collect::<Result<_>>()?;
        Ok(Self {
            ctx: self.ctx.clone(),
            limbs,
            form: self.form,
        })
    }

    /// **Rescale** (pipeline stage-4): divide-and-round by the last prime,
    /// dropping it from the basis. For a coefficient `c` over `Q·p`, the
    /// result over `Q` is `round(c / p)`, computed limb-locally as
    /// `(c_i − [c_p]) · p^{−1} mod q_i` with a centred lift of `c_p`.
    /// Allocating twin of [`RnsPoly::rescale_by_last_in_place`].
    ///
    /// # Errors
    /// [`MathError::ContextMismatch`] when in NTT form or when `target` is
    /// not this context minus its last prime;
    /// [`MathError::InvalidParameter`] for single-limb operands.
    pub fn rescale_by_last(&self, target: &RnsContext) -> Result<Self> {
        let mut out = self.clone();
        out.rescale_by_last_in_place(target)?;
        Ok(out)
    }

    /// [`RnsPoly::rescale_by_last`] over this polynomial's own limb
    /// buffers: the surviving limbs are overwritten, the last is dropped.
    ///
    /// The per-coefficient kernel is one Barrett reduction of the dropped
    /// residue, one conditional subtraction of `p mod q_i` for the centred
    /// lift and one Shoup multiply by the precomputed `p⁻¹` — no signed or
    /// 128-bit division.
    ///
    /// # Errors
    /// Same conditions as [`RnsPoly::rescale_by_last`]; `self` is left
    /// unchanged on error.
    pub fn rescale_by_last_in_place(&mut self, target: &RnsContext) -> Result<()> {
        if self.form != Form::Coeff {
            return Err(MathError::ContextMismatch);
        }
        let k = self.ctx.len();
        if k < 2 {
            return Err(MathError::InvalidParameter(
                "rescale requires at least two limbs",
            ));
        }
        // Validate structurally (degree + prime prefix) instead of building
        // the dropped context: constructing an RnsContext derives NTT
        // tables, far too expensive for a per-rescale check.
        let prefix_ok = target.degree == self.ctx.degree
            && target.len() == k - 1
            && target
                .moduli
                .iter()
                .zip(self.ctx.moduli.iter())
                .all(|(a, b)| a.value() == b.value());
        if !prefix_ok {
            return Err(MathError::ContextMismatch);
        }
        let half_p = self.ctx.moduli[k - 1].value() / 2;
        let moduli = self.ctx.moduli.as_slice();
        let consts = self.ctx.rescale.as_slice();
        let (last, kept) = self.limbs.split_last_mut().expect("k >= 2");
        let last = last.coeffs();
        // Each surviving limb is computed independently from (its own
        // residues, the dropped residues) — fan out across the pool.
        cham_pool::for_each_mut(kept, |i, limb| {
            let (m, r) = (&moduli[i], &consts[i]);
            for (x, &c) in limb.coeffs_mut().iter_mut().zip(last) {
                *x = r.apply(m, half_p, *x, c);
            }
        });
        self.limbs.pop();
        self.ctx = target.clone();
        Ok(())
    }

    /// The constant coefficient of every limb, in either form. In NTT form
    /// it is read without an inverse transform: summing the negacyclic
    /// NTT's outputs `â_k = Σ_j a_j ψ^{(2k+1)j}` over all `k` leaves only
    /// the `j = 0` term (`Σ_k ω^{kj} = 0` for `0 < j < N`, `ω = ψ²`), so
    /// `a_0 = N⁻¹ · Σ_k â_k mod q` exactly, in any output order — an
    /// `O(N)` sum instead of an `O(N log N)` INTT.
    pub fn constant_coeffs(&self) -> Vec<u64> {
        match self.form {
            Form::Coeff => self.limbs.iter().map(|l| l.coeffs()[0]).collect(),
            Form::Ntt => self
                .limbs
                .iter()
                .zip(self.ctx.tables.iter())
                .map(|(l, table)| {
                    let m = table.modulus();
                    let sum: u128 = l.coeffs().iter().map(|&x| u128::from(x)).sum();
                    m.mul(m.reduce_u128(sum), table.n_inv())
                })
                .collect(),
        }
    }

    /// RNS digit decomposition for key-switching: digit `i` is the limb-`i`
    /// residue polynomial re-embedded into the *full* `target` basis. Its
    /// coefficients are integers `< q_i`, so each target limb `q_j` is a
    /// copy when `q_i ≤ q_j`, one conditional subtraction when
    /// `q_i ≤ 2·q_j`, and a Barrett reduction only otherwise (the case is
    /// decided once per limb pair, never per coefficient). Coefficient form
    /// required.
    ///
    /// # Errors
    /// [`MathError::ContextMismatch`] when in NTT form or when `target` has
    /// a different degree.
    pub fn decompose_digits(&self, target: &RnsContext) -> Result<Vec<RnsPoly>> {
        if self.form != Form::Coeff || target.degree != self.ctx.degree {
            return Err(MathError::ContextMismatch);
        }
        let from = self.ctx.moduli();
        // Digit i depends only on limb i; the basis extension is the
        // dominant cost of key-switching, so build the digits limb-parallel.
        Ok(cham_pool::map(&self.limbs, |i, limb| {
            let limbs = target
                .moduli()
                .iter()
                .map(|to| {
                    Poly::from_coeffs(Embed::between(from[i].value(), to).apply(limb.coeffs(), to))
                })
                .collect();
            RnsPoly {
                ctx: target.clone(),
                limbs,
                form: Form::Coeff,
            }
        }))
    }

    /// Max centred infinity norm across limbs — only meaningful when the
    /// value is *small* (identical residues), e.g. for noise polynomials.
    pub fn small_inf_norm(&self) -> u64 {
        self.limbs
            .iter()
            .zip(self.ctx.moduli())
            .map(|(l, m)| l.centered_inf_norm(m))
            .max()
            .unwrap_or(0)
    }
}

/// Deferred-reduction multiply-accumulate over RNS polynomials in NTT form —
/// the fused kernel behind the HMVP dot phase, keyswitch digit accumulation
/// and the pack tree.
///
/// Products are accumulated into a caller-owned `u128` scratch slice
/// (flattened `limbs × degree`, typically borrowed from a per-worker scratch
/// pool so the steady state allocates nothing). Reduction is deferred until
/// [`crate::poly::LAZY_ACC_BOUND`] terms have been accumulated, then a flush
/// pass collapses each lane to its canonical residue
/// (`cham_math.modulus.reduce.lazy_flush` counts these).
///
/// # Example
/// ```
/// use cham_math::rns::{FusedAccumulator, RnsContext, RnsPoly};
/// use cham_math::modulus::{Q0, Q1};
/// let ctx = RnsContext::new(16, &[Q0, Q1])?;
/// let mut a = RnsPoly::from_signed(&ctx, &[1i64; 16])?;
/// a.to_ntt();
/// let mut scratch = vec![0u128; ctx.len() * ctx.degree()];
/// let mut acc = FusedAccumulator::new(&ctx, &mut scratch)?;
/// acc.accumulate(&a, &a)?;
/// acc.accumulate(&a, &a)?;
/// let sum = acc.finish(); // == a·a + a·a, in NTT form
/// # assert_eq!(sum, a.mul_pointwise(&a)?.add(&a.mul_pointwise(&a)?)?);
/// # Ok::<(), cham_math::MathError>(())
/// ```
#[derive(Debug)]
pub struct FusedAccumulator<'a> {
    ctx: RnsContext,
    acc: &'a mut [u128],
    pending: usize,
    /// No term has been written yet: the scratch still holds whatever the
    /// previous user left there, and the next term must *store*, not add.
    fresh: bool,
}

impl<'a> FusedAccumulator<'a> {
    /// Starts an accumulation over `ctx` using `scratch` as backing store.
    /// The scratch is *not* zeroed: the first [`Self::accumulate`] overwrites
    /// every lane, so a pooled buffer can be reused dirty without paying a
    /// separate clearing pass.
    ///
    /// # Errors
    /// [`MathError::ContextMismatch`] if `scratch.len() != len · degree`.
    pub fn new(ctx: &RnsContext, scratch: &'a mut [u128]) -> Result<Self> {
        if scratch.len() != ctx.len() * ctx.degree() {
            return Err(MathError::ContextMismatch);
        }
        Ok(Self {
            ctx: ctx.clone(),
            acc: scratch,
            pending: 0,
            fresh: true,
        })
    }

    /// Adds `a ⊙ b` (pointwise NTT-domain product) into the accumulator,
    /// with reduction deferred. Auto-flushes when the
    /// [`crate::poly::LAZY_ACC_BOUND`] headroom bound is reached.
    ///
    /// # Errors
    /// [`MathError::ContextMismatch`] unless both operands are in NTT form
    /// over this accumulator's context.
    pub fn accumulate(&mut self, a: &RnsPoly, b: &RnsPoly) -> Result<()> {
        if a.ctx != self.ctx || b.ctx != self.ctx || a.form != Form::Ntt || b.form != Form::Ntt {
            return Err(MathError::ContextMismatch);
        }
        if self.pending == crate::poly::LAZY_ACC_BOUND {
            self.flush();
        }
        let n = self.ctx.degree();
        let write = if self.fresh {
            crate::poly::mul_pointwise_write
        } else {
            crate::poly::mul_pointwise_accumulate
        };
        for (i, (la, lb)) in a.limbs.iter().zip(&b.limbs).enumerate() {
            write(&mut self.acc[i * n..(i + 1) * n], la.coeffs(), lb.coeffs());
        }
        self.fresh = false;
        self.pending += 1;
        Ok(())
    }

    /// Collapses every lane to its canonical residue, restoring full
    /// headroom. Called automatically; public for callers that want
    /// deterministic flush points.
    pub fn flush(&mut self) {
        if self.fresh {
            return; // nothing accumulated; the scratch holds stale data
        }
        let n = self.ctx.degree();
        for (i, m) in self.ctx.moduli().iter().enumerate() {
            crate::poly::flush_accumulator(&mut self.acc[i * n..(i + 1) * n], m);
        }
        self.pending = 0;
    }

    /// Final reduction into `out`'s existing limb buffers (no allocation).
    /// `out` ends in NTT form; the scratch is released for reuse.
    ///
    /// # Errors
    /// [`MathError::ContextMismatch`] if `out`'s context differs.
    pub fn finish_into(self, out: &mut RnsPoly) -> Result<()> {
        if out.ctx != self.ctx {
            return Err(MathError::ContextMismatch);
        }
        let n = self.ctx.degree();
        for (i, m) in self.ctx.moduli().iter().enumerate() {
            let limb = out.limbs[i].coeffs_mut();
            if self.fresh {
                // No term was ever accumulated: the sum is zero and the
                // scratch contents are stale — do not reduce them.
                limb.fill(0);
            } else {
                crate::poly::finish_accumulator(&self.acc[i * n..(i + 1) * n], m, limb);
            }
        }
        out.form = Form::Ntt;
        Ok(())
    }

    /// Final reduction into a freshly allocated [`RnsPoly`] (NTT form).
    pub fn finish(self) -> RnsPoly {
        let mut out = RnsPoly::zero(&self.ctx);
        let ctx = self.ctx.clone();
        self.finish_into(&mut out).expect("context matches");
        debug_assert_eq!(out.ctx, ctx);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modulus::{Q0, Q1, SPECIAL_P};
    use rand::{Rng, SeedableRng};

    fn ctx3(n: usize) -> RnsContext {
        RnsContext::new(n, &[Q0, Q1, SPECIAL_P]).unwrap()
    }

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(1234)
    }

    #[test]
    fn context_validation() {
        assert!(RnsContext::new(16, &[]).is_err());
        assert!(RnsContext::new(16, &[Q0, Q0]).is_err());
        assert!(RnsContext::new(64, &[Q0, 97]).is_err()); // 97: 128 ∤ 96
        assert!(RnsContext::new(16, &[Q0, Q1]).is_ok());
    }

    #[test]
    fn drop_last_and_eq() {
        let c = ctx3(16);
        let d = c.drop_last().unwrap();
        assert_eq!(d.len(), 2);
        assert_eq!(d, RnsContext::new(16, &[Q0, Q1]).unwrap());
        let single = RnsContext::new(16, &[Q0]).unwrap();
        assert!(single.drop_last().is_err());
    }

    #[test]
    fn crt_roundtrip() {
        let c = ctx3(16);
        let mut rng = rng();
        let q = c.modulus_product();
        for _ in 0..500 {
            let x: u128 = rng.gen::<u128>() % q;
            let residues = c.residues_of(x);
            assert_eq!(c.crt_lift(&residues), x);
        }
        assert_eq!(c.crt_lift(&c.residues_of(0)), 0);
        assert_eq!(c.crt_lift(&c.residues_of(q - 1)), q - 1);
    }

    #[test]
    fn crt_centered() {
        let c = RnsContext::new(16, &[Q0, Q1]).unwrap();
        let q = c.modulus_product();
        assert_eq!(c.crt_lift_centered(&c.residues_of(1)), 1);
        assert_eq!(c.crt_lift_centered(&c.residues_of(q - 1)), -1);
        assert_eq!(c.crt_lift_centered(&c.residues_of(q / 2)), (q / 2) as i128);
    }

    #[test]
    fn ntt_roundtrip_multi_limb() {
        let c = ctx3(64);
        let mut rng = rng();
        let coeffs: Vec<i64> = (0..64).map(|_| rng.gen_range(-100..100)).collect();
        let a = RnsPoly::from_signed(&c, &coeffs).unwrap();
        let mut b = a.clone();
        b.to_ntt();
        assert_eq!(b.form(), Form::Ntt);
        b.to_coeff();
        assert_eq!(b, a);
    }

    #[test]
    fn pointwise_mul_requires_ntt_form() {
        let c = ctx3(16);
        let a = RnsPoly::from_signed(&c, &[1i64; 16]).unwrap();
        assert!(a.mul_pointwise(&a).is_err());
        let mut an = a.clone();
        an.to_ntt();
        assert!(an.mul_pointwise(&an).is_ok());
    }

    #[test]
    fn ntt_mul_matches_schoolbook_per_limb() {
        let c = RnsContext::new(32, &[Q0, Q1]).unwrap();
        let mut rng = rng();
        let av: Vec<i64> = (0..32).map(|_| rng.gen_range(-50..50)).collect();
        let bv: Vec<i64> = (0..32).map(|_| rng.gen_range(-50..50)).collect();
        let a = RnsPoly::from_signed(&c, &av).unwrap();
        let b = RnsPoly::from_signed(&c, &bv).unwrap();
        let (mut an, mut bn) = (a.clone(), b.clone());
        an.to_ntt();
        bn.to_ntt();
        let mut prod = an.mul_pointwise(&bn).unwrap();
        prod.to_coeff();
        for (i, m) in c.moduli().iter().enumerate() {
            let expect = a.limbs()[i].mul_negacyclic_schoolbook(&b.limbs()[i], m);
            assert_eq!(prod.limbs()[i], expect, "limb {i}");
        }
    }

    #[test]
    fn rescale_rounds_correctly() {
        // Construct values over {Q0,Q1,P}, rescale by P, compare to exact
        // integer round(v / P) via CRT.
        let full = ctx3(8);
        let reduced = full.drop_last().unwrap();
        let mut rng = rng();
        let qfull = full.modulus_product();
        let p = SPECIAL_P as u128;
        for _ in 0..50 {
            let vals: Vec<u128> = (0..8).map(|_| rng.gen::<u128>() % qfull).collect();
            let limbs: Vec<Poly> = full
                .moduli()
                .iter()
                .map(|m| {
                    Poly::from_coeffs(
                        vals.iter()
                            .map(|&v| (v % m.value() as u128) as u64)
                            .collect(),
                    )
                })
                .collect();
            let a = RnsPoly::from_limbs(&full, limbs, Form::Coeff).unwrap();
            let r = a.rescale_by_last(&reduced).unwrap();
            for (j, &v) in vals.iter().enumerate() {
                // Expected: round(centered(v)/p) mod Qreduced
                let qq = reduced.modulus_product();
                let centered: i128 = if v > qfull / 2 {
                    v as i128 - qfull as i128
                } else {
                    v as i128
                };
                // Exact integer rounding oracle; rescale may differ by at
                // most one unit from round(v/p).
                let exact = {
                    let half = (p / 2) as i128;
                    let num = if centered >= 0 {
                        centered + half
                    } else {
                        centered - half
                    };
                    num / p as i128
                };
                let got = {
                    let res: Vec<u64> = (0..reduced.len())
                        .map(|i| r.limbs()[i].coeffs()[j])
                        .collect();
                    reduced.crt_lift_centered(&res)
                };
                let err = (got - exact).abs();
                assert!(
                    err <= 1,
                    "coeff {j}: got {got}, want {exact}, err {err}, qq={qq}"
                );
            }
        }
    }

    /// The per-coefficient rescale loop before the Shoup kernel, kept
    /// verbatim as the reference (with `Modulus::from_signed`'s old `i128`
    /// body inlined, since that function was rewritten too).
    fn rescale_reference(a: &RnsPoly, target: &RnsContext) -> RnsPoly {
        let k = a.ctx.len();
        let p_mod = a.ctx.moduli()[k - 1];
        let last = &a.limbs[k - 1];
        let n = a.ctx.degree();
        let limbs = a.ctx.moduli()[..k - 1]
            .iter()
            .enumerate()
            .map(|(i, m)| {
                let inv_p = m.inv(p_mod.value() % m.value()).unwrap();
                let mut out = Vec::with_capacity(n);
                for j in 0..n {
                    let cp = p_mod.center(last.coeffs()[j]);
                    let q = m.value() as i128;
                    let cp_in_qi = ((cp as i128 % q + q) % q) as u64;
                    let diff = m.sub(a.limbs[i].coeffs()[j], cp_in_qi);
                    out.push(m.mul(diff, inv_p));
                }
                Poly::from_coeffs(out)
            })
            .collect();
        RnsPoly::from_limbs(target, limbs, Form::Coeff).unwrap()
    }

    /// Random residues with the edge cases planted at the front: the last
    /// limb starts with `0, ⌊p/2⌋, ⌊p/2⌋+1, p−1`, every other limb with
    /// `0` and `q_i − 1` against each of them.
    fn edge_poly(ctx: &RnsContext, rng: &mut rand::rngs::StdRng) -> RnsPoly {
        let k = ctx.len();
        let p = ctx.moduli()[k - 1].value();
        let last_edges = [0, p / 2, p / 2 + 1, p - 1];
        let limbs = ctx
            .moduli()
            .iter()
            .enumerate()
            .map(|(i, m)| {
                let q = m.value();
                let coeffs = (0..ctx.degree())
                    .map(|j| match j {
                        0..=7 if i == k - 1 => last_edges[j % 4],
                        0..=3 => 0,
                        4..=7 => q - 1,
                        _ => rng.gen_range(0..q),
                    })
                    .collect();
                Poly::from_coeffs(coeffs)
            })
            .collect();
        RnsPoly::from_limbs(ctx, limbs, Form::Coeff).unwrap()
    }

    #[test]
    fn rescale_by_last_matches_reference_formula() {
        let mut rng = rng();
        // The CHAM chain at the paper degree and at the test degree, plus
        // chains whose dropped prime is below the surviving ones (there
        // `c mod q_i = c` and `p mod q_i = p`).
        for (n, primes) in [
            (4096, vec![Q0, Q1, SPECIAL_P]),
            (256, vec![Q0, Q1, SPECIAL_P]),
            (256, vec![SPECIAL_P, Q1, Q0]),
            (256, vec![SPECIAL_P, Q1]),
        ] {
            let full = RnsContext::new(n, &primes).unwrap();
            let reduced = full.drop_last().unwrap();
            for _ in 0..4 {
                let a = edge_poly(&full, &mut rng);
                let expect = rescale_reference(&a, &reduced);
                assert_eq!(a.rescale_by_last(&reduced).unwrap(), expect, "{primes:?}");
                let mut b = a.clone();
                b.rescale_by_last_in_place(&reduced).unwrap();
                assert_eq!(b, expect);
                // The scalar twin agrees coefficient by coefficient.
                for j in [0, 1, 2, 3, 4, 7, n - 1] {
                    let residues: Vec<u64> = a.limbs().iter().map(|l| l.coeffs()[j]).collect();
                    let got = full.rescale_residues(&residues);
                    let want: Vec<u64> = expect.limbs().iter().map(|l| l.coeffs()[j]).collect();
                    assert_eq!(got, want, "coeff {j}");
                }
            }
        }
    }

    #[test]
    fn rescale_in_place_rejects_bad_inputs_unchanged() {
        let full = ctx3(16);
        let mut a = RnsPoly::from_signed(&full, &[5i64; 16]).unwrap();
        let before = a.clone();
        assert!(a.rescale_by_last_in_place(&full).is_err()); // not the prefix
        a.to_ntt();
        assert!(a
            .rescale_by_last_in_place(&full.drop_last().unwrap())
            .is_err());
        a.to_coeff();
        assert_eq!(a, before);
        let single = RnsContext::new(16, &[Q0]).unwrap();
        let mut s = RnsPoly::zero(&single);
        assert!(s.rescale_by_last_in_place(&single).is_err());
    }

    #[test]
    fn constant_coeffs_read_ntt_form_without_inverse() {
        let mut rng = rng();
        for n in [16usize, 256, 4096] {
            let c = ctx3(n);
            let a = edge_poly(&c, &mut rng);
            let want: Vec<u64> = a.limbs().iter().map(|l| l.coeffs()[0]).collect();
            assert_eq!(a.constant_coeffs(), want);
            let mut an = a.clone();
            an.to_ntt();
            assert_eq!(an.constant_coeffs(), want, "n={n}");
        }
    }

    /// Checks the digits re-embed each source limb exactly
    /// (`digit_i mod q_j == limb_i mod q_j`) and recombine to the value.
    fn check_digits(src: &RnsPoly, target: &RnsContext) {
        let digits = src.decompose_digits(target).unwrap();
        assert_eq!(digits.len(), src.context().len());
        for (i, digit) in digits.iter().enumerate() {
            assert_eq!(digit.context(), target);
            assert_eq!(digit.form(), Form::Coeff);
            for (j, to) in target.moduli().iter().enumerate() {
                let expect: Vec<u64> = src.limbs()[i]
                    .coeffs()
                    .iter()
                    .map(|&x| x % to.value())
                    .collect();
                assert_eq!(digit.limbs()[j].coeffs(), expect, "digit {i} limb {j}");
            }
        }
    }

    #[test]
    fn decompose_digits_recombines() {
        // sum_i digit_i * (Q/q_i * [(Q/q_i)^-1]_{q_i}) == value (mod Q),
        // on the CHAM chain, with limb residues at 0 and q_i − 1.
        let two = RnsContext::new(16, &[Q0, Q1]).unwrap();
        let full = ctx3(16);
        let mut rng = rng();
        let q = two.modulus_product();
        let (q0, q1) = (Q0 as u128, Q1 as u128);
        let mut vals: Vec<u128> = vec![
            0,
            q - 1,
            q0,
            q0 - 1,
            q1,
            q1 - 1,
            q0 * (q1 - 1),
            q1 * (q0 - 1),
        ];
        vals.extend((vals.len()..16).map(|_| rng.gen::<u128>() % q));
        let limbs: Vec<Poly> = two
            .moduli()
            .iter()
            .map(|m| {
                Poly::from_coeffs(
                    vals.iter()
                        .map(|&v| (v % m.value() as u128) as u64)
                        .collect(),
                )
            })
            .collect();
        let a = RnsPoly::from_limbs(&two, limbs, Form::Coeff).unwrap();
        check_digits(&a, &full);
        let digits = a.decompose_digits(&full).unwrap();
        assert_eq!(digits.len(), 2);
        // Recombination constants
        let m0 = Modulus::new(Q0).unwrap();
        let m1 = Modulus::new(Q1).unwrap();
        let g0 = q1 * m0.inv(Q1 % Q0).unwrap() as u128 % q;
        let g1 = q0 * m1.inv(Q0 % Q1).unwrap() as u128 % q;
        for (j, &v) in vals.iter().enumerate() {
            let d0 = digits[0].limbs()[0].coeffs()[j] as u128; // value < q0
            let d1 = digits[1].limbs()[1].coeffs()[j] as u128; // value < q1
            let rec = (d0 * g0 % q + d1 * g1 % q) % q;
            assert_eq!(rec, v, "coeff {j}");
        }
        // Coefficient-form input and a matching degree are required.
        let mut an = a.clone();
        an.to_ntt();
        assert!(an.decompose_digits(&full).is_err());
        assert!(a.decompose_digits(&ctx3(32)).is_err());
    }

    #[test]
    fn decompose_digits_covers_every_embedding_case() {
        // 97 ≡ 1 mod 32 keeps the chain NTT-friendly at N = 16. Source
        // limbs into the target take all three paths: p → q0 and p → 97
        // need Barrett (p ≥ 2q), q0 → q1 one conditional subtraction
        // (q1 < q0 < 2·q1), and 97 / q1 → anything at least as large copy.
        let src = RnsContext::new(16, &[SPECIAL_P, Q0, Q1, 97]).unwrap();
        let target = RnsContext::new(16, &[Q1, 97, Q0, SPECIAL_P]).unwrap();
        assert_eq!(
            Embed::between(SPECIAL_P, &target.moduli()[2]),
            Embed::Barrett
        );
        assert_eq!(Embed::between(Q0, &target.moduli()[0]), Embed::CondSub);
        assert_eq!(Embed::between(97, &target.moduli()[0]), Embed::Copy);
        let mut rng = rng();
        let a = edge_poly(&src, &mut rng);
        check_digits(&a, &target);
    }

    #[test]
    fn automorph_and_shift_require_coeff_form() {
        let c = ctx3(16);
        let mut a = RnsPoly::from_signed(&c, &[2i64; 16]).unwrap();
        a.to_ntt();
        assert!(a.automorph(3).is_err());
        assert!(a.shift_neg(1).is_err());
        a.to_coeff();
        assert!(a.automorph(3).is_ok());
        assert!(a.shift_neg(1).is_ok());
    }

    #[test]
    fn assign_ops_match_allocating_twins() {
        let c = ctx3(32);
        let mut rng = rng();
        let av: Vec<i64> = (0..32).map(|_| rng.gen_range(-100..100)).collect();
        let bv: Vec<i64> = (0..32).map(|_| rng.gen_range(-100..100)).collect();
        let a = RnsPoly::from_signed(&c, &av).unwrap();
        let b = RnsPoly::from_signed(&c, &bv).unwrap();
        let mut x = a.clone();
        x.add_assign(&b).unwrap();
        assert_eq!(x, a.add(&b).unwrap());
        x.sub_assign(&b).unwrap();
        assert_eq!(x, a);
        // Mismatched forms are rejected like the allocating ops.
        let mut bn = b.clone();
        bn.to_ntt();
        assert!(x.add_assign(&bn).is_err());
        assert!(x.sub_assign(&bn).is_err());
    }

    #[test]
    fn to_ntt_into_matches_in_place() {
        let c = ctx3(64);
        let mut rng = rng();
        let coeffs: Vec<i64> = (0..64).map(|_| rng.gen_range(-100..100)).collect();
        let a = RnsPoly::from_signed(&c, &coeffs).unwrap();
        // dst starts as arbitrary garbage (a stale NTT-form value).
        let mut dst = RnsPoly::from_signed(&c, &vec![7i64; 64]).unwrap();
        dst.to_ntt();
        a.to_ntt_into(&mut dst).unwrap();
        let mut expect = a.clone();
        expect.to_ntt();
        assert_eq!(dst, expect);
        assert_eq!(a.form(), Form::Coeff, "source untouched");
        // NTT-form source is rejected.
        assert!(expect.to_ntt_into(&mut dst).is_err());
    }

    #[test]
    fn fused_accumulator_matches_mul_add() {
        let c = ctx3(16);
        let mut rng = rng();
        let terms = 2 * crate::poly::LAZY_ACC_BOUND + 3; // forces auto-flushes
        let pairs: Vec<(RnsPoly, RnsPoly)> = (0..terms)
            .map(|_| {
                let av: Vec<i64> = (0..16).map(|_| rng.gen_range(-1000..1000)).collect();
                let bv: Vec<i64> = (0..16).map(|_| rng.gen_range(-1000..1000)).collect();
                let mut a = RnsPoly::from_signed(&c, &av).unwrap();
                let mut b = RnsPoly::from_signed(&c, &bv).unwrap();
                a.to_ntt();
                b.to_ntt();
                (a, b)
            })
            .collect();
        let mut strict: Option<RnsPoly> = None;
        for (a, b) in &pairs {
            let t = a.mul_pointwise(b).unwrap();
            strict = Some(match strict {
                Some(s) => s.add(&t).unwrap(),
                None => t,
            });
        }
        let mut scratch = vec![0u128; c.len() * c.degree()];
        let mut acc = FusedAccumulator::new(&c, &mut scratch).unwrap();
        for (a, b) in &pairs {
            acc.accumulate(a, b).unwrap();
        }
        let fused = acc.finish();
        assert_eq!(fused, strict.unwrap());
        assert_eq!(fused.form(), Form::Ntt);
    }

    #[test]
    fn fused_accumulator_validates() {
        let c = ctx3(16);
        let mut short = vec![0u128; 5];
        assert!(FusedAccumulator::new(&c, &mut short).is_err());
        let mut scratch = vec![0u128; c.len() * c.degree()];
        let mut acc = FusedAccumulator::new(&c, &mut scratch).unwrap();
        let coeff_form = RnsPoly::from_signed(&c, &[1i64; 16]).unwrap();
        assert!(acc.accumulate(&coeff_form, &coeff_form).is_err());
        let other = RnsContext::new(16, &[Q0, Q1]).unwrap();
        let mut foreign = RnsPoly::from_signed(&other, &[1i64; 16]).unwrap();
        foreign.to_ntt();
        assert!(acc.accumulate(&foreign, &foreign).is_err());
    }

    #[test]
    fn small_norm() {
        let c = ctx3(4);
        let a = RnsPoly::from_signed(&c, &[3, -7, 0, 5]).unwrap();
        assert_eq!(a.small_inf_norm(), 7);
    }

    #[test]
    fn add_sub_context_mismatch() {
        let c2 = RnsContext::new(16, &[Q0, Q1]).unwrap();
        let c3 = ctx3(16);
        let a = RnsPoly::zero(&c2);
        let b = RnsPoly::zero(&c3);
        assert!(a.add(&b).is_err());
        assert!(a.sub(&b).is_err());
        let mut a_ntt = a.clone();
        a_ntt.to_ntt();
        assert!(a.add(&a_ntt).is_err()); // form mismatch
    }
}
