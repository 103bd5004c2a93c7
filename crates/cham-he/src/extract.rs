//! `EXTRACTLWES` (Eq. 3) and the inverse `LWE-TO-RLWE` conversion.
//!
//! After the dot product, only the *constant coefficient* of each result
//! ciphertext is meaningful (Eq. 2). `EXTRACTLWES` peels that coefficient
//! off as an LWE ciphertext `(b₀, â)` with
//!
//! ```text
//! â(X) = a₀ − Σ_{j=1}^{N−1} a_j X^{N−j}       (Eq. 3)
//! ```
//!
//! so that `b₀ + ⟨â, s⟩` equals the RLWE phase's constant coefficient. The
//! rearrangement is an involution; applying it again (`LWE-TO-RLWE`)
//! recovers an RLWE-shaped pair whose phase carries the payload in its
//! constant coefficient — the form `PACKLWES` consumes. On CHAM both
//! directions are `SHIFTNEG`/`REV`-style coefficient passes executed by the
//! PPUs in the same pipeline stage as RESCALE (§III-A).

use crate::ciphertext::{LweCiphertext, RlweCiphertext};
use crate::params::ChamParams;
use crate::{HeError, Result};
use cham_math::poly::Poly;
use cham_math::rns::{Form, RnsPoly};

/// The Eq. 3 coefficient rearrangement, in place on a coefficient-form
/// polynomial: `â₀ = a₀`, `â_{N−j} = −a_j` — reverse `a_1..a_{N−1}`, then
/// negate them. An involution (applying twice is the identity).
fn rearrange(a: &mut RnsPoly) {
    debug_assert_eq!(a.form(), Form::Coeff);
    let ctx = a.context().clone();
    for (limb, m) in a.limbs_mut().iter_mut().zip(ctx.moduli()) {
        let tail = &mut limb.coeffs_mut()[1..];
        tail.reverse();
        for x in tail {
            *x = m.neg(*x);
        }
    }
}

/// `EXTRACTLWES` at coefficient `index`: converts an RLWE ciphertext into
/// the LWE ciphertext of its plaintext's `index`-th coefficient.
///
/// The CHAM pipeline only extracts `index = 0` (the dot-product result);
/// general indices are provided because the 2-D convolution extension reads
/// interior coefficients.
///
/// # Errors
/// [`HeError::ShapeMismatch`] when `index >= N`.
pub fn extract_lwe(ct: &RlweCiphertext, index: usize) -> Result<LweCiphertext> {
    cham_telemetry::counter_add!("cham_he.extract.extract_lwe", 1);
    let n = ct.b().context().degree();
    if index >= n {
        return Err(HeError::ShapeMismatch {
            expected: n,
            got: index,
        });
    }
    let (b0, mut a) = if index == 0 {
        // Only `a` is copied; `b`'s constant coefficient is read in place
        // (without an INTT when `b` is in NTT form).
        (ct.b().constant_coeffs(), ct.a().clone())
    } else {
        // Shift the wanted coefficient into position 0: multiplying by
        // X^{-i} = -X^{N-i} moves coefficient i to 0 (and is exactly how
        // the PPUs do it, via SHIFTNEG).
        let mut c = ct.clone();
        c.to_coeff();
        let shifted = c.mul_monomial(2 * n - index)?;
        (shifted.b.constant_coeffs(), shifted.a)
    };
    a.to_coeff();
    rearrange(&mut a);
    LweCiphertext::new(b0, a)
}

/// RESCALE fused with `EXTRACTLWES` at index 0 — CHAM's pipeline stage 4,
/// which runs both in the PPUs. Returns exactly
/// `extract_lwe(&ops::rescale(&ct, params)?, 0)` while doing only the work
/// that LWE needs:
///
/// * `b` is never inverse-transformed: its constant coefficient per limb
///   is read from NTT form as `N⁻¹·Σ_k NTT(b)_k`
///   ([`RnsPoly::constant_coeffs`]) and rescaled as one scalar
///   ([`cham_math::rns::RnsContext::rescale_residues`]);
/// * `a` is taken by value and transformed, rescaled and rearranged in its
///   own buffers — nothing is cloned.
///
/// # Errors
/// [`HeError::Incompatible`] unless `ct` is in the augmented basis of
/// `params`.
pub fn rescale_extract(ct: RlweCiphertext, params: &ChamParams) -> Result<LweCiphertext> {
    cham_telemetry::counter_add!("cham_he.ops.rescale", 1);
    cham_telemetry::counter_add!("cham_he.extract.extract_lwe", 1);
    let aug = params.augmented_context();
    if ct.b().context() != aug {
        return Err(HeError::Incompatible(
            "rescale expects an augmented-basis ciphertext",
        ));
    }
    let RlweCiphertext { b, mut a } = ct;
    let b0 = aug.rescale_residues(&b.constant_coeffs());
    a.to_coeff();
    a.rescale_by_last_in_place(params.ciphertext_context())?;
    rearrange(&mut a);
    LweCiphertext::new(b0, a)
}

/// `LWE-TO-RLWE`: re-imports an LWE ciphertext as an RLWE ciphertext whose
/// plaintext carries the payload in its constant coefficient (non-constant
/// coefficients are meaningless "garbage" that `PACKLWES` overwrites).
pub fn lwe_to_rlwe(lwe: &LweCiphertext) -> RlweCiphertext {
    let ctx = lwe.a().context().clone();
    let n = ctx.degree();
    // b(X) = b0 (constant coefficient only).
    let b_limbs = lwe
        .b()
        .iter()
        .map(|&b0| {
            let mut v = vec![0u64; n];
            v[0] = b0;
            Poly::from_coeffs(v)
        })
        .collect();
    let b = RnsPoly::from_limbs(&ctx, b_limbs, Form::Coeff).expect("limbs match context");
    let mut a = lwe.a().clone();
    rearrange(&mut a);
    RlweCiphertext::new(b, a).expect("components share context and form")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::CoeffEncoder;
    use crate::encrypt::{Decryptor, Encryptor};
    use crate::keys::SecretKey;
    use crate::params::ChamParams;
    use rand::{Rng, SeedableRng};

    fn setup() -> (
        ChamParams,
        Encryptor,
        Decryptor,
        CoeffEncoder,
        rand::rngs::StdRng,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(55);
        let params = ChamParams::insecure_test_default().unwrap();
        let sk = SecretKey::generate(&params, &mut rng);
        let enc = Encryptor::new(&params, &sk);
        let dec = Decryptor::new(&params, &sk);
        let coder = CoeffEncoder::new(&params);
        (params, enc, dec, coder, rng)
    }

    #[test]
    fn extract_constant_coefficient() {
        let (params, enc, dec, coder, mut rng) = setup();
        let t = params.plain_modulus().value();
        let vals: Vec<u64> = (0..params.degree()).map(|_| rng.gen_range(0..t)).collect();
        let ct = enc.encrypt(&coder.encode_vector(&vals).unwrap(), &mut rng);
        let lwe = extract_lwe(&ct, 0).unwrap();
        assert_eq!(dec.decrypt_lwe(&lwe), vals[0]);
    }

    #[test]
    fn extract_arbitrary_coefficients() {
        let (params, enc, dec, coder, mut rng) = setup();
        let t = params.plain_modulus().value();
        let n = params.degree();
        let vals: Vec<u64> = (0..n).map(|_| rng.gen_range(0..t)).collect();
        let ct = enc.encrypt(&coder.encode_vector(&vals).unwrap(), &mut rng);
        for idx in [0usize, 1, 7, n / 2, n - 1] {
            let lwe = extract_lwe(&ct, idx).unwrap();
            assert_eq!(dec.decrypt_lwe(&lwe), vals[idx], "index {idx}");
        }
        assert!(extract_lwe(&ct, n).is_err());
    }

    #[test]
    fn lwe_to_rlwe_keeps_payload_at_constant_coeff() {
        let (_, enc, dec, coder, mut rng) = setup();
        let ct = enc.encrypt(&coder.encode_vector(&[321, 7, 9]).unwrap(), &mut rng);
        let lwe = extract_lwe(&ct, 0).unwrap();
        let back = lwe_to_rlwe(&lwe);
        let pt = dec.decrypt(&back);
        assert_eq!(pt.values()[0], 321);
    }

    #[test]
    fn rearrangement_is_involution() {
        let (params, _, _, _, mut rng) = setup();
        let ctx = params.ciphertext_context();
        let a = cham_math::sampling::uniform_rns_poly(ctx, &mut rng);
        let mut hat = a.clone();
        rearrange(&mut hat);
        // Eq. 3, limb by limb.
        let n = params.degree();
        for ((h, x), m) in hat.limbs().iter().zip(a.limbs()).zip(ctx.moduli()) {
            assert_eq!(h.coeffs()[0], x.coeffs()[0]);
            for j in 1..n {
                assert_eq!(h.coeffs()[n - j], m.neg(x.coeffs()[j]));
            }
        }
        rearrange(&mut hat);
        assert_eq!(hat, a);
    }

    #[test]
    fn rescale_extract_matches_rescale_then_extract() {
        let (params, enc, dec, coder, mut rng) = setup();
        let t = params.plain_modulus().value();
        let vals: Vec<u64> = (0..params.degree()).map(|_| rng.gen_range(0..t)).collect();
        let ct = enc.encrypt_augmented(&coder.encode_vector(&vals).unwrap(), &mut rng);
        let reference = extract_lwe(&crate::ops::rescale(&ct, &params).unwrap(), 0).unwrap();
        // Both input forms: NTT (the HMVP accumulator) and coefficient.
        let mut ntt = ct.clone();
        ntt.to_ntt();
        for input in [ntt, ct.clone()] {
            let fused = rescale_extract(input, &params).unwrap();
            assert_eq!(fused, reference);
        }
        assert_eq!(dec.decrypt_lwe(&reference), vals[0]);
        // A normal-basis ciphertext is rejected, like `ops::rescale`.
        let normal = enc.encrypt(&coder.encode_vector(&[1]).unwrap(), &mut rng);
        assert!(rescale_extract(normal, &params).is_err());
    }

    #[test]
    fn lwe_to_rlwe_of_extract_zero_restores_mask() {
        // For index 0 the round trip reproduces the original mask `a`
        // exactly, and `b` truncated to its constant coefficient.
        let (_, enc, _, coder, mut rng) = setup();
        let mut ct = enc.encrypt(&coder.encode_vector(&[5]).unwrap(), &mut rng);
        ct.to_coeff();
        let lwe = extract_lwe(&ct, 0).unwrap();
        let rt = lwe_to_rlwe(&lwe);
        assert_eq!(rt.a(), ct.a());
        assert_eq!(rt.b().limbs()[0].coeffs()[0], ct.b().limbs()[0].coeffs()[0]);
        assert!(rt.b().limbs()[0].coeffs()[1..].iter().all(|&c| c == 0));
    }

    #[test]
    fn extract_after_augmented_pipeline() {
        // Extraction works in the augmented basis too (pre-rescale LWEs are
        // never used by the pipeline, but the types permit it).
        let (_, enc, dec, coder, mut rng) = setup();
        let ct = enc.encrypt_augmented(&coder.encode_vector(&[4242]).unwrap(), &mut rng);
        let lwe = extract_lwe(&ct, 0).unwrap();
        assert_eq!(dec.decrypt_lwe(&lwe), 4242);
    }
}
