//! Homomorphic operations: plaintext multiplication, rescale, key-switch,
//! and Galois automorphism.
//!
//! These are the per-stage computations of the CHAM pipeline:
//!
//! * stage 1–3 — [`mul_plain`]: NTT, coefficient-wise multiply, INTT,
//! * stage 4 — [`rescale`]: divide by the special modulus,
//! * stage 5–9 — monomial multiply / add / sub (on [`RlweCiphertext`]),
//!   [`apply_galois`] (AUTOMORPHISM + KEYSWITCH).

use crate::ciphertext::RlweCiphertext;
use crate::encoding::Plaintext;
use crate::keys::{GaloisKeys, KeySwitchKey};
use crate::params::ChamParams;
use crate::{HeError, Result};
use cham_math::rns::{Form, FusedAccumulator, RnsContext, RnsPoly};

/// Lifts a plaintext into an RNS basis with **centred** coefficients (so
/// multiplication noise scales with `t/2`, not `t`), returning it in NTT
/// form ready for coefficient-wise multiplication.
///
/// # Errors
/// [`HeError::ShapeMismatch`] on length mismatch.
pub fn lift_plaintext_ntt(
    pt: &Plaintext,
    params: &ChamParams,
    ctx: &RnsContext,
) -> Result<RnsPoly> {
    if pt.len() != ctx.degree() {
        return Err(HeError::ShapeMismatch {
            expected: ctx.degree(),
            got: pt.len(),
        });
    }
    let t = params.plain_modulus();
    let signed: Vec<i64> = pt.values().iter().map(|&v| t.center(t.reduce(v))).collect();
    let mut p = RnsPoly::from_signed(ctx, &signed)?;
    p.to_ntt();
    Ok(p)
}

/// Plaintext–ciphertext multiplication: `ct' = pt ⊙ ct` (the DOTPRODUCT
/// stage when `pt` encodes a matrix row per Eq. 1).
///
/// Accepts the ciphertext in either form; returns it in coefficient form
/// (the pipeline's INTT stage output).
///
/// # Errors
/// Shape/context mismatches from the RNS layer.
pub fn mul_plain(
    ct: &RlweCiphertext,
    pt: &Plaintext,
    params: &ChamParams,
) -> Result<RlweCiphertext> {
    cham_telemetry::counter_add!("cham_he.ops.mul_plain", 1);
    let ctx = ct.b().context().clone();
    let pt_ntt = lift_plaintext_ntt(pt, params, &ctx)?;
    let mut b = ct.b().clone();
    let mut a = ct.a().clone();
    b.to_ntt();
    a.to_ntt();
    b.mul_pointwise_assign(&pt_ntt)?;
    a.mul_pointwise_assign(&pt_ntt)?;
    b.to_coeff();
    a.to_coeff();
    RlweCiphertext::new(b, a)
}

/// Same as [`mul_plain`] but with a pre-lifted NTT-form plaintext — the
/// production path where matrix rows are transformed once and reused
/// (CHAM streams matrix plaintexts from off-chip already in NTT form).
///
/// # Errors
/// Context mismatches from the RNS layer.
pub fn mul_plain_prepared(ct: &RlweCiphertext, pt_ntt: &RnsPoly) -> Result<RlweCiphertext> {
    if pt_ntt.form() != Form::Ntt {
        return Err(HeError::Incompatible(
            "prepared plaintext must be in NTT form",
        ));
    }
    let mut b = ct.b().clone();
    let mut a = ct.a().clone();
    b.to_ntt();
    a.to_ntt();
    b.mul_pointwise_assign(pt_ntt)?;
    a.mul_pointwise_assign(pt_ntt)?;
    b.to_coeff();
    a.to_coeff();
    RlweCiphertext::new(b, a)
}

/// Plaintext addition: `ct' = ct + Δ·pt` (noise unchanged). Used by the
/// HeteroLR protocol's `add_vec` step, where party B folds its own share
/// into A's encrypted activations.
///
/// # Errors
/// Shape mismatches from the RNS layer.
pub fn add_plain(
    ct: &RlweCiphertext,
    pt: &Plaintext,
    params: &ChamParams,
) -> Result<RlweCiphertext> {
    let ctx = ct.b().context().clone();
    if pt.len() != ctx.degree() {
        return Err(HeError::ShapeMismatch {
            expected: ctx.degree(),
            got: pt.len(),
        });
    }
    let t = params.plain_modulus();
    let delta = ctx.modulus_product() / t.value() as u128;
    let limbs = ctx
        .moduli()
        .iter()
        .map(|m| {
            let d = (delta % m.value() as u128) as u64;
            cham_math::poly::Poly::from_coeffs(
                pt.values().iter().map(|&v| m.mul(d, m.reduce(v))).collect(),
            )
        })
        .collect();
    let mut scaled = RnsPoly::from_limbs(&ctx, limbs, Form::Coeff)?;
    if ct.form() == Form::Ntt {
        scaled.to_ntt();
    }
    // Fold `b` into the freshly built Δ·pt in place — one allocation for
    // the sum instead of a second from `add`.
    scaled.add_assign(ct.b())?;
    RlweCiphertext::new(scaled, ct.a().clone())
}

/// Small-scalar multiplication: `ct' = c·ct`, multiplying the plaintext by
/// the *centred* representative of `c mod t` (noise scales with `|c|`, so
/// keep `c` small).
pub fn mul_plain_scalar(ct: &RlweCiphertext, c: u64, params: &ChamParams) -> RlweCiphertext {
    let t = params.plain_modulus();
    let centred = t.center(t.reduce(c));
    let ctx = ct.b().context();
    let apply = |p: &RnsPoly| {
        let limbs = p
            .limbs()
            .iter()
            .zip(ctx.moduli())
            .map(|(l, m)| l.mul_scalar(m.from_signed(centred), m))
            .collect();
        RnsPoly::from_limbs(ctx, limbs, p.form()).expect("limbs match context")
    };
    RlweCiphertext::new(apply(ct.b()), apply(ct.a())).expect("components consistent")
}

/// RESCALE (pipeline stage-4): divide an augmented-basis ciphertext by the
/// special modulus `p`, producing a normal-basis ciphertext and shrinking
/// the multiplication noise by `≈ log2 p` bits.
///
/// # Errors
/// [`HeError::Incompatible`] when the ciphertext is not in the augmented
/// basis of `params`.
pub fn rescale(ct: &RlweCiphertext, params: &ChamParams) -> Result<RlweCiphertext> {
    cham_telemetry::counter_add!("cham_he.ops.rescale", 1);
    if ct.b().context() != params.augmented_context() {
        return Err(HeError::Incompatible(
            "rescale expects an augmented-basis ciphertext",
        ));
    }
    let target = params.ciphertext_context();
    let mut b = ct.b().clone();
    let mut a = ct.a().clone();
    b.to_coeff();
    a.to_coeff();
    b.rescale_by_last_in_place(target)?;
    a.rescale_by_last_in_place(target)?;
    RlweCiphertext::new(b, a)
}

/// MODSWITCH: drops the last remaining auxiliary prime of a *normal-basis*
/// ciphertext, producing a single-limb ciphertext over `q0` — the
/// communication optimisation for result ciphertexts (§IV-B lists
/// MODSWITCH among the PPU functions): the returned ciphertext is half the
/// size and still decrypts, with scale `≈ q0/t`.
///
/// # Errors
/// [`HeError::Incompatible`] unless the input is in the normal basis of
/// `params`.
pub fn mod_switch_to_single(ct: &RlweCiphertext, params: &ChamParams) -> Result<RlweCiphertext> {
    cham_telemetry::counter_add!("cham_he.ops.mod_switch", 1);
    if ct.b().context() != params.ciphertext_context() {
        return Err(HeError::Incompatible(
            "mod_switch expects a normal-basis ciphertext",
        ));
    }
    let target = params.ciphertext_context().drop_last()?;
    let mut b = ct.b().clone();
    let mut a = ct.a().clone();
    b.to_coeff();
    a.to_coeff();
    b.rescale_by_last_in_place(&target)?;
    a.rescale_by_last_in_place(&target)?;
    RlweCiphertext::new(b, a)
}

/// Key-switches the mask `a` (currently keyed to some `s_old`) to the
/// owner's key, returning the correction pair `(b_ks, a_ks)` over the
/// normal basis such that `b_ks + a_ks·s ≈ a·s_old`.
///
/// This is the KEYSWITCH functional unit: RNS digit decomposition, one
/// NTT-domain multiply-accumulate per digit against the KSK, then a rescale
/// by `p`.
///
/// # Errors
/// Context mismatches from the RNS layer.
pub fn keyswitch_mask(
    a: &RnsPoly,
    ksk: &KeySwitchKey,
    params: &ChamParams,
) -> Result<(RnsPoly, RnsPoly)> {
    cham_telemetry::counter_add!("cham_he.ops.keyswitch", 1);
    cham_telemetry::time_scope!("cham_he.ops.keyswitch");
    let aug = params.augmented_context();
    let target = params.ciphertext_context();
    // Decompose straight from `a` when it is already in coefficient form
    // (every caller in the packing path); only an NTT-form mask is copied.
    let mut digits = if a.form() == Form::Coeff {
        a.decompose_digits(aug)?
    } else {
        let mut a_coeff = a.clone();
        a_coeff.to_coeff();
        a_coeff.decompose_digits(aug)?
    };
    if digits.len() != ksk.digit_count() {
        return Err(HeError::Incompatible(
            "digit count does not match the key-switch key",
        ));
    }
    // The per-digit NTTs are independent — fan them out across the pool.
    // The digit × KSK multiplies then run through one fused accumulator
    // pair over per-worker scratch (deferred reduction, no per-term
    // allocation); the sum of products is the same residues the strict
    // multiply/add sequence produces, so the result stays bit-identical.
    cham_pool::for_each_mut(&mut digits, |_, d| d.to_ntt());
    let lanes = aug.len() * aug.degree();
    let (mut acc_b, mut acc_a) =
        crate::scratch::with_dot_scratch(lanes, |s| -> Result<(RnsPoly, RnsPoly)> {
            let mut b_acc = FusedAccumulator::new(aug, &mut s.b_acc)?;
            let mut a_acc = FusedAccumulator::new(aug, &mut s.a_acc)?;
            for (i, d) in digits.iter().enumerate() {
                b_acc.accumulate(d, &ksk.b[i])?;
                a_acc.accumulate(d, &ksk.a[i])?;
            }
            Ok((b_acc.finish(), a_acc.finish()))
        })?;
    acc_b.to_coeff();
    acc_a.to_coeff();
    acc_b.rescale_by_last_in_place(target)?;
    acc_a.rescale_by_last_in_place(target)?;
    Ok((acc_b, acc_a))
}

/// AUTOMORPHISM + KEYSWITCH (Alg. 2 lines 4–5): applies the Galois map
/// `X → X^k` to a normal-basis ciphertext and switches the result back to
/// the original key using the Galois key set.
///
/// # Errors
/// [`HeError::MissingGaloisKey`] when no key for `k` is stored;
/// [`HeError::Incompatible`] for an augmented-basis input.
pub fn apply_galois(
    ct: &RlweCiphertext,
    k: usize,
    gkeys: &GaloisKeys,
    params: &ChamParams,
) -> Result<RlweCiphertext> {
    cham_telemetry::counter_add!("cham_he.ops.apply_galois", 1);
    if ct.b().context() != params.ciphertext_context() {
        return Err(HeError::Incompatible(
            "apply_galois expects a normal-basis ciphertext",
        ));
    }
    let ksk = gkeys.get(k)?;
    let mut c = ct.clone();
    c.to_coeff();
    let b_k = c.b().automorph(k)?;
    let a_k = c.a().automorph(k)?;
    let (ks_b, ks_a) = keyswitch_mask(&a_k, ksk, params)?;
    RlweCiphertext::new(b_k.add(&ks_b)?, ks_a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::CoeffEncoder;
    use crate::encrypt::{Decryptor, Encryptor};
    use crate::keys::SecretKey;
    use rand::{Rng, SeedableRng};

    fn setup() -> (
        ChamParams,
        SecretKey,
        Encryptor,
        Decryptor,
        CoeffEncoder,
        rand::rngs::StdRng,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        let params = ChamParams::insecure_test_default().unwrap();
        let sk = SecretKey::generate(&params, &mut rng);
        let enc = Encryptor::new(&params, &sk);
        let dec = Decryptor::new(&params, &sk);
        let coder = CoeffEncoder::new(&params);
        (params, sk, enc, dec, coder, rng)
    }

    #[test]
    fn mul_plain_dot_product_constant_coeff() {
        let (params, _, enc, dec, coder, mut rng) = setup();
        let t = params.plain_modulus();
        let n = params.degree();
        let row: Vec<u64> = (0..n).map(|_| rng.gen_range(0..t.value())).collect();
        let v: Vec<u64> = (0..n).map(|_| rng.gen_range(0..t.value())).collect();
        let ct_v = enc.encrypt_augmented(&coder.encode_vector(&v).unwrap(), &mut rng);
        let pt_row = coder.encode_row(&row).unwrap();
        let prod = mul_plain(&ct_v, &pt_row, &params).unwrap();
        let report = dec.decrypt_with_noise(&prod);
        let expect = row
            .iter()
            .zip(&v)
            .fold(0u64, |acc, (&x, &y)| t.add(acc, t.mul(x, y)));
        assert_eq!(report.plaintext.values()[0], expect);
        assert!(report.budget_bits > 0.0);
    }

    #[test]
    fn rescale_preserves_plaintext_and_shrinks_noise() {
        let (params, _, enc, dec, coder, mut rng) = setup();
        let t = params.plain_modulus();
        let n = params.degree();
        let row: Vec<u64> = (0..n).map(|_| rng.gen_range(0..t.value())).collect();
        let v: Vec<u64> = (0..n).map(|_| rng.gen_range(0..t.value())).collect();
        let ct_v = enc.encrypt_augmented(&coder.encode_vector(&v).unwrap(), &mut rng);
        let prod = mul_plain(&ct_v, &coder.encode_row(&row).unwrap(), &params).unwrap();
        let before = dec.decrypt_with_noise(&prod);
        let rescaled = rescale(&prod, &params).unwrap();
        let after = dec.decrypt_with_noise(&rescaled);
        assert_eq!(before.plaintext.values()[0], after.plaintext.values()[0]);
        assert!(
            after.noise_bits < before.noise_bits,
            "before {} after {}",
            before.noise_bits,
            after.noise_bits
        );
    }

    #[test]
    fn rescale_rejects_normal_basis() {
        let (params, _, enc, _, coder, mut rng) = setup();
        let ct = enc.encrypt(&coder.encode_vector(&[1]).unwrap(), &mut rng);
        assert!(rescale(&ct, &params).is_err());
    }

    #[test]
    fn keyswitch_identity_key_preserves_decryption() {
        // Switching from s to s itself must be (nearly) a no-op.
        let (params, sk, enc, dec, coder, mut rng) = setup();
        let pt = coder.encode_vector(&[42, 17, 65000]).unwrap();
        let ct = enc.encrypt(&pt, &mut rng);
        let ksk = KeySwitchKey::generate(&sk, sk.coeffs(), &mut rng).unwrap();
        let (ks_b, ks_a) = keyswitch_mask(ct.a(), &ksk, &params).unwrap();
        let new_ct = RlweCiphertext::new(ct.b().clone().add(&ks_b).unwrap(), ks_a).unwrap();
        let report = dec.decrypt_with_noise(&new_ct);
        assert_eq!(report.plaintext.values()[..3], [42, 17, 65000]);
        assert!(report.budget_bits > 20.0);
    }

    #[test]
    fn apply_galois_permutes_plaintext() {
        let (params, sk, enc, dec, coder, mut rng) = setup();
        let n = params.degree();
        let t = params.plain_modulus();
        let vals: Vec<u64> = (0..n as u64).map(|i| i % t.value()).collect();
        let pt = coder.encode_vector(&vals).unwrap();
        let ct = enc.encrypt(&pt, &mut rng);
        let k = 3usize;
        let gkeys = GaloisKeys::generate(&sk, &[k], &mut rng).unwrap();
        let rotated = apply_galois(&ct, k, &gkeys, &params).unwrap();
        let report = dec.decrypt_with_noise(&rotated);
        // Expected: σ_k applied to the plaintext polynomial over Z_t.
        let expect = cham_math::poly::Poly::from_coeffs(vals)
            .automorph(k, t)
            .unwrap();
        assert_eq!(report.plaintext.values(), expect.coeffs());
        assert!(report.budget_bits > 10.0, "budget {}", report.budget_bits);
    }

    #[test]
    fn apply_galois_requires_key() {
        let (params, _, enc, _, coder, mut rng) = setup();
        let ct = enc.encrypt(&coder.encode_vector(&[1]).unwrap(), &mut rng);
        let gkeys = GaloisKeys::new();
        assert!(matches!(
            apply_galois(&ct, 3, &gkeys, &params),
            Err(HeError::MissingGaloisKey(3))
        ));
    }

    #[test]
    fn apply_galois_rejects_augmented() {
        let (params, sk, enc, _, coder, mut rng) = setup();
        let ct = enc.encrypt_augmented(&coder.encode_vector(&[1]).unwrap(), &mut rng);
        let gkeys = GaloisKeys::generate(&sk, &[3], &mut rng).unwrap();
        assert!(apply_galois(&ct, 3, &gkeys, &params).is_err());
    }

    #[test]
    fn mod_switch_halves_size_and_preserves_plaintext() {
        let (params, _, enc, dec, coder, mut rng) = setup();
        let pt = coder.encode_vector(&[42, 65000, 7]).unwrap();
        let ct = enc.encrypt(&pt, &mut rng);
        let small = mod_switch_to_single(&ct, &params).unwrap();
        assert_eq!(small.b().context().len(), 1);
        let report = dec.decrypt_with_noise(&small);
        assert_eq!(&report.plaintext.values()[..3], &[42, 65000, 7]);
        assert!(report.budget_bits > 0.0, "budget {}", report.budget_bits);
        // Switching an augmented ciphertext is rejected.
        let aug = enc.encrypt_augmented(&pt, &mut rng);
        assert!(mod_switch_to_single(&aug, &params).is_err());
    }

    #[test]
    fn add_plain_and_scalar_mul() {
        let (params, _, enc, dec, coder, mut rng) = setup();
        let t = params.plain_modulus();
        let pt_a = coder.encode_vector(&[100, 65530]).unwrap();
        let pt_b = coder.encode_vector(&[7, 10]).unwrap();
        let ct = enc.encrypt_augmented(&pt_a, &mut rng);
        let sum = add_plain(&ct, &pt_b, &params).unwrap();
        let got = dec.decrypt(&sum);
        assert_eq!(got.values()[0], 107);
        assert_eq!(got.values()[1], t.add(65530, 10));
        // Scalar multiply by 3 and by t−1 (i.e. −1).
        let tripled = mul_plain_scalar(&ct, 3, &params);
        assert_eq!(dec.decrypt(&tripled).values()[0], 300);
        let negated = mul_plain_scalar(&ct, t.value() - 1, &params);
        assert_eq!(dec.decrypt(&negated).values()[0], t.value() - 100);
    }

    #[test]
    fn add_plain_works_in_ntt_form() {
        let (params, _, enc, dec, coder, mut rng) = setup();
        let mut ct = enc.encrypt_augmented(&coder.encode_vector(&[5]).unwrap(), &mut rng);
        ct.to_ntt();
        let sum = add_plain(&ct, &coder.encode_vector(&[6]).unwrap(), &params).unwrap();
        let mut sum = sum;
        sum.to_coeff();
        assert_eq!(dec.decrypt(&sum).values()[0], 11);
    }

    #[test]
    fn prepared_plaintext_matches_unprepared() {
        let (params, _, enc, dec, coder, mut rng) = setup();
        let t = params.plain_modulus().value();
        let n = params.degree();
        let row: Vec<u64> = (0..n).map(|_| rng.gen_range(0..t)).collect();
        let v: Vec<u64> = (0..n).map(|_| rng.gen_range(0..t)).collect();
        let ct = enc.encrypt_augmented(&coder.encode_vector(&v).unwrap(), &mut rng);
        let pt = coder.encode_row(&row).unwrap();
        let direct = mul_plain(&ct, &pt, &params).unwrap();
        let prepared = lift_plaintext_ntt(&pt, &params, params.augmented_context()).unwrap();
        let via_prepared = mul_plain_prepared(&ct, &prepared).unwrap();
        assert_eq!(
            dec.decrypt(&direct).values(),
            dec.decrypt(&via_prepared).values()
        );
    }
}
