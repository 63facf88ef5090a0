// Function-hiding inner-product encryption (Kim et al., SCN 2018) and the
// paper's modified variant (Section 4.2).
//
// Original scheme Pi_ipe:
//   Setup(1^lambda, S):  B <- GL_n(Z_q), B* = det(B) (B^-1)^T
//   KeyGen(msk, v):      alpha <- Z_q,  sk = (g1^{alpha det B}, g1^{alpha v B})
//   Encrypt(msk, w):     beta  <- Z_q,  ct = (g2^{beta}, g2^{beta w B*})
//   Decrypt(pp, sk, ct): D1 = e(K1, C1), D2 = e(K2, C2); find z in S with
//                        D1^z == D2.
//
// Modified variant used by Secure Join:
//   - alpha = beta = 1; the randomness moves into dedicated vector slots
//     (the caller appends gamma/delta coordinates to w and v),
//   - only the second component of keys/ciphertexts is kept,
//   - decryption returns D = e(g1,g2)^{det(B) <v,w>} in GT instead of
//     recovering <v,w> (no small-set restriction).
#ifndef SJOIN_IPE_IPE_H_
#define SJOIN_IPE_IPE_H_

#include <span>
#include <vector>

#include "crypto/rng.h"
#include "ec/fixed_base.h"
#include "linalg/matrix.h"
#include "pairing/pairing.h"
#include "util/status.h"

namespace sjoin {

/// Master secret key shared by the original and modified schemes.
struct IpeMasterKey {
  size_t dim = 0;
  FrMatrix b;        // B
  FrMatrix b_star;   // det(B) * (B^-1)^T
  Fr det;            // det(B)

  /// Samples B from GL_n(Z_q) and derives B*.
  static IpeMasterKey Setup(size_t dim, Rng* rng);
};

/// Secret key of the original scheme: (K1, K2).
struct IpeSecretKey {
  G1Affine k1;
  std::vector<G1Affine> k2;
};

/// Ciphertext of the original scheme: (C1, C2).
struct IpeCiphertext {
  G2Affine c1;
  std::vector<G2Affine> c2;
};

/// Original Kim et al. scheme.
class Ipe {
 public:
  static IpeSecretKey KeyGen(const IpeMasterKey& msk, std::span<const Fr> v,
                             Rng* rng);
  static IpeCiphertext Encrypt(const IpeMasterKey& msk, std::span<const Fr> w,
                               Rng* rng);
  /// Recovers <v, w> if it lies in [range_lo, range_hi] (the polynomial-sized
  /// set S, here an integer interval); NotFound otherwise.
  static Result<int64_t> DecryptRange(const IpeSecretKey& sk,
                                      const IpeCiphertext& ct, int64_t range_lo,
                                      int64_t range_hi);
};

/// Modified scheme (paper Section 4.2). Tokens live in G1, ciphertexts in
/// G2, decryption produces a GT value compared across rows by SJ.Match.
///
/// Decryption cost model: one n-way multi-pairing = one shared Fp12
/// squaring chain + one final exponentiation (both independent of n) plus
/// per-slot Miller-loop work (see pairing.h). The per-slot work splits
/// into G2 line derivation, which depends only on the ciphertext, and line
/// evaluation, which also depends on the token. Ciphertexts are fixed at
/// encryption time while tokens are fresh per query, so PrepareCiphertext
/// hoists the line derivation out of the per-query path: DecryptPrepared
/// performs line evaluation + sparse multiplication only, roughly halving
/// the Miller-loop cost of every decryption after the first.
class ModifiedIpe {
 public:
  /// Tk = g1^{v B}.
  static std::vector<G1Affine> KeyGen(const IpeMasterKey& msk,
                                      std::span<const Fr> v);
  /// C = g2^{w B*}; EncryptBatched of one vector, on the calling thread.
  static std::vector<G2Affine> Encrypt(const IpeMasterKey& msk,
                                       std::span<const Fr> w);
  /// Encrypt of every vector in `ws`; element i is byte-identical to
  /// Encrypt(msk, ws[i]) under any thread count. Per block of 128 rows,
  /// three pool passes: w B* per row, then one task per (row, coordinate)
  /// G2 fixed-base multiplication, then one BatchToAffine per row.
  /// num_threads <= 0 means the shared pool's full width; num_threads == 1
  /// runs inline on the calling thread and never touches the pool.
  static std::vector<std::vector<G2Affine>> EncryptBatched(
      const IpeMasterKey& msk, std::span<const std::vector<Fr>> ws,
      int num_threads);
  /// D = e(Tk, C) = e(g1, g2)^{det(B) <v, w>} (one multi-pairing).
  static GT Decrypt(std::span<const G1Affine> token,
                    std::span<const G2Affine> ct);

  /// Miller-loop half of Decrypt: the pre-final-exponentiation Fp12
  /// accumulator. Decrypt(tk, ct) == GT(FinalExponentiation(
  /// DecryptMiller(tk, ct))); batch decryption uses this to run one
  /// amortized final exponentiation over many rows
  /// (FinalExponentiationBatch in pairing.h).
  static Fp12 DecryptMiller(std::span<const G1Affine> token,
                            std::span<const G2Affine> ct);

  /// Per-slot Miller-loop line tables of a ciphertext; costs one
  /// Decrypt's worth of G2 work, amortized over later DecryptPrepared
  /// calls with any token.
  static std::vector<G2Prepared> PrepareCiphertext(
      std::span<const G2Affine> ct);
  /// Decrypt from a prepared ciphertext; same output as Decrypt over the
  /// ciphertext the preparation came from.
  static GT DecryptPrepared(std::span<const G1Affine> token,
                            std::span<const G2Prepared> ct);

  /// Miller-loop half of DecryptPrepared (see DecryptMiller).
  static Fp12 DecryptMillerPrepared(std::span<const G1Affine> token,
                                    std::span<const G2Prepared> ct);
};

}  // namespace sjoin

#endif  // SJOIN_IPE_IPE_H_
