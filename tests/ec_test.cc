// Group-law, scalar-multiplication and fixed-base-table tests for G1/G2.
#include <gtest/gtest.h>

#include <random>

#include "ec/fixed_base.h"
#include "ec/g1.h"
#include "ec/g2.h"
#include "ec/glv.h"

namespace sjoin {
namespace {

class TestRandom {
 public:
  explicit TestRandom(uint64_t seed) : gen_(seed) {}
  Fr NextFr() {
    std::array<uint8_t, 64> b;
    for (auto& x : b) x = static_cast<uint8_t>(gen_());
    return Fr::FromUniformBytes(b.data());
  }
  U256 NextU256Small() {
    U256 u{};
    u.w[0] = gen_();
    return u;
  }

 private:
  std::mt19937_64 gen_;
};

// Naive double-and-add reference.
template <typename P>
P NaiveScalarMul(const P& base, const U256& k) {
  P acc = P::Infinity();
  for (size_t i = k.BitLength(); i > 0; --i) {
    acc = acc.Double();
    if (k.Bit(i - 1)) acc = acc.Add(base);
  }
  return acc;
}

const U256& GroupOrder() { return kBn254FrParams.p; }

// --- G1 ---------------------------------------------------------------------

TEST(G1Test, GeneratorOnCurve) {
  EXPECT_TRUE(G1Generator().IsOnCurve());
  EXPECT_FALSE(G1Generator().IsInfinity());
}

TEST(G1Test, GeneratorHasOrderR) {
  EXPECT_TRUE(G1Generator().ScalarMul(GroupOrder()).IsInfinity());
  // ...and no smaller power of two of it vanishes.
  U256 half = GroupOrder();
  for (int i = 0; i < 3; ++i) {
    half.w[i] = (half.w[i] >> 1) | (half.w[i + 1] << 63);
  }
  half.w[3] >>= 1;
  EXPECT_FALSE(G1Generator().ScalarMul(half).IsInfinity());
}

TEST(G1Test, InfinityIsIdentity) {
  G1 inf = G1::Infinity();
  const G1& g = G1Generator();
  EXPECT_TRUE((inf + inf).IsInfinity());
  EXPECT_EQ(g + inf, g);
  EXPECT_EQ(inf + g, g);
  EXPECT_TRUE(inf.IsOnCurve());
  EXPECT_TRUE((g - g).IsInfinity());
}

TEST(G1Test, DoubleMatchesAdd) {
  const G1& g = G1Generator();
  EXPECT_EQ(g.Double(), g + g);
  G1 four = g.Double().Double();
  EXPECT_EQ(four, g + g + g + g);
  EXPECT_TRUE(four.IsOnCurve());
}

TEST(G1Test, AdditionCommutesAndAssociates) {
  TestRandom rng(21);
  G1 a = G1Generator().ScalarMul(rng.NextFr());
  G1 b = G1Generator().ScalarMul(rng.NextFr());
  G1 c = G1Generator().ScalarMul(rng.NextFr());
  EXPECT_EQ(a + b, b + a);
  EXPECT_EQ((a + b) + c, a + (b + c));
  EXPECT_TRUE((a + b).IsOnCurve());
}

TEST(G1Test, MixedAddMatchesGeneralAdd) {
  TestRandom rng(22);
  G1 a = G1Generator().ScalarMul(rng.NextFr());
  G1 b = G1Generator().ScalarMul(rng.NextFr());
  EXPECT_EQ(a.AddMixed(b.ToAffine()), a + b);
  // Degenerate cases: same point, negation.
  EXPECT_EQ(a.AddMixed(a.ToAffine()), a.Double());
  EXPECT_TRUE(a.AddMixed(a.Negate().ToAffine()).IsInfinity());
}

TEST(G1Test, ScalarMulMatchesNaive) {
  TestRandom rng(23);
  const G1& g = G1Generator();
  for (uint64_t k : {0ull, 1ull, 2ull, 3ull, 7ull, 15ull, 16ull, 17ull,
                     255ull, 1000000007ull}) {
    U256 s{{k, 0, 0, 0}};
    EXPECT_EQ(g.ScalarMul(s), NaiveScalarMul(g, s)) << "k=" << k;
  }
  for (int i = 0; i < 5; ++i) {
    U256 s = rng.NextFr().ToCanonical();
    EXPECT_EQ(g.ScalarMul(s), NaiveScalarMul(g, s));
  }
}

TEST(G1Test, ScalarMulDistributes) {
  TestRandom rng(24);
  Fr a = rng.NextFr(), b = rng.NextFr();
  const G1& g = G1Generator();
  EXPECT_EQ(g.ScalarMul(a).Add(g.ScalarMul(b)), g.ScalarMul(a + b));
  EXPECT_EQ(g.ScalarMul(a).ScalarMul(b), g.ScalarMul(a * b));
}

TEST(G1Test, AffineRoundTrip) {
  TestRandom rng(25);
  G1 a = G1Generator().ScalarMul(rng.NextFr());
  G1Affine aff = a.ToAffine();
  EXPECT_EQ(G1::FromAffine(aff), a);
  EXPECT_EQ(aff.Negate().Negate(), aff);
}

TEST(G1Test, BatchToAffineMatchesIndividual) {
  TestRandom rng(26);
  std::vector<G1> points;
  for (int i = 0; i < 17; ++i) {
    points.push_back(G1Generator().ScalarMul(rng.NextFr()));
    if (i % 5 == 2) points.push_back(G1::Infinity());
  }
  auto batch = BatchToAffine<G1Curve>(points);
  ASSERT_EQ(batch.size(), points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(batch[i], points[i].ToAffine()) << i;
  }
  // Into caller storage holding a stale finite point: every slot,
  // infinities included, is overwritten.
  std::vector<G1Affine> into(points.size(), batch[0]);
  BatchToAffine<G1Curve>(points, std::span(into));
  EXPECT_EQ(into, batch);
}

TEST(G1Test, FixedBaseMatchesScalarMul) {
  TestRandom rng(27);
  G1FixedBase table(G1Generator());
  EXPECT_TRUE(table.Mul(U256{}).IsInfinity());
  for (int i = 0; i < 10; ++i) {
    Fr k = rng.NextFr();
    EXPECT_EQ(table.Mul(k), G1Generator().ScalarMul(k));
  }
}

// --- GLV (G1 only) ----------------------------------------------------------
// G1::ScalarMul routes through the GLV decomposition; ScalarMulWnaf is the
// generic reference it must agree with as a group element for every scalar.

TEST(GlvTest, MatchesWnafOnRandomScalars) {
  TestRandom rng(28);
  G1 base = G1Generator().ScalarMul(rng.NextFr());  // random base point
  for (int i = 0; i < 12; ++i) {
    U256 k = rng.NextFr().ToCanonical();
    EXPECT_EQ(ScalarMulGlv(base, k), base.ScalarMulWnaf(k));
  }
}

TEST(GlvTest, EdgeScalars) {
  const G1& g = G1Generator();
  EXPECT_TRUE(ScalarMulGlv(g, U256{}).IsInfinity());  // k = 0
  U256 one{{1, 0, 0, 0}};
  EXPECT_EQ(ScalarMulGlv(g, one), g);  // k = 1
  U256 r_minus_1 = (-Fr::One()).ToCanonical();  // k = r-1: -G
  EXPECT_EQ(ScalarMulGlv(g, r_minus_1), g.Negate());
  EXPECT_TRUE(ScalarMulGlv(g, GroupOrder()).IsInfinity());  // k = r
  // k > r exercises the mod-r reduction; [k]P == [k mod r]P on a prime-
  // order group, which the wNAF reference realizes without reducing.
  U256 all_ones{{~0ull, ~0ull, ~0ull, ~0ull}};
  EXPECT_EQ(g.ScalarMulWnaf(all_ones), NaiveScalarMul(g, all_ones));
  EXPECT_EQ(ScalarMulGlv(g, all_ones), g.ScalarMulWnaf(all_ones));
  EXPECT_TRUE(ScalarMulGlv(G1::Infinity(), one).IsInfinity());
}

TEST(GlvTest, EndomorphismIsLambdaMultiplication) {
  TestRandom rng(29);
  U256 lambda = GlvLambda().ToCanonical();
  for (int i = 0; i < 4; ++i) {
    G1 p = G1Generator().ScalarMul(rng.NextFr());
    G1 phi = GlvEndomorphism(p);
    EXPECT_TRUE(phi.IsOnCurve());
    EXPECT_EQ(phi, p.ScalarMulWnaf(lambda));
  }
  EXPECT_TRUE(GlvEndomorphism(G1::Infinity()).IsInfinity());
}

TEST(GlvTest, LambdaIsNontrivialCubeRootOfUnityModR) {
  Fr l = GlvLambda();
  EXPECT_NE(l, Fr::One());
  EXPECT_EQ(l * l * l, Fr::One());
  EXPECT_TRUE((l * l + l + Fr::One()).IsZero());
}

// --- G2 ---------------------------------------------------------------------

TEST(G2Test, GeneratorOnCurve) {
  EXPECT_TRUE(G2Generator().IsOnCurve());
  EXPECT_FALSE(G2Generator().IsInfinity());
}

TEST(G2Test, GeneratorHasOrderR) {
  EXPECT_TRUE(G2Generator().ScalarMul(GroupOrder()).IsInfinity());
}

TEST(G2Test, GroupLaws) {
  TestRandom rng(28);
  G2 a = G2Generator().ScalarMul(rng.NextFr());
  G2 b = G2Generator().ScalarMul(rng.NextFr());
  G2 c = G2Generator().ScalarMul(rng.NextFr());
  EXPECT_TRUE(a.IsOnCurve());
  EXPECT_EQ(a + b, b + a);
  EXPECT_EQ((a + b) + c, a + (b + c));
  EXPECT_EQ(a.Double(), a + a);
  EXPECT_TRUE((a - a).IsInfinity());
}

TEST(G2Test, ScalarMulMatchesNaive) {
  TestRandom rng(29);
  const G2& g = G2Generator();
  for (int i = 0; i < 3; ++i) {
    U256 s = rng.NextFr().ToCanonical();
    EXPECT_EQ(g.ScalarMul(s), NaiveScalarMul(g, s));
  }
  U256 small = rng.NextU256Small();
  EXPECT_EQ(g.ScalarMul(small), NaiveScalarMul(g, small));
}

TEST(G2Test, FixedBaseMatchesScalarMul) {
  TestRandom rng(30);
  G2FixedBase table(G2Generator());
  for (int i = 0; i < 5; ++i) {
    Fr k = rng.NextFr();
    EXPECT_EQ(table.Mul(k), G2Generator().ScalarMul(k));
  }
}

TEST(G2Test, SubgroupMultiplesStayOnCurve) {
  TestRandom rng(31);
  for (int i = 0; i < 5; ++i) {
    G2 p = G2Generator().ScalarMul(rng.NextFr());
    EXPECT_TRUE(p.IsOnCurve());
    EXPECT_TRUE(p.ScalarMul(GroupOrder()).IsInfinity());
  }
}

}  // namespace
}  // namespace sjoin
