// Short-Weierstrass curve arithmetic (a = 0) in Jacobian coordinates,
// templated over the coordinate field. Instantiated as G1 (over Fp) and
// G2 (over Fp2, the sextic twist) in g1.h / g2.h.
#ifndef SJOIN_EC_CURVE_H_
#define SJOIN_EC_CURVE_H_

#include <array>
#include <span>
#include <vector>

#include "field/bn254.h"
#include "util/status.h"

namespace sjoin {

/// Affine point; `infinity` is the group identity.
template <typename F>
struct AffinePoint {
  F x{};
  F y{};
  bool infinity = true;

  static AffinePoint Infinity() { return AffinePoint{}; }
  static AffinePoint From(const F& x, const F& y) {
    AffinePoint p;
    p.x = x;
    p.y = y;
    p.infinity = false;
    return p;
  }
  AffinePoint Negate() const {
    if (infinity) return *this;
    return From(x, -y);
  }
  bool operator==(const AffinePoint& o) const {
    if (infinity || o.infinity) return infinity == o.infinity;
    return x == o.x && y == o.y;
  }
};

/// Computes the width-4 signed windowed NAF of a 256-bit scalar.
/// Digits are odd in [-15, 15] or zero; at most 258 digits.
/// Returns the number of digits.
inline size_t ComputeWnaf4(const U256& scalar, std::array<int8_t, 260>* naf) {
  U256 k = scalar;
  // The negative-digit adjustment adds up to 8 to k, which can carry out of
  // 256 bits when the scalar is near 2^256; the flag holds that 2^256 bit
  // until the next right shift folds it back in.
  bool carry_out = false;
  size_t n = 0;
  auto shr1 = [](U256* v) {
    for (int i = 0; i < 3; ++i) {
      v->w[i] = (v->w[i] >> 1) | (v->w[i + 1] << 63);
    }
    v->w[3] >>= 1;
  };
  auto add_small = [](U256* v, uint64_t s) {
    uint128_t carry = s;
    for (int i = 0; i < 4 && carry != 0; ++i) {
      uint128_t cur = static_cast<uint128_t>(v->w[i]) + carry;
      v->w[i] = static_cast<uint64_t>(cur);
      carry = cur >> 64;
    }
    return carry != 0;
  };
  auto sub_small = [](U256* v, uint64_t s) {
    uint128_t borrow = s;
    for (int i = 0; i < 4 && borrow != 0; ++i) {
      uint128_t cur = static_cast<uint128_t>(v->w[i]) - borrow;
      v->w[i] = static_cast<uint64_t>(cur);
      borrow = (cur >> 64) & 1;
    }
  };
  while (!k.IsZero() || carry_out) {
    int8_t digit = 0;
    if (k.w[0] & 1) {
      uint64_t mod16 = k.w[0] & 0xf;
      if (mod16 >= 8) {
        digit = static_cast<int8_t>(static_cast<int64_t>(mod16) - 16);
        carry_out |= add_small(&k, static_cast<uint64_t>(16 - mod16));
      } else {
        digit = static_cast<int8_t>(mod16);
        sub_small(&k, mod16);
      }
    }
    (*naf)[n++] = digit;
    shr1(&k);
    if (carry_out) {
      k.w[3] |= uint64_t{1} << 63;
      carry_out = false;
    }
  }
  return n;
}

/// Jacobian projective point on y^2 = x^3 + b over Curve::Field.
/// (X, Y, Z) represents the affine point (X/Z^2, Y/Z^3); Z == 0 is infinity.
template <typename Curve>
class Point {
 public:
  using F = typename Curve::Field;
  using Affine = AffinePoint<F>;

  Point() : x_(F::One()), y_(F::One()), z_(F::Zero()) {}  // infinity

  static Point Infinity() { return Point(); }

  static Point FromAffine(const Affine& a) {
    if (a.infinity) return Infinity();
    Point p;
    p.x_ = a.x;
    p.y_ = a.y;
    p.z_ = F::One();
    return p;
  }
  static Point FromAffine(const F& x, const F& y) {
    return FromAffine(Affine::From(x, y));
  }

  /// Raw Jacobian construction (caller guarantees the coordinates are a
  /// valid curve point); used by the GLV endomorphism, which maps
  /// (X, Y, Z) -> (beta X, Y, Z) without leaving Jacobian form.
  static Point FromJacobian(const F& x, const F& y, const F& z) {
    Point p;
    p.x_ = x;
    p.y_ = y;
    p.z_ = z;
    return p;
  }

  const F& X() const { return x_; }
  const F& Y() const { return y_; }
  const F& Z() const { return z_; }

  bool IsInfinity() const { return z_.IsZero(); }

  /// Curve membership: Y^2 == X^3 + b Z^6 (infinity is on the curve).
  bool IsOnCurve() const {
    if (IsInfinity()) return true;
    F z2 = z_.Square();
    F z6 = z2 * z2 * z2;
    return y_.Square() == x_ * x_.Square() + z6 * Curve::B();
  }

  Affine ToAffine() const {
    if (IsInfinity()) return Affine::Infinity();
    F zinv = z_.Inverse();
    F zinv2 = zinv.Square();
    return Affine::From(x_ * zinv2, y_ * zinv2 * zinv);
  }

  Point Negate() const {
    Point p = *this;
    p.y_ = -p.y_;
    return p;
  }

  bool Equals(const Point& o) const {
    if (IsInfinity() || o.IsInfinity()) return IsInfinity() == o.IsInfinity();
    // Cross-multiplied comparison avoids inversions.
    F z1z1 = z_.Square();
    F z2z2 = o.z_.Square();
    if (x_ * z2z2 != o.x_ * z1z1) return false;
    return y_ * z2z2 * o.z_ == o.y_ * z1z1 * z_;
  }
  bool operator==(const Point& o) const { return Equals(o); }
  bool operator!=(const Point& o) const { return !Equals(o); }

  /// Jacobian doubling (a = 0), "dbl-2009-l"-style.
  Point Double() const {
    if (IsInfinity() || y_.IsZero()) return Infinity();
    F A = x_.Square();
    F B = y_.Square();
    F C = B.Square();
    F D = ((x_ + B).Square() - A - C).Double();
    F E = A.Double() + A;  // 3 X^2
    F Fq = E.Square();
    Point p;
    p.x_ = Fq - D.Double();
    p.y_ = E * (D - p.x_) - C.Double().Double().Double();  // 8C
    p.z_ = (y_ * z_).Double();
    return p;
  }

  /// General Jacobian addition ("add-2007-bl").
  Point Add(const Point& o) const {
    if (IsInfinity()) return o;
    if (o.IsInfinity()) return *this;
    F z1z1 = z_.Square();
    F z2z2 = o.z_.Square();
    F u1 = x_ * z2z2;
    F u2 = o.x_ * z1z1;
    F s1 = y_ * o.z_ * z2z2;
    F s2 = o.y_ * z_ * z1z1;
    F h = u2 - u1;
    F rr = (s2 - s1).Double();
    if (h.IsZero()) {
      if (rr.IsZero()) return Double();
      return Infinity();
    }
    F i = h.Double().Square();
    F j = h * i;
    F v = u1 * i;
    Point p;
    p.x_ = rr.Square() - j - v.Double();
    p.y_ = rr * (v - p.x_) - (s1 * j).Double();
    p.z_ = ((z_ + o.z_).Square() - z1z1 - z2z2) * h;
    return p;
  }
  Point operator+(const Point& o) const { return Add(o); }
  Point operator-(const Point& o) const { return Add(o.Negate()); }

  /// Mixed addition with an affine point ("madd-2007-bl").
  Point AddMixed(const Affine& o) const {
    if (o.infinity) return *this;
    if (IsInfinity()) return FromAffine(o);
    F z1z1 = z_.Square();
    F u2 = o.x * z1z1;
    F s2 = o.y * z_ * z1z1;
    F h = u2 - x_;
    F rr = (s2 - y_).Double();
    if (h.IsZero()) {
      if (rr.IsZero()) return Double();
      return Infinity();
    }
    F hh = h.Square();
    F i = hh.Double().Double();
    F j = h * i;
    F v = x_ * i;
    Point p;
    p.x_ = rr.Square() - j - v.Double();
    p.y_ = rr * (v - p.x_) - (y_ * j).Double();
    p.z_ = (z_ + h).Square() - z1z1 - hh;
    return p;
  }

  /// Variable-base scalar multiplication. The generic implementation is
  /// the width-4 wNAF below; G1 specializes this to the GLV two-dimensional
  /// decomposition (ec/glv.h), which halves the doubling chain. Both
  /// compute the same group element (tests pin GLV against ScalarMulWnaf).
  Point ScalarMul(const U256& scalar) const { return ScalarMulWnaf(scalar); }

  /// Width-4 wNAF scalar multiplication (the generic path; also the
  /// reference the GLV specialization is property-tested against).
  Point ScalarMulWnaf(const U256& scalar) const {
    if (IsInfinity() || scalar.IsZero()) return Infinity();
    std::array<int8_t, 260> naf;
    size_t n = ComputeWnaf4(scalar, &naf);
    // Odd multiples 1P, 3P, ..., 15P.
    std::array<Point, 8> table;
    table[0] = *this;
    Point twice = Double();
    for (size_t i = 1; i < 8; ++i) table[i] = table[i - 1].Add(twice);
    Point acc = Infinity();
    for (size_t i = n; i > 0; --i) {
      acc = acc.Double();
      int8_t d = naf[i - 1];
      if (d > 0) {
        acc = acc.Add(table[static_cast<size_t>(d / 2)]);
      } else if (d < 0) {
        acc = acc.Add(table[static_cast<size_t>(-d / 2)].Negate());
      }
    }
    return acc;
  }

  /// Scalar multiplication by a scalar-field element.
  Point ScalarMul(const Fr& k) const { return ScalarMul(k.ToCanonical()); }

 private:
  F x_, y_, z_;
};

/// Converts many Jacobian points to affine with a single field inversion
/// (Montgomery batch-inversion trick), writing out[i] for points[i].
/// Infinities map to affine infinity.
template <typename Curve>
void BatchToAffine(std::span<const Point<Curve>> points,
                   std::span<AffinePoint<typename Curve::Field>> out) {
  using F = typename Curve::Field;
  SJOIN_CHECK(out.size() == points.size());
  std::vector<F> prefix;
  prefix.reserve(points.size());
  F running = F::One();
  for (const auto& p : points) {
    if (!p.IsInfinity()) running = running * p.Z();
    prefix.push_back(running);
  }
  F inv = running.Inverse();
  for (size_t i = points.size(); i > 0; --i) {
    const auto& p = points[i - 1];
    if (p.IsInfinity()) {
      out[i - 1] = AffinePoint<F>::Infinity();
      continue;
    }
    F prev = (i >= 2) ? prefix[i - 2] : F::One();
    F zinv = inv * prev;
    inv = inv * p.Z();
    F zinv2 = zinv.Square();
    out[i - 1] = AffinePoint<F>::From(p.X() * zinv2, p.Y() * zinv2 * zinv);
  }
}

/// BatchToAffine into a fresh vector.
template <typename Curve>
std::vector<AffinePoint<typename Curve::Field>> BatchToAffine(
    std::span<const Point<Curve>> points) {
  std::vector<AffinePoint<typename Curve::Field>> out(points.size());
  BatchToAffine<Curve>(points, std::span(out));
  return out;
}

}  // namespace sjoin

#endif  // SJOIN_EC_CURVE_H_
