// Overflow-safe counts for the tree-counting DPs (stap measure).
//
// Tree counts grow doubly fast in depth — the Theorem 3.2 family already
// exceeds 2^64 distinct documents at modest depth — so the counting DPs
// cannot run on machine integers, and running them on doubles silently
// loses the exactness the enumeration oracles test against. BigNat is a
// minimal arbitrary-precision unsigned integer (base 2^64 limbs,
// schoolbook multiplication — counting tables multiply numbers of a few
// limbs, so asymptotically clever algorithms buy nothing here).
// CountValue wraps it with a log-domain escape hatch: values stay exact
// until they outgrow kMaxExactLimbs, then degrade to a log2-domain double
// with an explicit exact() flag, so a pathological depth degrades
// gracefully into approximate magnitudes instead of unbounded limb growth.
#ifndef STAP_COUNT_BIGNUM_H_
#define STAP_COUNT_BIGNUM_H_

#include <cstdint>
#include <random>
#include <string>
#include <vector>

namespace stap {

// Arbitrary-precision unsigned integer; little-endian 64-bit limbs with
// no trailing zero limbs (zero is the empty limb vector).
class BigNat {
 public:
  BigNat() = default;
  explicit BigNat(uint64_t value);

  bool IsZero() const { return limbs_.empty(); }
  int num_limbs() const { return static_cast<int>(limbs_.size()); }

  // Number of significant bits (0 for zero).
  int BitLength() const;

  static BigNat Add(const BigNat& a, const BigNat& b);
  // *this += b and *this += a·b, reusing this value's limbs (b, a or b may
  // be *this itself).
  void AddInPlace(const BigNat& b);
  void AddProduct(const BigNat& a, const BigNat& b);
  // Sets the value to zero, keeping the limb storage for reuse.
  void SetZero() { limbs_.clear(); }
  // Require: a >= b.
  static BigNat Sub(const BigNat& a, const BigNat& b);
  static BigNat Mul(const BigNat& a, const BigNat& b);

  // -1, 0, or 1 as a <, ==, or > b.
  static int Compare(const BigNat& a, const BigNat& b);

  friend bool operator==(const BigNat& a, const BigNat& b) {
    return a.limbs_ == b.limbs_;
  }
  friend bool operator<(const BigNat& a, const BigNat& b) {
    return Compare(a, b) < 0;
  }

  // May overflow to +inf for huge values.
  double ToDouble() const;

  // log2 of the value. Require: !IsZero().
  double Log2() const;

  // Decimal representation.
  std::string ToString() const;

  // Uniform value in [0, bound) by bit-masked rejection sampling.
  // Require: !bound.IsZero().
  static BigNat RandomBelow(const BigNat& bound, std::mt19937* rng);

 private:
  void Normalize();

  std::vector<uint64_t> limbs_;
};

// A tree count: exact BigNat up to kMaxExactLimbs limbs, log2-domain
// double beyond. Zero is always exact. All operations assume non-negative
// counts; Sub clamps at zero (a difference of counts is non-negative
// mathematically, but log-domain rounding can invert tiny gaps).
class CountValue {
 public:
  // Values above 2^(64 * kMaxExactLimbs) ~ 10^1233 degrade to log domain.
  static constexpr int kMaxExactLimbs = 64;

  CountValue() = default;  // zero
  static CountValue FromUint(uint64_t value);
  static CountValue FromBigNat(BigNat value);
  static CountValue Zero() { return CountValue(); }
  static CountValue One() { return FromUint(1); }

  bool exact() const { return exact_; }
  bool IsZero() const { return exact_ && nat_.IsZero(); }

  // The exact value. Require: exact().
  const BigNat& AsBigNat() const;

  static CountValue Add(const CountValue& a, const CountValue& b);
  static CountValue Mul(const CountValue& a, const CountValue& b);
  static CountValue Sub(const CountValue& a, const CountValue& b);

  // *this = Add(*this, b) and *this = Add(*this, Mul(a, b)), with the same
  // result bit for bit (log-domain fallback included), but reusing this
  // value's limbs instead of allocating temporaries. The DPs' inner loops
  // accumulate with these.
  void AddInPlace(const CountValue& b);
  void AddProduct(const CountValue& a, const CountValue& b);
  // Sets the value to exact zero, keeping the limb storage for reuse.
  void SetZero();

  // -1, 0, or 1; mixed exact/log comparisons go through log2 magnitudes.
  static int Compare(const CountValue& a, const CountValue& b);

  // log2 of the value, or -inf for zero.
  double Log2() const;

  // May be +inf for huge values.
  double ToDouble() const;

  // Exact decimal, or "~2^<log2>" once in the log domain.
  std::string ToString() const;

 private:
  bool exact_ = true;
  BigNat nat_;        // valid when exact_
  double log2_ = 0.0;  // valid when !exact_; value ~ 2^log2_
};

// a / b as a double, computed in the log domain so huge counts divide
// without overflowing. Returns `if_zero_denominator` when b is zero.
double CountRatio(const CountValue& a, const CountValue& b,
                  double if_zero_denominator = 1.0);

}  // namespace stap

#endif  // STAP_COUNT_BIGNUM_H_
