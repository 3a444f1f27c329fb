#include "stap/count/bignum.h"

#include <cmath>
#include <limits>
#include <sstream>

#include "stap/base/check.h"

namespace stap {

namespace {

constexpr double kLn2 = 0.69314718055994530942;

// log2(2^x + 2^y) for finite x >= y.
double Log2AddExp(double x, double y) {
  return x + std::log1p(std::exp2(y - x)) / kLn2;
}

// log2(2^x - 2^y) for x > y; -inf when the difference underflows.
double Log2SubExp(double x, double y) {
  const double rest = -std::expm1((y - x) * kLn2);
  if (rest <= 0.0) return -std::numeric_limits<double>::infinity();
  return x + std::log2(rest);
}

}  // namespace

BigNat::BigNat(uint64_t value) {
  if (value != 0) limbs_.push_back(value);
}

void BigNat::Normalize() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

int BigNat::BitLength() const {
  if (limbs_.empty()) return 0;
  const uint64_t top = limbs_.back();
  const int top_bits = 64 - __builtin_clzll(top);
  return (static_cast<int>(limbs_.size()) - 1) * 64 + top_bits;
}

BigNat BigNat::Add(const BigNat& a, const BigNat& b) {
  BigNat out;
  const size_t n = std::max(a.limbs_.size(), b.limbs_.size());
  out.limbs_.resize(n, 0);
  uint64_t carry = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t x = i < a.limbs_.size() ? a.limbs_[i] : 0;
    const uint64_t y = i < b.limbs_.size() ? b.limbs_[i] : 0;
    const uint64_t sum = x + y;
    const uint64_t with_carry = sum + carry;
    carry = (sum < x || with_carry < sum) ? 1 : 0;
    out.limbs_[i] = with_carry;
  }
  if (carry != 0) out.limbs_.push_back(carry);
  return out;
}

void BigNat::AddInPlace(const BigNat& b) {
  if (b.limbs_.size() > limbs_.size()) limbs_.resize(b.limbs_.size(), 0);
  uint64_t carry = 0;
  size_t i = 0;
  for (; i < b.limbs_.size(); ++i) {
    const uint64_t x = limbs_[i];
    const uint64_t sum = x + b.limbs_[i];
    const uint64_t with_carry = sum + carry;
    carry = (sum < x || with_carry < sum) ? 1 : 0;
    limbs_[i] = with_carry;
  }
  for (; carry != 0 && i < limbs_.size(); ++i) {
    carry = ++limbs_[i] == 0 ? 1 : 0;
  }
  if (carry != 0) limbs_.push_back(carry);
}

void BigNat::AddProduct(const BigNat& a, const BigNat& b) {
  if (a.IsZero() || b.IsZero()) return;
  if (&a == this || &b == this) {
    AddInPlace(Mul(a, b));
    return;
  }
  const size_t n = a.limbs_.size() + b.limbs_.size();
  if (limbs_.size() < n) limbs_.resize(n, 0);
  for (size_t i = 0; i < a.limbs_.size(); ++i) {
    uint64_t carry = 0;
    for (size_t j = 0; j < b.limbs_.size(); ++j) {
      const unsigned __int128 cur =
          static_cast<unsigned __int128>(a.limbs_[i]) * b.limbs_[j] +
          limbs_[i + j] + carry;
      limbs_[i + j] = static_cast<uint64_t>(cur);
      carry = static_cast<uint64_t>(cur >> 64);
    }
    // Ripple the row's carry upward; past the product's top limb it can
    // run off the end only when the accumulator was longer.
    for (size_t k = i + b.limbs_.size(); carry != 0; ++k) {
      if (k == limbs_.size()) {
        limbs_.push_back(carry);
        break;
      }
      const uint64_t sum = limbs_[k] + carry;
      carry = sum < carry ? 1 : 0;
      limbs_[k] = sum;
    }
  }
  Normalize();
}

BigNat BigNat::Sub(const BigNat& a, const BigNat& b) {
  STAP_CHECK(Compare(a, b) >= 0);
  BigNat out;
  out.limbs_.resize(a.limbs_.size(), 0);
  uint64_t borrow = 0;
  for (size_t i = 0; i < a.limbs_.size(); ++i) {
    const uint64_t x = a.limbs_[i];
    const uint64_t y = i < b.limbs_.size() ? b.limbs_[i] : 0;
    const uint64_t diff = x - y;
    const uint64_t with_borrow = diff - borrow;
    borrow = (x < y || diff < borrow) ? 1 : 0;
    out.limbs_[i] = with_borrow;
  }
  STAP_CHECK(borrow == 0);
  out.Normalize();
  return out;
}

BigNat BigNat::Mul(const BigNat& a, const BigNat& b) {
  BigNat out;
  if (a.IsZero() || b.IsZero()) return out;
  out.limbs_.assign(a.limbs_.size() + b.limbs_.size(), 0);
  for (size_t i = 0; i < a.limbs_.size(); ++i) {
    uint64_t carry = 0;
    for (size_t j = 0; j < b.limbs_.size(); ++j) {
      const unsigned __int128 cur =
          static_cast<unsigned __int128>(a.limbs_[i]) * b.limbs_[j] +
          out.limbs_[i + j] + carry;
      out.limbs_[i + j] = static_cast<uint64_t>(cur);
      carry = static_cast<uint64_t>(cur >> 64);
    }
    out.limbs_[i + b.limbs_.size()] += carry;
  }
  out.Normalize();
  return out;
}

int BigNat::Compare(const BigNat& a, const BigNat& b) {
  if (a.limbs_.size() != b.limbs_.size()) {
    return a.limbs_.size() < b.limbs_.size() ? -1 : 1;
  }
  for (size_t i = a.limbs_.size(); i-- > 0;) {
    if (a.limbs_[i] != b.limbs_[i]) return a.limbs_[i] < b.limbs_[i] ? -1 : 1;
  }
  return 0;
}

double BigNat::ToDouble() const {
  double value = 0.0;
  for (size_t i = limbs_.size(); i-- > 0;) {
    value = value * 18446744073709551616.0 + static_cast<double>(limbs_[i]);
  }
  return value;
}

double BigNat::Log2() const {
  STAP_CHECK(!IsZero());
  // Top 128 bits give ~63 significant mantissa bits after normalization.
  const size_t n = limbs_.size();
  double top = static_cast<double>(limbs_[n - 1]);
  double exponent = static_cast<double>((n - 1) * 64);
  if (n >= 2) {
    top = top * 18446744073709551616.0 + static_cast<double>(limbs_[n - 2]);
    exponent -= 64;
  }
  return std::log2(top) + exponent;
}

std::string BigNat::ToString() const {
  if (IsZero()) return "0";
  // Repeated division by 10^19 (the largest power of ten below 2^64).
  constexpr uint64_t kChunk = 10000000000000000000ull;
  std::vector<uint64_t> work = limbs_;
  std::vector<uint64_t> chunks;
  while (!work.empty()) {
    uint64_t rem = 0;
    for (size_t i = work.size(); i-- > 0;) {
      const unsigned __int128 cur =
          (static_cast<unsigned __int128>(rem) << 64) | work[i];
      work[i] = static_cast<uint64_t>(cur / kChunk);
      rem = static_cast<uint64_t>(cur % kChunk);
    }
    while (!work.empty() && work.back() == 0) work.pop_back();
    chunks.push_back(rem);
  }
  std::ostringstream os;
  os << chunks.back();
  for (size_t i = chunks.size() - 1; i-- > 0;) {
    std::string digits = std::to_string(chunks[i]);
    os << std::string(19 - digits.size(), '0') << digits;
  }
  return os.str();
}

BigNat BigNat::RandomBelow(const BigNat& bound, std::mt19937* rng) {
  STAP_CHECK(!bound.IsZero());
  const int bits = bound.BitLength();
  const int limbs = (bits + 63) / 64;
  const int top_bits = bits - (limbs - 1) * 64;
  const uint64_t top_mask =
      top_bits == 64 ? ~0ull : ((1ull << top_bits) - 1);
  BigNat sample;
  while (true) {
    sample.limbs_.assign(limbs, 0);
    for (int i = 0; i < limbs; ++i) {
      const uint64_t lo = (*rng)();
      const uint64_t hi = (*rng)();
      sample.limbs_[i] = lo | (hi << 32);
    }
    sample.limbs_.back() &= top_mask;
    sample.Normalize();
    if (Compare(sample, bound) < 0) return sample;
  }
}

CountValue CountValue::FromUint(uint64_t value) {
  CountValue out;
  out.nat_ = BigNat(value);
  return out;
}

CountValue CountValue::FromBigNat(BigNat value) {
  CountValue out;
  if (value.num_limbs() > kMaxExactLimbs) {
    out.exact_ = false;
    out.log2_ = value.Log2();
  } else {
    out.nat_ = std::move(value);
  }
  return out;
}

const BigNat& CountValue::AsBigNat() const {
  STAP_CHECK(exact_);
  return nat_;
}

CountValue CountValue::Add(const CountValue& a, const CountValue& b) {
  if (a.exact_ && b.exact_) return FromBigNat(BigNat::Add(a.nat_, b.nat_));
  if (a.IsZero()) return b;
  if (b.IsZero()) return a;
  CountValue out;
  out.exact_ = false;
  const double la = a.Log2();
  const double lb = b.Log2();
  out.log2_ = la >= lb ? Log2AddExp(la, lb) : Log2AddExp(lb, la);
  return out;
}

CountValue CountValue::Mul(const CountValue& a, const CountValue& b) {
  if (a.IsZero() || b.IsZero()) return Zero();
  if (a.exact_ && b.exact_) return FromBigNat(BigNat::Mul(a.nat_, b.nat_));
  CountValue out;
  out.exact_ = false;
  out.log2_ = a.Log2() + b.Log2();
  return out;
}

void CountValue::AddInPlace(const CountValue& b) {
  if (!exact_ || !b.exact_) {
    *this = Add(*this, b);
    return;
  }
  nat_.AddInPlace(b.nat_);
  if (nat_.num_limbs() > kMaxExactLimbs) *this = FromBigNat(std::move(nat_));
}

void CountValue::AddProduct(const CountValue& a, const CountValue& b) {
  // Mul(a, b) stays exact (so Add sees two exact operands) whenever the
  // product's limb bound a + b is within kMaxExactLimbs; otherwise take
  // the allocating path, which may add in the log domain.
  if (!exact_ || !a.exact_ || !b.exact_ ||
      a.nat_.num_limbs() + b.nat_.num_limbs() > kMaxExactLimbs) {
    *this = Add(*this, Mul(a, b));
    return;
  }
  nat_.AddProduct(a.nat_, b.nat_);
  if (nat_.num_limbs() > kMaxExactLimbs) *this = FromBigNat(std::move(nat_));
}

void CountValue::SetZero() {
  exact_ = true;
  nat_.SetZero();
  log2_ = 0.0;
}

CountValue CountValue::Sub(const CountValue& a, const CountValue& b) {
  if (b.IsZero()) return a;
  if (a.exact_ && b.exact_) {
    if (BigNat::Compare(a.nat_, b.nat_) <= 0) return Zero();
    return FromBigNat(BigNat::Sub(a.nat_, b.nat_));
  }
  const double la = a.Log2();
  const double lb = b.Log2();
  if (la <= lb) return Zero();
  CountValue out;
  const double diff = Log2SubExp(la, lb);
  if (std::isinf(diff)) return Zero();
  out.exact_ = false;
  out.log2_ = diff;
  return out;
}

int CountValue::Compare(const CountValue& a, const CountValue& b) {
  if (a.exact_ && b.exact_) return BigNat::Compare(a.nat_, b.nat_);
  const double la = a.Log2();
  const double lb = b.Log2();
  if (la < lb) return -1;
  if (la > lb) return 1;
  return 0;
}

double CountValue::Log2() const {
  if (!exact_) return log2_;
  if (nat_.IsZero()) return -std::numeric_limits<double>::infinity();
  return nat_.Log2();
}

double CountValue::ToDouble() const {
  if (exact_) return nat_.ToDouble();
  return std::exp2(log2_);
}

std::string CountValue::ToString() const {
  if (exact_) return nat_.ToString();
  std::ostringstream os;
  os << "~2^" << log2_;
  return os.str();
}

double CountRatio(const CountValue& a, const CountValue& b,
                  double if_zero_denominator) {
  if (b.IsZero()) return if_zero_denominator;
  if (a.IsZero()) return 0.0;
  return std::exp2(a.Log2() - b.Log2());
}

}  // namespace stap
