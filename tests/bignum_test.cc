// Tests for the in-place accumulators of count/bignum.h: AddInPlace and
// AddProduct must give exactly what the allocating Add and Add(Mul) give,
// on random values of 0–3 limbs biased toward carries across limbs, on
// aliased operands, and at the switch to the log domain past
// CountValue::kMaxExactLimbs.
//
// Run with --seed=N (or STAP_SEED=N) to explore a different random
// stream; failures print the reproduction flag (see test_seed.h).
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "stap/count/bignum.h"
#include "test_seed.h"

namespace stap {
namespace {

using test::MixSeed;

// Σ limbs[i]·2^(64i), built with the allocating arithmetic.
BigNat FromLimbs(const std::vector<uint64_t>& limbs) {
  const BigNat base = BigNat::Add(BigNat(~0ull), BigNat(1));  // 2^64
  BigNat value;
  for (size_t i = limbs.size(); i-- > 0;) {
    value = BigNat::Add(BigNat::Mul(value, base), BigNat(limbs[i]));
  }
  return value;
}

// A value of 0–3 limbs whose limbs are often 0, 1 or near 2^64, so sums
// and products carry across limbs.
BigNat RandomNat(std::mt19937_64* rng) {
  std::vector<uint64_t> limbs((*rng)() % 4);
  for (uint64_t& limb : limbs) {
    switch ((*rng)() % 5) {
      case 0: limb = 0; break;
      case 1: limb = 1; break;
      case 2: limb = ~0ull; break;
      case 3: limb = ~0ull - (*rng)() % 3; break;
      default: limb = (*rng)(); break;
    }
  }
  return FromLimbs(limbs);
}

// Bit-for-bit equality, log-domain magnitudes included.
void ExpectSameCount(const CountValue& got, const CountValue& want) {
  ASSERT_EQ(got.exact(), want.exact());
  if (want.exact()) {
    EXPECT_EQ(got.AsBigNat(), want.AsBigNat());
  } else {
    EXPECT_EQ(got.Log2(), want.Log2());
  }
}

TEST(BigNatTest, InPlaceMatchesAllocatingOnRandomLimbs) {
  std::mt19937_64 rng(MixSeed(0xB16A7));
  for (int i = 0; i < 20000; ++i) {
    SCOPED_TRACE(i);
    const BigNat acc = RandomNat(&rng);
    const BigNat a = RandomNat(&rng);
    const BigNat b = RandomNat(&rng);
    BigNat sum = acc;
    sum.AddInPlace(a);
    ASSERT_EQ(sum, BigNat::Add(acc, a));
    BigNat product_sum = acc;
    product_sum.AddProduct(a, b);
    ASSERT_EQ(product_sum, BigNat::Add(acc, BigNat::Mul(a, b)));
  }
}

TEST(BigNatTest, InPlaceHandlesAliasedOperands) {
  std::mt19937_64 rng(MixSeed(0xA11A5));
  for (int i = 0; i < 2000; ++i) {
    const BigNat x = RandomNat(&rng);
    const BigNat y = RandomNat(&rng);
    BigNat doubled = x;
    doubled.AddInPlace(doubled);
    EXPECT_EQ(doubled, BigNat::Add(x, x));
    BigNat square = x;
    square.AddProduct(square, square);
    EXPECT_EQ(square, BigNat::Add(x, BigNat::Mul(x, x)));
    BigNat left = x;
    left.AddProduct(left, y);
    EXPECT_EQ(left, BigNat::Add(x, BigNat::Mul(x, y)));
  }
}

TEST(BigNatTest, CarryRipplesPastTheProduct) {
  // (2^192 − 1) + 1·1 carries through three limbs into a fourth.
  BigNat acc = FromLimbs({~0ull, ~0ull, ~0ull});
  acc.AddProduct(BigNat(1), BigNat(1));
  EXPECT_EQ(acc, FromLimbs({0, 0, 0, 1}));
  // (2^128 − 1) + (2^64 − 1)² = 2^129 − 2^65: the carry runs past both
  // two-limb operands into a third limb.
  BigNat wide = FromLimbs({~0ull, ~0ull});
  wide.AddProduct(BigNat(~0ull), BigNat(~0ull));
  EXPECT_EQ(wide, BigNat::Add(FromLimbs({~0ull, ~0ull}),
                              BigNat::Mul(BigNat(~0ull), BigNat(~0ull))));
  BigNat zero;
  zero.AddProduct(BigNat(), BigNat(7));
  EXPECT_TRUE(zero.IsZero());
}

TEST(CountValueTest, InPlaceMatchesAllocatingOnRandomLimbs) {
  std::mt19937_64 rng(MixSeed(0xC0417));
  for (int i = 0; i < 20000; ++i) {
    SCOPED_TRACE(i);
    const CountValue acc = CountValue::FromBigNat(RandomNat(&rng));
    const CountValue a = CountValue::FromBigNat(RandomNat(&rng));
    const CountValue b = CountValue::FromBigNat(RandomNat(&rng));
    CountValue sum = acc;
    sum.AddInPlace(a);
    ExpectSameCount(sum, CountValue::Add(acc, a));
    CountValue product_sum = acc;
    product_sum.AddProduct(a, b);
    ExpectSameCount(product_sum, CountValue::Add(acc, CountValue::Mul(a, b)));
  }
}

// Values around the exact/log switch: 2^(64k) − 1 for k limbs (all ones,
// so one more unit carries into limb k), and their log-domain
// neighbours.
TEST(CountValueTest, InPlaceMatchesAllocatingAtTheLogDomainSwitch) {
  constexpr int kMax = CountValue::kMaxExactLimbs;
  std::vector<CountValue> values = {CountValue::Zero(), CountValue::One(),
                                    CountValue::FromUint(~0ull)};
  for (int limbs : {1, kMax / 2 - 1, kMax / 2, kMax / 2 + 1, kMax - 1, kMax,
                    kMax + 1}) {
    values.push_back(
        CountValue::FromBigNat(FromLimbs(std::vector<uint64_t>(limbs, ~0ull))));
  }
  ASSERT_TRUE(values[values.size() - 2].exact());   // kMax limbs: exact
  ASSERT_FALSE(values[values.size() - 1].exact());  // kMax + 1: log domain
  for (const CountValue& acc : values) {
    for (const CountValue& a : values) {
      CountValue sum = acc;
      sum.AddInPlace(a);
      ExpectSameCount(sum, CountValue::Add(acc, a));
      for (const CountValue& b : values) {
        CountValue product_sum = acc;
        product_sum.AddProduct(a, b);
        ExpectSameCount(product_sum,
                        CountValue::Add(acc, CountValue::Mul(a, b)));
      }
    }
  }
  // The all-ones kMax-limb value plus 1·1 leaves the exact domain exactly
  // as FromBigNat of the sum does.
  CountValue top = values[values.size() - 2];
  top.AddProduct(CountValue::One(), CountValue::One());
  EXPECT_FALSE(top.exact());
}

TEST(CountValueTest, SetZeroGivesAnExactZero) {
  CountValue value = CountValue::FromBigNat(
      FromLimbs(std::vector<uint64_t>(CountValue::kMaxExactLimbs + 1, 1)));
  ASSERT_FALSE(value.exact());
  value.SetZero();
  EXPECT_TRUE(value.IsZero());
  value.AddInPlace(CountValue::FromUint(5));
  ExpectSameCount(value, CountValue::FromUint(5));
}

}  // namespace
}  // namespace stap

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  stap::test::InitTestSeed(&argc, argv);
  return RUN_ALL_TESTS();
}
