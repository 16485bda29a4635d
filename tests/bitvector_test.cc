#include "common/bitvector.h"

#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace relcomp {
namespace {

TEST(BitVector, StartsAllZero) {
  BitVector bv(130);
  EXPECT_EQ(bv.size(), 130u);
  EXPECT_EQ(bv.Count(), 0u);
  for (size_t i = 0; i < bv.size(); ++i) EXPECT_FALSE(bv.Get(i));
}

TEST(BitVector, SetGetClear) {
  BitVector bv(100);
  bv.Set(0);
  bv.Set(63);
  bv.Set(64);
  bv.Set(99);
  EXPECT_TRUE(bv.Get(0));
  EXPECT_TRUE(bv.Get(63));
  EXPECT_TRUE(bv.Get(64));
  EXPECT_TRUE(bv.Get(99));
  EXPECT_FALSE(bv.Get(1));
  EXPECT_EQ(bv.Count(), 4u);
  bv.Clear(63);
  EXPECT_FALSE(bv.Get(63));
  EXPECT_EQ(bv.Count(), 3u);
}

TEST(BitVector, SetAllRespectsTail) {
  BitVector bv(70);
  bv.SetAll();
  EXPECT_EQ(bv.Count(), 70u);  // bits beyond 70 must stay clear
  bv.ClearAll();
  EXPECT_EQ(bv.Count(), 0u);
}

TEST(BitVector, ExactWordBoundary) {
  BitVector bv(128);
  bv.SetAll();
  EXPECT_EQ(bv.Count(), 128u);
}

TEST(BitVector, OrWithDetectsChange) {
  BitVector a(80);
  BitVector b(80);
  b.Set(5);
  b.Set(77);
  EXPECT_TRUE(a.OrWith(b));
  EXPECT_EQ(a.Count(), 2u);
  EXPECT_FALSE(a.OrWith(b));  // idempotent
}

TEST(BitVector, OrWithAndComputesMaskedUnion) {
  BitVector target(64);
  BitVector a(64);
  BitVector b(64);
  a.Set(1);
  a.Set(2);
  a.Set(3);
  b.Set(2);
  b.Set(3);
  b.Set(4);
  EXPECT_TRUE(target.OrWithAnd(a, b));
  EXPECT_FALSE(target.Get(1));
  EXPECT_TRUE(target.Get(2));
  EXPECT_TRUE(target.Get(3));
  EXPECT_FALSE(target.Get(4));
  EXPECT_FALSE(target.OrWithAnd(a, b));
}

TEST(BitVector, OrWithAndAllowsLongerOperands) {
  // BFS Sharing: K-bit node vector AND-ed against an L-bit edge vector.
  BitVector node(50);
  BitVector other(50);
  BitVector edge(1500);
  other.SetAll();
  edge.SetAll();
  EXPECT_TRUE(node.OrWithAnd(other, edge));
  EXPECT_EQ(node.Count(), 50u);  // no tail leakage past bit 50
}

TEST(BitVector, WouldGainFromAnd) {
  BitVector target(64);
  BitVector a(64);
  BitVector b(64);
  a.Set(7);
  b.Set(7);
  EXPECT_TRUE(target.WouldGainFromAnd(a, b));
  target.Set(7);
  EXPECT_FALSE(target.WouldGainFromAnd(a, b));
  EXPECT_EQ(target.Count(), 1u);  // non-mutating
}

TEST(BitVector, FillBernoulliExtremes) {
  Rng rng(3);
  BitVector bv(200);
  bv.FillBernoulli(0.0, rng);
  EXPECT_EQ(bv.Count(), 0u);
  bv.FillBernoulli(1.0, rng);
  EXPECT_EQ(bv.Count(), 200u);
}

TEST(BitVector, FillBernoulliDensityMatchesP) {
  Rng rng(4);
  // Covers both the geometric-skip path (p < 0.25) and the dense path.
  for (const double p : {0.02, 0.1, 0.5, 0.9}) {
    BitVector bv(20000);
    bv.FillBernoulli(p, rng);
    const double density = static_cast<double>(bv.Count()) / 20000.0;
    EXPECT_NEAR(density, p, 0.02) << p;
  }
}

TEST(BitVector, FillBernoulliOverwritesPreviousContent) {
  Rng rng(5);
  BitVector bv(100);
  bv.SetAll();
  bv.FillBernoulli(0.01, rng);
  EXPECT_LT(bv.Count(), 20u);
}

TEST(BitVector, EqualityComparesSizeAndBits) {
  BitVector a(10);
  BitVector b(10);
  EXPECT_EQ(a, b);
  a.Set(3);
  EXPECT_NE(a, b);
  b.Set(3);
  EXPECT_EQ(a, b);
  BitVector c(11);
  c.Set(3);
  EXPECT_NE(a, c);
}

TEST(BitVector, ResizeGrowsWithZeros) {
  BitVector bv(10);
  bv.SetAll();
  bv.Resize(100);
  EXPECT_EQ(bv.Count(), 10u);
  EXPECT_FALSE(bv.Get(50));
}

TEST(BitVector, ResizeShrinkMasksTail) {
  BitVector bv(100);
  bv.SetAll();
  bv.Resize(10);
  EXPECT_EQ(bv.Count(), 10u);
}

TEST(BitVector, MemoryBytesTracksWords) {
  EXPECT_EQ(BitVector(64).MemoryBytes(), 8u);
  EXPECT_EQ(BitVector(65).MemoryBytes(), 16u);
  EXPECT_EQ(BitVector(0).MemoryBytes(), 0u);
  EXPECT_EQ(BitVector(1500).MemoryBytes(), 192u);  // 24 words
}

TEST(BitVector, OrWithAndOffsetMatchesNaiveSlice) {
  // The stratified BFS Sharing step: this |= (a & (b >> offset)) over
  // this->size() bits — checked against a bit-by-bit oracle across word
  // boundaries, unaligned offsets, and short b tails.
  Rng rng(2026);
  for (const size_t len : {1u, 63u, 64u, 65u, 130u}) {
    for (const size_t offset : {0u, 1u, 63u, 64u, 65u, 100u}) {
      const size_t b_len = offset + len - (offset % 3);  // sometimes short
      BitVector dst(len);
      BitVector a(len);
      BitVector b(b_len);
      a.FillBernoulli(0.5, rng);
      b.FillBernoulli(0.5, rng);
      dst.FillBernoulli(0.3, rng);
      BitVector expected(len);
      for (size_t i = 0; i < len; ++i) {
        const bool b_bit = offset + i < b_len && b.Get(offset + i);
        if (dst.Get(i) || (a.Get(i) && b_bit)) expected.Set(i);
      }
      BitVector actual = dst;
      const bool changed = actual.OrWithAndOffset(a, b, offset);
      EXPECT_EQ(actual, expected) << "len " << len << " offset " << offset;
      EXPECT_EQ(changed, !(actual == dst));
    }
  }
}

TEST(WordPrimitives, PopcountMatchesNaive) {
  Rng rng(11);
  auto naive = [](uint64_t w) {
    uint32_t c = 0;
    for (uint32_t i = 0; i < 64; ++i) c += (w >> i) & 1u;
    return c;
  };
  for (const uint64_t w : {uint64_t{0}, ~uint64_t{0}, uint64_t{1},
                           uint64_t{1} << 63, uint64_t{0xAAAAAAAAAAAAAAAA}}) {
    EXPECT_EQ(Popcount(w), naive(w)) << w;
  }
  for (int trial = 0; trial < 200; ++trial) {
    const uint64_t w = rng.NextU64();
    EXPECT_EQ(Popcount(w), naive(w)) << w;
  }
}

TEST(WordPrimitives, Rank64MatchesNaive) {
  Rng rng(12);
  for (int trial = 0; trial < 100; ++trial) {
    const uint64_t w = rng.NextU64();
    uint32_t ones = 0;
    for (uint32_t i = 0; i <= 64; ++i) {
      EXPECT_EQ(Rank64(w, i), ones) << w << " i=" << i;
      if (i < 64) ones += (w >> i) & 1u;
    }
  }
}

TEST(WordPrimitives, Select64MatchesNaive) {
  Rng rng(13);
  // Select64(w, k) is the position of the k-th one; oracle by linear scan.
  // Includes sparse, dense, and boundary words.
  std::vector<uint64_t> words = {uint64_t{1}, uint64_t{1} << 63, ~uint64_t{0},
                                 uint64_t{0x8000000000000001}};
  for (int trial = 0; trial < 200; ++trial) words.push_back(rng.NextU64());
  for (const uint64_t w : words) {
    uint32_t k = 0;
    for (uint32_t i = 0; i < 64; ++i) {
      if ((w >> i) & 1u) {
        ++k;
        EXPECT_EQ(Select64(w, k), i) << w << " k=" << k;
        EXPECT_EQ(Rank64(w, Select64(w, k)), k - 1) << w;  // inverse law
      }
    }
  }
}

TEST(WordPrimitives, SliceWord64StitchesAcrossBoundary) {
  const uint64_t words[2] = {0xDEADBEEFCAFEF00D, 0x0123456789ABCDEF};
  for (uint32_t off = 0; off < 64; ++off) {
    uint64_t expected = words[0] >> off;
    if (off != 0) expected |= words[1] << (64 - off);
    EXPECT_EQ(SliceWord64(words, 2, 0, off), expected) << off;
  }
  // Bits past the span read as zero.
  EXPECT_EQ(SliceWord64(words, 2, 2, 0), 0u);
  EXPECT_EQ(SliceWord64(words, 2, 1, 8), words[1] >> 8);
}

TEST(BitVector, OrWithAndWordsMatchesOrWithAndOffset) {
  // The packed BFS-Sharing propagation form: raw word span instead of a
  // BitVector. Must be bit-identical for every length/offset combination.
  Rng rng(14);
  for (const size_t len : {1u, 64u, 65u, 130u, 200u}) {
    for (const size_t offset : {0u, 1u, 63u, 64u, 127u}) {
      BitVector a(len);
      BitVector b(offset + len + 30);
      a.FillBernoulli(0.5, rng);
      b.FillBernoulli(0.5, rng);
      BitVector x(len);
      x.FillBernoulli(0.2, rng);
      BitVector y = x;
      const bool cx = x.OrWithAndOffset(a, b, offset);
      const bool cy =
          y.OrWithAndWords(a, b.words().data(), b.words().size(), offset);
      EXPECT_EQ(cx, cy) << len << "/" << offset;
      EXPECT_EQ(x, y) << len << "/" << offset;
    }
  }
}

TEST(BitVector, FillBernoulliWordsMatchesMemberFill) {
  // Identical RNG stream contract: the packed index's word-block fill must
  // sample exactly the worlds the per-vector fill sampled.
  for (const double p : {0.05, 0.3, 0.8, 1.0}) {
    for (const size_t len : {1u, 64u, 100u, 1500u}) {
      Rng rng_a(99);
      Rng rng_b(99);
      BitVector bv(len);
      bv.FillBernoulli(p, rng_a);
      std::vector<uint64_t> words((len + 63) / 64, ~uint64_t{0});
      BitVector::FillBernoulliWords(words.data(), len, p, rng_b);
      EXPECT_EQ(words, bv.words()) << p << "/" << len;
      EXPECT_EQ(rng_a.NextU64(), rng_b.NextU64()) << "stream diverged";
    }
  }
}

TEST(BitVector, FillBernoulliWordsMatchesGeometricReference) {
  // The sparse path computes log1p(-p) once per call; its bits and its RNG
  // draws must equal a plain loop over Rng::Geometric.
  for (const double p : {1e-4, 1e-3, 0.01, 0.1, 0.2499}) {
    for (const size_t len : {1u, 65u, 1500u, 200003u}) {
      Rng rng_ref(4242);
      Rng rng_fill(4242);
      std::vector<uint64_t> expected((len + 63) / 64, 0);
      for (size_t i = rng_ref.Geometric(p); i < len;
           i += 1 + rng_ref.Geometric(p)) {
        expected[i / 64] |= uint64_t{1} << (i % 64);
      }
      std::vector<uint64_t> words((len + 63) / 64, ~uint64_t{0});
      BitVector::FillBernoulliWords(words.data(), len, p, rng_fill);
      EXPECT_EQ(words, expected) << p << "/" << len;
      EXPECT_EQ(rng_ref.NextU64(), rng_fill.NextU64())
          << "stream diverged at p=" << p << " len=" << len;
    }
  }
}

TEST(BitVector, OrWithAndOffsetZeroEqualsOrWithAnd) {
  Rng rng(7);
  BitVector a(90);
  BitVector b(120);
  a.FillBernoulli(0.5, rng);
  b.FillBernoulli(0.5, rng);
  BitVector x(90);
  BitVector y(90);
  x.FillBernoulli(0.2, rng);
  y = x;
  EXPECT_EQ(x.OrWithAnd(a, b), y.OrWithAndOffset(a, b, 0));
  EXPECT_EQ(x, y);
}

}  // namespace
}  // namespace relcomp
