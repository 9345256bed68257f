// Unit tests for the COO sparse tensor core: construction, sorting,
// coalescing, validation, and the mode-ordering convention.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <vector>

#include "tensor/sparse_tensor.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace bcsf {
namespace {

SparseTensor small3() {
  SparseTensor t({4, 5, 6});
  const index_t coords[][3] = {{3, 0, 2}, {0, 1, 1}, {0, 0, 5},
                               {2, 4, 0}, {0, 1, 0}, {3, 0, 1}};
  value_t v = 1.0F;
  for (const auto& c : coords) t.push_back({c, 3}, v++);
  return t;
}

// Comparator reference for SparseTensor::sort: lexicographic by `order`,
// ties broken by insertion position (the order a stable sort keeps).
std::vector<offset_t> reference_order(const SparseTensor& t,
                                      const ModeOrder& order) {
  std::vector<offset_t> perm(t.nnz());
  std::iota(perm.begin(), perm.end(), offset_t{0});
  std::sort(perm.begin(), perm.end(), [&](offset_t a, offset_t b) {
    for (index_t mode : order) {
      const index_t ca = t.coord(mode, a);
      const index_t cb = t.coord(mode, b);
      if (ca != cb) return ca < cb;
    }
    return a < b;
  });
  return perm;
}

// Sorts a copy of `t` by `order` and checks every coordinate and every
// value (bitwise) against the reference order.
void expect_sort_matches_reference(const SparseTensor& t,
                                   const ModeOrder& order) {
  SparseTensor sorted = t;
  sorted.sort(order);
  const std::vector<offset_t> perm = reference_order(t, order);
  ASSERT_EQ(sorted.nnz(), t.nnz());
  for (offset_t z = 0; z < t.nnz(); ++z) {
    for (index_t mode = 0; mode < t.order(); ++mode) {
      ASSERT_EQ(sorted.coord(mode, z), t.coord(mode, perm[z]))
          << "nonzero " << z << " mode " << mode;
    }
    ASSERT_EQ(std::bit_cast<std::uint32_t>(sorted.value(z)),
              std::bit_cast<std::uint32_t>(t.value(perm[z])))
        << "nonzero " << z;
  }
  EXPECT_TRUE(sorted.is_sorted(order));
}

// Random nonzeros over `dims`.  Coordinates are uniform or taken from the
// 16-bit digit edges (0, 65535, 65536, dim - 1); one nonzero in eight
// repeats an earlier coordinate.  Value z identifies insertion position z.
SparseTensor random_tensor(std::vector<index_t> dims, offset_t nnz,
                           std::uint64_t seed) {
  SparseTensor t(dims);
  Rng rng(seed);
  std::vector<index_t> c(dims.size());
  for (offset_t z = 0; z < nnz; ++z) {
    if (z > 0 && rng.uniform(0, 7) == 0) {
      const offset_t src = rng.uniform(0, z - 1);
      for (index_t m = 0; m < t.order(); ++m) c[m] = t.coord(m, src);
    } else {
      for (index_t m = 0; m < t.order(); ++m) {
        const index_t edges[] = {0, 65535, 65536, dims[m] - 1};
        const index_t edge = edges[rng.uniform(0, 3)];
        c[m] = rng.uniform(0, 1) == 0 ? rng.uniform_index(dims[m])
                                      : std::min(edge, dims[m] - 1);
      }
    }
    t.push_back(c, static_cast<value_t>(z));
  }
  return t;
}

TEST(ModeOrder, PaperConvention) {
  EXPECT_EQ(mode_order_for(0, 3), (ModeOrder{0, 1, 2}));
  EXPECT_EQ(mode_order_for(1, 3), (ModeOrder{1, 0, 2}));
  EXPECT_EQ(mode_order_for(2, 3), (ModeOrder{2, 0, 1}));
  EXPECT_EQ(mode_order_for(2, 4), (ModeOrder{2, 0, 1, 3}));
  EXPECT_THROW(mode_order_for(3, 3), Error);
}

TEST(SparseTensor, BasicAccessors) {
  const SparseTensor t = small3();
  EXPECT_EQ(t.order(), 3u);
  EXPECT_EQ(t.nnz(), 6u);
  EXPECT_EQ(t.dim(0), 4u);
  EXPECT_EQ(t.dim(2), 6u);
  EXPECT_NEAR(t.density(), 6.0 / (4 * 5 * 6), 1e-12);
  EXPECT_NO_THROW(t.validate());
}

TEST(SparseTensor, RejectsEmptyDims) {
  EXPECT_THROW(SparseTensor(std::vector<index_t>{}), Error);
  EXPECT_THROW(SparseTensor({3, 0, 2}), Error);
}

TEST(SparseTensor, PushBackBoundsChecked) {
  SparseTensor t({2, 2});
  const index_t bad[] = {2, 0};
  EXPECT_THROW(t.push_back({bad, 2}, 1.0F), Error);
  const index_t short_coords[] = {1};
  EXPECT_THROW(t.push_back({short_coords, 1}, 1.0F), Error);
}

TEST(SparseTensor, SortByMode0) {
  SparseTensor t = small3();
  const ModeOrder order = mode_order_for(0, 3);
  EXPECT_FALSE(t.is_sorted(order));
  t.sort(order);
  EXPECT_TRUE(t.is_sorted(order));
  // First coordinate nondecreasing; ties broken by next modes.
  for (offset_t z = 1; z < t.nnz(); ++z) {
    EXPECT_LE(t.coord(0, z - 1), t.coord(0, z));
  }
  // Values move with their coordinates: (0,0,5) had value 3.
  EXPECT_EQ(t.coord(0, 0), 0u);
  EXPECT_EQ(t.coord(1, 0), 0u);
  EXPECT_EQ(t.coord(2, 0), 5u);
  EXPECT_FLOAT_EQ(t.value(0), 3.0F);
}

TEST(SparseTensor, SortByMode2PutsLeafFirst) {
  SparseTensor t = small3();
  const ModeOrder order = mode_order_for(2, 3);
  t.sort(order);
  EXPECT_TRUE(t.is_sorted(order));
  for (offset_t z = 1; z < t.nnz(); ++z) {
    EXPECT_LE(t.coord(2, z - 1), t.coord(2, z));
  }
}

TEST(SparseTensor, IsSortedOnEmptyAndSingle) {
  SparseTensor t({3, 3});
  EXPECT_TRUE(t.is_sorted(mode_order_for(0, 2)));
  const index_t c[] = {1, 1};
  t.push_back({c, 2}, 1.0F);
  EXPECT_TRUE(t.is_sorted(mode_order_for(0, 2)));
}

TEST(SparseTensor, CoalesceSumsDuplicates) {
  SparseTensor t({3, 3});
  const index_t a[] = {1, 2};
  const index_t b[] = {0, 0};
  t.push_back({a, 2}, 1.5F);
  t.push_back({b, 2}, 2.0F);
  t.push_back({a, 2}, 2.5F);
  t.push_back({a, 2}, 1.0F);
  const offset_t removed = t.coalesce();
  EXPECT_EQ(removed, 2u);
  EXPECT_EQ(t.nnz(), 2u);
  // Sorted by identity order: (0,0) first.
  EXPECT_FLOAT_EQ(t.value(0), 2.0F);
  EXPECT_FLOAT_EQ(t.value(1), 5.0F);
}

TEST(SparseTensor, CoalesceNoDuplicates) {
  SparseTensor t = small3();
  EXPECT_EQ(t.coalesce(), 0u);
  EXPECT_EQ(t.nnz(), 6u);
}

TEST(SparseTensor, Norm) {
  SparseTensor t({2, 2});
  const index_t a[] = {0, 0};
  const index_t b[] = {1, 1};
  t.push_back({a, 2}, 3.0F);
  t.push_back({b, 2}, 4.0F);
  EXPECT_DOUBLE_EQ(t.norm(), 5.0);
}

TEST(SparseTensor, IndexStorageBytes) {
  const SparseTensor t = small3();
  EXPECT_EQ(t.index_storage_bytes(), 3u * 6u * 4u);  // 4 x 3M of SS III-A
}

TEST(SparseTensor, ShapeString) {
  SparseTensor t({533'000, 17'000'000, 2'000'000});
  EXPECT_EQ(t.shape_string(), "533K x 17M x 2M");
}

TEST(SparseTensor, Order4SortAndValidate) {
  SparseTensor t({3, 4, 5, 6});
  const index_t coords[][4] = {
      {2, 3, 4, 5}, {0, 0, 0, 0}, {2, 3, 4, 1}, {1, 2, 0, 3}};
  for (const auto& c : coords) t.push_back({c, 4}, 1.0F);
  t.sort(mode_order_for(3, 4));
  EXPECT_TRUE(t.is_sorted(mode_order_for(3, 4)));
  EXPECT_NO_THROW(t.validate());
}

TEST(SparseTensorSort, MatchesComparatorReferenceOnRandomTensors) {
  const std::vector<std::vector<index_t>> shapes = {
      {1, 65536},
      {70000, 1, 1u << 20},
      {65536, 70000, 3, 1u << 20},
      {5, 1, 65537, 70000, 1u << 20},
      {2, 3, 4, 5, 6},  // dense enough for many duplicate coordinates
  };
  std::uint64_t seed = 1;
  for (const auto& dims : shapes) {
    const SparseTensor t = random_tensor(dims, 3000, seed++);
    const auto order = static_cast<index_t>(dims.size());
    for (index_t mode = 0; mode < order; ++mode) {
      SCOPED_TRACE(testing::Message() << "order " << order << " mode " << mode);
      expect_sort_matches_reference(t, mode_order_for(mode, order));
    }
    ModeOrder reversed(order);
    std::iota(reversed.rbegin(), reversed.rend(), index_t{0});
    expect_sort_matches_reference(t, reversed);
  }
}

TEST(SparseTensorSort, EmptyAndSingleNonzero) {
  const SparseTensor empty({70000, 3});
  expect_sort_matches_reference(empty, mode_order_for(1, 2));
  const SparseTensor one = random_tensor({70000, 1u << 20, 1}, 1, 7);
  expect_sort_matches_reference(one, mode_order_for(2, 3));
}

TEST(SparseTensorSort, AlreadySortedInputKeepsItsOrder) {
  SparseTensor t = random_tensor({65536, 70000, 1u << 20}, 4000, 11);
  const ModeOrder order = mode_order_for(1, 3);
  t.sort(order);
  for (offset_t z = 0; z < t.nnz(); ++z) {
    t.value(z) = static_cast<value_t>(z);
  }
  t.sort(order);
  for (offset_t z = 0; z < t.nnz(); ++z) {
    ASSERT_EQ(t.value(z), static_cast<value_t>(z)) << "nonzero " << z;
  }
}

TEST(SparseTensorSort, DuplicatesKeepInsertionOrder) {
  SparseTensor t({3, 70000});
  const index_t dup[] = {1, 65536};
  const index_t other[] = {0, 69999};
  t.push_back({dup, 2}, 1.0F);
  t.push_back({other, 2}, 2.0F);
  t.push_back({dup, 2}, 3.0F);
  t.push_back({dup, 2}, 4.0F);
  t.sort(mode_order_for(0, 2));
  ASSERT_EQ(t.nnz(), 4u);
  EXPECT_EQ(t.value(0), 2.0F);
  EXPECT_EQ(t.value(1), 1.0F);
  EXPECT_EQ(t.value(2), 3.0F);
  EXPECT_EQ(t.value(3), 4.0F);
}

TEST(SparseTensor, CoalesceSumsDuplicatesInInsertionOrder) {
  // Off the power-of-two grid, every summation order gives other bits.
  const value_t a = 0.1F;
  const value_t b = 1e8F;
  const value_t c = -1e8F;
  const value_t d = 0.3F;
  SparseTensor t({4, 70000});
  const index_t dup[] = {2, 65536};
  const index_t lo[] = {0, 5};
  const index_t hi[] = {3, 0};
  t.push_back({dup, 2}, a);
  t.push_back({hi, 2}, 7.0F);
  t.push_back({dup, 2}, b);
  t.push_back({lo, 2}, 5.0F);
  t.push_back({dup, 2}, c);
  t.push_back({dup, 2}, d);
  EXPECT_EQ(t.coalesce(), 3u);
  ASSERT_EQ(t.nnz(), 3u);
  const value_t in_order = ((a + b) + c) + d;
  EXPECT_NE(std::bit_cast<std::uint32_t>(in_order),
            std::bit_cast<std::uint32_t>(((b + c) + a) + d));
  EXPECT_EQ(t.coord(0, 1), 2u);
  EXPECT_EQ(t.coord(1, 1), 65536u);
  EXPECT_EQ(std::bit_cast<std::uint32_t>(t.value(1)),
            std::bit_cast<std::uint32_t>(in_order));
  EXPECT_EQ(t.value(0), 5.0F);
  EXPECT_EQ(t.value(2), 7.0F);
}

}  // namespace
}  // namespace bcsf
