#include "tensor/sparse_tensor.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <sstream>
#include <utility>

#include "util/error.hpp"

namespace bcsf {

ModeOrder mode_order_for(index_t mode, index_t order) {
  BCSF_CHECK(mode < order, "mode_order_for: mode " << mode
                                                   << " out of range for order "
                                                   << order);
  ModeOrder perm;
  perm.reserve(order);
  perm.push_back(mode);
  for (index_t m = 0; m < order; ++m) {
    if (m != mode) perm.push_back(m);
  }
  return perm;
}

SparseTensor::SparseTensor(std::vector<index_t> dims) : dims_(std::move(dims)) {
  BCSF_CHECK(dims_.size() >= 1, "SparseTensor: order must be >= 1");
  for (index_t d : dims_) {
    BCSF_CHECK(d > 0, "SparseTensor: every dimension must be positive");
  }
  inds_.resize(dims_.size());
}

double SparseTensor::density() const {
  double cells = 1.0;
  for (index_t d : dims_) cells *= static_cast<double>(d);
  return cells > 0.0 ? static_cast<double>(nnz()) / cells : 0.0;
}

void SparseTensor::reserve(offset_t n) {
  for (auto& v : inds_) v.reserve(n);
  vals_.reserve(n);
}

void SparseTensor::push_back(std::span<const index_t> coords, value_t value) {
  BCSF_CHECK(coords.size() == dims_.size(),
             "push_back: expected " << dims_.size() << " coordinates, got "
                                    << coords.size());
  for (index_t m = 0; m < order(); ++m) {
    BCSF_CHECK(coords[m] < dims_[m], "push_back: coordinate "
                                         << coords[m] << " out of bounds for mode "
                                         << m << " (dim " << dims_[m] << ")");
    inds_[m].push_back(coords[m]);
  }
  vals_.push_back(value);
}

namespace {

constexpr unsigned kDigitBits = 16;
constexpr index_t kDigitMask = (index_t{1} << kDigitBits) - 1;

// The permutation that stably sorts the nonzeros by the key
// (inds[order[0]], ..., inds[order.back()]), found by an LSD radix sort:
// modes from the least to the most significant, one counting pass per
// 16-bit digit that dims[mode] - 1 reaches, none for a digit every
// nonzero shares.  Equal keys keep their insertion order.
template <typename P>
std::vector<P> sorted_permutation(const std::vector<index_vec>& inds,
                                  const std::vector<index_t>& dims,
                                  const ModeOrder& order, offset_t m) {
  std::vector<P> perm(m);
  std::iota(perm.begin(), perm.end(), P{0});
  if (m <= 1) return perm;
  std::vector<P> next(m);
  std::vector<P> start;
  for (auto mode = order.rbegin(); mode != order.rend(); ++mode) {
    const index_vec& keys = inds[*mode];
    const index_t max_key = dims[*mode] - 1;
    for (unsigned shift = 0; shift < 32 && (max_key >> shift) != 0;
         shift += kDigitBits) {
      // The digit histogram does not depend on the order: count it on
      // the keys as stored, a sequential read.
      start.assign(std::min(max_key >> shift, kDigitMask) + std::size_t{1},
                   P{0});
      for (index_t k : keys) ++start[(k >> shift) & kDigitMask];
      if (start[(keys[0] >> shift) & kDigitMask] == m) continue;
      P sum = 0;
      for (P& s : start) sum += std::exchange(s, sum);
      for (P z : perm) next[start[(keys[z] >> shift) & kDigitMask]++] = z;
      perm.swap(next);
    }
  }
  return perm;
}

template <typename T, typename P>
void permute(std::vector<T>& arr, const std::vector<P>& perm) {
  std::vector<T> out(arr.size());
  for (std::size_t z = 0; z < out.size(); ++z) out[z] = arr[perm[z]];
  arr = std::move(out);
}

}  // namespace

void SparseTensor::sort(const ModeOrder& order_perm) {
  BCSF_CHECK(order_perm.size() == dims_.size(),
             "sort: mode order has wrong length");
  const offset_t m = nnz();
  const auto apply = [this](const auto& perm) {
    for (auto& arr : inds_) permute(arr, perm);
    permute(vals_, perm);
  };
  // The permutation (and its scratch copy, freed before the arrays are
  // permuted) costs 4 B per nonzero, 8 B only past 2^32 nonzeros.
  if (m < (offset_t{1} << 32)) {
    apply(sorted_permutation<std::uint32_t>(inds_, dims_, order_perm, m));
  } else {
    apply(sorted_permutation<offset_t>(inds_, dims_, order_perm, m));
  }
}

bool SparseTensor::is_sorted(const ModeOrder& order_perm) const {
  const offset_t m = nnz();
  for (offset_t z = 1; z < m; ++z) {
    for (index_t mode : order_perm) {
      const index_t prev = inds_[mode][z - 1];
      const index_t cur = inds_[mode][z];
      if (prev < cur) break;
      if (prev > cur) return false;
    }
  }
  return true;
}

offset_t SparseTensor::coalesce() {
  if (nnz() == 0) return 0;
  ModeOrder identity(order());
  std::iota(identity.begin(), identity.end(), index_t{0});
  sort(identity);
  const offset_t m = nnz();
  offset_t w = 0;  // write cursor
  for (offset_t z = 1; z < m; ++z) {
    bool same = true;
    for (index_t mode = 0; mode < order(); ++mode) {
      if (inds_[mode][z] != inds_[mode][w]) {
        same = false;
        break;
      }
    }
    if (same) {
      vals_[w] += vals_[z];
    } else {
      ++w;
      for (index_t mode = 0; mode < order(); ++mode) {
        inds_[mode][w] = inds_[mode][z];
      }
      vals_[w] = vals_[z];
    }
  }
  const offset_t kept = w + 1;
  const offset_t removed = m - kept;
  for (auto& arr : inds_) arr.resize(kept);
  vals_.resize(kept);
  return removed;
}

void SparseTensor::validate() const {
  BCSF_CHECK(inds_.size() == dims_.size(), "validate: mode array count");
  for (index_t mode = 0; mode < order(); ++mode) {
    BCSF_CHECK(inds_[mode].size() == vals_.size(),
               "validate: index array length mismatch in mode " << mode);
    for (index_t idx : inds_[mode]) {
      BCSF_CHECK(idx < dims_[mode], "validate: index " << idx
                                                       << " out of bounds in mode "
                                                       << mode);
    }
  }
}

double SparseTensor::norm() const {
  double acc = 0.0;
  for (value_t v : vals_) acc += static_cast<double>(v) * v;
  return std::sqrt(acc);
}

namespace {
std::string humanize(index_t v) {
  std::ostringstream os;
  if (v >= 1000000) {
    os << (v / 1000000) << "M";
  } else if (v >= 1000) {
    os << (v / 1000) << "K";
  } else {
    os << v;
  }
  return os.str();
}
}  // namespace

std::string SparseTensor::shape_string() const {
  std::ostringstream os;
  for (index_t m = 0; m < order(); ++m) {
    if (m) os << " x ";
    os << humanize(dims_[m]);
  }
  return os.str();
}

TensorPtr share_tensor(SparseTensor&& tensor) {
  return std::make_shared<SparseTensor>(std::move(tensor));
}

TensorPtr borrow_tensor(const SparseTensor& tensor) {
  return TensorPtr(TensorPtr{}, &tensor);
}

}  // namespace bcsf
