// ConstArray<T>: immutable array storage that either owns a std::vector or
// views externally-owned memory (an mmap'ed artifact file), with a keepalive
// handle pinning the backing mapping.
//
// The out-of-core pipeline serves CSX offset/neighbour arrays, the H2H bit
// words and the relabeling array straight out of mmap'ed artifact files
// (docs/OUT_OF_CORE.md). Containers built on ConstArray — graph::Csr,
// core::TriangularBitArray, core::LotusGraph — therefore work identically
// whether their arrays live on the heap or in the page cache; only
// owned_bytes() (what a memory budget should be charged) differs.
//
// Thread-safety: a ConstArray is immutable after construction; const access
// is safe to share across threads. mutable_data() is only non-null for owned
// arrays and follows std::vector's rules.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace lotus::util {

template <typename T>
class ConstArray {
 public:
  using value_type = T;
  using const_iterator = const T*;

  ConstArray() = default;

  /// Owning mode: adopt `owned` (implicit, so vector-taking call sites keep
  /// their signatures).
  ConstArray(std::vector<T> owned)  // NOLINT(google-explicit-constructor)
      : owned_(std::move(owned)),
        data_(owned_.data()),
        size_(owned_.size()),
        owns_(true) {}

  /// View mode: alias [data, data + size) of memory owned elsewhere;
  /// `keepalive` pins the backing object (typically a util::MappedFile) for
  /// the array's lifetime.
  ConstArray(const T* data, std::size_t size,
             std::shared_ptr<const void> keepalive)
      : keepalive_(std::move(keepalive)),
        data_(data),
        size_(size),
        owns_(false) {}

  ConstArray(const ConstArray& other) { assign(other); }
  ConstArray& operator=(const ConstArray& other) {
    if (this != &other) assign(other);
    return *this;
  }
  ConstArray(ConstArray&& other) noexcept { assign_move(std::move(other)); }
  ConstArray& operator=(ConstArray&& other) noexcept {
    if (this != &other) assign_move(std::move(other));
    return *this;
  }
  ~ConstArray() = default;

  [[nodiscard]] const T* data() const noexcept { return data_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept {
    return data_[i];
  }
  [[nodiscard]] const T& front() const noexcept { return data_[0]; }
  [[nodiscard]] const T& back() const noexcept { return data_[size_ - 1]; }
  [[nodiscard]] const_iterator begin() const noexcept { return data_; }
  [[nodiscard]] const_iterator end() const noexcept { return data_ + size_; }

  /// True when backed by the internal vector (heap memory this process
  /// allocated); false for views over mapped/external memory.
  [[nodiscard]] bool owns() const noexcept { return owns_; }

  /// Heap bytes this array pins: size in bytes when owned, 0 for views —
  /// the number a memory budget should be charged.
  [[nodiscard]] std::uint64_t owned_bytes() const noexcept {
    return owns_ ? static_cast<std::uint64_t>(size_) * sizeof(T) : 0;
  }

  /// Mutable element access, owned mode only (nullptr for views). Exists for
  /// the in-place H2H writers of the build (TriangularBitArray::set_atomic and
  /// set_row_atomic).
  [[nodiscard]] T* mutable_data() noexcept {
    return owns_ ? owned_.data() : nullptr;
  }

  /// Materialize as a vector (copies when viewing).
  [[nodiscard]] std::vector<T> to_vector() const {
    return std::vector<T>(begin(), end());
  }

  friend bool operator==(const ConstArray& a, const ConstArray& b) {
    if (a.size_ != b.size_) return false;
    for (std::size_t i = 0; i < a.size_; ++i)
      if (!(a.data_[i] == b.data_[i])) return false;
    return true;
  }

 private:
  void assign(const ConstArray& other) {
    owned_ = other.owned_;  // deep copy in owned mode, empty otherwise
    keepalive_ = other.keepalive_;
    owns_ = other.owns_;
    if (owns_) {
      data_ = owned_.data();
      size_ = owned_.size();
    } else {
      data_ = other.data_;
      size_ = other.size_;
    }
  }

  void assign_move(ConstArray&& other) noexcept {
    owned_ = std::move(other.owned_);
    keepalive_ = std::move(other.keepalive_);
    owns_ = other.owns_;
    if (owns_) {
      data_ = owned_.data();
      size_ = owned_.size();
    } else {
      data_ = other.data_;
      size_ = other.size_;
    }
    other.data_ = nullptr;
    other.size_ = 0;
    other.owns_ = false;
  }

  std::vector<T> owned_;                   // storage in owned mode
  std::shared_ptr<const void> keepalive_;  // backing pin in view mode
  const T* data_ = nullptr;
  std::size_t size_ = 0;
  bool owns_ = false;
};

}  // namespace lotus::util
