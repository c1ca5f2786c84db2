// Read-only memory-mapped files (the out-of-core substrate).
//
// A MappedFile owns one PROT_READ mapping of a whole file. Typed views into
// it are handed out as util::ConstArray<T> whose keepalive shared_ptr holds
// the MappedFile alive, so a graph assembled from views can outlive the
// loader that mapped the file; the mapping is unmapped exactly when the last
// view (or the MappedFile handle itself) is dropped.
//
// advise() forwards access-pattern hints to madvise. The out-of-core readers
// key the hints to the counting kernels' actual access order: HE/NHE offset
// and neighbour sections are walked in ascending relabeled-vertex order —
// the same order the squared edge tiling (lotus/tiling.hpp) visits tiles —
// so they get kSequential (aggressive readahead); the H2H bit array is
// probed randomly and small enough to want residency, so it gets kWillNeed.
// Hints are best-effort: a failing madvise never fails a load.
//
// copy_to_heap_s turns such views into heap-owned arrays: the heap loaders
// (graph::read_csr_binary_s, core::read_lotus_binary_s) are the mapped
// decode followed by this copy, so each format has one decoder.
//
// POSIX only; on Windows map() returns kIoError, so no binary artifact
// loads there.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "util/array_ref.hpp"
#include "util/mapguard.hpp"
#include "util/memory_budget.hpp"
#include "util/status.hpp"

#if !defined(_WIN32)
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace lotus::util {

class MappedFile {
 public:
  /// kDontNeed drops the range's pages from this process's resident set;
  /// they stay in the page cache and fault back in from there when read.
  enum class Advice { kNormal, kSequential, kRandom, kWillNeed, kDontNeed };

  /// Map `path` read-only in its entirety. Shared ownership so ConstArray
  /// views can pin the mapping via their keepalive pointer.
  [[nodiscard]] static Expected<std::shared_ptr<MappedFile>> map(
      const std::string& path) {
#if defined(_WIN32)
    return Status{StatusCode::kIoError,
                  path + ": memory-mapped loading is not available on this platform"};
#else
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
      return Status{StatusCode::kIoError,
                    path + ": cannot open for mapping: " + std::strerror(errno)};
    struct stat st {};
    if (::fstat(fd, &st) != 0) {
      const Status status{StatusCode::kIoError,
                          path + ": fstat failed: " + std::strerror(errno)};
      ::close(fd);
      return status;
    }
    const auto size = static_cast<std::uint64_t>(st.st_size);
    void* addr = nullptr;
    if (size > 0) {
      addr = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
      if (addr == MAP_FAILED) {
        const Status status{StatusCode::kIoError,
                            path + ": mmap failed: " + std::strerror(errno)};
        ::close(fd);
        return status;
      }
    }
    ::close(fd);  // the mapping keeps the file referenced
    return std::shared_ptr<MappedFile>(new MappedFile(path, addr, size));
#endif
  }

  ~MappedFile() {
#if !defined(_WIN32)
    if (addr_ != nullptr) ::munmap(addr_, size_);
#endif
  }

  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  [[nodiscard]] const std::byte* data() const noexcept {
    return static_cast<const std::byte*>(addr_);
  }
  [[nodiscard]] std::uint64_t size() const noexcept { return size_; }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

  /// Best-effort access-pattern hint for [offset, offset+length). The range
  /// is rounded outward to page boundaries; errors are deliberately ignored
  /// (hints must never fail a load).
  void advise(Advice advice, std::uint64_t offset, std::uint64_t length) const {
#if !defined(_WIN32)
    if (addr_ == nullptr || length == 0 || offset >= size_) return;
    length = std::min(length, size_ - offset);
    const auto page = static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
    const std::uint64_t begin = offset / page * page;
    const std::uint64_t end = offset + length;
    int native = MADV_NORMAL;
    switch (advice) {
      case Advice::kNormal: native = MADV_NORMAL; break;
      case Advice::kSequential: native = MADV_SEQUENTIAL; break;
      case Advice::kRandom: native = MADV_RANDOM; break;
      case Advice::kWillNeed: native = MADV_WILLNEED; break;
      case Advice::kDontNeed: native = MADV_DONTNEED; break;
    }
    (void)::madvise(static_cast<char*>(addr_) + begin, end - begin, native);
#else
    (void)advice;
    (void)offset;
    (void)length;
#endif
  }

  /// Whole-file hint.
  void advise(Advice advice) const { advise(advice, 0, size_); }

 private:
  MappedFile(std::string path, void* addr, std::uint64_t size)
      : path_(std::move(path)), addr_(addr), size_(size) {}

  std::string path_;
  void* addr_ = nullptr;
  std::uint64_t size_ = 0;
};

/// A typed ConstArray view of `count` elements at byte `offset` inside the
/// mapping; the returned array pins the mapping alive. The caller must have
/// validated bounds and alignment against the file header (the readers in
/// graph/oocore.cpp and lotus/serialize.cpp do); both are asserted here.
template <typename T>
[[nodiscard]] ConstArray<T> mapped_view(const std::shared_ptr<MappedFile>& file,
                                        std::uint64_t offset,
                                        std::uint64_t count) {
  if (count == 0) return ConstArray<T>(nullptr, 0, file);
  const std::byte* base = file->data() + offset;
  assert(offset + count * sizeof(T) <= file->size());
  assert(reinterpret_cast<std::uintptr_t>(base) % alignof(T) == 0);
  return ConstArray<T>(reinterpret_cast<const T*>(base),
                       static_cast<std::size_t>(count), file);
}

/// Replace each view into `file` in `arrays` with a heap-owned copy of its
/// elements, charged as one "graph-load" to the current memory budget; the
/// copies no longer pin the mapping. The arrays are allocated first and the
/// copy runs under the mapped-fault guard (its body owns nothing that must
/// unwind), so a file cut after the views were checked yields kIoError
/// naming the file. The copy runs in 4 MiB chunks whose mapped pages are
/// dropped (kDontNeed) once copied, so at most one chunk is resident twice. Errors: out_of_memory when the
/// budget refuses the charge; io_error on a lost mapping. On error the views
/// are left as they were.
template <typename... T>
[[nodiscard]] Status copy_to_heap_s(const MappedFile& file,
                                    ConstArray<T>&... arrays) {
  std::tuple<std::vector<T>...> heap;
  try {
    charge_current((std::uint64_t{0} + ... + (arrays.size() * sizeof(T))),
                   "graph-load");
    heap = std::tuple<std::vector<T>...>(std::vector<T>(arrays.size())...);
  } catch (...) {
    return status_from_current_exception(StatusCode::kOutOfMemory);
  }
  const auto copy_out = [&file](auto& copy, const auto& view) {
    constexpr std::uint64_t kChunk = std::uint64_t{4} << 20;
    const auto* from = reinterpret_cast<const std::byte*>(view.data());
    const std::uint64_t bytes = copy.size() * sizeof(copy[0]);
    for (std::uint64_t at = 0; at < bytes; at += kChunk) {
      const std::uint64_t n = std::min(kChunk, bytes - at);
      std::memcpy(reinterpret_cast<std::byte*>(copy.data()) + at, from + at, n);
      file.advise(MappedFile::Advice::kDontNeed,
                  static_cast<std::uint64_t>(from + at - file.data()), n);
    }
  };
  const Status status = with_mapped_fault_guard(file.path(), [&] {
    std::apply([&](std::vector<T>&... copy) { (copy_out(copy, arrays), ...); },
               heap);
    return Status::Ok();
  });
  if (!status.ok()) return status;
  std::apply(
      [&](std::vector<T>&... copy) {
        ((arrays = ConstArray<T>(std::move(copy))), ...);
      },
      heap);
  return Status::Ok();
}

}  // namespace lotus::util
