#include "graph/oocore.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>
#include <vector>

#include "graph/io.hpp"
#include "util/checksum.hpp"
#include "util/file_io.hpp"
#include "util/mapguard.hpp"
#include "util/memory_budget.hpp"
#include "util/mmap_file.hpp"

#if !defined(_WIN32)
#include <unistd.h>
#endif

namespace lotus::graph::oocore {

namespace {

using util::Expected;
using util::Status;
using util::StatusCode;

Status io_error(const std::string& path, const std::string& what) {
  return {StatusCode::kIoError, path + ": " + what};
}

Status bad_data(const std::string& path, const std::string& what) {
  return {StatusCode::kInvalidArgument, path + ": " + what};
}

}  // namespace

util::Expected<CsrGraph> read_csr_mapped_at_s(
    const std::shared_ptr<util::MappedFile>& file, std::uint64_t base,
    std::uint64_t size, bool validate, MapVerify verify) {
  const std::string& path = file->path();
  if (base % 8 != 0) return bad_data(path, "image offset is not 8-aligned");
  if (base > file->size() || size > file->size() - base)
    return bad_data(path, "image extends past end of file");
  const std::byte* image = file->data() + base;
  Expected<CsxLayout> parsed = parse_csx_header(image, size, path);
  if (!parsed.ok()) return parsed.status();
  const CsxLayout layout = parsed.value();

  // The validation scan below and the counting kernels both walk the body
  // in ascending order (the squared edge tiling visits vertex ranges
  // low-to-high), so ask for aggressive readahead.
  file->advise(util::MappedFile::Advice::kSequential, base, size);

  if (verify == MapVerify::kEager) {
    // Touches every mapped payload byte, so a file truncated after mapping
    // (or a poisoned page) must surface as kIoError, not SIGBUS.
    const Status status = util::with_mapped_fault_guard(path, [&] {
      std::uint64_t sums[util::checksum::kCsxSections] = {};
      Status s = util::checksum::read_footer_check_header(
          image + layout.footer_at(), util::checksum::kCsxSections, image,
          kCsxHeaderBytes, path, sums);
      if (!s.ok()) return s;
      return verify_csx_sections(layout, image + kCsxHeaderBytes,
                                 image + layout.neighbors_at(), sums, path);
    });
    if (!status.ok()) return status;
  }

  util::ConstArray<std::uint64_t> offsets = util::mapped_view<std::uint64_t>(
      file, base + kCsxHeaderBytes, layout.num_vertices + 1);
  util::ConstArray<VertexId> neighbors = util::mapped_view<VertexId>(
      file, base + layout.neighbors_at(), layout.num_edges);
  if (validate) {
    const Status status = util::with_mapped_fault_guard(path, [&] {
      return check_csx_body(path, offsets, neighbors);
    });
    if (!status.ok()) return status;
  }
  return CsrGraph(std::move(offsets), std::move(neighbors));
}

util::Expected<CsrGraph> read_csr_mapped_s(const std::string& path,
                                           MapVerify verify) {
  Expected<std::shared_ptr<util::MappedFile>> mapped = util::MappedFile::map(path);
  if (!mapped.ok()) return mapped.status();
  const std::shared_ptr<util::MappedFile> file = mapped.take();
  return read_csr_mapped_at_s(file, 0, file->size(), /*validate=*/true, verify);
}

// ---------------------------------------------------------------------------
// External-memory construction.
// ---------------------------------------------------------------------------

namespace {

/// Coarse source-ID histogram: slot i covers IDs [i·2^16, (i+1)·2^16), which
/// spans the full 32-bit ID space in 65536 slots (a fixed 512 KiB of scan
/// state). Bucket boundaries can only fall on slot edges, so one
/// pathologically hot 2^16-ID range can still exceed the sort budget — the
/// budget is a target, not a hard guarantee (docs/OUT_OF_CORE.md).
constexpr unsigned kHistShift = 16;
constexpr std::size_t kHistSlots = std::size_t{1} << (32 - kHistShift);

struct ScanResult {
  VertexId num_vertices = 0;
  std::uint64_t arcs = 0;  // symmetrized, self-loops dropped
  std::vector<std::uint64_t> hist = std::vector<std::uint64_t>(kHistSlots, 0);
};

Status scan_edge_list(const std::string& path, ScanResult& out) {
  VertexId max_id = 0;
  bool any = false;
  Status status = for_each_text_edge_s(path, [&](VertexId u, VertexId v) {
    max_id = std::max({max_id, u, v});
    any = true;
    if (u != v) {
      out.hist[u >> kHistShift] += 1;
      out.hist[v >> kHistShift] += 1;
      out.arcs += 2;
    }
    return Status::Ok();
  });
  if (!status.ok()) return status;
  out.num_vertices = any ? max_id + 1 : 0;
  return Status::Ok();
}

/// Greedy boundary placement: each bucket takes whole histogram slots until
/// it reaches ~budget/8 arcs. boundaries[i] = first source ID of bucket i.
std::vector<VertexId> bucket_boundaries(const ScanResult& scan,
                                        std::uint64_t sort_budget_bytes) {
  const std::uint64_t target_arcs =
      std::max<std::uint64_t>(sort_budget_bytes / sizeof(Edge), 1);
  std::vector<VertexId> boundaries = {0};
  std::uint64_t in_bucket = 0;
  const std::size_t top_slot =
      scan.num_vertices == 0
          ? 0
          : (static_cast<std::size_t>(scan.num_vertices - 1) >> kHistShift) + 1;
  for (std::size_t slot = 0; slot < top_slot; ++slot) {
    if (in_bucket > 0 && in_bucket + scan.hist[slot] > target_arcs) {
      boundaries.push_back(static_cast<VertexId>(slot << kHistShift));
      in_bucket = 0;
    }
    in_bucket += scan.hist[slot];
  }
  return boundaries;
}

/// The bucket temp files, unlinked on destruction.
class BucketFiles {
 public:
  BucketFiles(std::string dir, std::size_t count) {
    const std::string prefix =
        dir + "lotus-oocore-" +
        std::to_string(static_cast<unsigned long>(
#if defined(_WIN32)
            _getpid()
#else
            getpid()
#endif
                )) +
        "-";
    paths_.reserve(count);
    files_.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      paths_.push_back(prefix + std::to_string(i) + ".arcs");
      files_.push_back(std::fopen(paths_.back().c_str(), "wb"));
    }
  }

  ~BucketFiles() {
    for (std::FILE* f : files_)
      if (f != nullptr) std::fclose(f);
    for (const std::string& p : paths_) std::remove(p.c_str());
  }

  [[nodiscard]] bool all_open() const {
    for (std::FILE* f : files_)
      if (f == nullptr) return false;
    return true;
  }

  [[nodiscard]] std::size_t count() const noexcept { return files_.size(); }
  [[nodiscard]] std::FILE* file(std::size_t i) const noexcept { return files_[i]; }
  [[nodiscard]] const std::string& path(std::size_t i) const noexcept {
    return paths_[i];
  }

  /// Flush-close all writers so the files can be reopened for reading.
  [[nodiscard]] Status close_writers() {
    for (std::size_t i = 0; i < files_.size(); ++i) {
      if (files_[i] == nullptr) continue;
      const int rc = std::fclose(files_[i]);
      files_[i] = nullptr;
      if (rc != 0)
        return io_error(paths_[i], "close failed (buffered data lost)");
    }
    return Status::Ok();
  }

 private:
  std::vector<std::string> paths_;
  std::vector<std::FILE*> files_;
};

std::string temp_dir_for(const ExternalBuildOptions& options,
                         const std::string& input_path) {
  if (!options.temp_dir.empty()) {
    std::string dir = options.temp_dir;
    if (dir.back() != '/') dir += '/';
    return dir;
  }
  const std::size_t slash = input_path.find_last_of('/');
  return slash == std::string::npos ? std::string()
                                    : input_path.substr(0, slash + 1);
}

/// The pipeline core: bucket symmetrized arcs to temp files, then per
/// bucket (in ascending source-range order) load / sort / dedup within the
/// sort budget and hand each source's unique, sorted neighbour run to
/// `emit(u, neighbors, count)` with strictly ascending u. Callers see the
/// exact arc set build_undirected would produce. `scan` is the caller's
/// completed pass-1 result for the same file.
template <typename Emit>
Status run_external_build(const std::string& path,
                          const ExternalBuildOptions& options,
                          const ScanResult& scan, Emit&& emit) {
  Status status;
  const std::uint64_t budget_bytes =
      std::max<std::uint64_t>(options.sort_budget_bytes, 1u << 20);

  const std::vector<VertexId> boundaries = bucket_boundaries(scan, budget_bytes);
  BucketFiles buckets(temp_dir_for(options, path), boundaries.size());
  if (!buckets.all_open())
    return io_error(path, "cannot create bucket temp files");
  const auto bucket_of = [&](VertexId u) {
    return static_cast<std::size_t>(
        std::upper_bound(boundaries.begin(), boundaries.end(), u) -
        boundaries.begin() - 1);
  };

  // Pass 2: scatter symmetrized arcs to their source-range bucket.
  status = for_each_text_edge_s(path, [&](VertexId u, VertexId v) {
    if (u == v) return Status::Ok();
    const std::array<Edge, 2> arcs = {Edge{u, v}, Edge{v, u}};
    for (const Edge& a : arcs) {
      const std::size_t b = bucket_of(a.u);
      Status s = util::fileio::write_fully(buckets.file(b), &a, sizeof a,
                                           buckets.path(b));
      if (!s.ok()) return s;
    }
    return Status::Ok();
  });
  if (!status.ok()) return status;
  status = buckets.close_writers();
  if (!status.ok()) return status;

  // Per bucket: load, sort by (u, v), dedup, emit per-source runs.
  std::vector<Edge> arcs;
  for (std::size_t b = 0; b < buckets.count(); ++b) {
    std::FILE* in = std::fopen(buckets.path(b).c_str(), "rb");
    if (in == nullptr)
      return io_error(buckets.path(b), "cannot reopen bucket file");
    if (util::fileio::seek64(in, 0, SEEK_END) != 0 ||
        util::fileio::tell64(in) < 0) {
      std::fclose(in);
      return io_error(buckets.path(b), "cannot determine bucket size");
    }
    const auto bytes = static_cast<std::uint64_t>(util::fileio::tell64(in));
    if (bytes % sizeof(Edge) != 0) {
      std::fclose(in);
      return io_error(buckets.path(b), "bucket file size is not a record multiple");
    }
    if (util::fileio::seek64(in, 0, SEEK_SET) != 0) {
      std::fclose(in);
      return io_error(buckets.path(b), "seek failed");
    }
    util::MemoryBudget* budget = util::current_memory_budget();
    try {
      util::charge_current(bytes, "external-sort");
      arcs.resize(bytes / sizeof(Edge));
    } catch (...) {
      std::fclose(in);
      return util::status_from_current_exception(StatusCode::kOutOfMemory);
    }
    status = util::fileio::read_fully(in, arcs.data(), bytes, buckets.path(b));
    std::fclose(in);
    if (!status.ok()) return status;

    std::sort(arcs.begin(), arcs.end(), [](const Edge& a, const Edge& c) {
      return a.u != c.u ? a.u < c.u : a.v < c.v;
    });
    std::vector<VertexId> row;
    for (std::size_t i = 0; i < arcs.size();) {
      const VertexId u = arcs[i].u;
      std::size_t j = i;
      row.clear();
      for (; j < arcs.size() && arcs[j].u == u; ++j)
        if (row.empty() || arcs[j].v != row.back()) row.push_back(arcs[j].v);
      status = emit(u, row.data(), row.size());
      if (!status.ok()) return status;
      i = j;
    }
    // The bucket scratch is transient; hand the bytes back so the next
    // bucket (and the caller's result arrays) can use them.
    if (budget != nullptr) budget->release(bytes);
  }
  return Status::Ok();
}

}  // namespace

util::Expected<CsrGraph> build_undirected_external_s(
    const std::string& edge_list_path, const ExternalBuildOptions& options) {
  ScanResult scan;
  std::vector<std::uint64_t> offsets;
  std::vector<VertexId> neighbors;
  VertexId next_row = 0;
  Status status = scan_edge_list(edge_list_path, scan);
  if (!status.ok()) return status;
  try {
    offsets.assign(1, 0);
    offsets.reserve(static_cast<std::size_t>(scan.num_vertices) + 1);
  } catch (...) {
    return util::status_from_current_exception(StatusCode::kOutOfMemory);
  }

  status = run_external_build(
      edge_list_path, options, scan,
      [&](VertexId u, const VertexId* vs, std::size_t count) -> Status {
        try {
          for (; next_row < u; ++next_row) offsets.push_back(neighbors.size());
          neighbors.insert(neighbors.end(), vs, vs + count);
          offsets.push_back(neighbors.size());
          ++next_row;
          return Status::Ok();
        } catch (...) {
          return util::status_from_current_exception(StatusCode::kOutOfMemory);
        }
      });
  if (!status.ok()) return status;
  try {
    for (; next_row < scan.num_vertices; ++next_row)
      offsets.push_back(neighbors.size());
  } catch (...) {
    return util::status_from_current_exception(StatusCode::kOutOfMemory);
  }
  return CsrGraph(std::move(offsets), std::move(neighbors));
}

util::Status build_csx_file_external_s(const std::string& edge_list_path,
                                       const std::string& out_path,
                                       const ExternalBuildOptions& options) {
  ScanResult scan;
  Status status = scan_edge_list(edge_list_path, scan);
  if (!status.ok()) return status;
  const std::uint64_t n = scan.num_vertices;

  util::fileio::AtomicFileWriter writer(out_path);
  if (!writer.ok()) return writer.open_status();
  std::FILE* out = writer.file();
  const std::string& tmp = writer.temp_path();

  // Degrees are the only per-vertex state held in memory: (n+1) u64. The
  // charge is transient — released on every exit path, since nothing of it
  // escapes to the caller.
  std::vector<std::uint64_t> offsets;
  const std::uint64_t offsets_bytes = (n + 1) * sizeof(std::uint64_t);
  try {
    util::charge_current(offsets_bytes, "external-sort");
    offsets.assign(n + 1, 0);
  } catch (...) {
    return util::status_from_current_exception(StatusCode::kOutOfMemory);
  }
  struct Release {
    util::MemoryBudget* budget;
    std::uint64_t bytes;
    ~Release() {
      if (budget != nullptr) budget->release(bytes);
    }
  } release{util::current_memory_budget(), offsets_bytes};

  // Neighbours stream to their final location; the header + offset section
  // is back-filled once all degrees are known. Writing past the current end
  // leaves a hole that the back-fill plugs before commit.
  if (util::fileio::seek64(
          out, static_cast<std::int64_t>(CsxLayout{n, 0}.neighbors_at()),
          SEEK_SET) != 0)
    return io_error(tmp, "seek failed");

  // The neighbours section checksum accumulates as the stream goes by.
  util::checksum::Checksummer neighbor_sum;
  status = run_external_build(
      edge_list_path, options, scan,
      [&](VertexId u, const VertexId* vs, std::size_t count) -> Status {
        offsets[u + 1] = count;
        neighbor_sum.update(vs, count * sizeof(VertexId));
        return util::fileio::write_fully(out, vs, count * sizeof(VertexId), tmp);
      });
  if (!status.ok()) return status;

  for (std::size_t i = 1; i < offsets.size(); ++i) offsets[i] += offsets[i - 1];
  status = finish_csx_file_s(out, tmp, offsets, neighbor_sum.digest());
  if (!status.ok()) return status;
  return writer.commit();
}

}  // namespace lotus::graph::oocore
