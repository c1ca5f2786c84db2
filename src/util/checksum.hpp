// Fast 64-bit block checksum + the versioned per-section footer shared by
// every LOTUS on-disk format (LOTUSGR1 / LOTUSLG2 / LOTUSPA1).
//
// The checksum is xxh3-style: 64-byte stripes are folded into eight u64
// accumulator lanes (per lane j with data word x and k = x ^ secret[j]:
// acc[j] += u32(k)·u32(k>>32), acc[j^1] += x), with a scalar avalanche
// finalizer over the lanes and the total length. The stripe loop is the
// `checksum_stripes` entry of the kernels dispatch table, so bulk hashing
// runs on the active SIMD tier (AVX2/AVX-512/NEON) and falls back to the
// scalar reference — every tier is lane-exact, so a checksum written on one
// machine verifies on any other. Words are loaded little-endian (the only
// byte order the binary formats support).
//
// Footer layout, appended verbatim after a format's payload:
//
//   u64 section_sums[section_count]   one checksum per payload section
//   u32 version                      (= kFooterVersion)
//   u32 section_count
//   u64 sums_checksum                checksum of the section_sums array
//   char magic[8]                    "LOTUSCK1"
//
// Every reader requires the footer: the header's sizes plus footer_bytes()
// must account for the image exactly, so an image without one is rejected
// as a size mismatch before any checksum is read.
//
// Thread-safety: Checksummer is a plain value type; free functions are
// reentrant and lock-free.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>

#include "kernels/dispatch.hpp"
#include "util/status.hpp"

namespace lotus::util::checksum {

inline constexpr char kFooterMagic[8] = {'L', 'O', 'T', 'U', 'S', 'C', 'K', '1'};
inline constexpr std::uint32_t kFooterVersion = 1;

/// Fixed-size trailer after the per-section sums array.
inline constexpr std::size_t kFooterTrailerBytes = 24;

/// Total footer size for a format with `sections` payload sections.
[[nodiscard]] constexpr std::size_t footer_bytes(std::size_t sections) {
  return 8 * sections + kFooterTrailerBytes;
}

/// Footer field names, parsed by scripts/check_docs.sh (section 7): every
/// name below must be documented in docs/OUT_OF_CORE.md, as must every
/// per-format section name — keep the markers intact.
// LOTUS-FOOTER-INVENTORY-BEGIN
inline constexpr const char* kFooterFieldNames[] = {
    "section_sums", "version", "section_count", "sums_checksum", "magic",
};
inline constexpr const char* kCsxSectionNames[] = {
    "header", "offsets", "neighbors",
};
inline constexpr const char* kLotusSectionNames[] = {
    "header",       "new_id",       "h2h",          "he_offsets",
    "he_neighbors", "nhe_offsets",  "nhe_neighbors",
};
inline constexpr const char* kSpillSectionNames[] = {
    "header",
};
// LOTUS-FOOTER-INVENTORY-END

inline constexpr std::size_t kCsxSections =
    sizeof(kCsxSectionNames) / sizeof(kCsxSectionNames[0]);
inline constexpr std::size_t kLotusSections =
    sizeof(kLotusSectionNames) / sizeof(kLotusSectionNames[0]);
inline constexpr std::size_t kSpillSections =
    sizeof(kSpillSectionNames) / sizeof(kSpillSectionNames[0]);

namespace detail {

inline constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ULL;
inline constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4FULL;

/// xxh64-style avalanche: full-width mix of a single u64.
[[nodiscard]] inline std::uint64_t avalanche(std::uint64_t h) {
  h ^= h >> 37;
  h *= 0x165667919E3779F9ULL;
  h ^= h >> 32;
  return h;
}

}  // namespace detail

/// Streaming checksum: feed any byte sequence in arbitrary chunks; digest()
/// is chunking-independent. Copyable value type.
class Checksummer {
 public:
  explicit Checksummer(std::uint64_t seed = 0) { reset(seed); }

  void reset(std::uint64_t seed = 0) {
    seed_ = seed;
    for (std::size_t j = 0; j < 8; ++j)
      acc_[j] = detail::avalanche(seed + (j + 1) * detail::kPrime1) ^
                kernels::kChecksumSecret[j];
    buffered_ = 0;
    total_ = 0;
  }

  void update(const void* data, std::size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    total_ += bytes;
    if (buffered_ != 0) {
      const std::size_t take = bytes < 64 - buffered_ ? bytes : 64 - buffered_;
      std::memcpy(buf_ + buffered_, p, take);
      buffered_ += take;
      p += take;
      bytes -= take;
      if (buffered_ < 64) return;
      kernels::kernel_table().checksum_stripes(acc_, buf_, 1);
      buffered_ = 0;
    }
    const std::size_t stripes = bytes / 64;
    if (stripes != 0) {
      kernels::kernel_table().checksum_stripes(acc_, p, stripes);
      p += stripes * 64;
      bytes -= stripes * 64;
    }
    if (bytes != 0) {
      std::memcpy(buf_, p, bytes);
      buffered_ = bytes;
    }
  }

  /// Finalize without consuming state — more update() calls may follow.
  [[nodiscard]] std::uint64_t digest() const {
    std::uint64_t acc[8];
    std::memcpy(acc, acc_, sizeof(acc));
    if (buffered_ != 0) {
      unsigned char tail[64] = {};
      std::memcpy(tail, buf_, buffered_);
      kernels::kernel_table().checksum_stripes(acc, tail, 1);
    }
    // The zero-padded tail stripe is disambiguated by folding total_ in.
    std::uint64_t h = detail::avalanche(seed_ ^ (total_ * detail::kPrime2));
    for (std::size_t j = 0; j < 8; ++j)
      h = detail::avalanche((h + acc[j]) * detail::kPrime1 + j);
    return h;
  }

 private:
  std::uint64_t acc_[8];
  unsigned char buf_[64];
  std::size_t buffered_ = 0;
  std::uint64_t total_ = 0;
  std::uint64_t seed_ = 0;
};

/// One-shot checksum of a contiguous block.
[[nodiscard]] inline std::uint64_t block_checksum(const void* data,
                                                  std::size_t bytes,
                                                  std::uint64_t seed = 0) {
  Checksummer c(seed);
  c.update(data, bytes);
  return c.digest();
}

/// Serialize a footer for `count` section sums into `out`
/// (footer_bytes(count) bytes, caller-allocated).
inline void write_footer(const std::uint64_t* sums, std::size_t count,
                         unsigned char* out) {
  std::memcpy(out, sums, 8 * count);
  unsigned char* t = out + 8 * count;
  const std::uint32_t version = kFooterVersion;
  const auto count32 = static_cast<std::uint32_t>(count);
  const std::uint64_t sums_checksum = block_checksum(sums, 8 * count);
  std::memcpy(t, &version, 4);
  std::memcpy(t + 4, &count32, 4);
  std::memcpy(t + 8, &sums_checksum, 8);
  std::memcpy(t + 16, kFooterMagic, 8);
}

/// Parse + self-check a footer expected to describe `count` sections.
/// `footer` points at the footer start (footer_bytes(count) readable bytes);
/// sums_out receives the per-section sums. `what` names the artifact for
/// error messages.
[[nodiscard]] inline Status read_footer(const void* footer,
                                        std::size_t count,
                                        const std::string& what,
                                        std::uint64_t* sums_out) {
  const auto* p = static_cast<const unsigned char*>(footer);
  const unsigned char* t = p + 8 * count;
  if (std::memcmp(t + 16, kFooterMagic, 8) != 0)
    return {StatusCode::kIoError, what + ": bad checksum footer magic"};
  std::uint32_t version = 0, stored_count = 0;
  std::uint64_t sums_checksum = 0;
  std::memcpy(&version, t, 4);
  std::memcpy(&stored_count, t + 4, 4);
  std::memcpy(&sums_checksum, t + 8, 8);
  if (version != kFooterVersion)
    return {StatusCode::kIoError,
            what + ": unsupported checksum footer version " +
                std::to_string(version)};
  if (stored_count != count)
    return {StatusCode::kIoError,
            what + ": checksum footer names " + std::to_string(stored_count) +
                " sections, format has " + std::to_string(count)};
  std::memcpy(sums_out, p, 8 * count);
  if (block_checksum(sums_out, 8 * count) != sums_checksum)
    return {StatusCode::kIoError,
            what + ": checksum footer is itself corrupt (sums_checksum "
                   "mismatch)"};
  return Status::Ok();
}

/// A named payload extent to verify against its footer sum.
struct Section {
  const char* name;
  const void* data;
  std::size_t bytes;
};

/// Recompute each section's checksum and compare with the footer sums; the
/// first mismatch is reported as kIoError naming the section.
[[nodiscard]] inline Status verify_sections(const Section* sections,
                                            std::size_t count,
                                            const std::uint64_t* sums,
                                            const std::string& what) {
  for (std::size_t i = 0; i < count; ++i) {
    if (block_checksum(sections[i].data, sections[i].bytes) != sums[i])
      return {StatusCode::kIoError,
              what + ": checksum mismatch in section '" +
                  std::string(sections[i].name) + "'"};
  }
  return Status::Ok();
}

/// read_footer, then check section 0 — the `header_bytes`-byte header at
/// `header`, the first section of every format — against its sum: the
/// check each reader runs before it touches the payload.
[[nodiscard]] inline Status read_footer_check_header(
    const void* footer, std::size_t count, const void* header,
    std::size_t header_bytes, const std::string& what,
    std::uint64_t* sums_out) {
  Status status = read_footer(footer, count, what, sums_out);
  if (!status.ok()) return status;
  const Section section = {"header", header, header_bytes};
  return verify_sections(&section, 1, sums_out, what);
}

}  // namespace lotus::util::checksum
