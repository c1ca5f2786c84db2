// Test helper: give a hand-made or hand-edited LOTUSGR1 / LOTUSLG2 image a
// valid checksum footer. Every reader requires the footer and verifies it
// before it looks at the body, so a corrupt body only reaches the
// structural checks (offset monotonicity, neighbour range) once it is
// sealed like a file the writer produced.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "util/checksum.hpp"

namespace lotus::testing {

/// `body` followed by a footer with one sum per section; section i spans
/// [ends[i-1], ends[i]) of `body` (section 0 starts at byte 0).
inline std::string seal_sections(const std::string& body,
                                 const std::vector<std::uint64_t>& ends) {
  namespace cks = util::checksum;
  std::vector<std::uint64_t> sums;
  std::uint64_t begin = 0;
  for (std::uint64_t end : ends) {
    sums.push_back(cks::block_checksum(body.data() + begin, end - begin));
    begin = end;
  }
  std::string footer(cks::footer_bytes(sums.size()), '\0');
  cks::write_footer(sums.data(), sums.size(),
                    reinterpret_cast<unsigned char*>(footer.data()));
  return body + footer;
}

inline std::uint64_t header_field(const std::string& body, std::size_t at) {
  std::uint64_t value = 0;
  std::memcpy(&value, body.data() + at, sizeof value);
  return value;
}

/// Seal a footerless LOTUSGR1 image: header, offsets, neighbours.
inline std::string seal_csx(const std::string& body) {
  const std::uint64_t offsets_end = 24 + (header_field(body, 8) + 1) * 8;
  return seal_sections(body, {24, offsets_end, body.size()});
}

/// Seal a footerless LOTUSLG2 image: the 64-byte header, then six sections
/// (new_id, h2h, HE offsets, HE neighbours, NHE offsets, NHE neighbours),
/// each zero-padded to 8 bytes.
inline std::string seal_lg2(const std::string& body) {
  const std::uint64_t n = header_field(body, 8);
  const std::uint64_t section_bytes[] = {
      n * 4, header_field(body, 24) * 8, (n + 1) * 8,
      header_field(body, 32) * 2, (n + 1) * 8, header_field(body, 40) * 4};
  std::vector<std::uint64_t> ends = {64};
  for (std::uint64_t bytes : section_bytes)
    ends.push_back(ends.back() + ((bytes + 7) & ~std::uint64_t{7}));
  return seal_sections(body, ends);
}

}  // namespace lotus::testing
