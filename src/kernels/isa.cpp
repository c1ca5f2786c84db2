#include "kernels/isa.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>

namespace lotus::kernels {

namespace {

Isa probe_cpu() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("avx512f")) return Isa::kAvx512;
  if (__builtin_cpu_supports("avx2")) return Isa::kAvx2;
  return Isa::kScalar;
#elif defined(__aarch64__)
  return Isa::kNeon;
#else
  return Isa::kScalar;
#endif
}

Isa env_isa() noexcept {
  const char* env = std::getenv("LOTUS_ISA");
  if (env == nullptr || *env == '\0') return detected_isa();
  const std::string_view request(env);
  if (request == "native") return detected_isa();
  if (const auto parsed = parse_isa(request); parsed.has_value())
    return clamp_to_supported(*parsed);
  std::fprintf(stderr,
               "[kernels] unknown LOTUS_ISA=%s (want scalar|neon|avx2|avx512|"
               "native); using %s\n",
               env, isa_name(detected_isa()));
  return detected_isa();
}

// -1 = no override installed; otherwise the (already clamped) Isa value.
std::atomic<int> g_override{-1};

}  // namespace

const char* isa_name(Isa isa) noexcept {
  switch (isa) {
    case Isa::kScalar: return "scalar";
    case Isa::kNeon: return "neon";
    case Isa::kAvx2: return "avx2";
    case Isa::kAvx512: return "avx512";
  }
  return "unknown";
}

std::optional<Isa> parse_isa(std::string_view name) noexcept {
  for (Isa isa : {Isa::kScalar, Isa::kNeon, Isa::kAvx2, Isa::kAvx512})
    if (name == isa_name(isa)) return isa;
  return std::nullopt;
}

Isa detected_isa() noexcept {
  static const Isa detected = probe_cpu();
  return detected;
}

bool isa_supported(Isa isa) noexcept {
  switch (isa) {
    case Isa::kScalar: return true;
    case Isa::kNeon:
#if defined(__aarch64__)
      return true;
#else
      return false;
#endif
    case Isa::kAvx2:
    case Isa::kAvx512: {
      const Isa best = detected_isa();
      return best == isa || (best == Isa::kAvx512 && isa == Isa::kAvx2);
    }
  }
  return false;
}

std::vector<Isa> supported_isas() {
  std::vector<Isa> out;
  for (Isa isa : {Isa::kScalar, Isa::kNeon, Isa::kAvx2, Isa::kAvx512})
    if (isa_supported(isa)) out.push_back(isa);
  return out;
}

Isa clamp_to_supported(Isa requested) noexcept {
  // Walk down the tier order from `requested`; scalar is always supported.
  for (Isa isa : {Isa::kAvx512, Isa::kAvx2, Isa::kNeon, Isa::kScalar})
    if (static_cast<unsigned>(isa) <= static_cast<unsigned>(requested) &&
        isa_supported(isa))
      return isa;
  return Isa::kScalar;
}

Isa active_isa() noexcept {
  const int override_value = g_override.load(std::memory_order_acquire);
  if (override_value >= 0) return static_cast<Isa>(override_value);
  static const Isa from_env = env_isa();
  return from_env;
}

void set_isa_override(std::optional<Isa> isa) noexcept {
  g_override.store(
      isa.has_value() ? static_cast<int>(clamp_to_supported(*isa)) : -1,
      std::memory_order_release);
}

}  // namespace lotus::kernels
