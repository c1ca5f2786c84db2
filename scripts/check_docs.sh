#!/usr/bin/env sh
# Documentation lint, run as the `check_docs` ctest:
#   1. every relative link in the repo's markdown files must resolve;
#   2. every public header in src/obs and src/tc must open with a file-level
#      doc comment (the observability/API layers document thread-safety and
#      overhead there — see docs/ARCHITECTURE.md);
#   3. every kernel in the dispatch table (src/kernels/dispatch.hpp,
#      KERNEL-INVENTORY block) must be documented in docs/KERNELS.md;
#   4. prose docs must not reference the deprecated legacy entry points
#      (tc::run, run_with_status, run_profiled*) or the removed names
#      (forward-simd, kForwardSimd, intersect_simd, adaptive_count,
#      use_lotus(), ayz-matrix, spgemm-masked, kAyz, kSpGemmMasked,
#      count_kcliques, ktruss_decomposition, lotus_algorithms,
#      read_csr_binary_parallel_s, LoaderOptions, direct_io, loader_threads,
#      LOTUSLG1, set_backend, openmp_available, kOpenMP, max_parallelism,
#      fuse_hnn_nnn, --backend openmp, and_popcount, the kernel-table
#      `popcount`, merge_u16, merge_u32_avx512, and_window_popcount,
#      intersect_merge_visit, for_each_triangle, TriangleVisitPolicy, the
#      throwing IO wrappers read_edge_list_text, write_edge_list_text,
#      write_csr_binary, read_csr_binary, write_lotus_binary,
#      read_lotus_binary and read_lotus_mapped (their _s forms stay), and
#      LOTUS_HWC_FORCE_ERROR, the engine-less telemetry sink
#      QueryOptions::telemetry and the hand-written telemetry_to_json, the
#      streaming counter StreamingHubCounter with its streaming_triangles
#      example and lotus_streaming_replay differential path, CompressedCsr,
#      and the include paths of the five modules that left src/:
#      lotus/streaming.hpp, graph/compressed.hpp, lotus/recursive.hpp,
#      graph/reorder.hpp and analytics/approx.hpp) — docs/API.md is exempt
#      because it documents the migration away from them;
#   5. every out-of-core knob (src/graph/oocore.hpp, LOTUS-KNOB-INVENTORY
#      block: ExternalBuildOptions and MapVerify) must be documented in
#      docs/OUT_OF_CORE.md;
#   6. every engine metric in the metric table (src/tc/engine_metrics.hpp,
#      LOTUS-METRIC-INVENTORY block) must be documented: its Prometheus
#      family in docs/TELEMETRY.md, its `engine` JSON key in the `engine`
#      section of docs/METRICS.md, and its `engine_telemetry` (or `window`)
#      key in the `engine_telemetry` section of docs/METRICS.md;
#   7. every checksum-footer field and per-format section name
#      (src/util/checksum.hpp, LOTUS-FOOTER-INVENTORY block) must be
#      documented in docs/OUT_OF_CORE.md;
#   8. every analytic kind (src/tc/api.hpp, LOTUS-ANALYTIC-INVENTORY block)
#      must be documented in docs/API.md;
#   9. every header under src/ must be included by another file inside src/
#      (its own .cpp does not count), except the bench/example scaffolding
#      datasets/registry.hpp, util/cli.hpp and util/table.hpp.
set -u
cd "$(dirname "$0")/.."

status=0

# --- 1. intra-repo markdown links ------------------------------------------
# Pull `](target)` occurrences out of every tracked markdown file, skip
# external schemes and pure anchors, strip #fragments, and resolve the rest
# relative to the file that contains them. Inline code spans are stripped
# first: a `[...](...)` inside backticks is code, not a link.
for md in $(find . -name '*.md' -not -path './build*' -not -path './.git/*'); do
  links=$(sed 's/`[^`]*`//g' "$md" 2>/dev/null | grep -o '](\([^)]*\))' |
            sed 's/^](//; s/)$//')
  [ -z "$links" ] && continue
  dir=$(dirname "$md")
  for link in $links; do
    case "$link" in
      http://*|https://*|mailto:*|\#*) continue ;;
    esac
    target="${link%%#*}"
    [ -z "$target" ] && continue
    if [ ! -e "$dir/$target" ]; then
      echo "check_docs: broken link in $md -> $link" >&2
      status=1
    fi
  done
done

# --- 2. file-level doc comments --------------------------------------------
for header in src/obs/*.hpp src/tc/*.hpp; do
  [ -e "$header" ] || continue
  case "$(head -n 1 "$header")" in
    //*) ;;
    *)
      echo "check_docs: $header lacks a file-level doc comment (first line must be //)" >&2
      status=1
      ;;
  esac
done

# --- 3. kernel inventory vs docs/KERNELS.md --------------------------------
# The dispatch table names its kernels between KERNEL-INVENTORY markers;
# each one must appear (backtick-quoted) in the KERNELS guide.
inventory=$(sed -n '/KERNEL-INVENTORY-BEGIN/,/KERNEL-INVENTORY-END/p' \
              src/kernels/dispatch.hpp | grep -o '"[a-z0-9_]*"' | tr -d '"')
if [ -z "$inventory" ]; then
  echo "check_docs: no kernel inventory found in src/kernels/dispatch.hpp" >&2
  status=1
fi
for kernel in $inventory; do
  if ! grep -q "\`$kernel\`" docs/KERNELS.md 2>/dev/null; then
    echo "check_docs: kernel '$kernel' (src/kernels/dispatch.hpp) is not documented in docs/KERNELS.md" >&2
    status=1
  fi
done

# --- 4. no legacy entry-point references in prose docs ----------------------
# tc::run / run_with_status / run_profiled* are deprecated shims, and
# forward-simd / kForwardSimd / intersect_simd / adaptive_count / use_lotus()
# are gone (folded into gap-forward, kernels::intersect and the adaptive
# resolution of tc::query). So are the AYZ and masked-SpGEMM algorithms
# (ayz-matrix / spgemm-masked, kAyz / kSpGemmMasked), the graph-taking
# analytic wrappers (count_kcliques, ktruss_decomposition; tc::query serves
# both) and the lotus_algorithms library. Docs must describe the tc::query
# surface. The parallel CSX loader (read_csr_binary_parallel_s with its
# LoaderOptions knobs direct_io / loader_threads) and the LOTUSLG1 reader are
# gone too: each format has one heap reader and one mapped reader. Every
# parallel loop runs on the thread pool, so the OpenMP backend switch
# (set_backend / openmp_available / kOpenMP, lotus_diff_repro's
# --backend openmp) and max_parallelism() (now num_threads()) are gone; so
# are LotusConfig::fuse_hnn_nnn (the ablation calls count_hnn_nnn_fused) and
# the kernel-table and_popcount / `popcount` entries; util::Bitset's
# and_popcount went with the streaming counter, its only caller. The kernel
# table keeps only
# entries that beat their fallback: the SIMD u16 merge (merge_u16) and the
# AVX-512 merge (merge_u32_avx512) are gone, and the H2H row popcount is
# TriangularBitArray::row_hits, not the and_window_popcount entry. The
# per-vertex and per-edge analytics walk triangles once per substrate: the
# positional mode of the merge_u32 kernel replaces intersect_merge_visit
# (and intersect_merge's on-hit callback after it), and mining::ForwardWalk
# replaces the DAG for_each_triangle, its TriangleVisitPolicy and the
# per-triangle forward_walk. The throwing IO wrappers are gone (each format has
# one decoder, reached through the Status-returning _s functions, so the
# pattern matches the bare names only), and the LOTUS_HWC_FORCE_ERROR hook
# is the `hwc` fault site. Serving telemetry is recorded by tc::Engine only
# (QueryOptions::telemetry is gone), and both engine JSON sections render
# from tc::kEngineMetrics (telemetry_to_json is gone). src/ holds the TC
# system only: the streaming counter (StreamingHubCounter, its
# streaming_triangles example and lotus_streaming_replay path) and the
# CompressedCsr codec are gone, and recursive LOTUS, the approximate
# estimators and the orderings moved to bench/ablations, so the five old
# include paths name nothing. gap-forward, forward-bitmap, forward-hybrid
# and the NNN phase share kernels::forward_count: the kernels::intersect
# wrapper, hybrid_forward_count, count_bitmap_hits with util::Bitset, the
# ablation's intersect_merge_branchless (the scalar merge_u32 is that loop)
# and the forward_hybrid_all_dense differential path are gone, and so are
# their three headers.
# docs/API.md keeps the migration table and is exempt, as are the
# changelog/issue worklogs.
for md in README.md DESIGN.md docs/*.md; do
  [ -e "$md" ] || continue
  case "$md" in
    docs/API.md) continue ;;
  esac
  hits=$(grep -n 'tc::run(\|run_with_status\|run_profiled\|forward-simd\|kForwardSimd\|intersect_simd\|adaptive_count\|use_lotus()\|ayz-matrix\|spgemm-masked\|kAyz\|kSpGemmMasked\|count_kcliques\|ktruss_decomposition\|lotus_algorithms\|read_csr_binary_parallel_s\|LoaderOptions\|direct_io\|loader_threads\|LOTUSLG1\|set_backend\|openmp_available\|kOpenMP\|max_parallelism\|fuse_hnn_nnn\|--backend openmp\|and_popcount\|`popcount`\|merge_u16\|merge_u32_avx512\|and_window_popcount\|intersect_merge_visit\|for_each_triangle\|\<forward_walk\>\|TriangleVisitPolicy\|\<read_edge_list_text\>\|\<write_edge_list_text\>\|\<write_csr_binary\>\|\<read_csr_binary\>\|\<write_lotus_binary\>\|\<read_lotus_binary\>\|\<read_lotus_mapped\>\|LOTUS_HWC_FORCE_ERROR\|QueryOptions::telemetry\|telemetry_to_json\|StreamingHubCounter\|streaming_triangles\|lotus_streaming_replay\|CompressedCsr\|lotus/streaming\.hpp\|graph/compressed\.hpp\|lotus/recursive\.hpp\|graph/reorder\.hpp\|analytics/approx\.hpp\|count_bitmap_hits\|util::Bitset\|util/bitset\.hpp\|kernels/intersect\.hpp\|kernels/hybrid\.hpp\|hybrid_forward_count\|forward_hybrid_all_dense\|\<kernels::intersect\>\|intersect_merge_branchless' "$md")
  if [ -n "$hits" ]; then
    echo "check_docs: $md references a deprecated or removed entry point:" >&2
    echo "$hits" | sed 's/^/  /' >&2
    status=1
  fi
done

# --- 5. out-of-core knob inventory vs docs/OUT_OF_CORE.md -------------------
# The external-build options and the map-verify policy name their knobs as
# `/// name:` doc lines between LOTUS-KNOB-INVENTORY markers; each must
# appear (backtick-quoted) in the out-of-core guide.
knobs=$(sed -n '/LOTUS-KNOB-INVENTORY-BEGIN/,/LOTUS-KNOB-INVENTORY-END/p' \
          src/graph/oocore.hpp | sed -n 's|^ */// \([a-z_][a-z0-9_]*\):.*|\1|p')
if [ -z "$knobs" ]; then
  echo "check_docs: no knob inventory found in src/graph/oocore.hpp" >&2
  status=1
fi
for knob in $knobs; do
  if ! grep -q "\`$knob\`" docs/OUT_OF_CORE.md 2>/dev/null; then
    echo "check_docs: knob '$knob' (src/graph/oocore.hpp) is not documented in docs/OUT_OF_CORE.md" >&2
    status=1
  fi
done

# --- 6. engine metric table vs docs/TELEMETRY.md and docs/METRICS.md ------
# tc::kEngineMetrics declares every engine metric between
# LOTUS-METRIC-INVENTORY markers. Each Prometheus family ("lotus_engine_*")
# must appear (backtick-quoted) in the telemetry guide. Each JSON key (the
# literal right after its JsonSection) must appear (backtick-quoted) in its
# section of the metrics guide: `engine` keys in the `engine` section, which
# ends where the `engine_telemetry` section begins; `engine_telemetry` and
# `window` keys in the `engine_telemetry` section, which ends where the
# `spans` section begins.
metric_table=$(sed -n '/LOTUS-METRIC-INVENTORY-BEGIN/,/LOTUS-METRIC-INVENTORY-END/p' \
                 src/tc/engine_metrics.hpp)
metric_names=$(echo "$metric_table" | grep -o '"lotus_engine_[a-z0-9_]*"' | tr -d '"')
engine_keys=$(echo "$metric_table" | grep -o 'JsonSection::kEngine, "[a-z0-9_]*"' | sed 's/.*"\([a-z0-9_]*\)"/\1/')
telemetry_keys=$(echo "$metric_table" | grep -o 'JsonSection::k\(Telemetry\|Window\), "[a-z0-9_]*"' | sed 's/.*"\([a-z0-9_]*\)"/\1/' | sort -u)
if [ -z "$metric_names" ] || [ -z "$engine_keys" ] || [ -z "$telemetry_keys" ]; then
  echo "check_docs: no metric table found in src/tc/engine_metrics.hpp" >&2
  status=1
fi
for metric_name in $metric_names; do
  if ! grep -q "\`$metric_name\`" docs/TELEMETRY.md 2>/dev/null; then
    echo "check_docs: metric '$metric_name' (src/tc/engine_metrics.hpp) is not documented in docs/TELEMETRY.md" >&2
    status=1
  fi
done
engine_section=$(sed -n '/^### `engine` /,/^### `engine_telemetry` /p' docs/METRICS.md)
for engine_key in $engine_keys; do
  if ! echo "$engine_section" | grep -q "\`$engine_key\`"; then
    echo "check_docs: engine key '$engine_key' (src/tc/engine_metrics.hpp) is not documented in the engine section of docs/METRICS.md" >&2
    status=1
  fi
done
telemetry_section=$(sed -n '/^### `engine_telemetry` /,/^### `spans` /p' docs/METRICS.md)
for telemetry_key in $telemetry_keys; do
  if ! echo "$telemetry_section" | grep -q "\`$telemetry_key\`"; then
    echo "check_docs: engine_telemetry key '$telemetry_key' (src/tc/engine_metrics.hpp) is not documented in the engine_telemetry section of docs/METRICS.md" >&2
    status=1
  fi
done

# --- 7. checksum footer inventory vs docs/OUT_OF_CORE.md --------------------
# util/checksum.hpp names every footer field and every per-format section
# between LOTUS-FOOTER-INVENTORY markers; each must appear (backtick-quoted)
# in the out-of-core guide, which carries the byte-level footer layout.
footer_names=$(sed -n '/LOTUS-FOOTER-INVENTORY-BEGIN/,/LOTUS-FOOTER-INVENTORY-END/p' \
                 src/util/checksum.hpp | grep -o '"[a-z0-9_]*"' | tr -d '"' | sort -u)
if [ -z "$footer_names" ]; then
  echo "check_docs: no footer inventory found in src/util/checksum.hpp" >&2
  status=1
fi
for footer_name in $footer_names; do
  if ! grep -q "\`$footer_name\`" docs/OUT_OF_CORE.md 2>/dev/null; then
    echo "check_docs: footer field/section '$footer_name' (src/util/checksum.hpp) is not documented in docs/OUT_OF_CORE.md" >&2
    status=1
  fi
done

# --- 8. analytic inventory vs docs/API.md -----------------------------------
# The query surface names every AnalyticKind between LOTUS-ANALYTIC-INVENTORY
# markers (the stable CLI/schema vocabulary); each must appear
# (backtick-quoted) in the API guide's analytics section.
analytic_names=$(sed -n '/LOTUS-ANALYTIC-INVENTORY-BEGIN/,/LOTUS-ANALYTIC-INVENTORY-END/p' \
                   src/tc/api.hpp | grep -o '"[a-z0-9-]*"' | tr -d '"')
if [ -z "$analytic_names" ]; then
  echo "check_docs: no analytic inventory found in src/tc/api.hpp" >&2
  status=1
fi
for analytic_name in $analytic_names; do
  if ! grep -q "\`$analytic_name\`" docs/API.md 2>/dev/null; then
    echo "check_docs: analytic '$analytic_name' (src/tc/api.hpp) is not documented in docs/API.md" >&2
    status=1
  fi
done

# --- 9. every src/ header has an includer inside src/ -----------------------
# src/ holds the TC system: a header that nothing else in src/ includes
# serves only benches, examples or tests, and belongs beside them (the
# ablation-only code lives in bench/ablations). The bench/example scaffolding
# below is the one exception.
for header in $(find src -name '*.hpp' | sort); do
  rel=${header#src/}
  case "$rel" in
    datasets/registry.hpp|util/cli.hpp|util/table.hpp) continue ;;
  esac
  if ! grep -rlF "#include \"$rel\"" src --include='*.hpp' --include='*.cpp' |
       grep -qvx "src/${rel%.hpp}.cpp"; then
    echo "check_docs: $header has no includer inside src/ (its own .cpp does not count)" >&2
    status=1
  fi
done

if [ "$status" -ne 0 ]; then
  echo "check_docs: FAILED" >&2
else
  echo "check_docs: OK"
fi
exit "$status"
