#!/usr/bin/env bash
# Checks the symbols of the SIMD kernel objects in a build directory.
#
#   x86   The AVX2 and AVX-512 objects must define no dfr:: inline function
#         out of line: the linker keeps one weak copy for every caller, and
#         the copy it keeps may be AVX-encoded, so baseline code (the scalar
#         oracles under DFR_SIMD=scalar included) would run AVX instructions.
#         Release inlines such getters anyway; run it on a Debug build, where
#         the copies appear.
#   neon  The NEON object of an aarch64 cross build must hold every kernel
#         template instantiation, not the nullptr stub it compiles to on
#         other targets. Needs aarch64-linux-gnu-nm.
#
# The symbol tables are kept in <build-dir>/<isa>-symbols.txt.
#
# Usage: ci/isa_symbols.sh <build-dir> x86|neon
set -euo pipefail

build=${1:?usage: ci/isa_symbols.sh <build-dir> x86|neon}
objects="$build/CMakeFiles/dfr_core.dir/src/serve"

case "${2:?usage: ci/isa_symbols.sh <build-dir> x86|neon}" in
  x86)
    for isa in avx2 avx512; do
      obj="$objects/simd_kernels_${isa}.cpp.o"
      nm -C "$obj" > "$build/${isa}-symbols.txt"
      if grep -E '^[0-9a-f]+ [WV] .*dfr::' "$build/${isa}-symbols.txt"; then
        echo "weak dfr:: symbols above are defined in ${obj}"; exit 1
      fi
    done
    echo "isa symbols: the AVX2 and AVX-512 objects define no weak dfr:: symbol"
    ;;
  neon)
    nm_tool=aarch64-linux-gnu-nm
    if ! command -v "$nm_tool" > /dev/null; then
      echo "$nm_tool is not installed: the NEON symbol check cannot run"; exit 1
    fi
    "$nm_tool" -C "$objects/simd_kernels_neon.cpp.o" | tee "$build/neon-symbols.txt"
    for fn in preadd_nonlin dprr_block scale_quantize quant_preadd_nonlin \
              lane_step lane_quant_step dprr_lanes row_gram back_project; do
      grep -q "::${fn}<dfr::simd::(anonymous namespace)::NeonOps" \
        "$build/neon-symbols.txt" || { echo "no ${fn}<NeonOps> in the NEON object"; exit 1; }
    done
    echo "isa symbols: the NEON object holds every kernel"
    ;;
  *)
    echo "usage: ci/isa_symbols.sh <build-dir> x86|neon"; exit 2
    ;;
esac
