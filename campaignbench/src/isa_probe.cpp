// Reports which SIMD path the lane-kernel translation units selected.
// CMakeLists.txt compiles this file with exactly the flags those units get
// (-march=native when FAIRCHAIN_LANE_SIMD is on and supported), so the
// predefined macros below are the ones they saw.

namespace campaignbench {

const char* LaneSimdIsa() {
#if !defined(CAMPAIGNBENCH_LANE_SIMD_NATIVE)
  return "portable (lane SIMD off)";
#elif defined(__AVX512F__) && defined(__AVX512DQ__) && defined(__AVX512VL__)
  return "avx512 (-march=native, explicit lane kernels)";
#elif defined(__AVX2__)
  return "avx2 (-march=native, auto-vectorized)";
#else
  return "native without avx2 (-march=native)";
#endif
}

}  // namespace campaignbench
