// lint-fixture: src/layering/bad_intrinsics.cpp
//
// Rule: no-intrinsics. Hot loops are plain C++ that the compiler
// vectorizes (checked with -fopt-info-vec); hand-written intrinsics need
// a suppression carrying the measurement that justified them.
#include <immintrin.h>   // lint-expect: no-intrinsics
#include <emmintrin.h>   // lint-expect: no-intrinsics
#  include <xmmintrin.h> // lint-expect: no-intrinsics
#include <arm_neon.h>    // lint-expect: no-intrinsics
// lint:allow-next-line(no-intrinsics) -- fixture: a measured exemption
#include <smmintrin.h>
// Headers that only look similar never fire:
#include <intrinsics.h>
#include <arm_neon_helpers.h>
#include <algorithm>

namespace acolay::layering {

int widest(const int* xs, int n) {
  int best = 0;
  for (int i = 0; i < n; ++i) best = std::max(best, xs[i]);
  return best;
}

}  // namespace acolay::layering
