// lint-fixture: src/core/bad_admission.cpp
//
// Rule: one-admission-path. Phase 0 (resolve_cycles) runs inside
// core::admit together with validation and the CSR freeze; a solver that
// calls it directly is a second way in that admission checks never see.
#include "core/request.hpp"

namespace acolay::core {

void hand_rolled_admission(const graph::Digraph& g, std::uint64_t seed) {
  CycleResolution phase0;
  resolve_cycles(g, CyclePolicy::kAcoFas, seed, phase0);  // lint-expect: one-admission-path
  core::resolve_cycles(g, CyclePolicy::kGreedyReverse, seed, phase0);  // lint-expect: one-admission-path
  // lint:allow-next-line(one-admission-path) -- fixture: an admitted
  // session breaking only the cycles a delta introduced
  resolve_cycles(g, CyclePolicy::kGreedyReverse, seed + 1, phase0);
}

// Entering through admit is the fix; names that merely contain the word
// are not calls.
SolveOutcome admitted_solve(const SolveRequest& request) {
  AdmittedRequest admitted;
  if (admit(request, admitted, nullptr) != AdmissionError::kNone) return {};
  const int resolve_cycles_calls = 0;
  (void)resolve_cycles_calls;
  return solve(admitted);
}

}  // namespace acolay::core
