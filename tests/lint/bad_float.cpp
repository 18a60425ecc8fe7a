// lint-fixture: src/core/bad_float.cpp
//
// Rule: no-float-in-aco-math. Pheromone/objective arithmetic is double
// end-to-end; a float intermediate rounds differently across
// optimisation levels, breaking bit-identity.
namespace acolay::core {

double mixed(double tau) {
  float narrow = 0.5f;            // lint-expect: no-float-in-aco-math
  const float eta = 1.0f;         // lint-expect: no-float-in-aco-math
  // double and integer arithmetic is the house style:
  const double wide = 0.5;
  const int whole = 2;
  // "float" in comments (float accumulation order) never fires, and
  // neither do identifiers like float_t lookalikes:
  const double afloat_like = wide;
  return tau * static_cast<double>(narrow) * static_cast<double>(eta) *
         afloat_like * whole;
}

}  // namespace acolay::core
