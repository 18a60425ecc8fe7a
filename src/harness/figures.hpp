// Figure emission: turns an ExperimentResult into the console table a
// bench binary prints — the terminal rendition of the paper's plotted
// series (the JSON bench report carries the same series for plotting).
//
// Each figure in the paper is one criterion as a function of vertex count,
// with one series per algorithm; `Criterion` selects which accumulator is
// read.
#pragma once

#include <iosfwd>
#include <string>

#include "harness/experiment.hpp"

namespace acolay::harness {

enum class Criterion {
  kWidthInclDummies,
  kWidthExclDummies,
  kHeight,
  kDummyCount,
  kEdgeDensity,
  kEdgeDensityNorm,
  kRuntimeMs,
  kObjective,
};

std::string criterion_name(Criterion criterion);

/// Mean of the criterion for one cell.
double criterion_mean(const GroupStats& cell, Criterion criterion);

/// Sample stddev of the criterion for one cell.
double criterion_stddev(const GroupStats& cell, Criterion criterion);

/// Prints "vertex-count x algorithm" mean series, one row per group —
/// the figure's plotted values.
void print_series(std::ostream& os, const ExperimentResult& result,
                  Criterion criterion, const std::string& title);

/// A shape check: mean of `criterion` over all groups with at least
/// `min_vertices` vertices for one algorithm — used by benches to print
/// the paper's qualitative claims ("ACO width < LPL width") next to the
/// measured numbers. Pass min_vertices > 10 to focus on the large-graph
/// regime where the paper's curves diverge.
double overall_mean(const ExperimentResult& result, Algorithm alg,
                    Criterion criterion, int min_vertices = 0);

}  // namespace acolay::harness
