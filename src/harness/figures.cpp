#include "harness/figures.hpp"

#include <ostream>

#include "support/check.hpp"
#include "support/table.hpp"

namespace acolay::harness {

std::string criterion_name(Criterion criterion) {
  switch (criterion) {
    case Criterion::kWidthInclDummies: return "Width (including dummies)";
    case Criterion::kWidthExclDummies: return "Width (excluding dummies)";
    case Criterion::kHeight: return "Height (number of layers)";
    case Criterion::kDummyCount: return "Dummy vertex count";
    case Criterion::kEdgeDensity: return "Edge density (max edges per gap)";
    case Criterion::kEdgeDensityNorm: return "Edge density (normalised)";
    case Criterion::kRuntimeMs: return "Running time (ms)";
    case Criterion::kObjective: return "Objective 1/(H+W)";
  }
  ACOLAY_CHECK_MSG(false, "unknown criterion");
  return {};
}

namespace {
const support::Accumulator& select(const GroupStats& cell,
                                   Criterion criterion) {
  switch (criterion) {
    case Criterion::kWidthInclDummies: return cell.width_incl;
    case Criterion::kWidthExclDummies: return cell.width_excl;
    case Criterion::kHeight: return cell.height;
    case Criterion::kDummyCount: return cell.dummies;
    case Criterion::kEdgeDensity: return cell.edge_density;
    case Criterion::kEdgeDensityNorm: return cell.edge_density_norm;
    case Criterion::kRuntimeMs: return cell.runtime_ms;
    case Criterion::kObjective: return cell.objective;
  }
  ACOLAY_CHECK_MSG(false, "unknown criterion");
  return cell.width_incl;
}

int criterion_precision(Criterion criterion) {
  switch (criterion) {
    case Criterion::kRuntimeMs: return 3;
    case Criterion::kEdgeDensityNorm: return 3;
    case Criterion::kObjective: return 4;
    default: return 2;
  }
}
}  // namespace

double criterion_mean(const GroupStats& cell, Criterion criterion) {
  return select(cell, criterion).mean();
}

double criterion_stddev(const GroupStats& cell, Criterion criterion) {
  return select(cell, criterion).stddev();
}

void print_series(std::ostream& os, const ExperimentResult& result,
                  Criterion criterion, const std::string& title) {
  os << "\n" << title << " — " << criterion_name(criterion) << "\n";
  std::vector<std::string> header{"Vertices"};
  for (const auto alg : result.algorithms) {
    header.push_back(algorithm_label(alg));
  }
  support::ConsoleTable table(header);
  const int precision = criterion_precision(criterion);
  for (std::size_t group = 0; group < result.group_vertices.size(); ++group) {
    std::vector<std::string> row{
        std::to_string(result.group_vertices[group])};
    for (std::size_t a = 0; a < result.algorithms.size(); ++a) {
      row.push_back(support::ConsoleTable::num(
          criterion_mean(result.cells[group][a], criterion), precision));
    }
    table.add_row(std::move(row));
  }
  table.print(os);
}

double overall_mean(const ExperimentResult& result, Algorithm alg,
                    Criterion criterion, int min_vertices) {
  std::size_t index = result.algorithms.size();
  for (std::size_t a = 0; a < result.algorithms.size(); ++a) {
    if (result.algorithms[a] == alg) {
      index = a;
      break;
    }
  }
  ACOLAY_CHECK_MSG(index < result.algorithms.size(),
                   "algorithm not part of this experiment");
  support::Accumulator total;
  for (std::size_t group = 0; group < result.cells.size(); ++group) {
    if (result.group_vertices[group] < min_vertices) continue;
    total.add(criterion_mean(result.cells[group][index], criterion));
  }
  ACOLAY_CHECK_MSG(total.count() > 0, "min_vertices excluded every group");
  return total.mean();
}

}  // namespace acolay::harness
