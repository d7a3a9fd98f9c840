//===- sweepbench/Layers.h - Per-layer metrics of a traced run --*- C++ -*-===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#ifndef SWEEPBENCH_LAYERS_H
#define SWEEPBENCH_LAYERS_H

#include "Sweep.h"

#include <string>
#include <vector>

namespace sweepbench {

/// One printed metric.
struct Metric {
  std::string Name;
  double Value;
  const char *Unit;
};

/// What the traced run needs besides the set-up.
struct LayerInputs {
  const Workload *W = nullptr;
  uint64_t Seed = 0;
  double Seconds = 0.0;     ///< How long untraced/traced rounds alternate.
  std::vector<const Reference *> Refs; ///< Per input set; may hold nullptr.
  double ParseMs = 0.0;     ///< Median set-up parse time.
  double CompileMs = 0.0;   ///< Median set-up compile time.
};

/// Runs the traced sweeps and the per-layer probes, checking every sweep
/// into \p C, and appends every per-layer metric to \p Out.
void layerMetrics(const LayerInputs &In, Setup &S, Check &C,
                  std::vector<Metric> &Out);

double median(std::vector<double> V);
double mean(const std::vector<double> &V);

} // namespace sweepbench

#endif // SWEEPBENCH_LAYERS_H
