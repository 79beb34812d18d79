#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

// The benchmark's workloads and metrics (README.md describes both).

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "lsm/db.h"

namespace perfbench {

struct MetricDef {
  std::string name;
  std::string unit;
};

const std::vector<std::string>& WorkloadNames();
/// Printed by an untraced run, on every workload.
std::vector<MetricDef> EndToEndMetrics();
/// Printed by a traced run, on every workload.
std::vector<MetricDef> PerLayerMetrics();

/// Wraps every DB the benchmark opens; lets a test put a faulty DB
/// between the benchmark and the engine.
using DbDecorator =
    std::function<std::unique_ptr<shield::DB>(std::unique_ptr<shield::DB>)>;

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Test scale: keyspaces and samples divided down, for a run that
  /// takes about a second.
  bool tiny = false;
  /// A traced run appends its raw spans here (empty: not written).
  std::string span_path;
  DbDecorator decorate;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

struct RunReport {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
};

/// Runs one workload on both engines. A non-OK status means the run
/// could not be carried out (unknown workload, a DB that would not
/// open); wrong answers and failed operations are reported in `report`.
shield::Status RunWorkload(const RunOptions& options, RunReport* report);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
