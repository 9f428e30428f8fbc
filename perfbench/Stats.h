//===- Stats.h - Sample statistics and the metric report ---------*- C++ -*-===//

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile (\p Q in (0, 1]) of \p V; 0 when empty.
double percentile(std::vector<double> V, double Q);
double median(const std::vector<double> &V);
double geomean(const std::vector<double> &V);

/// Samples beyond the nearest-rank percentile \p Q of \p N samples. A p99
/// needs MinBeyond of them to mean anything; one with fewer is not
/// reported.
size_t samplesBeyond(size_t N, double Q);
constexpr size_t MinBeyond = 10;

/// Jiffies all CPUs spent stolen by the hypervisor, and in total, from
/// /proc/stat (zeros where there is none).
struct CpuTimes {
  double Steal = 0, Total = 0;
};
CpuTimes cpuTimes();
/// Share of CPU time stolen from \p A to \p B.
double stealShare(const CpuTimes &A, const CpuTimes &B);

/// Marks the half (rounded up) of the slices with the least \p Steal: the
/// ones whose wall times the host disturbed least.
std::vector<bool> quietSlices(const std::vector<double> &Steal);

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

/// Metrics in report order.
class Report {
public:
  void add(const std::string &Name, double Value, const std::string &Unit);
  const std::vector<Metric> &metrics() const { return Ms; }

  /// Prints one "name value unit" line per metric.
  void printTable(const char *Title) const;
  /// The benchmark's result line: exactly correct/attempted/failed/metrics.
  std::string resultJson(bool Correct, unsigned long long Attempted,
                         unsigned long long Failed) const;

private:
  std::vector<Metric> Ms;
};

} // namespace perfbench

#endif // PERFBENCH_STATS_H
