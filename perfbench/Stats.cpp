//===- Stats.cpp - Sample statistics and the metric report ----------------===//

#include "Stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

using namespace perfbench;

namespace {

size_t rankIndex(size_t N, double Q) {
  size_t Rank = static_cast<size_t>(std::ceil(Q * N));
  return Rank == 0 ? 0 : Rank - 1;
}

/// Shortest decimal that reads back as the same double, so no digit is
/// lost; JSON has no NaN or infinity, which never reach here as values.
std::string number(double V) {
  if (!std::isfinite(V))
    V = 0;
  char Buf[40];
  for (int Prec = 15; Prec <= 17; ++Prec) {
    std::snprintf(Buf, sizeof(Buf), "%.*g", Prec, V);
    if (std::strtod(Buf, nullptr) == V)
      break;
  }
  return Buf;
}

} // namespace

double perfbench::percentile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  size_t I = rankIndex(V.size(), Q);
  std::nth_element(V.begin(), V.begin() + I, V.end());
  return V[I];
}

double perfbench::median(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  std::vector<double> S = V;
  std::sort(S.begin(), S.end());
  size_t N = S.size();
  return N % 2 ? S[N / 2] : (S[N / 2 - 1] + S[N / 2]) / 2;
}

double perfbench::geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / V.size());
}

size_t perfbench::samplesBeyond(size_t N, double Q) {
  return N == 0 ? 0 : N - 1 - rankIndex(N, Q);
}

CpuTimes perfbench::cpuTimes() {
  std::FILE *F = std::fopen("/proc/stat", "r");
  if (!F)
    return {};
  unsigned long long V[8] = {0};
  int N = std::fscanf(F, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &V[0],
                      &V[1], &V[2], &V[3], &V[4], &V[5], &V[6], &V[7]);
  std::fclose(F);
  CpuTimes T;
  for (int I = 0; I < N; ++I)
    T.Total += static_cast<double>(V[I]);
  T.Steal = N == 8 ? static_cast<double>(V[7]) : 0;
  return T;
}

double perfbench::stealShare(const CpuTimes &A, const CpuTimes &B) {
  double Total = B.Total - A.Total;
  return Total > 0 ? (B.Steal - A.Steal) / Total : 0;
}

std::vector<bool> perfbench::quietSlices(const std::vector<double> &Steal) {
  std::vector<size_t> Order(Steal.size());
  for (size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  std::stable_sort(Order.begin(), Order.end(),
                   [&](size_t A, size_t B) { return Steal[A] < Steal[B]; });
  std::vector<bool> Quiet(Steal.size(), false);
  for (size_t I = 0; I < (Order.size() + 1) / 2; ++I)
    Quiet[Order[I]] = true;
  return Quiet;
}

void Report::add(const std::string &Name, double Value,
                 const std::string &Unit) {
  Ms.push_back({Name, Value, Unit});
}

void Report::printTable(const char *Title) const {
  std::printf("== %s ==\n", Title);
  for (const Metric &M : Ms)
    std::printf("  %-44s %16.6g %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str());
}

std::string Report::resultJson(bool Correct, unsigned long long Attempted,
                               unsigned long long Failed) const {
  std::string J = "{\"correct\": ";
  J += Correct ? "true" : "false";
  J += ", \"attempted\": " + std::to_string(Attempted);
  J += ", \"failed\": " + std::to_string(Failed);
  J += ", \"metrics\": {";
  for (size_t I = 0; I < Ms.size(); ++I) {
    J += (I ? ", \"" : "\"") + Ms[I].Name + "\": {\"value\": " +
         number(Ms[I].Value) + ", \"unit\": \"" + Ms[I].Unit + "\"}";
  }
  J += "}}";
  return J;
}
