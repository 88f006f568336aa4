// The benchmark's workloads. Every workload uses the paper's phone100K
// dataset (100,000 customers x 366 days) written by `tsctool generate`;
// see perfbench/README.md for what each measures.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "support.h"

namespace perfbench {

/// The dataset is one fixed phone100K (like the paper's single real
/// dataset); --seed drives every request choice. Across generator seeds
/// the SVDD RMSPE alone ranges 0.22-0.53%, far wider than any bound a
/// run-to-run comparison could use.
inline constexpr std::uint64_t kDataSeed = 42;
inline constexpr std::size_t kRows = 100000;
inline constexpr std::size_t kCols = 366;
/// Space budgets: the build workload's model and the serving model.
inline constexpr double kBuildSpacePercent = 5.0;
inline constexpr double kServeSpacePercent = 2.0;
/// Full set-ups per untraced run; setup_s is their median.
inline constexpr int kSetupRepeats = 2;

/// Writes the phone100K input with `tsctool generate`.
ChildExit GenerateInput(const Settings& settings, const std::string& path);

/// `tsctool compress` argv for one exact, f64, Bloom-on SVDD build.
std::vector<std::string> CompressArgs(const Settings& settings,
                                      const std::string& input,
                                      const std::string& model,
                                      double space_percent);

/// One in-process build (BuildSvddModel over a FileRowSource, then
/// SaveToFile: the calls `tsctool compress` makes). With `traced`, the
/// RowSource handed to the build is wrapped to time reads and observe
/// the pass boundaries.
struct BuildTrace {
  bool ok = false;
  double build_s = 0.0;  ///< build + save
  double read_s = 0.0;   ///< inside the file source's NextRow
  double pass1_s = 0.0;
  double eigensolve_s = 0.0;
  double pass2_s = 0.0;
  double select_s = 0.0;
  double pass3_s = 0.0;
  double write_s = 0.0;
  double rss_mb[3] = {0.0, 0.0, 0.0};  ///< ru_maxrss at each pass end
  std::uint64_t rows_streamed = 0;
  std::size_t k_opt = 0;
  std::uint64_t delta_count = 0;
};
BuildTrace BuildInProcess(const Settings& settings, const std::string& input,
                          const std::string& model_path, double space_percent,
                          bool traced, std::vector<Span>* spans);
void ReportBuildTrace(const BuildTrace& trace, Result* result);

/// The paper's RMSPE (percent) of a saved model against the row file;
/// negative when either cannot be read.
double ModelRmspePercent(const std::string& input,
                         const std::string& model_path);

/// The build workload's query metrics: every probe request (all types)
/// answered by the model at `model_path` through the server's entry
/// points, in-process and single-threaded; reports the per-API medians.
/// Traced: instead sends the probe to `tsctool serve` on the model,
/// replays it in-process with spans, and reports the serving per-layer
/// metrics.
void ServeProbe(const Settings& settings, const std::string& model_path,
                std::vector<Span>* spans, Result* result);

void RunBuild(const Settings& settings, Result* result);
void RunServe(const Settings& settings, Result* result);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
