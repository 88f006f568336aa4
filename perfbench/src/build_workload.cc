// The `build` workload: several `tsctool compress --space=5` runs over the
// generated phone100K row file, each a child process so its peak RSS is
// its own, plus the in-process traced build that splits one build into
// passes.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>

#include "core/svdd_compressor.h"
#include "storage/row_store.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// RowSource wrapper that times the file reads and stamps the pass
/// boundaries: a pass starts at Reset() and ends when NextRow first
/// reports end of data. With the build's readahead enabled, NextRow runs
/// on the producer thread, so an end stamp can lead the consumer by the
/// readahead depth (two 256-row chunks); the handoff queue orders every
/// access, so plain fields suffice.
class TracedRowSource final : public tsc::RowSource {
 public:
  explicit TracedRowSource(tsc::RowSource* inner) : inner_(inner) {}

  std::size_t rows() const override { return inner_->rows(); }
  std::size_t cols() const override { return inner_->cols(); }
  bool BenefitsFromReadahead() const override {
    return inner_->BenefitsFromReadahead();
  }

  tsc::StatusOr<bool> NextRow(std::span<double> out) override {
    const std::int64_t start = NowNs();
    auto more = inner_->NextRow(out);
    read_ns_ += NowNs() - start;
    if (more.ok() && *more) {
      ++rows_;
    } else if (pass_ >= 1 && pass_ <= 3 && end_ns_[pass_ - 1] == 0) {
      end_ns_[pass_ - 1] = NowNs();
      rss_mb_[pass_ - 1] = SelfMaxRssMb();
    }
    return more;
  }

  std::int64_t read_ns() const { return read_ns_; }
  std::uint64_t rows_streamed() const { return rows_; }
  int passes() const { return pass_; }
  std::int64_t reset_ns(int pass) const { return reset_ns_[pass]; }
  std::int64_t end_ns(int pass) const { return end_ns_[pass]; }
  double rss_mb(int pass) const { return rss_mb_[pass]; }

 protected:
  tsc::Status ResetImpl() override {
    if (pass_ < 3) reset_ns_[pass_] = NowNs();
    ++pass_;
    return inner_->Reset();
  }

 private:
  tsc::RowSource* inner_;
  int pass_ = 0;
  std::int64_t read_ns_ = 0;
  std::uint64_t rows_ = 0;
  std::int64_t reset_ns_[3] = {0, 0, 0};
  std::int64_t end_ns_[3] = {0, 0, 0};
  double rss_mb_[3] = {0.0, 0.0, 0.0};
};

double Seconds(std::int64_t from_ns, std::int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e9;
}

}  // namespace

ChildExit GenerateInput(const Settings& settings, const std::string& path) {
  return RunChild({settings.tsctool, "generate", "--kind=phone",
                   "--rows=" + std::to_string(kRows),
                   "--cols=" + std::to_string(kCols),
                   "--seed=" + std::to_string(kDataSeed), "--out=" + path});
}

std::vector<std::string> CompressArgs(const Settings& settings,
                                      const std::string& input,
                                      const std::string& model,
                                      double space_percent) {
  char space[32];
  std::snprintf(space, sizeof(space), "--space=%g", space_percent);
  return {settings.tsctool, "compress", "--input=" + input, "--out=" + model,
          space, "--threads=" + std::to_string(settings.threads)};
}

BuildTrace BuildInProcess(const Settings& settings, const std::string& input,
                          const std::string& model_path, double space_percent,
                          bool traced, std::vector<Span>* spans) {
  BuildTrace trace;
  auto reader = tsc::RowStoreReader::Open(input);
  if (!reader.ok()) return trace;
  tsc::FileRowSource file_source(std::move(*reader));
  TracedRowSource traced_source(&file_source);
  tsc::RowSource* source =
      traced ? static_cast<tsc::RowSource*>(&traced_source) : &file_source;

  // The options tsctool compress sets for --space=S --threads=T.
  tsc::SvddBuildOptions options;
  options.space_percent = space_percent;
  options.num_threads = settings.threads;
  tsc::SvddBuildDiagnostics diag;
  const std::int64_t start = NowNs();
  auto model = tsc::BuildSvddModel(source, options, &diag);
  const std::int64_t built = NowNs();
  if (!model.ok()) {
    std::cerr << "perfbench: build failed: " << model.status().ToString()
              << "\n";
    return trace;
  }
  const tsc::Status saved = model->SaveToFile(model_path);
  const std::int64_t written = NowNs();
  if (!saved.ok()) return trace;

  trace.ok = true;
  trace.build_s = Seconds(start, written);
  trace.write_s = Seconds(built, written);
  trace.k_opt = diag.k_opt;
  trace.delta_count = model->delta_count();
  trace.rows_streamed = diag.rows_streamed;
  if (!traced) return trace;
  if (traced_source.passes() != 3) {
    std::cerr << "perfbench: expected 3 build passes, saw "
              << traced_source.passes() << "\n";
    trace.ok = false;
    return trace;
  }
  const TracedRowSource& t = traced_source;
  trace.read_s = static_cast<double>(t.read_ns()) / 1e9;
  trace.pass1_s = Seconds(t.reset_ns(0), t.end_ns(0));
  trace.eigensolve_s = Seconds(t.end_ns(0), t.reset_ns(1));
  trace.pass2_s = Seconds(t.reset_ns(1), t.end_ns(1));
  trace.select_s = Seconds(t.end_ns(1), t.reset_ns(2));
  trace.pass3_s = Seconds(t.reset_ns(2), built);
  for (int pass = 0; pass < 3; ++pass) trace.rss_mb[pass] = t.rss_mb(pass);
  trace.rows_streamed = t.rows_streamed();
  if (spans != nullptr) {
    // One request-less tree: build -> passes/gaps -> write.
    const std::uint64_t root = spans->size() + 1;
    spans->push_back({root, 0, root, "build", start, written, 0});
    const struct {
      const char* name;
      std::int64_t from, to;
    } parts[] = {{"core.pass1", t.reset_ns(0), t.end_ns(0)},
                 {"linalg.eigensolve", t.end_ns(0), t.reset_ns(1)},
                 {"core.pass2", t.reset_ns(1), t.end_ns(1)},
                 {"core.select", t.end_ns(1), t.reset_ns(2)},
                 {"core.pass3", t.reset_ns(2), built},
                 {"storage.write", built, written}};
    for (const auto& part : parts) {
      spans->push_back(
          {spans->size() + 1, root, root, part.name, part.from, part.to, 0});
    }
  }
  return trace;
}

void ReportBuildTrace(const BuildTrace& trace, Result* result) {
  result->Metric("storage.read_s", trace.read_s, "s");
  result->Metric("storage.rows_streamed",
                 static_cast<double>(trace.rows_streamed), "count");
  result->Metric("core.pass1_s", trace.pass1_s, "s");
  result->Metric("linalg.eigensolve_s", trace.eigensolve_s, "s");
  result->Metric("core.pass2_s", trace.pass2_s, "s");
  result->Metric("core.select_s", trace.select_s, "s");
  result->Metric("core.pass3_s", trace.pass3_s, "s");
  result->Metric("storage.write_s", trace.write_s, "s");
  result->Metric("core.rss_pass1_mb", trace.rss_mb[0], "MB");
  result->Metric("core.rss_pass2_mb", trace.rss_mb[1], "MB");
  result->Metric("core.rss_pass3_mb", trace.rss_mb[2], "MB");
  result->Metric("core.k_opt", static_cast<double>(trace.k_opt), "count");
  result->Metric("core.delta_count", static_cast<double>(trace.delta_count),
                 "count");
}

double ModelRmspePercent(const std::string& input,
                         const std::string& model_path) {
  auto model = tsc::SvddModel::LoadFromFile(model_path);
  auto reader = tsc::RowStoreReader::Open(input);
  if (!model.ok() || !reader.ok()) return -1.0;
  tsc::FileRowSource source(std::move(*reader));
  if (source.rows() != model->rows() || source.cols() != model->cols()) {
    return -1.0;
  }
  if (!source.Reset().ok()) return -1.0;
  // Definition 5.1: sqrt(sum (xhat - x)^2) / sqrt(sum (x - xbar)^2),
  // streamed with the sums of x and x^2 for the denominator.
  std::vector<double> row(source.cols());
  std::vector<double> approx(source.cols());
  double err2 = 0.0, sum = 0.0, sum2 = 0.0;
  for (std::size_t i = 0; i < source.rows(); ++i) {
    auto more = source.NextRow(row);
    if (!more.ok() || !*more) return -1.0;
    model->ReconstructRow(i, approx);
    for (std::size_t j = 0; j < row.size(); ++j) {
      const double d = approx[j] - row[j];
      err2 += d * d;
      sum += row[j];
      sum2 += row[j] * row[j];
    }
  }
  const double n = static_cast<double>(source.rows() * source.cols());
  const double var = sum2 - sum * sum / n;
  if (var <= 0.0) return -1.0;
  return 100.0 * std::sqrt(err2 / var);
}

void RunBuild(const Settings& settings, Result* result) {
  const std::string input = settings.workdir + "/build_input.rows";
  const std::string model0 = settings.workdir + "/build_0.model";
  std::vector<Span> spans;
  std::vector<std::string> models;
  result->context["space_percent"] = std::to_string(kBuildSpacePercent);

  if (settings.trace) {
    // Traced build first: ru_maxrss only rises, so the per-pass samples
    // are clean only before any other build has run in this process.
    ++result->attempted;
    if (!GenerateInput(settings, input).ok) {
      result->Fail("tsctool generate");
      return;
    }
    result->attempted += 2;
    const BuildTrace traced =
        BuildInProcess(settings, input, model0, kBuildSpacePercent, true,
                       &spans);
    const std::string model1 = settings.workdir + "/build_1.model";
    const BuildTrace plain =
        BuildInProcess(settings, input, model1, kBuildSpacePercent, false,
                       nullptr);
    models = {model0, model1};
    if (!traced.ok || !plain.ok) result->Fail("in-process build");
    ReportBuildTrace(traced, result);
    result->Metric("trace.overhead_ratio",
                   plain.build_s > 0 ? traced.build_s / plain.build_s : 0.0,
                   "ratio");
  } else {
    std::vector<double> setup_s;
    for (int rep = 0; rep < kSetupRepeats; ++rep) {
      ++result->attempted;
      const ChildExit generated = GenerateInput(settings, input);
      if (!generated.ok) {
        result->Fail("tsctool generate");
        return;
      }
      setup_s.push_back(generated.wall_s);
    }
    std::vector<double> build_s, rss_mb;
    const auto window = Clock::now();
    // At least two builds; another only if it should end inside the window.
    while (build_s.size() < 2 ||
           SecondsSince(window) + build_s.back() <= settings.seconds) {
      const std::string model = settings.workdir + "/build_" +
                                std::to_string(models.size()) + ".model";
      ++result->attempted;
      const ChildExit built = RunChild(
          CompressArgs(settings, input, model, kBuildSpacePercent));
      if (!built.ok) {
        result->Fail("tsctool compress");
        return;
      }
      models.push_back(model);
      build_s.push_back(built.wall_s);
      rss_mb.push_back(built.maxrss_mb);
    }
    const double window_s = SecondsSince(window);
    result->Metric("setup_s", Median(setup_s), "s");
    result->Metric("build_s", Median(build_s), "s");
    result->Metric("peak_rss_mb", Median(rss_mb), "MB");
    result->Metric("ops_per_s",
                   static_cast<double>(kRows * build_s.size()) / window_s,
                   "1/s");
    // A build is this workload's operation: its latency, in us.
    result->Metric("p50_us", 1e6 * Median(build_s), "us");
    result->Metric("p99_us", 1e6 * Quantile(build_s, 0.99), "us");
    result->context["builds"] = std::to_string(build_s.size());
  }

  // Correctness: every build wrote the same bytes, and the saved model
  // reloads (rmspe_pct is measured on the reloaded model).
  for (std::size_t i = 1; i < models.size(); ++i) {
    if (!FilesEqual(models[0], models[i])) {
      result->Fail("model " + models[i] + " differs from " + models[0]);
    }
  }
  const double rmspe = ModelRmspePercent(input, model0);
  if (rmspe < 0.0 || !std::isfinite(rmspe)) result->Fail("model reload");
  const std::uint64_t model_bytes = FileSize(model0);
  if (!settings.trace) {
    result->Metric("bytes_per_cell",
                   static_cast<double>(model_bytes) / (kRows * kCols), "B");
    result->Metric("rmspe_pct", rmspe, "%");
  }
  result->context["model_bytes"] = std::to_string(model_bytes);
  std::remove(input.c_str());
  for (std::size_t i = 1; i < models.size(); ++i) std::remove(models[i].c_str());

  // The model just built answers the probe: latency per request type.
  ServeProbe(settings, model0, settings.trace ? &spans : nullptr, result);
  std::remove(model0.c_str());
  if (settings.trace) {
    result->spans_path = settings.workdir + "/spans_build.json";
    WriteSpans(result->spans_path, spans);
  } else {
    result->Metric(
        "ok_ratio",
        static_cast<double>(result->attempted - result->failed) /
            static_cast<double>(std::max<std::uint64_t>(1, result->attempted)),
        "ratio");
  }
}

}  // namespace perfbench
