// perfbench: runs one benchmark workload and prints the result JSON as
// the last line of standard output.
//
//   perfbench --workload <build|serve_point|serve_analytic>
//             --seed N --seconds S --trace 0|1 --tsctool PATH --workdir DIR
//
// --trace 0 prints the end-to-end metrics; --trace 1 the per-layer ones
// (and writes the run's spans to DIR/spans_<workload>.json). A line
// "context {...}" before the result records the machine and the inputs.
// The exit code is non-zero when any operation failed or answered
// wrongly.
#include <sys/stat.h>

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <thread>

#include "linalg/kernels.h"
#include "storage/io_backend.h"
#include "util/json_writer.h"
#include "workloads.h"

namespace {

bool ParseArgs(int argc, char** argv, perfbench::Settings* settings) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      settings->workload = value;
    } else if (key == "--seed") {
      settings->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      settings->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      settings->trace = value == "1";
    } else if (key == "--tsctool") {
      settings->tsctool = value;
    } else if (key == "--workdir") {
      settings->workdir = value;
    } else {
      return false;
    }
  }
  const bool known = settings->workload == "build" ||
                     settings->workload == "serve_point" ||
                     settings->workload == "serve_analytic";
  return known && settings->seconds > 0 && !settings->tsctool.empty() &&
         !settings->workdir.empty();
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Settings settings;
  if (!ParseArgs(argc, argv, &settings)) {
    std::cerr << "usage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 --tsctool PATH --workdir DIR\n";
    return 2;
  }
  ::mkdir(settings.workdir.c_str(), 0755);
  // Clients and build threads: one per hardware thread, at most 4.
  settings.threads = std::min<std::size_t>(
      4, std::max<unsigned>(1, std::thread::hardware_concurrency()));

  perfbench::Result result;
  result.context["workload"] = settings.workload;
  result.context["seed"] = std::to_string(settings.seed);
  result.context["rows"] = std::to_string(perfbench::kRows);
  result.context["cols"] = std::to_string(perfbench::kCols);
  result.context["hardware_threads"] =
      std::to_string(std::thread::hardware_concurrency());
  result.context["threads"] = std::to_string(settings.threads);
  result.context["cpu_model"] = perfbench::CpuModel();
  result.context["simd"] =
      tsc::kernels::SimdLevelName(tsc::kernels::ActiveSimdLevel());
  result.context["io_backend"] =
      tsc::IoBackendName(tsc::DefaultIoBackendKind());
  result.context["host_calibration_ms"] =
      std::to_string(perfbench::HostCalibrationMs());

  const auto start = perfbench::Clock::now();
  if (settings.workload == "build") {
    perfbench::RunBuild(settings, &result);
  } else {
    perfbench::RunServe(settings, &result);
  }
  result.context["run_s"] = std::to_string(perfbench::SecondsSince(start));
  if (!result.spans_path.empty()) result.context["spans"] = result.spans_path;

  tsc::JsonWriter context;
  context.BeginObject();
  for (const auto& [key, value] : result.context) context.KV(key, value);
  context.EndObject();

  const bool correct = result.failed == 0 && result.attempted > 0;
  tsc::JsonWriter json;
  json.BeginObject();
  json.KV("correct", correct);
  json.KV("attempted", std::max<std::uint64_t>(1, result.attempted));
  json.KV("failed", result.failed);
  json.Key("metrics").BeginObject();
  for (const auto& [name, value_unit] : result.metrics) {
    json.Key(name).BeginObject();
    json.KV("value", value_unit.first);
    json.KV("unit", value_unit.second);
    json.EndObject();
  }
  json.EndObject();
  json.EndObject();
  std::cout << "context " << context.str() << "\n" << json.str() << std::endl;
  return correct ? 0 : 1;
}
