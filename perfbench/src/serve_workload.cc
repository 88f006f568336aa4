// The serving workloads. The server under test is `tsctool serve` itself,
// a child process; closed-loop keep-alive clients in this process drive
// it and check every reply against answers computed in-process from the
// same model file. The traced run replays the recorded request sequence
// through the server's public entry points in-process, one span each.
#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>

#include "core/disk_backed.h"
#include "core/svdd_compressor.h"
#include "obs/query_context.h"
#include "query/executor.h"
#include "query/parser.h"
#include "query/planner.h"
#include "server/admission.h"
#include "server/batcher.h"
#include "server/data_api.h"
#include "server/http.h"
#include "util/json_writer.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

// ---------------------------------------------------------------------------
// Request types and mixes.

enum Type { kCell, kSqlRollup, kSqlScan, kDataAvg, kDataMax, kTypeCount };
constexpr const char* kTypeNames[kTypeCount] = {
    "cell", "sql_rollup", "sql_scan", "data_avg", "data_max"};
/// Per-type medians are reported per API: cell, query (SQL), data.
enum Group { kGroupCell, kGroupQuery, kGroupData, kGroupCount };
constexpr Group kGroupOf[kTypeCount] = {kGroupCell, kGroupQuery, kGroupQuery,
                                        kGroupData, kGroupData};
constexpr const char* kGroupMetric[kGroupCount] = {
    "cell_p50_us", "query_p50_us", "data_p50_us"};

using Weights = std::array<double, kTypeCount>;
/// serve_analytic request weights (shares of requests).
/// Chosen so no type takes more than about half of the busy time; the
/// measured shares are about data_avg 0.33, sql_rollup 0.28, sql_scan
/// 0.17, data_max 0.14 and cell 0.09 (reported in each run's context).
constexpr Weights kAnalyticMix = {0.42, 0.22, 0.20, 0.02, 0.14};
constexpr Weights kPointMix = {1.0, 0.0, 0.0, 0.0, 0.0};
/// Probe passes (see ProbePasses) of the traced probe, and Zipf cells per
/// pass when the probe includes cells.
constexpr int kProbePasses = 3;
constexpr std::size_t kProbeCells = 1000;
/// Rounds of the timed in-process probe (see RunTimedProbe). A round takes
/// 2.5-3 s on `build` (every API, all-row aggregates) and about 0.9 s on
/// `serve_point`.
constexpr int kBuildProbeRounds = 5;
constexpr int kServeProbeRounds = 9;
/// Four copies of each size grid (8 x 8 for SQL, 4 x 4 x 4 for data max)
/// at different seeded positions.
constexpr std::size_t kPoolSize = 256;
constexpr std::size_t kDataAvgPoolSize = 16;
constexpr double kRowZipfSkew = 1.1;  ///< PhoneDatasetConfig's volume skew
constexpr double kWarmupSeconds = 1.0;
/// With a probe, the window runs as this many segments (see
/// InterleavedWindow), each after a short untimed warm-up.
constexpr int kWindowSegments = 5;
constexpr double kSegmentWarmupSeconds = 0.25;
constexpr std::uint64_t kServeBackstopSeconds = 170;

struct Pooled {
  std::string target;
  std::string expected;
  std::string sql;                            ///< SQL types
  std::map<std::string, std::string> params;  ///< data types
};

/// One issued request: a type plus a pool index (a) or cell (a, b).
struct Op {
  std::uint8_t type = kCell;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
};

// ---------------------------------------------------------------------------
// The in-process twin of the server: the same executor/store wiring
// `tsctool serve` builds for the model, used for expected answers and
// for the traced replay.

class TimedStore final : public tsc::CompressedStore {
 public:
  explicit TimedStore(const tsc::CompressedStore* inner) : inner_(inner) {}
  std::size_t rows() const override { return inner_->rows(); }
  std::size_t cols() const override { return inner_->cols(); }
  double ReconstructCell(std::size_t row, std::size_t col) const override {
    return inner_->ReconstructCell(row, col);
  }
  void ReconstructRow(std::size_t row, std::span<double> out) const override {
    inner_->ReconstructRow(row, out);
  }
  void ReconstructCells(std::span<const tsc::CellRef> cells,
                        std::span<double> out) const override {
    const auto start = Clock::now();
    inner_->ReconstructCells(cells, out);
    const double us = MicrosSince(start);
    std::lock_guard<std::mutex> lock(mu_);
    wave_us_.push_back(us);
  }
  void ReconstructRegion(std::span<const std::size_t> row_ids,
                         std::span<const std::size_t> col_ids,
                         tsc::Matrix* out) const override {
    inner_->ReconstructRegion(row_ids, col_ids, out);
  }
  std::uint64_t CompressedBytes() const override {
    return inner_->CompressedBytes();
  }
  std::string MethodName() const override { return inner_->MethodName(); }

  std::vector<double> wave_us() const {
    std::lock_guard<std::mutex> lock(mu_);
    return wave_us_;
  }

 private:
  const tsc::CompressedStore* inner_;
  mutable std::mutex mu_;
  mutable std::vector<double> wave_us_;
};

struct Twin {
  tsc::SvddModel model;
  std::optional<tsc::DiskBackedStore> disk;
  std::optional<tsc::DiskBackedStoreView> disk_view;
  std::optional<tsc::QueryExecutor> executor;
  const tsc::CompressedStore* store = nullptr;  ///< what the batcher reads
  std::size_t model_k = 0;
  bool rollup = false;
  std::string u_path, sidecar_path;

  ~Twin() {
    if (!u_path.empty()) std::remove(u_path.c_str());
    if (!sidecar_path.empty()) std::remove(sidecar_path.c_str());
  }
};

/// Mirrors CmdServe's wiring for an svdd model file with `cache_blocks`
/// (0 = in-memory).
std::unique_ptr<Twin> OpenTwin(const std::string& model_path,
                               std::size_t cache_blocks,
                               const std::string& workdir) {
  auto twin = std::make_unique<Twin>();
  auto model = tsc::SvddModel::LoadFromFile(model_path);
  if (!model.ok()) return nullptr;
  twin->model = std::move(*model);
  if (cache_blocks > 0) {
    twin->u_path = workdir + "/twin.serve_u";
    twin->sidecar_path = workdir + "/twin.serve_sidecar";
    if (!tsc::ExportSvddToDisk(twin->model, twin->u_path, twin->sidecar_path)
             .ok()) {
      return nullptr;
    }
    tsc::DiskBackedOptions options;
    options.cache_blocks = cache_blocks;
    auto disk = tsc::DiskBackedStore::Open(twin->u_path, twin->sidecar_path,
                                           options);
    if (!disk.ok()) return nullptr;
    twin->disk.emplace(std::move(*disk));
    twin->disk_view.emplace(&*twin->disk);
    twin->store = &*twin->disk_view;
    twin->executor.emplace(twin->store, 1);
  } else {
    twin->store = &twin->model;
    twin->executor.emplace(&twin->model, 1, true);
    twin->model_k = twin->model.k();
    twin->rollup = twin->executor->rollup() != nullptr;
  }
  return twin;
}

std::string CellBody(std::size_t row, std::size_t col, double value) {
  tsc::JsonWriter json;
  json.BeginObject();
  json.KV("row", static_cast<std::uint64_t>(row));
  json.KV("col", static_cast<std::uint64_t>(col));
  json.KV("value", value);
  json.EndObject();
  return json.str();
}

std::string SqlBody(const tsc::QueryResult& result) {
  std::ostringstream out;
  for (const double value : result.values) out << value << "\n";
  return out.str();
}

// ---------------------------------------------------------------------------
// Request generation: all randomness derives from the run seed.

struct Workset {
  const Twin* twin = nullptr;
  std::vector<std::uint32_t> row_perm;  ///< Zipf rank -> row
  std::optional<tsc::ZipfSampler> zipf;
  std::array<std::vector<Pooled>, kTypeCount> pools;
};

struct Range {
  std::size_t lo, hi;
};

/// A range of `len` (clamped to [1, n]) at a seeded position.
Range PlacedRange(tsc::Rng* rng, std::size_t n, std::size_t len) {
  len = std::clamp<std::size_t>(len, 1, n);
  const std::size_t lo = rng->UniformUint64(n - len + 1);
  return {lo, lo + len - 1};
}

/// Step `step` of a `levels`-step geometric grid ending at `max_len`.
std::size_t GridLength(std::size_t step, std::size_t levels,
                       std::size_t max_len) {
  const double exponent =
      static_cast<double>(step % levels + 1) / static_cast<double>(levels);
  return static_cast<std::size_t>(
      std::llround(std::pow(static_cast<double>(max_len), exponent)));
}

std::string RangeText(Range r) {
  return std::to_string(r.lo) + ":" + std::to_string(r.hi);
}

/// Draws the pools of SQL and data requests. Selection sizes follow fixed
/// geometric grids and only positions come from the seed, so every seed
/// gets the same cost mix. `narrow` keeps every row selection at <= 100
/// rows (the disk layout scans rows through the block cache; whole-table
/// scans there would take seconds).
void DrawPools(std::uint64_t seed, bool narrow, Workset* ws) {
  tsc::Rng rng(seed ^ 0x706f6f6cULL);
  const std::size_t wide = narrow ? 100 : kRows;
  constexpr std::size_t kPoints[] = {2, 4, 8, 16};
  for (std::size_t i = 0; i < kPoolSize; ++i) {
    const std::size_t r = i % 8, c = i / 8 % 8;
    const bool odd = (r + c) % 2 == 1;
    const std::string where =
        "(value) WHERE row IN " +
        RangeText(PlacedRange(&rng, kRows, GridLength(r, 8, wide))) +
        " AND col IN " +
        RangeText(PlacedRange(&rng, kCols, GridLength(c, 8, kCols)));
    Pooled rollup;
    rollup.sql = std::string("SELECT ") + (odd ? "avg" : "sum") + where;
    ws->pools[kSqlRollup].push_back(std::move(rollup));
    Pooled scan;
    scan.sql = std::string("SELECT ") + (odd ? "stddev" : "max") +
               "(value) WHERE row IN " +
               RangeText(PlacedRange(&rng, kRows, GridLength(r, 8, 100))) +
               " AND col IN " +
               RangeText(PlacedRange(&rng, kCols, GridLength(c, 8, kCols)));
    ws->pools[kSqlScan].push_back(std::move(scan));
  }
  for (int type : {kDataAvg, kDataMax}) {
    const std::size_t count = type == kDataAvg ? kDataAvgPoolSize : kPoolSize;
    for (std::size_t i = 0; i < count; ++i) {
      const Range window = PlacedRange(&rng, kCols, GridLength(i, 4, kCols));
      const std::size_t width = window.hi - window.lo + 1;
      Pooled p;
      p.params["after"] = std::to_string(window.lo);
      p.params["before"] = std::to_string(window.hi);
      p.params["points"] = std::to_string(std::min(width, kPoints[i / 4 % 4]));
      p.params["group"] = type == kDataAvg ? "avg" : "max";
      if (type == kDataMax || narrow) {
        p.params["rows"] =
            RangeText(PlacedRange(&rng, kRows, GridLength(i / 16, 4, 100)));
      }
      ws->pools[type].push_back(std::move(p));
    }
  }
  for (auto& pool : ws->pools) {
    for (Pooled& p : pool) {
      if (!p.sql.empty()) {
        p.target = "/api/v1/query?q=" + UrlEncode(p.sql);
      } else {
        p.target = "/api/v1/data?";
        bool first = true;
        for (const auto& [key, value] : p.params) {
          p.target += (first ? "" : "&") + key + "=" + value;
          first = false;
        }
      }
    }
  }
}

/// Expected bodies, computed by the twin executor on a few threads.
bool ComputeExpected(const Twin& twin, std::size_t threads, Workset* ws) {
  std::vector<Pooled*> all;
  for (auto& pool : ws->pools) {
    for (Pooled& p : pool) all.push_back(&p);
  }
  std::atomic<std::size_t> next{0};
  std::atomic<bool> ok{true};
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      for (std::size_t i; (i = next.fetch_add(1)) < all.size();) {
        Pooled& p = *all[i];
        if (!p.sql.empty()) {
          auto result = twin.executor->Execute(p.sql);
          if (!result.ok()) {
            ok = false;
            continue;
          }
          p.expected = SqlBody(*result);
        } else {
          auto request = tsc::server::ResolveDataRequest(
              p.params, twin.executor->rows(), twin.executor->cols(), {});
          if (!request.ok()) {
            ok = false;
            continue;
          }
          auto result = tsc::server::ExecuteDataRequest(*twin.executor, *request);
          if (!result.ok()) {
            ok = false;
            continue;
          }
          p.expected = tsc::server::DataResultToJson(*result);
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  return ok;
}

Op DrawOp(tsc::Rng* rng, const Workset& ws, const Weights& weights) {
  double pick = rng->UniformDouble();
  int type = 0;
  for (; type < kTypeCount - 1; ++type) {
    if (pick < weights[type]) break;
    pick -= weights[type];
  }
  while (weights[type] == 0.0) --type;  // rounding at the top end
  Op op;
  op.type = static_cast<std::uint8_t>(type);
  if (type == kCell) {
    op.a = ws.row_perm[ws.zipf->Sample(rng) - 1];
    op.b = static_cast<std::uint32_t>(rng->UniformUint64(kCols));
  } else {
    op.a = static_cast<std::uint32_t>(rng->UniformUint64(ws.pools[type].size()));
  }
  return op;
}

std::string TargetOf(const Op& op, const Workset& ws) {
  if (op.type == kCell) {
    return "/api/v1/cell?row=" + std::to_string(op.a) +
           "&col=" + std::to_string(op.b);
  }
  return ws.pools[op.type][op.a].target;
}

std::string ExpectedOf(const Op& op, const Workset& ws) {
  if (op.type == kCell) {
    return CellBody(op.a, op.b, ws.twin->model.ReconstructCell(op.a, op.b));
  }
  return ws.pools[op.type][op.a].expected;
}

// ---------------------------------------------------------------------------
// Closed-loop load.

/// One correct reply: its latency, its type, and the slice it falls in
/// (a whole second of a timed phase; a scripted phase is one slice).
struct Sample {
  std::uint32_t slice = 0;
  std::uint8_t type = kCell;
  double us = 0.0;
};

struct Phase {
  std::vector<Sample> samples;  ///< correct replies only
  std::uint32_t slices = 0;     ///< complete slices
  std::uint64_t attempted = 0;
  std::vector<std::vector<Op>> ops;  ///< per client, in issue order
  std::vector<Span> spans;

  template <typename Pick>
  std::vector<double> Latencies(Pick pick) const {
    std::vector<double> out;
    for (const Sample& sample : samples) {
      if (pick(sample.type)) out.push_back(sample.us);
    }
    return out;
  }

  /// Appends a later phase of the same load; its slices follow ours.
  void Append(const Phase& later) {
    for (Sample sample : later.samples) {
      sample.slice += slices;
      samples.push_back(sample);
    }
    slices += later.slices;
    attempted += later.attempted;
  }

  /// Median over slices of each slice's q-quantile latency: a burst of
  /// host noise moves one slice, not the run's figure.
  template <typename Pick>
  double SliceQuantile(Pick pick, double q) const {
    std::vector<std::vector<double>> per_slice(slices);
    for (const Sample& sample : samples) {
      if (sample.slice < slices && pick(sample.type)) {
        per_slice[sample.slice].push_back(sample.us);
      }
    }
    std::vector<double> values;
    for (const std::vector<double>& slice : per_slice) {
      if (!slice.empty()) values.push_back(Quantile(slice, q));
    }
    return Median(values);
  }

  /// Median over slices of the correct replies per slice.
  double SliceCount() const {
    std::vector<double> counts(slices, 0.0);
    for (const Sample& sample : samples) {
      if (sample.slice < slices) counts[sample.slice] += 1.0;
    }
    return Median(counts);
  }
};

constexpr auto kAnyType = [](std::uint8_t) { return true; };
auto OfGroup(int group) {
  return [group](std::uint8_t type) { return kGroupOf[type] == group; };
}

/// Runs `clients` closed-loop clients for `seconds` (1 s slices), or —
/// with a non-empty `script` — sends exactly those ops per client.
Phase RunLoad(int port, const Workset& ws, const Weights& weights,
              std::size_t clients, double seconds, std::uint64_t seed,
              const std::vector<std::vector<Op>>& script, bool traced,
              Result* result, std::mutex* result_mu) {
  std::vector<Phase> per_client(clients);
  std::vector<std::thread> threads;
  const auto start = Clock::now();
  const std::int64_t start_ns = NowNs();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Phase& mine = per_client[c];
      mine.ops.resize(1);
      std::vector<Op>& issued = mine.ops[0];
      tsc::Rng rng(seed * 7919 + c);
      HttpClient http;
      http.Connect(port);
      std::string body;
      for (std::size_t i = 0;; ++i) {
        Op op;
        if (!script.empty()) {
          if (i >= script[c].size()) break;
          op = script[c][i];
        } else {
          if (Clock::now() >= deadline) break;
          op = DrawOp(&rng, ws, weights);
        }
        const std::string target = TargetOf(op, ws);
        int status = 0;
        const std::int64_t t0 = NowNs();
        const bool sent = http.Get(target, &status, &body);
        const std::int64_t t1 = NowNs();
        ++mine.attempted;
        issued.push_back(op);
        if (traced) {
          const std::uint64_t id = (static_cast<std::uint64_t>(c + 1) << 40) |
                                   (mine.spans.size() + 1);
          mine.spans.push_back({id, 0, id, "client.request", t0, t1,
                                static_cast<std::uint32_t>(c)});
        }
        if (sent && status == 200 && body == ExpectedOf(op, ws)) {
          const std::int64_t slice =
              script.empty() ? (t1 - start_ns) / 1'000'000'000 : 0;
          mine.samples.push_back({static_cast<std::uint32_t>(slice), op.type,
                                  static_cast<double>(t1 - t0) / 1e3});
        } else {
          std::lock_guard<std::mutex> lock(*result_mu);
          result->Fail(std::string(kTypeNames[op.type]) + " " + target +
                       (sent ? " status " + std::to_string(status) + " body " +
                                   body.substr(0, 200)
                             : " transport error"));
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  Phase phase;
  phase.slices =
      script.empty() ? static_cast<std::uint32_t>(SecondsSince(start)) : 1;
  for (Phase& mine : per_client) {
    phase.attempted += mine.attempted;
    phase.samples.insert(phase.samples.end(), mine.samples.begin(),
                         mine.samples.end());
    phase.ops.push_back(std::move(mine.ops[0]));
    phase.spans.insert(phase.spans.end(), mine.spans.begin(), mine.spans.end());
  }
  std::lock_guard<std::mutex> lock(*result_mu);
  result->attempted += phase.attempted;
  return phase;
}

// ---------------------------------------------------------------------------
// Traced replay through the public entry points, in the server's order:
// ParseRequest -> AdmissionController::Acquire -> (ParseQuery, PlanQuery,
// ExecutePlan | ResolveDataRequest, ExecuteDataRequest, DataResultToJson |
// CellBatcher::Fetch) -> SerializeResponse.

struct Replay {
  std::uint64_t requests = 0;
  /// Parse-to-serialize time of each request, per type.
  std::array<std::vector<double>, kTypeCount> request_us;
  std::map<std::string, std::vector<double>> span_us;
  std::vector<Span> spans;
  std::vector<double> wave_us;
  std::uint64_t sql = 0, sql_rows_scanned = 0, sql_nodes = 0;
  std::uint64_t sql_aggregates = 0, sql_rollup_aggregates = 0;
  std::uint64_t scan_cells = 0;
  double scan_exec_us = 0.0;
  std::uint64_t data = 0, data_nodes = 0;

  void Merge(const Replay& other) {
    requests += other.requests;
    for (int t = 0; t < kTypeCount; ++t) {
      request_us[t].insert(request_us[t].end(), other.request_us[t].begin(),
                           other.request_us[t].end());
    }
    for (const auto& [name, values] : other.span_us) {
      auto& into = span_us[name];
      into.insert(into.end(), values.begin(), values.end());
    }
    spans.insert(spans.end(), other.spans.begin(), other.spans.end());
    sql += other.sql;
    sql_rows_scanned += other.sql_rows_scanned;
    sql_nodes += other.sql_nodes;
    sql_aggregates += other.sql_aggregates;
    sql_rollup_aggregates += other.sql_rollup_aggregates;
    scan_cells += other.scan_cells;
    scan_exec_us += other.scan_exec_us;
    data += other.data;
    data_nodes += other.data_nodes;
  }
};

void ReplayOps(const Twin& twin, const Workset& ws,
               const std::vector<std::vector<Op>>& ops, double budget_s,
               std::size_t hw_threads, Result* result, std::mutex* result_mu,
               Replay* replay) {
  TimedStore timed(twin.store);
  tsc::server::AdmissionController admission({hw_threads, 64});
  tsc::server::CellBatcher batcher(&timed, {256, std::chrono::microseconds(150)});
  const tsc::server::HttpLimits http_limits;
  const tsc::server::DataApiLimits data_limits;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(budget_s));
  std::mutex mu;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < ops.size(); ++c) {
    threads.emplace_back([&, c] {
      Replay mine;
      std::uint64_t next_id = 1;
      const auto id_of = [&] {
        return (static_cast<std::uint64_t>(c + 1) << 40) | (1ULL << 39) |
               next_id++;
      };
      for (const Op& op : ops[c]) {
        if (Clock::now() >= deadline) break;
        const std::uint64_t request = id_of();
        const auto thread = static_cast<std::uint32_t>(c);
        const std::int64_t request_start = NowNs();
        const auto span = [&](const char* name, auto&& fn) {
          const std::int64_t t0 = NowNs();
          fn();
          const std::int64_t t1 = NowNs();
          mine.spans.push_back({id_of(), request, request, name, t0, t1, thread});
          mine.span_us[name].push_back(static_cast<double>(t1 - t0) / 1e3);
        };
        const std::string raw =
            "GET " + TargetOf(op, ws) + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
        tsc::StatusOr<tsc::server::HttpRequest> parsed =
            tsc::Status::Internal("unparsed");
        span("server.http_parse",
             [&] { parsed = tsc::server::ParseRequest(raw, http_limits); });
        tsc::server::AdmissionController::Permit permit;
        auto outcome = tsc::server::AdmissionController::Outcome::kRejected;
        span("server.admission", [&] {
          outcome = admission.Acquire(
              Clock::now() + std::chrono::milliseconds(2000), &permit);
        });
        std::string body;
        bool ok = parsed.ok() &&
                  outcome == tsc::server::AdmissionController::Outcome::kAdmitted;
        tsc::obs::QueryContext context;
        {
          tsc::obs::ScopedQueryContext scope(&context);
          if (ok && op.type == kCell) {
            tsc::StatusOr<double> value = 0.0;
            span("server.batcher_fetch", [&] { value = batcher.Fetch(op.a, op.b); });
            ok = value.ok();
            if (ok) body = CellBody(op.a, op.b, *value);
          } else if (ok && (op.type == kSqlRollup || op.type == kSqlScan)) {
            const std::string& text = parsed->params.at("q");
            tsc::StatusOr<tsc::QueryAst> ast = tsc::Status::Internal("");
            tsc::StatusOr<tsc::QueryPlan> plan = tsc::Status::Internal("");
            tsc::StatusOr<tsc::QueryResult> out = tsc::Status::Internal("");
            span("query.parse", [&] { ast = tsc::ParseQuery(text); });
            ok = ast.ok();
            if (ok) {
              span("query.plan", [&] {
                plan = tsc::PlanQuery(*ast, twin.executor->rows(),
                                      twin.executor->cols(), twin.model_k,
                                      twin.rollup);
              });
              ok = plan.ok();
            }
            if (ok) {
              span("query.exec", [&] { out = twin.executor->ExecutePlan(*plan); });
              ok = out.ok();
            }
            if (ok) {
              body = SqlBody(*out);
              ++mine.sql;
              mine.sql_rows_scanned += out->rows_reconstructed;
              mine.sql_nodes += out->rollup_nodes_read;
              mine.sql_aggregates += out->aggregate_count;
              mine.sql_rollup_aggregates += out->rollup_aggregates;
              if (out->rows_reconstructed > 0) {
                mine.scan_cells += out->rows_reconstructed * plan->col_ids.size();
                mine.scan_exec_us += mine.span_us["query.exec"].back();
              }
            }
          } else if (ok) {
            tsc::StatusOr<tsc::server::DataRequest> request =
                tsc::Status::Internal("");
            tsc::StatusOr<tsc::server::DataResult> out =
                tsc::Status::Internal("");
            span("server.data_resolve", [&] {
              request = tsc::server::ResolveDataRequest(
                  parsed->params, twin.executor->rows(), twin.executor->cols(),
                  data_limits);
            });
            ok = request.ok();
            if (ok) {
              span("server.data_exec", [&] {
                out = tsc::server::ExecuteDataRequest(*twin.executor, *request);
              });
              ok = out.ok();
            }
            if (ok) {
              span("server.data_serialize",
                   [&] { body = tsc::server::DataResultToJson(*out); });
              ++mine.data;
            }
          }
        }
        permit.Release();
        if (op.type == kDataAvg || op.type == kDataMax) {
          mine.data_nodes += context.Costs().agg_nodes_read;
        }
        std::string response;
        span("server.serialize", [&] {
          response = tsc::server::SerializeResponse(
              200,
              !body.empty() && body.front() == '{' ? "application/json"
                                                   : "text/plain",
              body, true);
        });
        const std::int64_t request_end = NowNs();
        mine.spans.push_back({request, 0, request, "request", request_start,
                              request_end, thread});
        ++mine.requests;
        mine.request_us[op.type].push_back(
            static_cast<double>(request_end - request_start) / 1e3);
        if (!ok || body != ExpectedOf(op, ws)) {
          std::lock_guard<std::mutex> lock(*result_mu);
          result->Fail(std::string("replay ") + kTypeNames[op.type] + " " +
                       TargetOf(op, ws));
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      replay->Merge(mine);
    });
  }
  for (std::thread& t : threads) t.join();
  replay->wave_us = timed.wave_us();
  std::lock_guard<std::mutex> lock(*result_mu);
  result->attempted += replay->requests;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// One served model: the tsctool serve child plus its in-process twin.

struct Served {
  Child server;
  int port = 0;
};

/// Starts `tsctool serve` on `path` and waits for its listening line.
bool StartServer(const Settings& settings, const std::string& path,
                 std::size_t cache_blocks, Served* served) {
  std::vector<std::string> argv = {
      settings.tsctool, "serve", "--model=" + path, "--port=0",
      "--duration-s=" + std::to_string(kServeBackstopSeconds)};
  if (cache_blocks > 0) {
    argv.push_back("--cache-blocks=" + std::to_string(cache_blocks));
  }
  if (!served->server.Spawn(argv, /*capture_stdout=*/true)) return false;
  const std::string line = served->server.ReadLineContaining("listening on", 120);
  const std::size_t colon = line.rfind(':', line.find(" ("));
  if (line.empty() || colon == std::string::npos) return false;
  served->port = std::atoi(line.c_str() + colon + 1);
  return served->port > 0;
}

std::string FetchMetrics(int port) {
  HttpClient http;
  int status = 0;
  std::string body;
  if (!http.Connect(port) || !http.Get("/metrics?format=json", &status, &body) ||
      status != 200) {
    return "";
  }
  return body;
}

double CounterDelta(const std::string& before, const std::string& after,
                    const std::string& name) {
  return JsonNumber(after, name) - JsonNumber(before, name);
}

double HistogramMeanDelta(const std::string& before, const std::string& after,
                          const std::string& name) {
  return Ratio(JsonNumber(after, name, "sum") - JsonNumber(before, name, "sum"),
               JsonNumber(after, name, "count") -
                   JsonNumber(before, name, "count"));
}

/// Per-layer serving metrics from the traced phase's /metrics delta and
/// the replay spans.
void ReportServingLayers(const std::string& before, const std::string& after,
                         const Phase& traced, const Replay& replay,
                         Result* result) {
  const auto median_of = [&](const char* name) {
    const auto it = replay.span_us.find(name);
    return it == replay.span_us.end() ? 0.0 : Median(it->second);
  };
  // Cells the CellBatcher served (the histogram sums wave sizes).
  const double cells = JsonNumber(after, "server.batch_size", "sum") -
                       JsonNumber(before, "server.batch_size", "sum");
  const double hits = CounterDelta(before, after, "block_cache.hits");
  const double misses = CounterDelta(before, after, "block_cache.misses");
  const double self_us = JsonNumber(after, "server.latency_us.cell", "p50");
  const double client_cell_p50 =
      traced.SliceQuantile(OfGroup(kGroupCell), 0.5);
  result->Metric("server.http_parse_us", median_of("server.http_parse"), "us");
  result->Metric("server.serialize_us", median_of("server.serialize"), "us");
  result->Metric("server.admission_wait_us",
                 HistogramMeanDelta(before, after, "request.admission_wait_us"),
                 "us");
  result->Metric("server.batcher_fetch_us", median_of("server.batcher_fetch"),
                 "us");
  result->Metric("server.batch_cells",
                 HistogramMeanDelta(before, after, "server.batch_size"), "count");
  result->Metric("core.reconstruct_us", Median(replay.wave_us), "us");
  result->Metric("storage.cache_hit_ratio", Ratio(hits, hits + misses), "ratio");
  result->Metric("storage.disk_accesses_per_cell",
                 Ratio(CounterDelta(before, after, "storage.disk.accesses"), cells),
                 "count");
  result->Metric("storage.bytes_read_per_cell",
                 Ratio(CounterDelta(before, after, "storage.disk.bytes_read"), cells),
                 "B");
  result->Metric("storage.bloom_negative_ratio",
                 Ratio(CounterDelta(before, after, "bloom.negatives"),
                       CounterDelta(before, after, "bloom.probes")),
                 "ratio");
  result->Metric("storage.delta_hits_per_lookup",
                 Ratio(CounterDelta(before, after, "delta.hits"),
                       CounterDelta(before, after, "delta.lookups")),
                 "ratio");
  result->Metric("server.self_us", self_us, "us");
  result->Metric("server.residual_us", client_cell_p50 - self_us, "us");
  result->Metric("query.parse_us", median_of("query.parse"), "us");
  result->Metric("query.plan_us", median_of("query.plan"), "us");
  result->Metric("query.exec_us", median_of("query.exec"), "us");
  result->Metric("query.rows_scanned_per_query",
                 Ratio(static_cast<double>(replay.sql_rows_scanned),
                       static_cast<double>(replay.sql)),
                 "count");
  result->Metric("query.scan_mcells_per_s",
                 Ratio(static_cast<double>(replay.scan_cells), replay.scan_exec_us),
                 "Mcells/s");
  result->Metric("cube.nodes_read_per_query",
                 Ratio(static_cast<double>(replay.sql_nodes),
                       static_cast<double>(replay.sql)),
                 "count");
  result->Metric("cube.rollup_hit_ratio",
                 Ratio(static_cast<double>(replay.sql_rollup_aggregates),
                       static_cast<double>(replay.sql_aggregates)),
                 "ratio");
  result->Metric("server.data_resolve_us", median_of("server.data_resolve"), "us");
  result->Metric("server.data_exec_us", median_of("server.data_exec"), "us");
  result->Metric("server.data_serialize_us", median_of("server.data_serialize"),
                 "us");
  result->Metric("cube.nodes_read_per_data",
                 Ratio(static_cast<double>(replay.data_nodes),
                       static_cast<double>(replay.data)),
                 "count");
}

/// Probe passes over the `include`d types: each pass sends every pool
/// entry once (so each seed probes the same size grids) and kProbeCells
/// Zipf cells, in a seeded order.
std::vector<std::vector<Op>> ProbePasses(
    const Workset& ws, const std::array<bool, kTypeCount>& include,
    std::uint64_t seed, int passes) {
  tsc::Rng rng(seed ^ 0x70726f6265ULL);
  Weights cells_only{};
  cells_only[kCell] = 1.0;
  std::vector<std::vector<Op>> script;
  for (int pass = 0; pass < passes; ++pass) {
    std::vector<Op> ops;
    for (int type = 0; type < kTypeCount; ++type) {
      if (!include[type]) continue;
      if (type == kCell) {
        for (std::size_t i = 0; i < kProbeCells; ++i) {
          ops.push_back(DrawOp(&rng, ws, cells_only));
        }
        continue;
      }
      for (std::size_t i = 0; i < ws.pools[type].size(); ++i) {
        ops.push_back({static_cast<std::uint8_t>(type),
                       static_cast<std::uint32_t>(i), 0});
      }
    }
    for (std::size_t i = ops.size(); i > 1; --i) {
      std::swap(ops[i - 1], ops[rng.UniformUint64(i)]);
    }
    script.push_back(std::move(ops));
  }
  return script;
}

/// The traced probe: kProbePasses passes as one client's script.
std::vector<std::vector<Op>> ProbeScript(
    const Workset& ws, const std::array<bool, kTypeCount>& include,
    std::uint64_t seed) {
  std::vector<Op> script;
  for (const std::vector<Op>& pass :
       ProbePasses(ws, include, seed, kProbePasses)) {
    script.insert(script.end(), pass.begin(), pass.end());
  }
  return {script};
}

std::unique_ptr<Workset> MakeWorkset(const Twin& twin, std::uint64_t seed,
                                     bool narrow, std::size_t threads) {
  auto ws = std::make_unique<Workset>();
  ws->twin = &twin;
  tsc::Rng rng(seed ^ 0x726f7773ULL);
  ws->row_perm.resize(kRows);
  for (std::size_t i = 0; i < kRows; ++i) ws->row_perm[i] = static_cast<std::uint32_t>(i);
  rng.Shuffle(&ws->row_perm);
  ws->zipf.emplace(kRows, kRowZipfSkew);
  DrawPools(seed, narrow, ws.get());
  if (!ComputeExpected(twin, threads, ws.get())) return nullptr;
  return ws;
}

/// Request counts per type and each type's share of the busy time.
void SetRequestCounts(const std::string& prefix, const Phase& phase,
                      Result* result) {
  double busy_us = 0.0;
  for (const Sample& sample : phase.samples) busy_us += sample.us;
  for (int t = 0; t < kTypeCount; ++t) {
    const std::vector<double> type_us =
        phase.Latencies([t](std::uint8_t type) { return type == t; });
    double sum_us = 0.0;
    for (const double us : type_us) sum_us += us;
    result->context[prefix + kTypeNames[t]] = std::to_string(type_us.size());
    result->context[prefix + "busy_share_" + kTypeNames[t]] =
        std::to_string(Ratio(sum_us, busy_us));
    result->context[prefix + "p50_us_" + kTypeNames[t]] =
        std::to_string(Median(type_us));
  }
  result->context[prefix + "slices"] = std::to_string(phase.slices);
}

/// Per-API figures of the timed in-process probe (see ProbePasses).
struct ProbeFigures {
  /// Per API, the median latency of each round.
  std::array<std::vector<double>, kGroupCount> round_p50_us;
  std::uint64_t requests = 0;
};

/// Replays `rounds` rounds of the timed probe over the `include`d types
/// in-process, adding to `figures`. In a round `clients` threads each
/// replay one pass of their own (see ProbePasses; `first_round` picks
/// which), and the round's figure is the median over its requests. The
/// reported figure is the median over rounds: on a shared 4-vCPU VM a
/// pass's median moved by up to 2x from one pass to the next while a fixed
/// compute kernel stayed within 10%, so a pooled median over a short probe
/// follows the host, not the program.
void RunTimedProbe(const Twin& twin, const Workset& ws,
                   const std::array<bool, kTypeCount>& include,
                   std::uint64_t seed, std::size_t clients, int first_round,
                   int rounds, std::size_t hw_threads, Result* result,
                   std::mutex* result_mu, ProbeFigures* figures) {
  const auto passes = ProbePasses(
      ws, include, seed, static_cast<int>(clients) * (first_round + rounds));
  for (int round = first_round; round < first_round + rounds; ++round) {
    const auto first =
        passes.begin() + static_cast<std::ptrdiff_t>(round * clients);
    const auto last = first + static_cast<std::ptrdiff_t>(clients);
    Replay replay;
    ReplayOps(twin, ws, {first, last}, kServeBackstopSeconds, hw_threads,
              result, result_mu, &replay);
    figures->requests += replay.requests;
    for (int g = 0; g < kGroupCount; ++g) {
      std::vector<double> values;
      for (int t = 0; t < kTypeCount; ++t) {
        if (kGroupOf[t] != g) continue;
        values.insert(values.end(), replay.request_us[t].begin(),
                      replay.request_us[t].end());
      }
      if (!values.empty()) figures->round_p50_us[g].push_back(Median(values));
    }
  }
}

/// Per-API medians: from the load's slices where its mix has the API,
/// else from the timed in-process probe.
void ReportGroupMedians(const Phase& main, const ProbeFigures& probe,
                        Result* result) {
  for (int g = 0; g < kGroupCount; ++g) {
    const double value = main.Latencies(OfGroup(g)).empty()
                             ? Median(probe.round_p50_us[g])
                             : main.SliceQuantile(OfGroup(g), 0.5);
    result->Metric(kGroupMetric[g], value, "us");
  }
}

/// The untraced window of a load whose mix lacks some API: the window
/// in kWindowSegments segments, each after an untimed warm-up, with the
/// timed probe's rounds spread before, between and after them (the
/// server idles while a round runs in-process). The window's slices and
/// the probe's rounds then both span the run, so a burst of host noise
/// a few seconds long moves a minority of either, not the median.
Phase InterleavedWindow(int port, const Twin& twin, const Workset& ws,
                        const Weights& weights,
                        const std::array<bool, kTypeCount>& missing,
                        std::size_t clients, const Settings& settings,
                        Result* result, std::mutex* result_mu,
                        ProbeFigures* probe) {
  const int segments = std::clamp(static_cast<int>(settings.seconds), 1,
                                  kWindowSegments);
  Phase window;
  for (int gap = 0; gap <= segments; ++gap) {
    const int first = gap * kServeProbeRounds / (segments + 1);
    const int last = (gap + 1) * kServeProbeRounds / (segments + 1);
    RunTimedProbe(twin, ws, missing, settings.seed, clients, first,
                  last - first, settings.threads, result, result_mu, probe);
    if (gap == segments) break;
    const std::uint64_t seed = settings.seed + 7919 * gap;
    RunLoad(port, ws, weights, clients,
            gap == 0 ? kWarmupSeconds : kSegmentWarmupSeconds, seed + 1000003,
            {}, false, result, result_mu);
    window.Append(RunLoad(port, ws, weights, clients,
                          settings.seconds / segments, seed, {}, false, result,
                          result_mu));
  }
  return window;
}

}  // namespace

void ServeProbe(const Settings& settings, const std::string& model_path,
                std::vector<Span>* spans, Result* result) {
  std::mutex result_mu;
  auto twin = OpenTwin(model_path, 0, settings.workdir);
  auto ws = twin ? MakeWorkset(*twin, settings.seed, false, settings.threads)
                 : nullptr;
  if (ws == nullptr) {
    ++result->attempted;
    result->Fail("in-process reference");
    return;
  }
  std::array<bool, kTypeCount> all;
  all.fill(true);
  if (spans == nullptr) {
    // In-process only: no sockets or server threads, so the host's
    // wake-up jitter stays out of a figure that is about the model.
    // One client: a lone cell request pays the whole batch window, as a
    // single user's does.
    ProbeFigures probe;
    RunTimedProbe(*twin, *ws, all, settings.seed, 1, 0, kBuildProbeRounds,
                  settings.threads, result, &result_mu, &probe);
    ReportGroupMedians(Phase(), probe, result);
    result->context["probe_requests"] = std::to_string(probe.requests);
    return;
  }
  const auto script = ProbeScript(*ws, all, settings.seed);
  Served served;
  ++result->attempted;
  if (!StartServer(settings, model_path, 0, &served)) {
    result->Fail("tsctool serve did not start");
    return;
  }
  const std::string before = FetchMetrics(served.port);
  const Phase probe = RunLoad(served.port, *ws, {}, 1, 0.0, settings.seed,
                              script, true, result, &result_mu);
  const std::string after = FetchMetrics(served.port);
  served.server.Stop();
  SetRequestCounts("probe_", probe, result);
  Replay replay;
  ReplayOps(*twin, *ws, probe.ops, settings.seconds, settings.threads, result,
            &result_mu, &replay);
  ReportServingLayers(before, after, probe, replay, result);
  spans->insert(spans->end(), probe.spans.begin(), probe.spans.end());
  spans->insert(spans->end(), replay.spans.begin(), replay.spans.end());
}

void RunServe(const Settings& settings, Result* result) {
  const bool point = settings.workload == "serve_point";
  const Weights& weights = point ? kPointMix : kAnalyticMix;
  const std::string input = settings.workdir + "/serve_input.rows";
  const std::string model = settings.workdir + "/serve.model";
  std::mutex result_mu;
  std::vector<Span> spans;
  result->context["space_percent"] = std::to_string(kServeSpacePercent);

  // Set-up: input, model build (child), then the server itself.
  // Untraced runs repeat it and report the median; the last one serves.
  Served served;
  std::size_t cache_blocks = 0;
  std::vector<double> setup_s, build_s;
  BuildTrace build_trace;
  const int repeats = settings.trace ? 1 : kSetupRepeats;
  for (int rep = 0; rep < repeats; ++rep) {
    served.server.Stop();
    ++result->attempted;
    const auto start = Clock::now();
    if (!GenerateInput(settings, input).ok) {
      result->Fail("tsctool generate");
      return;
    }
    if (settings.trace) {
      build_trace = BuildInProcess(settings, input, model, kServeSpacePercent,
                                   true, &spans);
      if (!build_trace.ok) {
        result->Fail("in-process build");
        return;
      }
    } else {
      const ChildExit built =
          RunChild(CompressArgs(settings, input, model, kServeSpacePercent));
      if (!built.ok) {
        result->Fail("tsctool compress");
        return;
      }
      build_s.push_back(built.wall_s);
    }
    const double prepared_s = SecondsSince(start);
    if (point) {
      // A block cache of about 1/8 of the U file (rows x k f64 values).
      auto header = tsc::SvddModel::LoadFromFile(model);
      if (!header.ok()) {
        result->Fail("model reload");
        return;
      }
      const std::uint64_t u_bytes = kRows * header->k() * sizeof(double);
      cache_blocks = std::max<std::uint64_t>(
          1, (u_bytes / 8 + tsc::DiskAccessCounter::kDefaultBlockSize - 1) /
                 tsc::DiskAccessCounter::kDefaultBlockSize);
    }
    const auto serve_start = Clock::now();
    if (!StartServer(settings, model, cache_blocks, &served)) {
      result->Fail("tsctool serve did not start");
      return;
    }
    setup_s.push_back(prepared_s + SecondsSince(serve_start));
  }

  auto twin = OpenTwin(model, cache_blocks, settings.workdir);
  auto ws = twin ? MakeWorkset(*twin, settings.seed, point, settings.threads)
                 : nullptr;
  if (ws == nullptr) {
    result->Fail("in-process reference");
    return;
  }
  // Cell-only traffic from 4 clients on 4 hardware threads put client and
  // server threads in each other's way: p99 ran 0.9-6.8 ms and ops_per_s
  // 4.7k-11.8k over ten runs. Two clients gave the same ops_per_s with a
  // sub-ms p99 and 5-15% spreads.
  const std::size_t clients = point ? std::max<std::size_t>(1, settings.threads / 2)
                                    : settings.threads;
  result->context["clients"] = std::to_string(clients);
  result->context["cache_blocks"] = std::to_string(cache_blocks);
  result->context["model_k"] = std::to_string(twin->model.k());
  result->context["model_deltas"] = std::to_string(twin->model.delta_count());

  std::array<bool, kTypeCount> missing;
  for (int t = 0; t < kTypeCount; ++t) missing[t] = weights[t] == 0.0;
  const bool probe_needed =
      std::any_of(missing.begin(), missing.end(), [](bool m) { return m; });
  // Warm-up (untimed, unchecked against the window): caches fill, lazy
  // set-up finishes.
  const auto warm_up = [&](double seconds, std::uint64_t seed) {
    RunLoad(served.port, *ws, weights, clients, seconds, seed, {}, false,
            result, &result_mu);
  };

  if (!settings.trace) {
    Phase main;
    ProbeFigures probe_figures;
    if (probe_needed) {
      main = InterleavedWindow(served.port, *twin, *ws, weights, missing,
                               clients, settings, result, &result_mu,
                               &probe_figures);
      result->context["probe_requests"] =
          std::to_string(probe_figures.requests);
    } else {
      warm_up(kWarmupSeconds, settings.seed + 1000003);
      main = RunLoad(served.port, *ws, weights, clients, settings.seconds,
                     settings.seed, {}, false, result, &result_mu);
    }
    const double peak_rss_mb = served.server.PeakRssMb();
    served.server.Stop();
    result->Metric("setup_s", Median(setup_s), "s");
    result->Metric("build_s", Median(build_s), "s");
    result->Metric("peak_rss_mb", peak_rss_mb, "MB");
    result->Metric("bytes_per_cell",
                   static_cast<double>(FileSize(model)) / (kRows * kCols), "B");
    const double rmspe = ModelRmspePercent(input, model);
    if (rmspe < 0.0 || !std::isfinite(rmspe)) result->Fail("model reload");
    result->Metric("rmspe_pct", rmspe, "%");
    result->Metric("ops_per_s", main.SliceCount(), "1/s");
    result->Metric("p50_us", main.SliceQuantile(kAnyType, 0.5), "us");
    result->Metric("p99_us", main.SliceQuantile(kAnyType, 0.99), "us");
    ReportGroupMedians(main, probe_figures, result);
    result->Metric("ok_ratio",
                   Ratio(static_cast<double>(result->attempted - result->failed),
                         static_cast<double>(result->attempted)),
                   "ratio");
    SetRequestCounts("requests_", main, result);
  } else {
    warm_up(kWarmupSeconds, settings.seed + 1000003);
    // Untraced and traced halves of the same load, then the replay.
    const double third = settings.seconds / 3.0;
    const Phase plain = RunLoad(served.port, *ws, weights, clients, third,
                                settings.seed, {}, false, result, &result_mu);
    const std::string before = FetchMetrics(served.port);
    const Phase traced = RunLoad(served.port, *ws, weights, clients, third,
                                 settings.seed, {}, true, result, &result_mu);
    const std::string after = FetchMetrics(served.port);
    Phase probe;
    std::vector<std::vector<Op>> replay_ops = traced.ops;
    if (probe_needed) {
      probe = RunLoad(served.port, *ws, {}, 1, 0.0, settings.seed,
                      ProbeScript(*ws, missing, settings.seed), true, result,
                      &result_mu);
      replay_ops[0].insert(replay_ops[0].end(), probe.ops[0].begin(),
                           probe.ops[0].end());
    }
    served.server.Stop();
    Replay replay;
    ReplayOps(*twin, *ws, replay_ops, third, settings.threads, result,
              &result_mu, &replay);
    ReportBuildTrace(build_trace, result);
    ReportServingLayers(before, after, traced, replay, result);
    result->Metric("trace.overhead_ratio",
                   Ratio(traced.SliceQuantile(kAnyType, 0.5),
                         plain.SliceQuantile(kAnyType, 0.5)),
                   "ratio");
    SetRequestCounts("requests_", traced, result);
    spans.insert(spans.end(), traced.spans.begin(), traced.spans.end());
    spans.insert(spans.end(), probe.spans.begin(), probe.spans.end());
    spans.insert(spans.end(), replay.spans.begin(), replay.spans.end());
    result->spans_path = settings.workdir + "/spans_" + settings.workload + ".json";
    WriteSpans(result->spans_path, spans);
  }
  twin.reset();
  std::remove(input.c_str());
  std::remove(model.c_str());
}

}  // namespace perfbench
