// Unified bench harness: one CLI, one JSON schema, every bench.
//
// Each bench binary constructs a Harness, resolves its sweep parameters
// through it (so --threads/--capacity/--ops/--short rescale any bench
// uniformly), streams human-readable rows to stdout, and mirrors every
// row into a Record. On finish() the harness writes BENCH_<name>.json: a
// schema-versioned envelope carrying build provenance (git sha, compiler,
// fence policy, option flags), every record's params/metrics, the
// telemetry counter delta attributed to each record, and optional latency
// percentiles + histogram buckets.
//
// The flow is stdout for humans, JSON for machines: CI greps and the
// golden diffs stay on stdout, compare_bench.py reads only the JSON.
//
// CLI (every flag optional; unknown flags are an error, and so is an
// override of a parameter the bench does not read — see `param`):
//   --threads=1,2,4    override the bench's thread sweep
//   --capacity=N       override the bench's default capacity
//   --ops=N            override the bench's per-thread op count
//   --pin-policy=P     worker pinning: none | cores-first
//   --short            scale op counts down ~8x (CI smoke mode)
//   --out=PATH         write the JSON to PATH
//   --out-dir=DIR      write to DIR/BENCH_<name>.json (default ".")
//   --no-json          skip the JSON artifact entirely
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/counters.hpp"
#include "workload/driver.hpp"
#include "workload/histogram.hpp"

namespace membq {
namespace bench {

// The sweep parameters a bench reads, OR-ed into the Harness
// constructor's last argument. The Harness accepts --threads, --capacity,
// --ops and --pin-policy only for the parameters named there, so an
// override the bench would ignore exits 2 instead of running the
// defaults.
namespace param {
inline constexpr unsigned kThreads = 1u << 0;    // threads()
inline constexpr unsigned kCapacity = 1u << 1;   // capacity()
inline constexpr unsigned kOps = 1u << 2;        // ops()
inline constexpr unsigned kPinPolicy = 1u << 3;  // RunConfig's pin default
}  // namespace param

// The wire format version of BENCH_<name>.json. Bump on any change to the
// envelope or record layout; compare_bench.py refuses cross-version diffs.
constexpr std::uint64_t kSchemaVersion = 1;

struct Options {
  std::vector<std::size_t> threads;  // empty = bench default
  std::size_t capacity = 0;          // 0 = bench default
  std::size_t ops = 0;               // 0 = bench default
  // Worker pinning. The Harness constructor installs it as the
  // process-wide default (set_default_pin_policy), which RunConfig picks
  // up — so a bench needs no per-run plumbing to honor it.
  PinPolicy pin = PinPolicy::kNone;
  bool short_mode = false;
  bool json = true;
  std::string out_path;        // explicit --out
  std::string out_dir = ".";   // --out-dir
};

// One measured point. Params say what was run, metrics say what came out;
// the harness attaches the telemetry counter delta automatically.
class Record {
 public:
  Record& param(const char* k, const char* v);
  Record& param(const char* k, const std::string& v);
  Record& param(const char* k, std::uint64_t v);
  Record& metric(const char* k, double v);
  Record& metric(const char* k, std::uint64_t v);
  Record& flag(const char* k, bool v);  // boolean metric (verdicts)

  // Percentile summary + non-empty bucket list from a histogram.
  Record& latency(const workload::LatencyHistogram& h);

  // Stamp a workload RunResult: queue/threads/mix params, throughput and
  // op-outcome metrics, latency when the run sampled it.
  Record& from(const workload::RunResult& r);

 private:
  friend class Harness;
  explicit Record(std::string label) : label_(std::move(label)) {}

  struct Metric {
    std::string key;
    bool is_uint;
    double d;
    std::uint64_t u;
  };

  std::string label_;
  std::vector<std::pair<std::string, std::string>> str_params_;
  std::vector<std::pair<std::string, std::uint64_t>> uint_params_;
  std::vector<Metric> metrics_;
  telemetry::CounterSnapshot counters_;
  bool has_latency_ = false;
  std::uint64_t lat_count_ = 0, lat_min_ = 0, lat_max_ = 0;
  double p50_ = 0, p90_ = 0, p99_ = 0, p999_ = 0;
  // (lower_ns, upper_ns, count) triples, non-empty buckets only.
  std::vector<std::uint64_t> bucket_lo_, bucket_hi_, bucket_n_;
};

class Harness {
 public:
  // Parses argv; prints usage and exits(2) on an unknown or malformed
  // flag, or on an override of a parameter missing from `params`, so a
  // typo'd sweep never silently runs the defaults.
  Harness(const char* name, int argc, char** argv, unsigned params = 0);

  // finish() is the intended exit; the destructor backstops it so a bench
  // that returns early still leaves a valid artifact.
  ~Harness();

  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  const Options& opts() const noexcept { return opts_; }
  bool short_mode() const noexcept { return opts_.short_mode; }

  // Bench-default resolution: CLI override wins, then --short rescaling.
  std::size_t ops(std::size_t dflt) const noexcept;
  std::size_t capacity(std::size_t dflt) const noexcept;
  std::vector<std::size_t> threads(
      std::initializer_list<std::size_t> dflt) const;

  // Open a new record. The telemetry counter delta since the previous
  // record() (or construction) is attributed to THIS record, so call it
  // immediately after the measured work it labels.
  Record& record(std::string label);

  // Write BENCH_<name>.json (unless --no-json). Idempotent; returns 0 so
  // main() can `return harness.finish();`.
  int finish();

 private:
  void write_json();

  std::string name_;
  Options opts_;
  std::vector<std::unique_ptr<Record>> records_;
  telemetry::CounterSnapshot mark_;
  bool finished_ = false;
};

// Keep a computed value observable so a measured loop cannot be elided;
// the harness twin of google-benchmark's DoNotOptimize.
template <class T>
inline void keep(T const& value) noexcept {
  __asm__ __volatile__("" : : "r,m"(value) : "memory");
}

}  // namespace bench
}  // namespace membq
