#include "harness.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/buildinfo.hpp"
#include "common/topology.hpp"
#include "json.hpp"
#include "sync/memory_order.hpp"

namespace membq {
namespace bench {

namespace {

// --short divides bench-default op counts by this; committed baselines and
// the CI smoke job both run short mode, so the divisor is part of the
// comparison contract (changing it invalidates the baselines).
constexpr std::size_t kShortDivisor = 8;

// Names the program by argv[0] (membq_loadgen runs the harness under the
// record name "server", which is not a binary) and lists only the
// overrides the bench reads.
[[noreturn]] void usage_and_exit(const char* prog, unsigned params,
                                 const char* bad) {
  std::fprintf(stderr, "%s: bad argument '%s'\nusage: %s", prog, bad, prog);
  if (params & param::kThreads) std::fprintf(stderr, " [--threads=1,2,4]");
  if (params & param::kCapacity) std::fprintf(stderr, " [--capacity=N]");
  if (params & param::kOps) std::fprintf(stderr, " [--ops=N]");
  if (params & param::kPinPolicy) {
    std::fprintf(stderr, " [--pin-policy=none|cores-first]");
  }
  std::fprintf(stderr,
               " [--short]\n       [--out=PATH] [--out-dir=DIR] "
               "[--no-json]\n");
  std::exit(2);
}

bool parse_size(const char* s, std::size_t& out) {
  if (*s == '\0') return false;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == nullptr || *end != '\0') return false;
  out = static_cast<std::size_t>(v);
  return true;
}

bool parse_size_list(const char* s, std::vector<std::size_t>& out) {
  std::string token;
  for (const char* p = s;; ++p) {
    if (*p == ',' || *p == '\0') {
      std::size_t v = 0;
      if (!parse_size(token.c_str(), v) || v == 0) return false;
      out.push_back(v);
      token.clear();
      if (*p == '\0') break;
    } else {
      token += *p;
    }
  }
  return !out.empty();
}

const char* flag_value(const char* arg, const char* flag) {
  const std::size_t n = std::strlen(flag);
  if (std::strncmp(arg, flag, n) == 0 && arg[n] == '=') return arg + n + 1;
  return nullptr;
}

}  // namespace

// ---- Record --------------------------------------------------------------

Record& Record::param(const char* k, const char* v) {
  str_params_.emplace_back(k, v);
  return *this;
}

Record& Record::param(const char* k, const std::string& v) {
  str_params_.emplace_back(k, v);
  return *this;
}

Record& Record::param(const char* k, std::uint64_t v) {
  uint_params_.emplace_back(k, v);
  return *this;
}

Record& Record::metric(const char* k, double v) {
  metrics_.push_back(Metric{k, false, v, 0});
  return *this;
}

Record& Record::metric(const char* k, std::uint64_t v) {
  metrics_.push_back(Metric{k, true, 0.0, v});
  return *this;
}

Record& Record::flag(const char* k, bool v) {
  return metric(k, static_cast<std::uint64_t>(v ? 1 : 0));
}

Record& Record::latency(const workload::LatencyHistogram& h) {
  has_latency_ = true;
  lat_count_ = h.count();
  lat_min_ = h.min();
  lat_max_ = h.max();
  p50_ = h.percentile(0.50);
  p90_ = h.percentile(0.90);
  p99_ = h.percentile(0.99);
  p999_ = h.percentile(0.999);
  bucket_lo_.clear();
  bucket_hi_.clear();
  bucket_n_.clear();
  h.for_each_bucket([this](std::uint64_t lo, std::uint64_t hi,
                           std::uint64_t n) {
    bucket_lo_.push_back(lo);
    bucket_hi_.push_back(hi);
    bucket_n_.push_back(n);
  });
  return *this;
}

Record& Record::from(const workload::RunResult& r) {
  param("queue", r.queue);
  param("threads", static_cast<std::uint64_t>(r.threads));
  param("mix", workload::to_string(r.mix));
  param("batch", static_cast<std::uint64_t>(r.batch));
  param("pin_policy", membq::to_string(r.pin));
  metric("mops", r.mops);
  metric("seconds", r.seconds);
  metric("enq_ok", r.enq_ok);
  metric("enq_fail", r.enq_fail);
  metric("deq_ok", r.deq_ok);
  metric("deq_fail", r.deq_fail);
  if (r.latency_sampled && r.latency.count() > 0) latency(r.latency);
  return *this;
}

// ---- Harness -------------------------------------------------------------

Harness::Harness(const char* name, int argc, char** argv, unsigned params)
    : name_(name) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* v = nullptr;
    const auto reads = [&](unsigned p) {
      if (!(params & p)) usage_and_exit(argv[0], params, arg);
    };
    if (std::strcmp(arg, "--short") == 0) {
      opts_.short_mode = true;
    } else if (std::strcmp(arg, "--no-json") == 0) {
      opts_.json = false;
    } else if ((v = flag_value(arg, "--threads")) != nullptr) {
      reads(param::kThreads);
      opts_.threads.clear();
      if (!parse_size_list(v, opts_.threads)) {
        usage_and_exit(argv[0], params, arg);
      }
    } else if ((v = flag_value(arg, "--capacity")) != nullptr) {
      reads(param::kCapacity);
      if (!parse_size(v, opts_.capacity) || opts_.capacity == 0) {
        usage_and_exit(argv[0], params, arg);
      }
    } else if ((v = flag_value(arg, "--ops")) != nullptr) {
      reads(param::kOps);
      if (!parse_size(v, opts_.ops) || opts_.ops == 0) {
        usage_and_exit(argv[0], params, arg);
      }
    } else if ((v = flag_value(arg, "--pin-policy")) != nullptr) {
      reads(param::kPinPolicy);
      if (!pin_policy_from_string(v, opts_.pin)) {
        usage_and_exit(argv[0], params, arg);
      }
    } else if ((v = flag_value(arg, "--out")) != nullptr) {
      opts_.out_path = v;
    } else if ((v = flag_value(arg, "--out-dir")) != nullptr) {
      opts_.out_dir = v;
    } else {
      usage_and_exit(argv[0], params, arg);
    }
  }
  // Install the pin policy process-wide: RunConfig's pin default reads
  // it, so the whole bench runs pinned as asked with no per-callsite
  // threading.
  set_default_pin_policy(opts_.pin);
  mark_ = telemetry::snapshot();
}

Harness::~Harness() { finish(); }

std::size_t Harness::ops(std::size_t dflt) const noexcept {
  if (opts_.ops != 0) return opts_.ops;
  if (opts_.short_mode) {
    const std::size_t scaled = dflt / kShortDivisor;
    return scaled > 0 ? scaled : 1;
  }
  return dflt;
}

std::size_t Harness::capacity(std::size_t dflt) const noexcept {
  return opts_.capacity != 0 ? opts_.capacity : dflt;
}

std::vector<std::size_t> Harness::threads(
    std::initializer_list<std::size_t> dflt) const {
  if (!opts_.threads.empty()) return opts_.threads;
  return std::vector<std::size_t>(dflt);
}

Record& Harness::record(std::string label) {
  records_.emplace_back(new Record(std::move(label)));
  Record& r = *records_.back();
  const telemetry::CounterSnapshot now = telemetry::snapshot();
  r.counters_ = now.delta_since(mark_);
  mark_ = now;
  return r;
}

int Harness::finish() {
  if (finished_) return 0;
  finished_ = true;
  if (opts_.json) write_json();
  return 0;
}

void Harness::write_json() {
  std::string out;
  out.reserve(1 << 16);
  JsonWriter w(&out);

  const BuildInfo bi = build_info();

  w.begin_object();
  w.kv("schema_version", kSchemaVersion);
  w.kv("bench", name_.c_str());

  w.key("build");
  w.begin_object();
  w.kv("git_sha", bi.git_sha);
  w.kv("git_dirty", bi.git_dirty);
  w.kv("compiler", bi.compiler);
  w.kv("build_type", bi.build_type);
  w.kv("telemetry", bi.telemetry);
  w.kv("seqcst_rings", bi.seqcst_rings);
  w.kv("fence_policy", RingOrders::kName);
  w.end_object();

  w.key("config");
  w.begin_object();
  w.kv("short", opts_.short_mode);
  w.kv("pin_policy", membq::to_string(opts_.pin));
  w.end_object();

  // Machine shape, so a baseline diff can tell a regression from a
  // different box.
  {
    const topo::Topology& t = topo::system();
    w.key("topology");
    w.begin_object();
    w.kv("numa_nodes", static_cast<std::uint64_t>(t.node_count()));
    w.kv("allowed_cpus", static_cast<std::uint64_t>(t.allowed_cpus()));
    w.kv("physical_cores", static_cast<std::uint64_t>(t.physical_cores()));
    w.end_object();
  }

  w.key("records");
  w.begin_array();
  for (const auto& rp : records_) {
    const Record& r = *rp;
    w.begin_object();
    w.kv("label", r.label_.c_str());

    w.key("params");
    w.begin_object();
    for (const auto& p : r.str_params_) w.kv(p.first.c_str(), p.second);
    for (const auto& p : r.uint_params_) w.kv(p.first.c_str(), p.second);
    w.end_object();

    w.key("metrics");
    w.begin_object();
    for (const auto& m : r.metrics_) {
      if (m.is_uint) {
        w.kv(m.key.c_str(), m.u);
      } else {
        w.kv(m.key.c_str(), m.d);
      }
    }
    w.end_object();

    w.key("counters");
    w.begin_object();
    for (std::size_t i = 0; i < telemetry::kCounterCount; ++i) {
      const auto c = static_cast<telemetry::Counter>(i);
      w.kv(telemetry::counter_name(c), r.counters_[c]);
    }
    w.end_object();

    if (r.has_latency_) {
      w.key("latency");
      w.begin_object();
      w.kv("count", r.lat_count_);
      w.kv("min_ns", r.lat_min_);
      w.kv("max_ns", r.lat_max_);
      w.kv("p50_ns", r.p50_);
      w.kv("p90_ns", r.p90_);
      w.kv("p99_ns", r.p99_);
      w.kv("p999_ns", r.p999_);
      w.key("buckets");
      w.begin_array();
      for (std::size_t i = 0; i < r.bucket_n_.size(); ++i) {
        w.begin_array();
        w.value(r.bucket_lo_[i]);
        w.value(r.bucket_hi_[i]);
        w.value(r.bucket_n_[i]);
        w.end_array();
      }
      w.end_array();
      w.end_object();
    }
    w.end_object();
  }
  w.end_array();

  w.end_object();
  out += '\n';

  const std::string path = !opts_.out_path.empty()
                               ? opts_.out_path
                               : opts_.out_dir + "/BENCH_" + name_ + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_%s: cannot write %s\n", name_.c_str(),
                 path.c_str());
    return;
  }
  std::fwrite(out.data(), 1, out.size(), f);
  std::fclose(f);
  std::fprintf(stderr, "wrote %s (%zu records)\n", path.c_str(),
               records_.size());
}

}  // namespace bench
}  // namespace membq
