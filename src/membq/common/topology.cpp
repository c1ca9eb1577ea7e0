#include "common/topology.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <map>
#include <sstream>
#include <tuple>

#if defined(__linux__)
#include <sched.h>
#include <unistd.h>
#endif

namespace membq {
namespace topo {

namespace {

// First line of a sysfs file, whitespace-trimmed; empty when unreadable.
std::string read_line(const std::string& path) {
  std::ifstream f(path);
  if (!f.is_open()) return std::string();
  std::string line;
  std::getline(f, line);
  while (!line.empty() &&
         std::isspace(static_cast<unsigned char>(line.back()))) {
    line.pop_back();
  }
  return line;
}

// Sysfs int file; `dflt` when missing/malformed (missing topology files
// degrade to "every CPU its own core on node 0", never to an error).
int read_int(const std::string& path, int dflt) {
  const std::string s = read_line(path);
  if (s.empty()) return dflt;
  try {
    std::size_t pos = 0;
    const int v = std::stoi(s, &pos);
    return pos == s.size() ? v : dflt;
  } catch (...) {
    return dflt;
  }
}

}  // namespace

bool parse_cpulist(const std::string& text, std::vector<int>& out) {
  std::vector<int> cpus;
  std::string token;
  std::stringstream ss(text);
  while (std::getline(ss, token, ',')) {
    if (token.empty()) return false;
    const std::size_t dash = token.find('-');
    try {
      if (dash == std::string::npos) {
        std::size_t pos = 0;
        const int v = std::stoi(token, &pos);
        if (pos != token.size() || v < 0) return false;
        cpus.push_back(v);
      } else {
        std::size_t pos = 0;
        const int lo = std::stoi(token.substr(0, dash), &pos);
        if (pos != dash || lo < 0) return false;
        const std::string hi_s = token.substr(dash + 1);
        const int hi = std::stoi(hi_s, &pos);
        if (pos != hi_s.size() || hi < lo) return false;
        for (int v = lo; v <= hi; ++v) cpus.push_back(v);
      }
    } catch (...) {
      return false;
    }
  }
  std::sort(cpus.begin(), cpus.end());
  cpus.erase(std::unique(cpus.begin(), cpus.end()), cpus.end());
  out = std::move(cpus);
  return true;
}

std::vector<int> allowed_cpus() {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    std::vector<int> cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
    if (!cpus.empty()) return cpus;
  }
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
#else
  const long n = 0;
#endif
  std::vector<int> cpus;
  for (long c = 0; c < (n > 0 ? n : 1); ++c) {
    cpus.push_back(static_cast<int>(c));
  }
  return cpus;
}

int Topology::node_of(int cpu) const noexcept {
  for (const Cpu& c : cpus_) {
    if (c.id == cpu) return c.node;
  }
  return -1;
}

std::vector<int> Topology::cpus_on_node(int node) const {
  std::vector<int> out;
  for (int cpu : pin_order_) {
    if (node_of(cpu) == node) out.push_back(cpu);
  }
  return out;
}

Topology discover(const std::string& sysfs_root,
                  const std::vector<int>& allowed) {
  const std::string cpu_dir = sysfs_root + "/devices/system/cpu";
  const std::string node_dir = sysfs_root + "/devices/system/node";

  // Online CPUs per sysfs; an unreadable file falls back to the allowed
  // set itself (and finally to {0}), so discovery never yields zero CPUs.
  std::vector<int> online;
  if (!parse_cpulist(read_line(cpu_dir + "/online"), online) ||
      online.empty()) {
    online = allowed;
  }
  if (online.empty()) online.push_back(0);

  std::vector<int> cpus;
  if (allowed.empty()) {
    cpus = online;
  } else {
    for (int c : online) {
      if (std::find(allowed.begin(), allowed.end(), c) != allowed.end()) {
        cpus.push_back(c);
      }
    }
    // Allowed CPUs the online list does not mention (stale fixture, hot
    // plug): trust the affinity mask over the file.
    if (cpus.empty()) cpus = allowed;
  }

  // cpu -> node from the node<N>/cpulist files; absent directory = all 0.
  std::map<int, int> cpu_node;
  std::vector<int> node_ids;
  if (parse_cpulist(read_line(node_dir + "/online"), node_ids) &&
      !node_ids.empty()) {
    for (int n : node_ids) {
      std::vector<int> node_cpus;
      if (parse_cpulist(
              read_line(node_dir + "/node" + std::to_string(n) + "/cpulist"),
              node_cpus)) {
        for (int c : node_cpus) cpu_node[c] = n;
      }
    }
  }

  Topology t;
  t.cpus_.reserve(cpus.size());
  for (int c : cpus) {
    Cpu info;
    info.id = c;
    const auto it = cpu_node.find(c);
    info.node = it != cpu_node.end() ? it->second : 0;
    const std::string topo =
        cpu_dir + "/cpu" + std::to_string(c) + "/topology";
    // Missing files: each CPU its own core (package 0, core_id = cpu id),
    // i.e. no SMT grouping — the safe non-degrading default.
    info.package = read_int(topo + "/physical_package_id", 0);
    info.core = read_int(topo + "/core_id", c);
    t.cpus_.push_back(info);
  }

  // Group into physical cores by (node, package, core); rank siblings by
  // CPU id within each group.
  std::map<std::tuple<int, int, int>, std::vector<std::size_t>> cores;
  for (std::size_t i = 0; i < t.cpus_.size(); ++i) {
    const Cpu& c = t.cpus_[i];
    cores[std::make_tuple(c.node, c.package, c.core)].push_back(i);
  }
  t.physical_cores_ = cores.size();
  std::size_t max_siblings = 0;
  for (auto& kv : cores) {
    // Map iteration already sorts groups by (node, package, core) and the
    // cpus_ vector is ascending by id, so group members are id-sorted.
    for (std::size_t r = 0; r < kv.second.size(); ++r) {
      t.cpus_[kv.second[r]].smt_rank = static_cast<int>(r);
    }
    max_siblings = std::max(max_siblings, kv.second.size());
  }

  // Cores-first pin order: every rank-0 CPU (one per core) before any
  // rank-1 sibling, and so on for deeper SMT.
  for (std::size_t rank = 0; rank < max_siblings; ++rank) {
    for (const auto& kv : cores) {
      if (rank < kv.second.size()) {
        t.pin_order_.push_back(t.cpus_[kv.second[rank]].id);
      }
    }
  }

  for (const Cpu& c : t.cpus_) {
    if (std::find(t.nodes_.begin(), t.nodes_.end(), c.node) ==
        t.nodes_.end()) {
      t.nodes_.push_back(c.node);
    }
  }
  std::sort(t.nodes_.begin(), t.nodes_.end());
  return t;
}

const Topology& system() {
  // Magic static: discovery runs once, on first use, under the usual
  // thread-safe initialization guarantee.
  static const Topology t = discover("/sys", allowed_cpus());
  return t;
}

}  // namespace topo
}  // namespace membq
