#include "obs/autograd_profiler.h"

#include <algorithm>
#include <cstdio>

namespace tracer {
namespace obs {

AutogradProfiler& AutogradProfiler::Global() {
  static AutogradProfiler* profiler = new AutogradProfiler();
  return *profiler;
}

void AutogradProfiler::SetEnabled(bool enabled) {
  enabled_.store(enabled, std::memory_order_relaxed);
}

void AutogradProfiler::RecordForward(const char* op, uint64_t ns,
                                     int64_t flops, int64_t heap_allocs) {
  common::MutexLock lock(&mutex_);
  Cell& cell = cells_[op];
  ++cell.forward_calls;
  cell.forward_ns += ns;
  cell.forward_flops += flops;
  cell.forward_heap_allocs += heap_allocs;
}

void AutogradProfiler::RecordBackward(const char* op, uint64_t ns,
                                      int64_t heap_allocs) {
  common::MutexLock lock(&mutex_);
  Cell& cell = cells_[op];
  ++cell.backward_calls;
  cell.backward_ns += ns;
  cell.backward_heap_allocs += heap_allocs;
}

void AutogradProfiler::AddBackwardFlops(const char* op, int64_t flops) {
  common::MutexLock lock(&mutex_);
  cells_[op].backward_flops += flops;
}

std::vector<OpProfile> AutogradProfiler::Snapshot() const {
  std::vector<OpProfile> out;
  {
    common::MutexLock lock(&mutex_);
    out.reserve(cells_.size());
    for (const auto& [op, cell] : cells_) {
      OpProfile profile;
      profile.op = op;
      profile.forward_calls = cell.forward_calls;
      profile.forward_ns = cell.forward_ns;
      profile.backward_calls = cell.backward_calls;
      profile.backward_ns = cell.backward_ns;
      profile.forward_flops = cell.forward_flops;
      profile.backward_flops = cell.backward_flops;
      profile.forward_heap_allocs = cell.forward_heap_allocs;
      profile.backward_heap_allocs = cell.backward_heap_allocs;
      out.push_back(std::move(profile));
    }
  }
  std::sort(out.begin(), out.end(), [](const OpProfile& a, const OpProfile& b) {
    if (a.total_ns() != b.total_ns()) return a.total_ns() > b.total_ns();
    return a.op < b.op;
  });
  return out;
}

uint64_t AutogradProfiler::TotalNs() const {
  common::MutexLock lock(&mutex_);
  uint64_t total = 0;
  for (const auto& [op, cell] : cells_) {
    total += cell.forward_ns + cell.backward_ns;
  }
  return total;
}

double AutogradProfiler::GemmShare() const {
  common::MutexLock lock(&mutex_);
  uint64_t total = 0;
  uint64_t gemm = 0;
  for (const auto& [op, cell] : cells_) {
    const uint64_t ns = cell.forward_ns + cell.backward_ns;
    total += ns;
    if (op == "matmul") gemm += ns;
  }
  return total > 0 ? static_cast<double>(gemm) / static_cast<double>(total)
                   : 0.0;
}

std::string AutogradProfiler::ReportTable() const {
  const std::vector<OpProfile> profiles = Snapshot();
  std::string out =
      "op                    fwd_calls     fwd_ms  fwd_gflops  fwd_allocs"
      "  bwd_calls     bwd_ms  bwd_gflops  bwd_allocs\n";
  for (const OpProfile& p : profiles) {
    char line[200];
    std::snprintf(line, sizeof(line),
                  "%-20s %10lld %10.3f %11.2f %11lld %10lld %10.3f %11.2f"
                  " %11lld\n",
                  p.op.c_str(), static_cast<long long>(p.forward_calls),
                  static_cast<double>(p.forward_ns) / 1e6,
                  p.forward_gflops(),
                  static_cast<long long>(p.forward_heap_allocs),
                  static_cast<long long>(p.backward_calls),
                  static_cast<double>(p.backward_ns) / 1e6,
                  p.backward_gflops(),
                  static_cast<long long>(p.backward_heap_allocs));
    out += line;
  }
  return out;
}

void AutogradProfiler::Reset() {
  common::MutexLock lock(&mutex_);
  cells_.clear();
}

}  // namespace obs
}  // namespace tracer
