// Figure 7 — LGC object unitary cost of enforcing the Union Rule.
//
// Same experiment as Figure 6, reported per object per collection (the
// paper's values: maxima 25.4 µs Java / 14.5 µs .NET; minima 6.32 µs Java
// / 0.67 µs .NET).  The reproduction target is the order of magnitude
// (microseconds per transition) and the series ordering — reconstruction
// strategies cost µs, ReRegister costs a fraction of a µs.
//
// Measured directly (std::chrono, one shot per configuration): unitary
// costs are derived quantities, not adaptive-iteration material.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>

#include "gc/lgc/lgc.h"
#include "net/network.h"
#include "rm/process.h"

namespace {

using namespace rgc;
using Clock = std::chrono::steady_clock;

constexpr int kRuns = 100;

void build_heap(rm::Process& proc, std::int64_t n, std::int64_t refs) {
  for (std::int64_t i = 0; i < n; ++i) {
    proc.create_object(ObjectId{static_cast<std::uint64_t>(i)});
  }
  for (std::int64_t i = 0; i < n; ++i) {
    rm::Object* obj = proc.heap().find(ObjectId{static_cast<std::uint64_t>(i)});
    obj->finalizable = true;
    for (std::int64_t k = 1; k <= refs; ++k) {
      obj->refs.push_back(
          rm::Ref{ObjectId{static_cast<std::uint64_t>((i + k) % n)}, kNoProcess});
    }
  }
}

double unitary_cost_us(gc::FinalizeStrategy strategy, std::int64_t n,
                       std::int64_t refs) {
  net::Network net;
  rm::Process proc{ProcessId{0}, net};
  net.attach(ProcessId{0}, [](const net::Envelope&, net::Message&) {});
  build_heap(proc, n, refs);
  gc::Finalizer finalizer{strategy};
  gc::LgcConfig cfg;
  cfg.finalizer = &finalizer;

  const auto start = Clock::now();
  for (int run = 0; run < kRuns; ++run) {
    gc::Lgc::collect(proc, cfg);
    if (strategy == gc::FinalizeStrategy::kReconstructionInPlace) {
      proc.heap().for_each([](ObjectId, std::uint32_t, rm::Object& obj) {
        obj.finalizable = true;
      });
    }
    finalizer.release_arena();
  }
  const auto elapsed = std::chrono::duration<double, std::micro>(
      Clock::now() - start);
  // Per object, per collection.  For the Empty series (everything is
  // reclaimed in run 1 and the rest are no-ops) this matches the paper's
  // framing: the whole 100-run loop amortized over the objects.
  return elapsed.count() / (static_cast<double>(n) * kRuns);
}

struct Series {
  const char* name;
  gc::FinalizeStrategy strategy;
};

}  // namespace

int main() {
  std::printf(
      "Figure 7 — per-object unitary cost of Union-Rule enforcement (us)\n"
      "(paper: max 25.4 Java / 14.5 .NET; min 6.32 Java / 0.67 .NET)\n\n");
  const Series series[] = {
      {"empty_lgc", gc::FinalizeStrategy::kNone},
      {"java_like_reconstruction", gc::FinalizeStrategy::kReconstructionFresh},
      {"dotnet_like_reconstruction",
       gc::FinalizeStrategy::kReconstructionInPlace},
      {"dotnet_reregister_finalize", gc::FinalizeStrategy::kReRegister},
  };
  std::printf("%-28s %10s %6s %14s\n", "series", "objects", "refs",
              "unitary (us)");
  for (const Series& s : series) {
    for (const std::int64_t n : {1000, 10000, 100000}) {
      for (const std::int64_t r : {1, 10, 25}) {
        const double us = unitary_cost_us(s.strategy, n, r);
        std::printf("%-28s %10lld %6lld %14.4f\n", s.name,
                    static_cast<long long>(n), static_cast<long long>(r), us);
      }
    }
  }
  return 0;
}
