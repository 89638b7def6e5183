// Figure 6 — Total LGC overhead due to enforcement of the Union Rule.
//
// Paper setup (§5.1): N objects, each with R internal references, all
// replicated from another process; the LGC is forced 100 times; every
// object is detected unreachable, finalized, and made reachable again —
// the worst case for the user-level Union-Rule machinery.  Series:
//
//   paper                        | here
//   -----------------------------+------------------------------------
//   Empty Java LGC               | empty_lgc            (kNone)
//   Java Reconstruction          | java_like_reconstruction
//                                |   (run-once finalizers force a new
//                                |    object + a proxy per reference)
//   Empty .Net LGC               | empty_lgc            (same engine)
//   .Net Reconstruction          | dotnet_like_reconstruction
//   .Net ReRegisterFinalize      | dotnet_reregister_finalize
//
// Absolute numbers differ from the paper's (their runtimes were HotSpot
// and the CLR on a 2010 i5); the reproduction targets the *shape*: totals
// growing ~linearly with N and with R, Reconstruction >> ReRegister >>
// Empty, and unitary costs in the microsecond range (Figure 7).
#include <benchmark/benchmark.h>

#include <cstdio>

#include "gc/lgc/lgc.h"
#include "net/network.h"
#include "rm/process.h"

namespace {

using namespace rgc;

constexpr int kRuns = 100;  // the paper's 100 forced collections

/// Builds the worst-case heap: `n` finalizable objects, each with `refs`
/// references (to the next objects, wrapping), nothing rooted.
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

void run_series(benchmark::State& state, gc::FinalizeStrategy strategy) {
  const std::int64_t n = state.range(0);
  const std::int64_t refs = state.range(1);
  for (auto _ : state) {
    state.PauseTiming();
    net::Network net;
    rm::Process proc{ProcessId{0}, net};
    net.attach(ProcessId{0}, [](const net::Envelope&, net::Message&) {});
    build_heap(proc, n, refs);
    gc::Finalizer finalizer{strategy};
    gc::LgcConfig cfg;
    cfg.finalizer = &finalizer;
    state.ResumeTiming();

    for (int run = 0; run < kRuns; ++run) {
      benchmark::DoNotOptimize(gc::Lgc::collect(proc, cfg));
      // "Immediately made reachable to the mutator again": re-arm for the
      // next cycle.  Fresh reconstruction re-arms implicitly (it built a
      // new object); the in-place variant needs the finalization bit back.
      if (strategy == gc::FinalizeStrategy::kReconstructionInPlace) {
        proc.heap().for_each([](ObjectId, std::uint32_t, rm::Object& obj) {
          obj.finalizable = true;
        });
      }
      // The previous cycle's proxies are local garbage by now.
      finalizer.release_arena();
    }
    state.counters["finalized_total"] =
        static_cast<double>(finalizer.finalized_count());
  }
  state.counters["objects"] = static_cast<double>(n);
  state.counters["refs_per_obj"] = static_cast<double>(refs);
}

void args(benchmark::internal::Benchmark* b) {
  for (const std::int64_t n : {1000, 10000, 100000}) {
    for (const std::int64_t r : {1, 10, 25}) b->Args({n, r});
  }
  b->Unit(benchmark::kMillisecond)->Iterations(1);
}

BENCHMARK_CAPTURE(run_series, empty_lgc, gc::FinalizeStrategy::kNone)
    ->Apply(args);
BENCHMARK_CAPTURE(run_series, java_like_reconstruction,
                  gc::FinalizeStrategy::kReconstructionFresh)
    ->Apply(args);
BENCHMARK_CAPTURE(run_series, dotnet_like_reconstruction,
                  gc::FinalizeStrategy::kReconstructionInPlace)
    ->Apply(args);
BENCHMARK_CAPTURE(run_series, dotnet_reregister_finalize,
                  gc::FinalizeStrategy::kReRegister)
    ->Apply(args);

}  // namespace

int main(int argc, char** argv) {
  std::printf(
      "Figure 6 — total LGC overhead of Union-Rule enforcement\n"
      "(total wall time of %d forced collections per configuration)\n\n",
      kRuns);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
