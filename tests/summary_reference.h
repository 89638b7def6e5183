// The original per-seed-trace summarizer, kept as the executable
// specification of gc::summarize (§3.5.1): one full forward trace per scion
// anchor and per replicated object, with the inverse ScionsTo/ReplicasTo
// lists derived by membership tests.  O(seeds × local-graph), so it lives
// in the test tree only; summary_diff_test checks the one-pass summarizer
// against it bit for bit.
#pragma once

#include "gc/cycle/summary.h"
#include "rm/process.h"

namespace rgc::gc {

[[nodiscard]] ProcessSummary summarize_reference(const rm::Process& process);

}  // namespace rgc::gc
