// Runs one repetition in a child process.  Each repetition then starts from
// a fresh heap, nothing one input set allocated inflates the next one's
// figures, and the child's own peak RSS is that repetition's peak_rss_mb.
#pragma once

#include <string>

#include "workloads.h"

namespace perfbench {

/// Forks, runs run_rep in the child (traced when `traced`; the child then
/// writes its spans to `trace_out` if that is non-empty), and waits for it.
/// A child that dies or reports nothing yields a repetition with one failed
/// check.
RepResult run_isolated(const WorkloadSpec& spec, const Inputs& inputs,
                       bool traced, bool with_bulk, const std::string& trace_out);

}  // namespace perfbench
