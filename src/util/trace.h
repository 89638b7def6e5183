// Simulation context for log attribution.
//
// The network step loop publishes virtual time and the process whose
// handler is running; RGC_LOG lines stamp both, so interleaved protocol
// output is attributable.  The context is thread-local, which keeps
// parallel test binaries honest.  The event timeline itself is a view over
// the flight recorder (obs/timeline.h), not a second stream.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "util/ids.h"

namespace rgc::util {

/// Escapes `s` for inclusion inside a JSON string literal (no quotes added).
std::string json_escape(std::string_view s);

void set_sim_now(std::uint64_t step) noexcept;
[[nodiscard]] std::uint64_t sim_now() noexcept;
void set_current_process(ProcessId pid) noexcept;
/// kNoProcess when no process context is active.
[[nodiscard]] ProcessId current_process() noexcept;

/// Scoped process-context setter: the cluster step loop brackets every
/// handler invocation with the process it runs on.
class ScopedProcess {
 public:
  explicit ScopedProcess(ProcessId pid) : prev_(current_process()) {
    set_current_process(pid);
  }
  ScopedProcess(const ScopedProcess&) = delete;
  ScopedProcess& operator=(const ScopedProcess&) = delete;
  ~ScopedProcess() { set_current_process(prev_); }

 private:
  ProcessId prev_;
};

}  // namespace rgc::util
