// The event timeline, a view over a flight recording (docs/OBSERVABILITY.md
// "Event model", "CDM lineage", "Exporters").
//
// The recorder's typed event stream is the one source of truth; this view
// renders it as a timeline whose events chain into causal lineage, the
// detection-as-message-tree picture of §3.3.  Lineage is derived from
// transport facts alone (cf. Plyukhin & Agha's decentralized termination
// detection, PAPERS.md):
//   - a delivery's (or drop's, or duplicate's) parent is the send with the
//     same (src, dst, link seq);
//   - a CDM or Cut send's parent is the latest detection start, CDM
//     delivery or verdict at the sending process with the same detection
//     id — the event whose handler sent it (obs::Ledger parents its
//     critical-path hops by the same rule over the same events;
//     tests/ledger_test.cpp pins the agreement);
//   - a verdict's parent is the latest detection start or CDM delivery of
//     its detection at the proving process.
// Edges whose parent the ring overwrote are omitted.  Because the view takes
// a decoded RecordedRun, a live run (decode(encode())) and a post-mortem
// `.rgcrec` render identically.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/recorder.h"

namespace rgc::obs {

/// One timeline event: a recorded event, or a derived counter sample.
struct ViewEvent {
  /// Static-storage, dot-scoped name ("cdm.send"); the segment before the
  /// first dot is the category exporters group by.
  const char* name{""};
  std::uint64_t step{0};
  /// Raw process id; raw(kNoProcess) for cluster-global events.
  std::uint32_t proc{0};
  /// RecEvent::seq + 1; 0 for counter samples.
  std::uint64_t id{0};
  /// The causal parent's id; 0 for roots and unresolvable edges.
  std::uint64_t parent{0};
  /// The recorded event (points into the RecordedRun); null for counter
  /// samples.
  const RecEvent* source{nullptr};
  /// Counter samples only: the net.queue_depth value after `step`.
  std::uint64_t value{0};
};

/// The timeline of `run` in causal (seq) order, lineage resolved.  A
/// net.queue_depth counter sample follows the events of every step that
/// moved messages; it counts from the retained transport events, so a
/// recording whose rings overwrote traffic reads low.
[[nodiscard]] std::vector<ViewEvent> timeline_events(
    const RecordedRun& run);

/// One-line rendering of `event` for divergence reports ("seq=91 step=40 P3
/// deliver {"kind":"CDM","peer":1,"link":17,"detection":5}"); `kinds` is
/// the recording's intern table.
[[nodiscard]] std::string describe(const RecEvent& event,
                                   const std::vector<std::string>& kinds);

/// One JSON object per line with keys type/name/step/proc/id/parent (proc,
/// id and parent omitted when absent), args for instants and value for
/// counters.
void write_timeline_jsonl(const RecordedRun& run, std::ostream& os);

/// Chrome trace_event JSON ({"traceEvents":[...]}): instants as thin "X"
/// slices on sim time (1 step = 1000 ticks) so lineage flow arrows ("s"/"f")
/// can bind to them, counters as "C" events, plus process_name metadata.
/// Loadable in chrome://tracing and https://ui.perfetto.dev.
void write_timeline_chrome(const RecordedRun& run, std::ostream& os);

}  // namespace rgc::obs
