// Execution timeline renderer over recorded spans.
//
// Reads the per-core spans the executors emit into the SpanRecorder —
// workload chunks, kernel/hypervisor overhead charges, TLB-refill
// transients — and renders them as an ASCII Gantt strip, the quickest way
// to *see* Fig. 5 vs Fig. 6 style noise. Enable Category::kWorkload,
// kSched and kMmu on the recorder to capture all three span types.
#pragma once

#include <string>
#include <vector>

#include "obs/events.h"
#include "sim/time.h"

namespace hpcsec::obs {

/// Total time of `type` spans on one core (or all cores with core == -1),
/// clamped to the window [from, to). Instants contribute nothing.
[[nodiscard]] sim::Cycles span_cycles(const std::vector<Event>& events,
                                      EventType type, int core = -1,
                                      sim::SimTime from = 0,
                                      sim::SimTime to = sim::kTimeNever);

/// Render [from, to) as one text row per core, `cols` characters wide.
/// Each cell shows the span type that dominates its time bucket:
/// '#' kWorkChunk, 'o' kOverhead, 't' kTlbRefill, '.' idle. Instants and
/// every other event type are ignored.
[[nodiscard]] std::string render_timeline(const std::vector<Event>& events,
                                          sim::SimTime from, sim::SimTime to,
                                          int ncores, int cols = 100);

}  // namespace hpcsec::obs
