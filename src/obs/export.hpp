// Trace exporters: Chrome/Perfetto trace-event JSON and a plain-text
// per-node timeline. Both are cold-path renderers over a Recorder; nothing
// here is ever called during simulation.
#pragma once

#include <iosfwd>
#include <string>

#include "obs/recorder.hpp"

namespace stank::obs {

// Renders the recorder as Chrome trace-event JSON (the "JSON Array Format"
// both chrome://tracing and ui.perfetto.dev load). Mapping:
//  * each node becomes a process (pid = node id) named "n<id>";
//  * kLeasePhase events per node are folded into complete "X" duration
//    slices on a "lease phases" track, one slice per phase residency;
//  * every other typed event is an instant ("i") on an "events" track;
//  * string notes are instants on an "annotations" track;
//  * sampled time series become "C" counter events under a synthetic
//    "metrics" process.
void write_chrome_trace(const Recorder& rec, std::ostream& os);

// Human-readable merged timeline: one line per event in global time order,
// with payload words decoded per kind. node filter: pass a default NodeId{}
// plus filter=false for "all nodes".
void write_timeline(const Recorder& rec, std::ostream& os, bool filter_node = false,
                    NodeId node = NodeId{});

// Pretty-prints one event's payload (e.g. "active -> renewal" for a
// kLeasePhase event). Shared by the timeline and the trace_dump CLI.
[[nodiscard]] std::string detail_string(const Event& e);

}  // namespace stank::obs
