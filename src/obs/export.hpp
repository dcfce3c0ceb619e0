// Exporters for the `is2::obs` layer: Prometheus text exposition and a JSON
// snapshot for a RegistrySnapshot, Chrome/Perfetto `trace_event` JSON for a
// span dump. All pure functions over snapshot values — no locking, no
// registry access, safe from any thread.
//
// Format notes:
//  * to_prometheus emits `# HELP` / `# TYPE` per metric name, `_total`
//    counters, and for histograms the conventional cumulative
//    `_bucket{le="..."}` series (+Inf included) with `_sum`/`_count`.
//    Bucket bounds are the log-scale bin edges converted back to
//    milliseconds. Output passes tools/check_prometheus.py (CI enforces).
//  * to_json carries the same points as nested objects — a superset of
//    ServiceMetrics, which is read from the same registry.
//  * to_perfetto renders complete spans as "ph":"X" duration events and
//    instants as "ph":"i", ts/dur in microseconds, one fake process with
//    one row per obs thread ordinal (named via thread_labels()). Open
//    chrome://tracing or https://ui.perfetto.dev and load the file.
#pragma once

#include <string>
#include <vector>

#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace is2::obs {

std::string to_prometheus(const RegistrySnapshot& snapshot);

std::string to_json(const RegistrySnapshot& snapshot);

/// `thread_labels` names the per-ordinal rows (pass obs::thread_labels()).
std::string to_perfetto(const std::vector<Span>& spans,
                        const std::vector<std::string>& thread_labels = {});

}  // namespace is2::obs
