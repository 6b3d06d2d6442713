#pragma once

#include <string>

#include "bench.h"

/// \file workloads.h
/// The two workloads. Each builds its inputs from the seed before timing,
/// then either measures the end-to-end metrics (untraced) or, with
/// `options.trace`, the per-layer metrics, writing its spans to
/// `trace_path`. README.md gives the reason for each workload.

namespace perfbench {

/// One closed-loop client: DartPipeline::Submit on 50-year budgets.
WorkloadResult RunLargeDoc(const RunOptions& options,
                           const std::string& trace_path);

/// 2×W closed-loop request slots against a RepairServer with W workers and
/// four tenants, over a mix of HTML, positional, batch and supervised
/// requests.
WorkloadResult RunServeMixed(const RunOptions& options,
                             const std::string& trace_path);

}  // namespace perfbench
