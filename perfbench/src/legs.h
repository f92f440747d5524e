// The timed legs: one closed-loop caller making public library calls,
// each call returning before the next starts. A rep is one fixed unit of
// a leg's work; the runner interleaves reps of every leg round-robin so a
// noisy stretch of host time spreads over all legs instead of one.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "spans.h"
#include "stats/parallel.h"
#include "workload.h"

namespace perfbench {

struct LegContext {
  const Workload& w;
  const Inputs& in;
  gear::stats::ParallelExecutor& exec;
  std::uint64_t seed;
  Tracer* tracer;  ///< null in the untraced run
};

struct RepResult {
  double work = 0.0;  ///< units of the leg's metric done by this rep
  Counts counts;      ///< must repeat exactly across reps
};

struct Leg {
  std::string name;
  std::string group;  ///< characterise / image_apps / design_sweep
  bool parallel;      ///< calls run on the executor
  std::function<RepResult(const LegContext&)> rep;
};

std::vector<Leg> make_legs();

/// One guarded stream over the workload's operands: a fresh long-lived
/// watchdog fed slice by slice through run_with_sums, as a serving
/// tenant would be. Writes every op's final sum to `sums`.
gear::apps::StreamStats guarded_stream(const LegContext& c,
                                       std::vector<std::uint64_t>& sums);

}  // namespace perfbench
