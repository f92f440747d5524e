// Per-layer probes for the traced run: each replays the workload's own
// operands, blocks or configs through one public call of one module and
// reports its cost per unit of work (median over a few reps).
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "legs.h"

namespace perfbench {

using Probes = std::vector<std::pair<std::string, double>>;

Probes run_probes(const LegContext& c);

}  // namespace perfbench
