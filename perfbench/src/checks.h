// Correctness referees, run once per run outside the timed region. Each
// compares a production path against its reference on the workload's own
// inputs; a mismatch is a failed check.
#pragma once

#include <string>
#include <vector>

#include "legs.h"

namespace perfbench {

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;  ///< empty when ok
};

std::vector<Check> run_referees(const LegContext& c);

}  // namespace perfbench
