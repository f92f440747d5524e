// Workload definitions and their generated inputs.
//
// Every run executes the same three leg groups — characterise (error
// engines), image_apps (64-lane app kernels) and design_sweep (DSE,
// synthesis, fault campaigns) — so that every end-to-end metric exists on
// every workload. The workloads differ in datapath width, the input
// property most layers' cost depends on: pack_gp shares one transpose
// for both g/p plane sets up to 32 bits, exact-PMF support, DSE candidate
// counts and netlist sizes all grow with N.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "adders/adder.h"
#include "analysis/design_space.h"
#include "apps/image.h"
#include "apps/stream_engine.h"
#include "core/config.h"
#include "core/watchdog.h"
#include "netlist/netlist.h"
#include "stats/distributions.h"
#include "stats/operand_model.h"

namespace perfbench {

inline constexpr int kThreads = 2;  ///< executor width of the design_sweep legs

/// Kernels the traces are captured from, in trace/model order.
inline const std::vector<std::string> kTraceKernels = {"sobel", "lpf",
                                                       "integral", "sad"};

struct Workload {
  std::string name;
  int width;  ///< trace, image-adder and operand width
  std::vector<gear::core::GeArConfig> mc_configs;
  std::uint64_t mc_trials;  ///< per driver call
  int replay_passes;        ///< trace replays per rep, over every config x trace
  gear::core::GeArConfig stream_cfg;
  gear::core::DegradationPolicy stream_policy;
  std::size_t stream_ops;
  std::size_t stream_slice;  ///< ops per run_with_sums call
  int stream_passes;         ///< passes over the operands per rep
  std::vector<gear::core::GeArConfig> exact_ladder;
  gear::core::GeArConfig image_cfg;
  gear::core::GeArConfig custom_cfg;
  std::string zoo_spec;  ///< zoo family with its own bitsliced kernel
  int frame;             ///< image frames are frame x frame
  int sad_crop;          ///< SAD searches the top-left crop x crop of a frame
  int trace_frame;       ///< frame size the traces are captured on
  int integral_passes;
  int rank_passes;
  gear::analysis::HeteroSpaceSpec hetero;
  std::uint64_t hetero_budget;
  std::uint64_t fault_samples;  ///< per winner netlist
};

/// The named workload, or nullopt for an unknown name.
std::optional<Workload> make_workload(const std::string& name);

struct NamedAdder {
  std::string family;  ///< per-layer metric label
  gear::adders::AdderPtr adder;
};

/// Everything a run derives from (workload, seed) before timing starts.
struct Inputs {
  gear::apps::Image frame;
  gear::apps::Image sad_ref;
  gear::apps::Image sad_cand;
  std::vector<gear::stats::TraceSource> traces;  ///< kTraceKernels order
  std::vector<gear::stats::OperandModel> models;
  std::vector<gear::stats::OperandPair> stream_ops;
  std::unique_ptr<gear::apps::StreamAdderEngine> guarded;
  std::unique_ptr<gear::apps::StreamAdderEngine> unguarded;
  std::vector<NamedAdder> adders;  ///< the image_apps adders
  std::unique_ptr<gear::analysis::HeteroSpace> space;
  std::vector<gear::core::GeArConfig> winners;  ///< Pareto-front picks
  std::vector<gear::netlist::Netlist> winner_netlists;
  double trace_capture_s = 0.0;
  double operand_model_s = 0.0;
};

Inputs make_inputs(const Workload& w, std::uint64_t seed);

/// Ordered (name, value) counts a leg rep produces; they must repeat
/// exactly for a fixed seed.
using Counts = std::vector<std::pair<std::string, std::uint64_t>>;

/// Word-at-a-time multiplicative hash: a compact identity for a leg's
/// outputs, cheap enough to run inside a timed rep.
class Digest {
 public:
  void add(std::uint64_t v) {
    h_ = (h_ ^ v) * 0x9e3779b97f4a7c15ULL;
    h_ ^= h_ >> 29;
  }
  void add(double d);
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace perfbench
