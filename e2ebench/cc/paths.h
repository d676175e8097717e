// The three end-to-end paths the benchmark drives (see README.md):
//
//   PolicyPath — policy requests -> AdmissionQueue -> MultiDomainController
//                two-phase commit -> patched per-domain data planes;
//   EpochPath  — traffic matrix -> ClassStore -> full epoch, then drifted
//                matrices -> incremental advances;
//   LpPath     — class set -> OptimizationEngine::place with kLpRound.
//
// Each path builds its inputs in its constructor (the cold set-up), runs
// one repetition of its timed unit per round(), and in finish() checks the
// outputs and writes its metrics. Wall-clock metrics are the fastest of
// all repetitions; outcome metrics are deterministic and checked to repeat.
#pragma once

#include <cstdint>
#include <memory>

#include "cc/common.h"

namespace apple::exec {
class ThreadPool;
}  // namespace apple::exec

namespace e2e {

// Outcome totals every path adds into (cores of its final placement,
// TCAM entries of its final epoch(s), rule entries installed).
struct Outcomes {
  double cores_used = 0.0;
  double tcam_entries = 0.0;
  double rules_installed = 0.0;
};

struct PolicySize {
  std::size_t requests = 0;  // stream length
};

struct EpochSize {
  std::size_t chains_per_pair = 0;  // fan-out of every OD pair
  std::size_t drift_steps = 0;
};

struct LpSize {
  double policied_fraction = 0.0;
};

class Path {
 public:
  virtual ~Path() = default;
  Path() = default;
  Path(const Path&) = delete;
  Path& operator=(const Path&) = delete;
  Path(Path&&) = delete;
  Path& operator=(Path&&) = delete;

  // One repetition of the timed unit; traced rounds additionally time the
  // calls into each layer (outside the unit's own timing).
  virtual void round(bool traced) = 0;
  // Checks, then metrics. Needs at least one completed round.
  virtual void finish(bool traced, Report& report, Outcomes& outcomes) = 0;
  virtual std::size_t rounds() const = 0;
};

// `domains` is the control plane's K.
std::unique_ptr<Path> make_policy_path(const PolicySize& size,
                                       std::size_t domains,
                                       std::uint64_t seed,
                                       apple::exec::ThreadPool* pool);
std::unique_ptr<Path> make_epoch_path(const EpochSize& size,
                                      std::uint64_t seed,
                                      apple::exec::ThreadPool* pool);
std::unique_ptr<Path> make_lp_path(const LpSize& size);

}  // namespace e2e
