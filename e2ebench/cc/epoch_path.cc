// Epoch path: AS-3679 with every OD pair fanned out over `chains_per_pair`
// chains of a 32-chain catalog (18 per pair gives ~111k classes) in a
// 64-shard ClassStore. A repetition runs one full epoch from the base
// matrix, then one incremental advance per drift step. Each drift step
// re-rates kDriftRows seeded source rows of the previous matrix, so only a
// few percent of the classes move, about half of them past the pipeline's
// 5 % re-solve threshold (by 10-30 %, up or down, as between two
// 15-minute snapshots).
#include <cmath>
#include <optional>

#include "cc/checks.h"
#include "cc/paths.h"
#include "core/epoch_pipeline.h"
#include "core/rule_generator.h"
#include "core/subclass_assigner.h"
#include "dataplane/data_plane.h"
#include "net/routing.h"
#include "net/topologies.h"
#include "traffic/class_store.h"
#include "traffic/synthesis.h"

namespace e2e {
namespace {

using namespace apple;

constexpr std::size_t kShards = 64;
constexpr std::size_t kCatalogChains = 32;
constexpr double kTotalMbps = 20000.0;
constexpr std::size_t kDriftRows = 3;
// The base matrix is the fixed scenario; --seed drives the drift series.
constexpr std::uint64_t kMatrixSeed = 1;

// Deterministic outcome of one repetition, compared across repetitions.
struct Outcome {
  std::size_t classes = 0;
  std::vector<std::size_t> dirty;        // per step
  std::vector<std::size_t> reinstalled;  // per step
  std::vector<std::size_t> shards_dirty; // per step
  std::size_t full_recomputes = 0;       // advances that fell back
  std::uint64_t rules_installed = 0;     // full install + every advance
  double cores = 0.0;                    // final placement
  std::size_t tcam = 0;                  // final epoch, with tagging
  std::size_t paths = 0;

  bool operator==(const Outcome&) const = default;
};

class EpochPath final : public Path {
 public:
  EpochPath(const EpochSize& size, std::uint64_t seed, exec::ThreadPool* pool)
      : size_(size),
        topo_(net::make_as3679()),
        routing_(topo_),
        chains_(vnf::scaled_policy_chains(kCatalogChains)),
        assignment_(traffic::scaled_chain_assignment(
            kCatalogChains, size.chains_per_pair, /*seed=*/0,
            /*policied_fraction=*/1.0)),
        step_fastest_(size.drift_steps),
        diff_fastest_(size.drift_steps),
        apply_delta_fastest_(size.drift_steps) {
    store_options_.num_shards = kShards;
    store_options_.pool = pool;
    matrices_.push_back(traffic::make_gravity_matrix(
        topo_.num_nodes(), {.total_mbps = kTotalMbps, .seed = kMatrixSeed}));
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0xe0);
    const std::size_t n = topo_.num_nodes();
    for (std::size_t k = 0; k < size.drift_steps; ++k) {
      traffic::TrafficMatrix m = matrices_.back();
      for (std::size_t r = 0; r < kDriftRows; ++r) {
        const std::size_t s = rng.below(n);
        for (std::size_t d = 0; d < n; ++d) {
          if (d == s) continue;
          // Half the entries move by under 3 % (pinned), half by 10-30 %
          // (re-solved); nothing lands near the 5 % threshold.
          double f = rng.unit() < 0.5 ? 1.0 + 0.03 * rng.unit()
                                      : 1.1 + 0.2 * rng.unit();
          if (rng.unit() < 0.5) f = 1.0 / f;
          m.set(s, d, m.at(s, d) * f);
        }
      }
      matrices_.push_back(std::move(m));
    }
    // The serving state the set-up ends with: the base matrix's epoch. The
    // first round starts from it instead of timing a cold epoch.
    ready_ = pipeline_.run(topo_, chains_, build(0));
  }

  void round(bool traced) override;
  void finish(bool traced, Report& report, Outcomes& outcomes) override;
  std::size_t rounds() const override { return rounds_; }

 private:
  traffic::ClassStore build(std::size_t k) const {
    return traffic::build_class_store(topo_, routing_, matrices_[k],
                                      assignment_, store_options_);
  }
  // The class set matrix k must produce, from the matrix and the chain mix.
  PolicyState model_of(std::size_t k) const {
    return model_from_matrix(topo_, routing_, matrices_[k], assignment_);
  }
  std::size_t model_dirty(std::size_t k) const;
  void check_epoch(const core::Epoch& epoch, std::size_t k,
                   const char* what);
  void trace_full_epoch();

  EpochSize size_;
  net::Topology topo_;
  net::AllPairsPaths routing_;
  std::vector<vnf::PolicyChain> chains_;
  traffic::ChainAssignment assignment_;
  traffic::StoreBuildOptions store_options_;
  core::EpochPipeline pipeline_;
  std::vector<traffic::TrafficMatrix> matrices_;

  std::optional<core::Epoch> ready_;  // set-up epoch
  std::size_t rounds_ = 0;
  std::size_t failed_ = 0;  // epochs and advances that failed a check
  std::optional<Outcome> outcome_;
  std::vector<std::string> errors_;

  Fastest epoch_fastest_;
  Fastest step_fastest_;
  Fastest build_fastest_;
  Fastest materialize_fastest_;
  Fastest place_fastest_;
  Fastest subclasses_fastest_;
  Fastest rules_fastest_;
  Fastest diff_fastest_;
  Fastest apply_delta_fastest_;
};

std::size_t EpochPath::model_dirty(std::size_t k) const {
  const PolicyState prev = model_of(k - 1);
  const PolicyState next = model_of(k);
  const double threshold = pipeline_.options().delta.rate_change_threshold;
  std::size_t dirty = 0;
  for (const auto& [key, rate] : next) {
    const auto it = prev.find(key);
    if (it == prev.end() ||
        std::abs(rate - it->second) / std::abs(it->second) > threshold) {
      ++dirty;
    }
  }
  return dirty;
}

void EpochPath::check_epoch(const core::Epoch& epoch, std::size_t k,
                            const char* what) {
  const PolicyState model = model_of(k);
  double model_total = 0.0;
  for (const auto& [key, rate] : model) model_total += rate;
  double total = 0.0;
  for (const traffic::TrafficClass& cls : epoch.classes) total += cls.rate_mbps;
  if (epoch.classes.size() != model.size() ||
      std::abs(total - model_total) > 1e-9 * model_total) {
    errors_.push_back(std::string("epoch: ") + what + " holds " +
                      std::to_string(epoch.classes.size()) + " classes / " +
                      std::to_string(total) + " Mbps, the matrix gives " +
                      std::to_string(model.size()) + " / " +
                      std::to_string(model_total));
  }
  if (const std::string err = compare_states(model, state_of(epoch.classes));
      !err.empty()) {
    errors_.push_back(std::string("epoch: ") + what + " content: " + err);
  }
  if (const std::string err =
          check_placement(topo_, epoch.classes, chains_, epoch.plan);
      !err.empty()) {
    errors_.push_back(std::string("epoch: ") + what + " placement: " + err);
  }
}

void EpochPath::trace_full_epoch() {
  auto t = Clock::now();
  const traffic::ClassStore store = build(0);
  build_fastest_.record(seconds_since(t));
  t = Clock::now();
  const std::vector<traffic::TrafficClass> view = store.materialize_view();
  materialize_fastest_.record(seconds_since(t));
  const core::PlacementInput input{&topo_, view, chains_};
  t = Clock::now();
  const core::PlacementPlan plan =
      core::OptimizationEngine(pipeline_.options().engine).place(input);
  place_fastest_.record(seconds_since(t));
  const core::InstanceInventory inventory =
      core::materialize_inventory(input, plan);
  t = Clock::now();
  const auto subclasses = core::assign_subclasses(
      input, plan, inventory, pipeline_.options().assigner);
  subclasses_fastest_.record(seconds_since(t));
  t = Clock::now();
  core::RuleGenerator().account(input, subclasses);
  rules_fastest_.record(seconds_since(t));
}

void EpochPath::round(bool traced) {
  const bool check = rounds_ == 0;
  Outcome out;
  auto t0 = Clock::now();
  core::Epoch epoch;
  if (ready_) {
    epoch = std::move(*ready_);
    ready_.reset();
  } else {
    epoch = pipeline_.run(topo_, chains_, build(0));
    epoch_fastest_.record(seconds_since(t0));
  }
  out.classes = epoch.classes.size();
  out.paths = epoch.store.paths().size();
  out.rules_installed = epoch.rules.tcam_with_tagging + epoch.rules.vswitch_rules;
  if (check) {
    const std::size_t errors = errors_.size();
    check_epoch(epoch, 0, "full epoch");
    failed_ += errors_.size() > errors ? 1 : 0;
  }

  // Traced rounds keep a data plane holding the current epoch's rules so
  // apply_rule_delta can be timed against it.
  std::optional<dataplane::DataPlane> dp;
  if (traced) {
    trace_full_epoch();
    dp.emplace(topo_);
    core::RuleGenerator().install({&topo_, epoch.classes, chains_},
                                  epoch.subclasses, epoch.inventory, *dp);
  }
  for (std::size_t k = 1; k <= size_.drift_steps; ++k) {
    const std::size_t step = k - 1;
    if (traced) {
      const traffic::ClassStore next = build(k);
      const auto t = Clock::now();
      core::diff_classes(epoch.store, next, pipeline_.options().delta);
      diff_fastest_.record(step, seconds_since(t));
    }
    t0 = Clock::now();
    core::IncrementalEpoch adv =
        pipeline_.advance(epoch, topo_, chains_, build(k));
    step_fastest_.record(step, seconds_since(t0));
    if (traced) {
      const auto t = Clock::now();
      core::apply_rule_delta({&topo_, adv.epoch.classes, chains_},
                             adv.epoch.subclasses, adv.plan_delta,
                             adv.rule_delta, *dp);
      apply_delta_fastest_.record(step, seconds_since(t));
    }
    out.dirty.push_back(adv.class_delta.dirty_count());
    out.reinstalled.push_back(adv.rule_delta.reinstall.size());
    out.shards_dirty.push_back(adv.class_delta.shards_dirty);
    out.rules_installed += adv.rule_delta.rules_installed;
    out.full_recomputes += adv.full_recompute ? 1 : 0;
    if (check) {
      const std::size_t errors = errors_.size();
      if (const std::size_t want = model_dirty(k);
          adv.class_delta.dirty_count() != want) {
        errors_.push_back("epoch: drift step " + std::to_string(k) + " dirtied " +
                          std::to_string(adv.class_delta.dirty_count()) +
                          " classes, the matrices give " +
                          std::to_string(want));
      }
      check_epoch(adv.epoch, k, "advanced epoch");
      failed_ += errors_.size() > errors ? 1 : 0;
    }
    epoch = std::move(adv.epoch);
  }
  for (const double c : cores_per_node(epoch.plan)) out.cores += c;
  out.tcam = epoch.rules.tcam_with_tagging;
  if (!outcome_) {
    outcome_ = out;
  } else if (!(out == *outcome_)) {
    failed_ += 1 + size_.drift_steps;
    errors_.push_back("epoch: repetition " + std::to_string(rounds_) +
                      " produced different outcomes than the first");
  }
  ++rounds_;
}

void EpochPath::finish(bool traced, Report& report, Outcomes& outcomes) {
  for (const std::string& e : errors_) report.fail(e);
  report.attempted += rounds_ * (1 + size_.drift_steps);
  report.failed += failed_;
  outcomes.cores_used += outcome_->cores;
  outcomes.tcam_entries += static_cast<double>(outcome_->tcam);
  outcomes.rules_installed += static_cast<double>(outcome_->rules_installed);

  std::vector<double> step_ms;
  for (const double s : step_fastest_.all()) step_ms.push_back(s * 1e3);
  report.e2e("epoch_s", epoch_fastest_.best(), "s");
  report.e2e("advance_ms_p50", quantile(step_ms, 0.5), "ms");

  if (!traced) return;
  const auto median_ms = [](const Fastest& f) {
    std::vector<double> v;
    for (const double s : f.all()) v.push_back(s * 1e3);
    return quantile(v, 0.5);
  };
  const auto sum = [](const std::vector<std::size_t>& v) {
    double total = 0.0;
    for (const std::size_t x : v) total += static_cast<double>(x);
    return total;
  };
  report.layer("traffic.build_store_ms", build_fastest_.best() * 1e3, "ms");
  report.layer("traffic.materialize_ms", materialize_fastest_.best() * 1e3,
               "ms");
  report.layer("core.place_ms", place_fastest_.best() * 1e3, "ms");
  report.layer("core.subclasses_ms", subclasses_fastest_.best() * 1e3, "ms");
  report.layer("core.rules_ms", rules_fastest_.best() * 1e3, "ms");
  report.layer("core.diff_classes_ms", median_ms(diff_fastest_), "ms");
  report.layer("dataplane.apply_rule_delta_ms",
               median_ms(apply_delta_fastest_), "ms");
  report.layer("core.classes", static_cast<double>(outcome_->classes),
               "count");
  report.layer("core.classes_dirty", sum(outcome_->dirty), "count");
  report.layer("core.classes_reinstalled", sum(outcome_->reinstalled),
               "count");
  report.layer("traffic.shards_dirty", sum(outcome_->shards_dirty), "count");
  report.layer("core.full_recomputes",
               static_cast<double>(outcome_->full_recomputes), "count");
  report.layer("traffic.paths_interned", static_cast<double>(outcome_->paths),
               "count");
}

}  // namespace

std::unique_ptr<Path> make_epoch_path(const EpochSize& size,
                                      std::uint64_t seed,
                                      exec::ThreadPool* pool) {
  return std::make_unique<EpochPath>(size, seed, pool);
}

}  // namespace e2e
