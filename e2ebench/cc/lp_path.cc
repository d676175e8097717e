// LP path: the placement LP relaxation plus rounding
// (OptimizationEngine::place with kLpRound) on AS-3679, with a fixed share
// of policied OD pairs over the default chain catalog.
#include <optional>

#include "cc/checks.h"
#include "cc/paths.h"
#include "core/ilp_builder.h"
#include "core/optimization_engine.h"
#include "lp/basis_lu.h"
#include "lp/revised_simplex.h"
#include "lp/sparse.h"
#include "net/routing.h"
#include "net/topologies.h"
#include "traffic/synthesis.h"

namespace e2e {
namespace {

using namespace apple;

constexpr double kTotalMbps = 6000.0;
// The matrix is the fixed scenario: the LP's pivot path, and so its solve
// time, depends on the instance, and the seed is meant to vary the
// workload, not the problem being timed.
constexpr std::uint64_t kMatrixSeed = 1;

class LpPath final : public Path {
 public:
  explicit LpPath(const LpSize& size)
      : topo_(net::make_as3679()),
        chains_(vnf::default_policy_chains().begin(),
                vnf::default_policy_chains().end()) {
    const net::AllPairsPaths routing(topo_);
    const traffic::TrafficMatrix tm = traffic::make_gravity_matrix(
        topo_.num_nodes(), {.total_mbps = kTotalMbps, .seed = kMatrixSeed});
    classes_ = traffic::build_classes(
        topo_, routing, tm,
        traffic::uniform_chain_assignment(chains_.size(), /*seed=*/0,
                                          size.policied_fraction));
    engine_options_.strategy = core::PlacementStrategy::kLpRound;
    // The serving state the set-up ends with: a first placement, which the
    // first round checks instead of timing a cold solve.
    ready_ = core::OptimizationEngine(engine_options_).place(input());
  }

  void round(bool traced) override;
  void finish(bool traced, Report& report, Outcomes& outcomes) override;
  std::size_t rounds() const override { return rounds_; }

 private:
  core::PlacementInput input() const { return {&topo_, classes_, chains_}; }
  void trace_relaxation();

  net::Topology topo_;
  std::vector<vnf::PolicyChain> chains_;
  std::vector<traffic::TrafficClass> classes_;
  core::EngineOptions engine_options_;

  std::optional<core::PlacementPlan> ready_;  // set-up placement
  std::size_t rounds_ = 0;
  std::size_t failed_ = 0;  // rounds infeasible or failing a check
  std::optional<core::PlacementPlan> plan_;
  std::vector<std::string> errors_;

  // The relaxation point the checks run on (from a traced round, or one
  // untimed solve in finish()).
  std::optional<lp::LpSolution> relaxation_;
  std::optional<lp::LpModel> model_;
  lp::RevisedStats stats_;
  std::size_t lu_fill_nnz_ = 0;

  Fastest solve_fastest_;
  Fastest build_fastest_;
  Fastest relax_fastest_;
  Fastest factorize_fastest_;
  Fastest ftran_fastest_;
  Fastest btran_fastest_;
};

void LpPath::trace_relaxation() {
  auto t = Clock::now();
  const core::IlpBuilder builder(input(), /*integral_q=*/false);
  build_fastest_.record(seconds_since(t));
  lp::RevisedSimplex simplex(builder.model(), engine_options_.simplex);
  t = Clock::now();
  lp::LpSolution solution = simplex.solve({}, {});
  relax_fastest_.record(seconds_since(t));
  stats_ = simplex.stats();
  ftran_fastest_.record(stats_.ftran_seconds);
  btran_fastest_.record(stats_.btran_seconds);
  if (!solution.optimal()) {
    errors_.push_back("lp: the relaxation did not solve to optimality");
    return;
  }
  // One factorization of the optimal basis, timed on its own.
  const lp::SparseLp sparse = lp::SparseLp::build(builder.model());
  lp::BasisLu lu;
  t = Clock::now();
  if (!lu.factorize(sparse.matrix, simplex.basis().basic)) {
    errors_.push_back("lp: the optimal basis factorized as singular");
  }
  factorize_fastest_.record(seconds_since(t));
  lu_fill_nnz_ = lu.fill_nnz();
  if (!relaxation_) {
    relaxation_ = std::move(solution);
    model_ = builder.model();
  }
}

void LpPath::round(bool traced) {
  core::PlacementPlan plan;
  if (ready_) {
    plan = std::move(*ready_);
    ready_.reset();
  } else {
    const auto t0 = Clock::now();
    plan = core::OptimizationEngine(engine_options_).place(input());
    solve_fastest_.record(seconds_since(t0));
  }
  const std::size_t errors = errors_.size();
  if (!plan.feasible) {
    errors_.push_back("lp: placement infeasible: " + plan.infeasibility_reason);
  } else if (!plan_) {
    if (const std::string err = check_placement(topo_, classes_, chains_, plan);
        !err.empty()) {
      errors_.push_back("lp: rounded plan: " + err);
    }
    plan_ = std::move(plan);
  } else if (plan.instance_count != plan_->instance_count) {
    errors_.push_back("lp: repetition " + std::to_string(rounds_) +
                      " placed different instances than the first");
  }
  failed_ += errors_.size() > errors ? 1 : 0;
  if (traced) trace_relaxation();
  ++rounds_;
}

void LpPath::finish(bool traced, Report& report, Outcomes& outcomes) {
  if (!relaxation_ && errors_.empty()) {
    const core::IlpBuilder builder(input(), /*integral_q=*/false);
    lp::LpSolution solution =
        lp::SimplexSolver(engine_options_.simplex).solve(builder.model());
    if (solution.optimal()) {
      relaxation_ = std::move(solution);
      model_ = builder.model();
    } else {
      errors_.push_back("lp: the relaxation did not solve to optimality");
    }
  }
  for (const std::string& e : errors_) report.fail(e);
  report.attempted += rounds_;
  report.failed += failed_;
  if (relaxation_) {
    if (const std::string err = check_lp_rows(*model_, relaxation_->x);
        !err.empty()) {
      report.fail("lp: relaxation point: " + err);
    }
    if (plan_ && relaxation_->objective >
                     static_cast<double>(plan_->total_instances()) + 1e-6) {
      report.fail("lp: relaxation objective " +
                  std::to_string(relaxation_->objective) +
                  " above the rounded plan's " +
                  std::to_string(plan_->total_instances()) + " instances");
    }
  }
  if (plan_) {
    for (const double c : cores_per_node(*plan_)) outcomes.cores_used += c;
  }
  report.e2e("solve_s", solve_fastest_.best(), "s");

  if (!traced || !relaxation_) return;
  report.layer("core.ilp_build_ms", build_fastest_.best() * 1e3, "ms");
  report.layer("lp.relaxation_s", relax_fastest_.best(), "s");
  report.layer("lp.factorize_ms", factorize_fastest_.best() * 1e3, "ms");
  report.layer("lp.ftran_s", ftran_fastest_.best(), "s");
  report.layer("lp.btran_s", btran_fastest_.best(), "s");
  report.layer("lp.iterations", static_cast<double>(stats_.pivots), "count");
  report.layer("lp.refactorizations",
               static_cast<double>(stats_.refactorizations), "count");
  report.layer("lp.lu_fill_nnz", static_cast<double>(lu_fill_nnz_), "count");
  report.layer("lp.rows", static_cast<double>(model_->num_rows()), "count");
  report.layer("lp.cols", static_cast<double>(model_->num_vars()), "count");
  report.layer("lp.relaxation_objective", relaxation_->objective, "instances");
}

}  // namespace

std::unique_ptr<Path> make_lp_path(const LpSize& size) {
  return std::make_unique<LpPath>(size);
}

}  // namespace e2e
