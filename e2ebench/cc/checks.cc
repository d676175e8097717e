#include "cc/checks.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <sstream>

namespace e2e {

using namespace apple;

std::vector<double> cores_per_node(const core::PlacementPlan& plan) {
  std::vector<double> cores(plan.instance_count.size(), 0.0);
  for (std::size_t v = 0; v < cores.size(); ++v) {
    for (std::size_t t = 0; t < vnf::kNumNfTypes; ++t) {
      cores[v] += plan.instance_count[v][t] *
                  vnf::nf_catalog()[t].cores_required;
    }
  }
  return cores;
}

std::string check_placement(const net::Topology& topo,
                            std::span<const traffic::TrafficClass> classes,
                            std::span<const vnf::PolicyChain> chains,
                            const core::PlacementPlan& plan,
                            double tolerance) {
  std::ostringstream err;
  const std::size_t n = topo.num_nodes();
  if (plan.instance_count.size() != n) {
    err << "plan covers " << plan.instance_count.size() << " nodes, topology "
        << n;
    return err.str();
  }
  if (plan.distribution.size() != classes.size()) {
    err << "plan distributes " << plan.distribution.size() << " classes, input "
        << classes.size();
    return err.str();
  }
  std::vector<std::array<double, vnf::kNumNfTypes>> load(
      n, std::array<double, vnf::kNumNfTypes>{});
  for (std::size_t h = 0; h < classes.size(); ++h) {
    const traffic::TrafficClass& cls = classes[h];
    const vnf::PolicyChain& chain = chains[cls.chain_id];
    const auto& frac = plan.distribution[h].fraction;
    if (frac.size() != cls.path.size()) {
      err << "class " << h << ": fractions over " << frac.size()
          << " path positions, path has " << cls.path.size();
      return err.str();
    }
    for (std::size_t j = 0; j < chain.size(); ++j) {
      double sum = 0.0;
      for (std::size_t i = 0; i < frac.size(); ++i) {
        if (frac[i].size() != chain.size()) {
          err << "class " << h << ": " << frac[i].size()
              << " stages at position " << i << ", chain has " << chain.size();
          return err.str();
        }
        const double f = frac[i][j];
        if (f < -tolerance) {
          err << "class " << h << " stage " << j << ": negative fraction " << f;
          return err.str();
        }
        sum += f;
        load[cls.path[i]][static_cast<std::size_t>(chain[j])] +=
            f * cls.rate_mbps;
      }
      if (std::abs(sum - 1.0) > tolerance) {
        err << "class " << h << " stage " << j << ": fractions sum to " << sum;
        return err.str();
      }
    }
  }
  const std::vector<double> cores = cores_per_node(plan);
  for (std::size_t v = 0; v < n; ++v) {
    for (std::size_t t = 0; t < vnf::kNumNfTypes; ++t) {
      const double cap = plan.instance_count[v][t] *
                         vnf::nf_catalog()[t].capacity_mbps;
      if (load[v][t] > cap * (1.0 + tolerance) + tolerance) {
        err << "node " << v << " type " << t << ": load " << load[v][t]
            << " Mbps over capacity " << cap;
        return err.str();
      }
    }
    const double budget = topo.node(static_cast<net::NodeId>(v)).host_cores;
    if (cores[v] > budget + tolerance) {
      err << "node " << v << ": " << cores[v] << " cores over budget "
          << budget;
      return err.str();
    }
  }
  return {};
}

PolicyState state_of(std::span<const traffic::TrafficClass> classes) {
  PolicyState state;
  for (const traffic::TrafficClass& cls : classes) {
    state[{cls.src, cls.dst, cls.chain_id}] = cls.rate_mbps;
  }
  return state;
}

PolicyState model_from_matrix(const net::Topology& topo,
                              const net::AllPairsPaths& routing,
                              const traffic::TrafficMatrix& tm,
                              const traffic::ChainAssignment& assignment) {
  // build_classes' and StoreBuildOptions' default min_class_rate_mbps.
  constexpr double kMinRate = 1e-6;
  PolicyState state;
  const auto n = static_cast<net::NodeId>(topo.num_nodes());
  for (net::NodeId s = 0; s < n; ++s) {
    for (net::NodeId d = 0; d < n; ++d) {
      const double demand = s == d ? 0.0 : tm.at(s, d);
      if (demand < kMinRate || !routing.path(s, d)) continue;
      for (const auto& [chain, share] : assignment(s, d)) {
        if (demand * share >= kMinRate) state[{s, d, chain}] = demand * share;
      }
    }
  }
  return state;
}

PolicyState apply_requests(
    PolicyState state,
    std::span<const std::vector<ctrl::PolicyRequest>> batches) {
  using Kind = ctrl::PolicyRequest::Kind;
  for (const std::vector<ctrl::PolicyRequest>& batch : batches) {
    std::map<PolicyKey, ctrl::PolicyRequest> last;
    for (const ctrl::PolicyRequest& r : batch) {
      last[{r.src, r.dst, r.chain_id}] = r;
    }
    for (const auto& [key, r] : last) {
      const auto it = state.find(key);
      if (r.kind == Kind::kRemove) {
        if (it != state.end()) state.erase(it);
      } else if (it != state.end()) {
        it->second = r.rate_mbps;
      } else if (r.kind == Kind::kAdd) {
        state.emplace(key, r.rate_mbps);
      }
    }
  }
  return state;
}

std::string compare_states(const PolicyState& want, const PolicyState& got) {
  std::ostringstream err;
  if (want.size() != got.size()) {
    err << "model holds " << want.size() << " policies, program "
        << got.size();
    return err.str();
  }
  auto g = got.begin();
  for (const auto& [key, rate] : want) {
    const auto& [src, dst, chain] = key;
    if (g->first != key) {
      err << "model policy (" << src << "," << dst << "," << chain
          << ") missing from the program";
      return err.str();
    }
    if (std::abs(g->second - rate) > 1e-9 * std::max(1.0, std::abs(rate))) {
      err << "policy (" << src << "," << dst << "," << chain << "): model rate "
          << rate << ", program " << g->second;
      return err.str();
    }
    ++g;
  }
  return {};
}

std::string check_lp_rows(const lp::LpModel& model, std::span<const double> x,
                          double tolerance) {
  std::ostringstream err;
  if (x.size() != model.num_vars()) {
    err << "point has " << x.size() << " entries, model " << model.num_vars()
        << " variables";
    return err.str();
  }
  for (std::size_t v = 0; v < x.size(); ++v) {
    if (!(x[v] >= -tolerance)) {
      err << "variable " << v << " = " << x[v] << " below 0";
      return err.str();
    }
  }
  const auto rows = model.rows();
  for (std::size_t r = 0; r < rows.size(); ++r) {
    double lhs = 0.0;
    double scale = std::max(1.0, std::abs(rows[r].rhs));
    for (const auto& [var, coef] : rows[r].terms) {
      lhs += coef * x[static_cast<std::size_t>(var)];
      scale = std::max(scale, std::abs(coef * x[static_cast<std::size_t>(var)]));
    }
    const double slack = tolerance * scale;
    const double rhs = rows[r].rhs;
    bool ok = true;
    switch (rows[r].sense) {
      case lp::Sense::kLessEqual: ok = lhs <= rhs + slack; break;
      case lp::Sense::kGreaterEqual: ok = lhs >= rhs - slack; break;
      case lp::Sense::kEqual: ok = std::abs(lhs - rhs) <= slack; break;
    }
    if (!ok) {
      err << "row " << r << ": lhs " << lhs << " violates rhs " << rhs;
      return err.str();
    }
  }
  return {};
}

}  // namespace e2e
