// Correctness checkers of the benchmark. Each one recomputes its verdict
// from the raw outputs (plans, class lists, LP points) and the inputs
// (topology budgets, the Table IV catalog, the request trace) with its own
// arithmetic; none calls the program's own validators (core::check_plan,
// LpModel::max_violation, controller fingerprints). Every checker returns
// an empty string when the output is correct, otherwise a description of
// the first violation. checks_test.cc shows each one rejecting a broken
// output.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "core/placement.h"
#include "ctrl/admission.h"
#include "lp/model.h"
#include "net/routing.h"
#include "net/topology.h"
#include "traffic/flow_classes.h"
#include "traffic/traffic_matrix.h"
#include "vnf/nf_types.h"

namespace e2e {

// Placement checker: for every class and chain stage the fractions over
// the path sum to 1; per (node, NF type) the carried load fits the
// instances' capacity; per node the instances' cores fit the host budget.
std::string check_placement(const apple::net::Topology& topo,
                            std::span<const apple::traffic::TrafficClass> classes,
                            std::span<const apple::vnf::PolicyChain> chains,
                            const apple::core::PlacementPlan& plan,
                            double tolerance = 1e-6);

// Cores per node used by a plan's instances (Table IV R_n).
std::vector<double> cores_per_node(const apple::core::PlacementPlan& plan);

// Policy state keyed by (src, dst, chain): the policied rate of every class.
using PolicyKey = std::tuple<apple::net::NodeId, apple::net::NodeId,
                             apple::traffic::ChainId>;
using PolicyState = std::map<PolicyKey, double>;

PolicyState state_of(std::span<const apple::traffic::TrafficClass> classes);

// The class set a traffic matrix gives under a chain assignment: every
// routable OD pair's demand split over its chains, each share at or above
// the class builders' default rate floor.
PolicyState model_from_matrix(const apple::net::Topology& topo,
                              const apple::net::AllPairsPaths& routing,
                              const apple::traffic::TrafficMatrix& tm,
                              const apple::traffic::ChainAssignment& assignment);

// Last-writer-wins request model: each batch is coalesced per key (the
// last request wins), then applied — add creates or re-rates, modify
// re-rates an existing key, remove deletes.
PolicyState apply_requests(
    PolicyState state,
    std::span<const std::vector<apple::ctrl::PolicyRequest>> batches);

// Compares two policy states key by key, rates to a relative tolerance.
std::string compare_states(const PolicyState& want, const PolicyState& got);

// LP row feasibility: every row of `model` holds at `x` within `tolerance`
// (scaled by the row's magnitude), and x >= 0.
std::string check_lp_rows(const apple::lp::LpModel& model,
                          std::span<const double> x, double tolerance = 1e-6);

}  // namespace e2e
