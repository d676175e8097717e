// Negative controls for the benchmark's checkers: each checker accepts a
// correct output and rejects a deliberately broken one. Exits 1 when any
// checker fails to tell them apart.
#include <cstdio>
#include <string>
#include <vector>

#include "cc/checks.h"
#include "net/topologies.h"

namespace {

using namespace apple;

int failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

// Line 0-1-2 with 8-core hosts; one 600 Mbps class 0 -> 2 through a
// firewall (4 cores, 900 Mbps per instance, Table IV), processed at node 0.
struct PlacementFixture {
  net::Topology topo = net::make_line(3, 8.0);
  std::vector<traffic::TrafficClass> classes;
  std::vector<vnf::PolicyChain> chains{{vnf::NfType::kFirewall}};
  core::PlacementPlan plan;

  PlacementFixture() {
    traffic::TrafficClass cls;
    cls.src = 0;
    cls.dst = 2;
    cls.path = {0, 1, 2};
    cls.chain_id = 0;
    cls.rate_mbps = 600.0;
    classes.push_back(cls);
    plan.instance_count.assign(3, {});
    plan.instance_count[0][0] = 1;
    plan.distribution.resize(1);
    plan.distribution[0].fraction = {{1.0}, {0.0}, {0.0}};
    plan.feasible = true;
  }
  std::string check() const {
    return e2e::check_placement(topo, classes, chains, plan);
  }
};

void placement_checker() {
  PlacementFixture good;
  expect(good.check().empty(), "placement: a correct plan passes");

  PlacementFixture oversubscribed;  // 3 firewalls = 12 cores on an 8-core host
  oversubscribed.plan.instance_count[0][0] = 3;
  expect(!oversubscribed.check().empty(),
         "placement: an oversubscribed node is rejected");

  PlacementFixture short_fraction;  // fractions sum to 0.9
  short_fraction.plan.distribution[0].fraction = {{0.5}, {0.4}, {0.0}};
  short_fraction.plan.instance_count[1][0] = 1;
  expect(!short_fraction.check().empty(),
         "placement: fractions summing to 0.9 are rejected");

  PlacementFixture overloaded;  // 600 Mbps moved onto a node with no instance
  overloaded.plan.distribution[0].fraction = {{0.0}, {1.0}, {0.0}};
  expect(!overloaded.check().empty(),
         "placement: load beyond instance capacity is rejected");
}

void request_model() {
  using Kind = ctrl::PolicyRequest::Kind;
  const auto req = [](Kind kind, net::NodeId s, net::NodeId d, double rate) {
    ctrl::PolicyRequest r;
    r.kind = kind;
    r.src = s;
    r.dst = d;
    r.chain_id = 0;
    r.rate_mbps = rate;
    return r;
  };
  const e2e::PolicyState initial{
      {{0, 1, 0}, 10.0}, {{5, 6, 0}, 20.0}, {{7, 8, 0}, 5.0}};
  const std::vector<std::vector<ctrl::PolicyRequest>> trace{
      {req(Kind::kAdd, 1, 2, 50.0), req(Kind::kModify, 5, 6, 25.0),
       req(Kind::kAdd, 2, 3, 60.0), req(Kind::kAdd, 2, 3, 65.0)},
      {req(Kind::kRemove, 7, 8, 0.0), req(Kind::kModify, 4, 5, 80.0)}};
  const e2e::PolicyState want{{{0, 1, 0}, 10.0},
                              {{1, 2, 0}, 50.0},
                              {{2, 3, 0}, 65.0},
                              {{5, 6, 0}, 25.0}};
  const e2e::PolicyState full = e2e::apply_requests(initial, trace);
  expect(e2e::compare_states(want, full).empty(),
         "requests: last writer wins; modify of an unknown key is a no-op");
  // Inside one batch only the last request per key survives coalescing, so
  // an add followed by a modify of a new key reaches the pipeline as a
  // modify of an unknown key.
  expect(e2e::apply_requests({}, std::vector<std::vector<ctrl::PolicyRequest>>{
                                     {req(Kind::kAdd, 1, 2, 50.0),
                                      req(Kind::kModify, 1, 2, 55.0)}})
             .empty(),
         "requests: add then modify in one batch coalesces to the modify");

  for (std::size_t b = 0; b < trace.size(); ++b) {
    for (std::size_t i = 0; i < trace[b].size(); ++i) {
      // A request a later one in its batch overrides, and the no-op modify
      // of (4, 5), leave no trace by design.
      if ((b == 0 && i == 2) || (b == 1 && i == 1)) continue;
      auto dropped = trace;
      dropped[b].erase(dropped[b].begin() + static_cast<long>(i));
      expect(!e2e::compare_states(full, e2e::apply_requests(initial, dropped))
                  .empty(),
             ("requests: dropping request " + std::to_string(b) + "." +
              std::to_string(i) + " is caught")
                 .c_str());
    }
  }
}

void lp_rows() {
  lp::LpModel model;
  const lp::VarId x = model.add_var(1.0);
  const lp::VarId y = model.add_var(1.0);
  model.add_row(lp::Sense::kLessEqual, 4.0, {{x, 1.0}, {y, 1.0}});
  model.add_row(lp::Sense::kEqual, 1.0, {{x, 1.0}, {y, -1.0}});
  model.add_row(lp::Sense::kGreaterEqual, 2.0, {{x, 1.0}});
  const std::vector<double> point{2.5, 1.5};
  expect(e2e::check_lp_rows(model, point).empty(), "lp: a feasible point passes");
  expect(!e2e::check_lp_rows(model, std::vector<double>{2.5, 1.5 + 1e-3})
              .empty(),
         "lp: an equality row perturbed by 1e-3 is rejected");
  expect(!e2e::check_lp_rows(model, std::vector<double>{3.0, 2.0}).empty(),
         "lp: a violated <= row is rejected");
  expect(!e2e::check_lp_rows(model, std::vector<double>{1.5, 0.5}).empty(),
         "lp: a violated >= row is rejected");
  expect(!e2e::check_lp_rows(model, std::vector<double>{-0.5, -1.5}).empty(),
         "lp: a negative variable is rejected");
}

}  // namespace

int main() {
  placement_checker();
  request_model();
  lp_rows();
  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}
