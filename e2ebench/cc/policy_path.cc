// Policy path: a seeded add / modify / remove stream through the admission
// front-end into the K-domain control plane on AS-3679.
//
// The stream is an open loop on the simulated clock (one request every
// kSubmitGap_s); each ready batch is applied back to back on the wall
// clock. Removes and modifies are drawn from policies the benchmark's own
// model holds, adds from keys it does not, and no key repeats inside one
// batch — so every request changes the class set.
#include <cstdio>
#include <map>
#include <optional>
#include <set>
#include <string_view>

#include "cc/checks.h"
#include "cc/paths.h"
#include "ctrl/admission.h"
#include "ctrl/domain_partition.h"
#include "ctrl/multi_domain.h"
#include "net/routing.h"
#include "net/topologies.h"
#include "traffic/synthesis.h"

namespace e2e {
namespace {

using namespace apple;

constexpr std::size_t kChains = 8;           // policy-chain catalog size
constexpr double kHostCores = 128.0;         // per-host core budget
constexpr double kTotalMbps = 8000.0;        // bring-up matrix load
constexpr double kPoliciedFraction = 0.4;    // share of policied OD pairs
constexpr std::uint64_t kPartitionSeed = 17;
constexpr double kSubmitGap_s = 0.01;        // simulated inter-arrival
constexpr double kWindow_s = 0.05;           // admission batching window
constexpr std::size_t kMaxBatch = 64;
// The bring-up matrix is the fixed scenario; --seed drives the stream.
constexpr std::uint64_t kMatrixSeed = 1;

ctrl::AdmissionConfig admission_config() {
  ctrl::AdmissionConfig cfg;
  cfg.batching_window_s = kWindow_s;
  cfg.max_batch = kMaxBatch;
  return cfg;
}

// The request trace with its batch cuts, recorded once by a dry run of the
// admission queue (its batching depends only on the simulated clock).
struct Trace {
  std::vector<ctrl::PolicyRequest> requests;
  std::vector<double> submit_at;
  std::vector<std::size_t> batch_end;  // exclusive request index per batch
  std::vector<double> drain_at;
};

class PolicyPath final : public Path {
 public:
  PolicyPath(const PolicySize& size, std::size_t domains, std::uint64_t seed,
             exec::ThreadPool* pool)
      : size_(size),
        domains_(domains),
        seed_(seed),
        pool_(pool),
        topo_(net::make_as3679(kHostCores)),
        routing_(topo_),
        chains_(vnf::scaled_policy_chains(kChains)) {
    const traffic::TrafficMatrix tm = traffic::make_gravity_matrix(
        topo_.num_nodes(), {.total_mbps = kTotalMbps, .seed = kMatrixSeed});
    const traffic::ChainAssignment assignment =
        traffic::uniform_chain_assignment(kChains, /*seed=*/0,
                                          kPoliciedFraction);
    initial_ = traffic::build_classes(topo_, routing_, tm, assignment);
    model_initial_ = model_from_matrix(topo_, routing_, tm, assignment);
    generate_trace();
    std::vector<std::vector<ctrl::PolicyRequest>> batches;
    std::size_t begin = 0;
    for (const std::size_t end : trace_.batch_end) {
      batches.emplace_back(trace_.requests.begin() + begin,
                           trace_.requests.begin() + end);
      begin = end;
    }
    model_final_ = apply_requests(model_initial_, batches);
    batch_fastest_ = Fastest(trace_.batch_end.size());
    propose_fastest_ = Fastest(trace_.batch_end.size());
    reconcile_fastest_ = Fastest(trace_.batch_end.size());
    commit_fastest_ = Fastest(trace_.batch_end.size());
    ready_ = bring_up(pool_, {});
  }

  void round(bool traced) override;
  void finish(bool traced, Report& report, Outcomes& outcomes) override;
  std::size_t rounds() const override { return rounds_; }

 private:
  using Observer = ctrl::MultiDomainController::PhaseObserver;

  // Deterministic totals of one stream replay, compared across replays.
  struct StreamTotals {
    std::uint64_t fingerprint = 0;
    std::size_t applied = 0;
    std::size_t dropped = 0;
    std::size_t rejected = 0;
    std::size_t conflicts = 0;
    std::size_t bounced = 0;  // domains sent back to their previous epoch
    std::size_t domains_dirty = 0;
    std::uint64_t launched = 0;
    std::uint64_t retired = 0;
    std::uint64_t reconfigured = 0;
    std::uint64_t rules_installed = 0;
    std::uint64_t rules_removed = 0;
    std::vector<double> control_latency_s;  // per batch

    bool operator==(const StreamTotals&) const = default;
  };

  void generate_trace();
  std::unique_ptr<ctrl::MultiDomainController> bring_up(
      exec::ThreadPool* pool, Observer observer);
  // Replays the trace into `controller`. `on_apply(b, seconds)` receives
  // the wall time of each batch's apply; `apply_stamp`, when set, receives
  // the time each apply starts.
  template <typename OnApply>
  StreamTotals replay(ctrl::MultiDomainController& controller,
                      double* admission_s, Clock::time_point* apply_stamp,
                      OnApply&& on_apply, Report* report);
  void check_final_state(const ctrl::MultiDomainController& controller,
                         Report& report) const;
  std::string budget_violation(const ctrl::MultiDomainController& c) const;

  PolicySize size_;
  std::size_t domains_;
  std::uint64_t seed_;
  exec::ThreadPool* pool_;
  net::Topology topo_;
  net::AllPairsPaths routing_;
  std::vector<vnf::PolicyChain> chains_;
  std::vector<traffic::TrafficClass> initial_;
  PolicyState model_initial_;
  PolicyState model_final_;
  Trace trace_;

  std::unique_ptr<ctrl::MultiDomainController> ready_;  // set-up bring-up
  std::unique_ptr<ctrl::MultiDomainController> last_;   // last replay
  std::uint64_t bring_up_rules_ = 0;
  std::optional<StreamTotals> totals_;
  std::size_t rounds_ = 0;
  std::vector<std::string> errors_;

  Fastest batch_fastest_;
  Fastest loop_fastest_;
  Fastest propose_fastest_;
  Fastest reconcile_fastest_;
  Fastest commit_fastest_;
  Fastest admission_fastest_;
};

void PolicyPath::generate_trace() {
  using Kind = ctrl::PolicyRequest::Kind;
  Rng rng(seed_ * 0x2545f4914f6cdd1dULL + 0x51);
  const std::size_t n = topo_.num_nodes();
  PolicyState live = model_initial_;
  std::vector<PolicyKey> keys;
  std::map<PolicyKey, std::size_t> slot;
  for (const auto& [key, rate] : live) {
    slot[key] = keys.size();
    keys.push_back(key);
  }
  const auto erase_key = [&](const PolicyKey& key) {
    const std::size_t i = slot.at(key);
    slot[keys.back()] = i;
    keys[i] = keys.back();
    keys.pop_back();
    slot.erase(key);
    live.erase(key);
  };
  std::set<PolicyKey> pending;  // keys already in the open batch

  const ctrl::DomainPartition partition =
      ctrl::partition_topology(topo_, domains_, kPartitionSeed);
  ctrl::AdmissionQueue dry(topo_, partition, kChains, admission_config());
  double clock = 0.0;
  for (std::size_t i = 0; i < size_.requests; ++i) {
    const double u = rng.unit();
    Kind kind = u < 0.35 ? Kind::kAdd : u < 0.65 ? Kind::kModify : Kind::kRemove;
    std::optional<PolicyKey> key;
    if (kind != Kind::kAdd) {
      for (int tries = 0; tries < 64 && !key && !keys.empty(); ++tries) {
        const PolicyKey& k = keys[rng.below(keys.size())];
        if (!pending.contains(k)) key = k;
      }
      if (!key) kind = Kind::kAdd;
    }
    while (!key) {
      const auto s = static_cast<net::NodeId>(rng.below(n));
      auto d = static_cast<net::NodeId>(rng.below(n - 1));
      if (d >= s) ++d;
      const auto c = static_cast<traffic::ChainId>(rng.below(kChains));
      const PolicyKey k{s, d, c};
      if (!live.contains(k) && !pending.contains(k) && routing_.path(s, d)) {
        key = k;
      }
    }
    ctrl::PolicyRequest r;
    r.kind = kind;
    std::tie(r.src, r.dst, r.chain_id) = *key;
    // Adds copy the rate of a random live policy and modifies rescale the
    // old rate, both by a factor with mean 1: adds and removes balance, so
    // the offered load random-walks around the bring-up load instead of
    // filling the hosts.
    const double factor = 0.6 + 0.8 * rng.unit();
    if (kind == Kind::kAdd) {
      r.rate_mbps = live.at(keys[rng.below(keys.size())]) * factor;
    } else if (kind == Kind::kModify) {
      r.rate_mbps = live.at(*key) * factor;
      if (r.rate_mbps == live.at(*key)) r.rate_mbps *= 1.01;  // not a no-op
    }
    if (kind == Kind::kRemove) {
      erase_key(*key);
    } else if (kind == Kind::kAdd) {
      slot[*key] = keys.size();
      keys.push_back(*key);
      live[*key] = r.rate_mbps;
    } else {
      live[*key] = r.rate_mbps;
    }
    pending.insert(*key);
    if (!dry.submit(r, clock)) {
      errors_.push_back("admission rejected a generated request");
    }
    trace_.requests.push_back(r);
    trace_.submit_at.push_back(clock);
    clock += kSubmitGap_s;
    if (dry.batch_ready(clock)) {
      dry.drain(clock);
      trace_.batch_end.push_back(i + 1);
      trace_.drain_at.push_back(clock);
      pending.clear();
    }
  }
  clock += kWindow_s;
  if (dry.batch_ready(clock)) {
    dry.drain(clock);
    trace_.batch_end.push_back(size_.requests);
    trace_.drain_at.push_back(clock);
  }
}

std::unique_ptr<ctrl::MultiDomainController> PolicyPath::bring_up(
    exec::ThreadPool* pool, Observer observer) {
  ctrl::DomainConfig config;
  config.num_domains = domains_;
  config.seed = kPartitionSeed;
  auto controller = std::make_unique<ctrl::MultiDomainController>(
      topo_, chains_, config, core::PipelineOptions{}, pool);
  if (observer) controller->set_phase_observer(std::move(observer));
  bring_up_rules_ = controller->initialize(initial_).rules_installed;
  return controller;
}

template <typename OnApply>
PolicyPath::StreamTotals PolicyPath::replay(
    ctrl::MultiDomainController& controller, double* admission_s,
    Clock::time_point* apply_stamp, OnApply&& on_apply, Report* report) {
  StreamTotals totals;
  ctrl::AdmissionQueue queue(topo_, controller.partition(), kChains,
                             admission_config());
  double admission = 0.0;
  std::size_t b = 0;
  std::size_t begin = 0;
  for (std::size_t i = 0; i < trace_.requests.size(); ++i) {
    const auto t_submit = Clock::now();
    if (!queue.submit(trace_.requests[i], trace_.submit_at[i])) {
      ++totals.rejected;
    }
    if (admission_s) admission += seconds_since(t_submit);
    if (i + 1 != trace_.batch_end[b]) continue;
    const auto t_drain = Clock::now();
    const ctrl::PolicyBatch batch = queue.drain(trace_.drain_at[b]);
    if (admission_s) admission += seconds_since(t_drain);
    if (batch.accepted != trace_.batch_end[b] - begin && report) {
      report->fail("policy: batch " + std::to_string(b) + " cut " +
                   std::to_string(batch.accepted) +
                   " requests, the dry run cut " +
                   std::to_string(trace_.batch_end[b] - begin));
    }
    const auto t_apply = Clock::now();
    if (apply_stamp) *apply_stamp = t_apply;
    const ctrl::ApplyReport r = controller.apply(batch);
    on_apply(b, seconds_since(t_apply));
    totals.applied += r.requests_applied;
    totals.dropped += r.requests_dropped;
    totals.conflicts += r.conflicts;
    totals.bounced += r.rejected_domains;
    totals.domains_dirty += r.domains_dirty;
    totals.launched += r.instances_launched;
    totals.retired += r.instances_retired;
    totals.reconfigured += r.instances_reconfigured;
    totals.rules_installed += r.rules_installed;
    totals.rules_removed += r.rules_removed;
    totals.control_latency_s.push_back(r.control_latency_s);
    begin = i + 1;
    ++b;
  }
  if (admission_s) *admission_s = admission;
  totals.fingerprint = controller.fingerprint();
  return totals;
}

void PolicyPath::round(bool traced) {
  std::unique_ptr<ctrl::MultiDomainController> controller =
      ready_ ? std::move(ready_) : bring_up(pool_, {});
  // Traced rounds stamp the phase boundaries of every apply: propose runs
  // from the apply call to "proposed", reconcile and commit between the
  // following phase notifications.
  Clock::time_point last_phase;
  std::size_t batch = 0;
  if (traced) {
    controller->set_phase_observer([&](std::string_view phase) {
      const auto now = Clock::now();
      const double s =
          std::chrono::duration<double>(now - last_phase).count();
      if (phase == "proposed") {
        propose_fastest_.record(batch, s);
      } else if (phase == "reconciled") {
        reconcile_fastest_.record(batch, s);
      } else if (phase == "committed") {
        commit_fastest_.record(batch, s);
      }
      last_phase = now;
    });
  }
  double admission_s = 0.0;
  const auto loop0 = Clock::now();
  const StreamTotals totals = replay(
      *controller, traced ? &admission_s : nullptr, &last_phase,
      [&](std::size_t b, double s) {
        batch_fastest_.record(b, s);
        batch = b + 1;
      },
      nullptr);
  loop_fastest_.record(seconds_since(loop0));
  if (traced) {
    admission_fastest_.record(admission_s);
    controller->set_phase_observer({});
  }
  if (!totals_) {
    totals_ = totals;
  } else if (!(totals == *totals_)) {
    errors_.push_back("policy: replay " + std::to_string(rounds_) +
                      " diverged from the first (fingerprint or counts)");
  }
  last_ = std::move(controller);
  ++rounds_;
}

std::string PolicyPath::budget_violation(
    const ctrl::MultiDomainController& c) const {
  std::vector<double> used(topo_.num_nodes(), 0.0);
  for (std::size_t d = 0; d < c.num_domains(); ++d) {
    const std::vector<double> cores = cores_per_node(c.domain_epoch(d).plan);
    for (std::size_t v = 0; v < used.size(); ++v) used[v] += cores[v];
  }
  for (std::size_t v = 0; v < used.size(); ++v) {
    const double budget = topo_.node(static_cast<net::NodeId>(v)).host_cores;
    if (used[v] > budget + 1e-9) {
      return "node " + std::to_string(v) + " committed " +
             std::to_string(used[v]) + " cores over its budget " +
             std::to_string(budget);
    }
  }
  return {};
}

void PolicyPath::check_final_state(const ctrl::MultiDomainController& c,
                                   Report& report) const {
  std::vector<traffic::TrafficClass> all;
  for (std::size_t d = 0; d < c.num_domains(); ++d) {
    const auto& classes = c.domain_epoch(d).classes;
    all.insert(all.end(), classes.begin(), classes.end());
  }
  if (const std::string err = compare_states(model_final_, state_of(all));
      !err.empty()) {
    report.fail("policy: final class set: " + err);
  }
  // One packet per class through its domain's data plane must traverse
  // exactly the policy chain of the class.
  Rng rng(seed_ ^ 0x9a1c);
  std::size_t walked = 0;
  for (std::size_t d = 0; d < c.num_domains(); ++d) {
    const dataplane::DataPlane& dp = c.domain_dataplane(d);
    for (const traffic::TrafficClass& cls : c.domain_epoch(d).classes) {
      hsa::PacketHeader h;
      h.src_ip = static_cast<std::uint32_t>(rng.next());
      h.dst_ip = static_cast<std::uint32_t>(rng.next());
      h.src_port = static_cast<std::uint16_t>(rng.next());
      h.dst_port = static_cast<std::uint16_t>(rng.next());
      h.proto = 6;
      const dataplane::DataPlane::WalkResult walk = dp.walk(cls.id, h);
      if (!walk.delivered || dp.traversed_types(walk.packet) !=
                                 chains_[cls.chain_id]) {
        report.fail("policy: domain " + std::to_string(d) + " class " +
                    std::to_string(cls.id) +
                    " did not traverse its chain: " + walk.error);
        return;
      }
      ++walked;
    }
  }
  if (walked != model_final_.size()) {
    report.fail("policy: walked " + std::to_string(walked) +
                " classes, model holds " +
                std::to_string(model_final_.size()));
  }
}

void PolicyPath::finish(bool traced, Report& report, Outcomes& outcomes) {
  for (const std::string& e : errors_) report.fail(e);
  if (!model_initial_.empty() &&
      !compare_states(model_initial_, state_of(initial_)).empty()) {
    report.fail("policy: bring-up classes differ from the matrix model: " +
                compare_states(model_initial_, state_of(initial_)));
  }
  check_final_state(*last_, report);

  // One more replay on a single lane (no pool), checking the per-node core
  // budgets at every committed phase; its fingerprint and totals must equal
  // the pooled replays'.
  const ctrl::MultiDomainController* serial_ptr = nullptr;
  std::string budget_error;
  std::size_t commits = 0;
  auto serial = bring_up(nullptr, [&](std::string_view phase) {
    if (phase != "committed" || serial_ptr == nullptr) return;
    ++commits;
    if (budget_error.empty()) budget_error = budget_violation(*serial_ptr);
  });
  serial_ptr = serial.get();
  budget_error = budget_violation(*serial);  // the bring-up commit
  const StreamTotals serial_totals =
      replay(*serial, nullptr, nullptr, [](std::size_t, double) {}, &report);
  if (!budget_error.empty()) report.fail("policy: " + budget_error);
  if (commits < trace_.batch_end.size()) {
    report.fail("policy: saw " + std::to_string(commits) +
                " committed phases for " +
                std::to_string(trace_.batch_end.size()) + " batches");
  }
  if (!(serial_totals == *totals_)) {
    report.fail("policy: the single-lane replay diverged from the pooled "
                "replays (fingerprint or counts)");
  }

  std::fprintf(stderr,
               "policy: %zu reconcile conflicts, %zu domains bounced per "
               "replay\n",
               totals_->conflicts, totals_->bounced);

  const std::size_t requests = trace_.requests.size();
  report.attempted += requests * (rounds_ + 1);
  report.failed +=
      (totals_->dropped + totals_->rejected) * rounds_ +
      serial_totals.dropped + serial_totals.rejected;
  if (totals_->applied + totals_->dropped + totals_->rejected != requests) {
    report.fail("policy: " + std::to_string(totals_->applied) + " applied + " +
                std::to_string(totals_->dropped) + " dropped of " +
                std::to_string(requests) + " requests");
  }

  for (std::size_t d = 0; d < last_->num_domains(); ++d) {
    const core::Epoch& epoch = last_->domain_epoch(d);
    for (const double c : cores_per_node(epoch.plan)) outcomes.cores_used += c;
    outcomes.tcam_entries +=
        static_cast<double>(epoch.rules.tcam_with_tagging);
  }
  outcomes.rules_installed +=
      static_cast<double>(bring_up_rules_ + totals_->rules_installed);

  std::vector<double> latency;
  latency.reserve(requests);
  std::size_t b = 0;
  for (std::size_t i = 0; i < requests; ++i) {
    while (i >= trace_.batch_end[b]) ++b;
    latency.push_back(trace_.drain_at[b] - trace_.submit_at[i] +
                      totals_->control_latency_s[b]);
  }
  std::vector<double> batch_ms;
  for (const double s : batch_fastest_.all()) batch_ms.push_back(s * 1e3);
  report.e2e("batch_ms_p50", quantile(batch_ms, 0.5), "ms");
  report.e2e("batch_ms_p95", quantile(batch_ms, 0.95), "ms");
  report.e2e("updates_per_s",
             static_cast<double>(totals_->applied) / loop_fastest_.best(),
             "req/s");
  report.e2e("request_latency_sim_p50_s", quantile(latency, 0.5), "s");
  report.e2e("request_latency_sim_p95_s", quantile(latency, 0.95), "s");

  if (!traced) return;
  const auto ms = [](const Fastest& f) {
    std::vector<double> v;
    for (const double s : f.all()) v.push_back(s * 1e3);
    return v;
  };
  report.layer("ctrl.propose_ms_p50", quantile(ms(propose_fastest_), 0.5),
               "ms");
  report.layer("ctrl.reconcile_ms_p50",
               quantile(ms(reconcile_fastest_), 0.5), "ms");
  report.layer("ctrl.reconcile_ms_p95",
               quantile(ms(reconcile_fastest_), 0.95), "ms");
  report.layer("ctrl.commit_ms_p50", quantile(ms(commit_fastest_), 0.5),
               "ms");
  report.layer("ctrl.admission_us",
               admission_fastest_.best() * 1e6 / static_cast<double>(requests),
               "us");
  report.layer("ctrl.conflicts", static_cast<double>(totals_->conflicts),
               "count");
  report.layer("ctrl.domains_dirty",
               static_cast<double>(totals_->domains_dirty), "count");
  report.layer("core.instances_launched",
               static_cast<double>(totals_->launched), "count");
  report.layer("core.instances_retired", static_cast<double>(totals_->retired),
               "count");
  report.layer("core.instances_reconfigured",
               static_cast<double>(totals_->reconfigured), "count");
  report.layer("dataplane.rules_removed",
               static_cast<double>(totals_->rules_removed), "count");
}

}  // namespace

std::unique_ptr<Path> make_policy_path(const PolicySize& size,
                                       std::size_t domains,
                                       std::uint64_t seed,
                                       exec::ThreadPool* pool) {
  return std::make_unique<PolicyPath>(size, domains, seed, pool);
}

}  // namespace e2e
