// End-to-end benchmark of the APPLE control plane (see README.md).
//
//   e2ebench --workload policy-stream|epoch-110k|lp-round --seed N
//            --seconds S --trace 0|1 [--domains K]
//
// Every workload drives all three paths — policy stream, epoch, LP — so
// every run reports every metric. The workload's own path runs at full
// size and gets most of the run; the other two run at a small companion
// size, so a regression anywhere still shows. Rounds of the paths are
// interleaved for S seconds and each wall-clock metric keeps the fastest
// repetition. The last line of stdout is the JSON result.
//
// setup_s is the fastest of several cold set-ups: this process's own and
// those of child processes (this binary with --cold-setup 1), each of which
// builds every path's serving state from a fresh start, prints its set-up
// time and exits. The children are spread over the run like the paths'
// rounds, so their fastest falls into the host's quiet stretches.
#include <sched.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "cc/common.h"
#include "cc/paths.h"
#include "exec/thread_pool.h"

namespace e2e {

void Report::fail(const std::string& message) {
  correct = false;
  std::fprintf(stderr, "check failed: %s\n", message.c_str());
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::size_t domains = 4;  // policy path's K (README's K=1 vs K=4 figure)
  bool cold_setup = false;  // child mode: set up, print setup_s, exit
};

bool parse(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0.0) || args.seconds > 600.0) {
        return false;
      }
    } else if (flag == "--domains") {
      args.domains = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || args.domains == 0 || args.domains > 64) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1";
    } else if (flag == "--cold-setup") {
      if (value != "0" && value != "1") return false;
      args.cold_setup = value == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty();
}

// Full and companion sizes of every path.
constexpr PolicySize kPolicyFull{2000};
constexpr PolicySize kPolicyCompanion{500};
constexpr EpochSize kEpochFull{18, 6};      // ~111k classes
constexpr EpochSize kEpochCompanion{2, 3};  // ~12k classes
constexpr LpSize kLpFull{0.1};              // ~620 classes
constexpr LpSize kLpCompanion{0.05};

// Shares of the run: the workload's own path, each companion path, and the
// cold set-ups of child processes.
constexpr double kFocusShare = 0.54;
constexpr double kCompanionShare = 0.18;
constexpr double kSetupShare = 0.10;
// Every path completes at least this many rounds, however short the run;
// the first round of each path starts from the set-up's serving state, so
// this leaves at least two timed repetitions of every unit.
constexpr std::size_t kMinRounds = 3;

std::size_t lanes() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           json_number(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  return out + "}";
}

// The scheduled unit of set-up: one round spawns `binary` in child mode,
// reads the cold set-up time it prints and waits for it to end.
class ColdSetups final : public Path {
 public:
  ColdSetups(std::string binary, const Args& args, double own_setup_s)
      : binary_(std::move(binary)),
        argv_{binary_,         "--workload", args.workload,
              "--seed",        std::to_string(args.seed),
              "--domains",     std::to_string(args.domains),
              "--cold-setup",  "1"} {
    fastest_.record(own_setup_s);
  }

  void round(bool /*traced*/) override {
    ++rounds_;
    const std::string error = spawn();
    if (!error.empty()) {
      ++failed_;
      errors_.push_back("cold set-up " + std::to_string(rounds_) + ": " +
                        error);
    }
  }

  void finish(bool /*traced*/, Report& report, Outcomes& /*outcomes*/) override {
    for (const std::string& e : errors_) report.fail(e);
    report.attempted += rounds_;
    report.failed += failed_;
    report.e2e("setup_s", fastest_.best(), "s");
  }

  std::size_t rounds() const override { return rounds_; }

 private:
  std::string spawn() {
    int fds[2];
    if (pipe(fds) != 0) return "pipe failed";
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[1]);
    std::vector<char*> argv;
    for (std::string& a : argv_) argv.push_back(a.data());
    argv.push_back(nullptr);
    pid_t pid = 0;
    const int rc = posix_spawn(&pid, binary_.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    close(fds[1]);
    std::string out;
    if (rc == 0) {
      char buf[256];
      for (ssize_t n; (n = read(fds[0], buf, sizeof(buf))) != 0;) {
        if (n < 0) {
          if (errno == EINTR) continue;
          break;
        }
        out.append(buf, static_cast<std::size_t>(n));
      }
    }
    close(fds[0]);
    if (rc != 0) return "posix_spawn failed";
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      return "the child process failed";
    }
    char* end = nullptr;
    const double seconds = std::strtod(out.c_str(), &end);
    if (end == out.c_str() || !(seconds > 0.0)) {
      return "the child printed no set-up time";
    }
    fastest_.record(seconds);
    return {};
  }

  std::string binary_;
  std::vector<std::string> argv_;
  Fastest fastest_;
  std::size_t rounds_ = 0;
  std::size_t failed_ = 0;
  std::vector<std::string> errors_;
};

int run(const Args& args, const char* binary, Clock::time_point start) {
  std::size_t focus = 0;
  if (args.workload == "policy-stream") {
    focus = 0;
  } else if (args.workload == "epoch-110k") {
    focus = 1;
  } else if (args.workload == "lp-round") {
    focus = 2;
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  // The calling thread is one lane of every parallel section.
  apple::exec::ThreadPool pool(lanes() - 1);
  std::vector<std::unique_ptr<Path>> paths;
  paths.push_back(make_policy_path(
      focus == 0 ? kPolicyFull : kPolicyCompanion, args.domains, args.seed,
      &pool));
  paths.push_back(make_epoch_path(focus == 1 ? kEpochFull : kEpochCompanion,
                                  args.seed, &pool));
  paths.push_back(make_lp_path(focus == 2 ? kLpFull : kLpCompanion));
  const double setup_s = seconds_since(start);
  if (args.cold_setup) {
    std::printf("%.17g\n", setup_s);
    std::fflush(stdout);
    std::_Exit(0);  // the parent waits for the exit; skip the teardown
  }
  paths.push_back(std::make_unique<ColdSetups>(binary, args, setup_s));
  std::vector<double> share(paths.size(), kCompanionShare);
  share[focus] = kFocusShare;
  share.back() = kSetupShare;

  // Deficit scheduling: always run the path furthest below its share of
  // the time spent so far, so every path's repetitions spread over the
  // whole run.
  std::vector<double> spent(paths.size(), 0.0);
  std::vector<double> last(paths.size(), 0.0);  // duration of the last round
  const auto t0 = Clock::now();
  const auto short_of_minimum = [&] {
    for (std::size_t i = 0; i < paths.size(); ++i) {
      if (paths[i]->rounds() < kMinRounds) return i;
    }
    return paths.size();
  };
  for (;;) {
    const double elapsed = seconds_since(t0);
    std::size_t next = paths.size();
    for (std::size_t i = 0; i < paths.size(); ++i) {
      if (next == paths.size() ||
          spent[i] / share[i] < spent[next] / share[next]) {
        next = i;
      }
    }
    // Once the time is up, and for any round that would overrun the run by
    // more than half of it, only paths short of the minimum run.
    if (elapsed >= args.seconds ||
        (paths[next]->rounds() >= kMinRounds &&
         elapsed + last[next] / 2.0 > args.seconds)) {
      next = short_of_minimum();
      if (next == paths.size()) break;
    }
    const auto t = Clock::now();
    paths[next]->round(args.trace);
    last[next] = seconds_since(t);
    spent[next] += last[next];
  }

  Report report;
  Outcomes outcomes;
  for (const auto& p : paths) p->finish(args.trace, report, outcomes);
  report.e2e("cores_used", outcomes.cores_used, "cores");
  report.e2e("tcam_entries", outcomes.tcam_entries, "entries");
  report.e2e("rules_installed", outcomes.rules_installed, "entries");
  report.e2e("peak_rss_mb", peak_rss_mb(), "MB");

  for (const Metric& m : report.end_to_end) {
    std::fprintf(stderr, "%-28s %16.6f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  for (const Metric& m : report.per_layer) {
    std::fprintf(stderr, "%-28s %16.6f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  std::fprintf(stderr, "rounds: policy %zu, epoch %zu, lp %zu, cold set-up "
               "%zu; spent %.1f / %.1f / %.1f / %.1f s\n",
               paths[0]->rounds(), paths[1]->rounds(), paths[2]->rounds(),
               paths[3]->rounds(), spent[0], spent[1], spent[2], spent[3]);

  const std::vector<Metric>& metrics =
      args.trace ? report.per_layer : report.end_to_end;
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) report.fail(m.name + " is not finite");
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      report.correct ? "true" : "false",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed),
      metrics_json(metrics).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  const auto start = e2e::Clock::now();
  e2e::Args args;
  if (!e2e::parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: e2ebench --workload policy-stream|epoch-110k|lp-round "
                 "--seed N --seconds S --trace 0|1 [--domains K]\n");
    return 2;
  }
  try {
    return e2e::run(args, argv[0], start);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return 1;
  }
}
