// mode_scenarios.hpp — the five MPH execution-mode scenarios (paper §2),
// shared by the `mph` verbs that need runnable mode bodies: `mph verify`
// explores their schedule space, `mph record` records conformance traces
// from them.
//
// Each scenario is a post-handshake wildcard-receive workload: model ranks
// report their world rank to a collector, which sums ANY_SOURCE receives.
// The shapes mirror the MPH test harness without its gtest dependency.
#pragma once

#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/minimpi/launcher.hpp"
#include "src/mph/mph.hpp"

namespace mph_tools {

using minimpi::Comm;
using minimpi::rank_t;
using minimpi::tag_t;

inline constexpr tag_t kDataTag = 7;
inline constexpr tag_t kAckTag = 8;

/// One executable of a scenario.
struct ScenarioExec {
  std::string label;                     ///< rank label in reports
  std::vector<std::string> names;        ///< components_setup name-tags
  std::string instance_prefix;           ///< nonempty => multi_instance
  int nprocs = 1;
  std::function<void(mph::Mph&, const Comm&)> body;
};

struct Scenario {
  std::string name;
  std::string registry;
  std::vector<ScenarioExec> execs;
};

[[noreturn]] inline void protocol_violation(const std::string& what) {
  throw std::runtime_error("protocol violation: " + what);
}

/// Sum of the world ranks 0..n-1 except `excluded`.
inline long long rank_sum_except(int n, int excluded) {
  long long sum = 0;
  for (int r = 0; r < n; ++r) {
    if (r != excluded) sum += r;
  }
  return sum;
}

/// Receive `count` wildcard messages on `world` and check they sum to
/// `expected` (each sender sends its own world rank exactly once).
inline void collect_reports(const Comm& world, int count, long long expected) {
  long long sum = 0;
  for (int i = 0; i < count; ++i) {
    int value = 0;
    world.recv(value, minimpi::any_source, kDataTag);
    sum += value;
  }
  if (sum != expected) {
    protocol_violation("collected " + std::to_string(sum) + ", expected " +
                       std::to_string(expected));
  }
}

// --- the five execution modes (paper §2), post-handshake wildcard bodies ---

inline Scenario make_scse(int total_ranks) {
  Scenario s;
  s.name = "scse";
  s.registry = "BEGIN\nsolo\nEND\n";
  const int n = total_ranks;
  s.execs.push_back(ScenarioExec{
      "solo", {"solo"}, "", n, [n](mph::Mph&, const Comm& world) {
        if (world.rank() == 0) {
          collect_reports(world, n - 1, rank_sum_except(n, 0));
        } else {
          world.send(world.rank(), 0, kDataTag);
        }
      }});
  return s;
}

inline Scenario make_scme(int per_component) {
  Scenario s;
  s.name = "scme";
  s.registry = "BEGIN\natmosphere\nocean\ncoupler\nEND\n";
  const int k = per_component;
  const auto report = [](mph::Mph& h, const Comm& world) {
    h.send(world.rank(), "coupler", 0, kDataTag);
  };
  s.execs.push_back(ScenarioExec{"atmosphere", {"atmosphere"}, "", k, report});
  s.execs.push_back(ScenarioExec{"ocean", {"ocean"}, "", k, report});
  s.execs.push_back(ScenarioExec{
      "coupler", {"coupler"}, "", 1, [k](mph::Mph&, const Comm& world) {
        collect_reports(world, 2 * k, rank_sum_except(2 * k + 1, 2 * k));
      }});
  return s;
}

inline Scenario make_mcse(int workers) {
  Scenario s;
  s.name = "mcse";
  s.registry = "BEGIN\nMulti_Component_Begin\ndriver 0 0\nworker 1 " +
               std::to_string(workers) +
               "\nMulti_Component_End\nEND\n";
  const int k = workers;
  s.execs.push_back(ScenarioExec{
      "driver+worker", {"driver", "worker"}, "", k + 1,
      [k](mph::Mph& h, const Comm& world) {
        if (h.proc_in_component("driver")) {
          collect_reports(world, k, rank_sum_except(k + 1, 0));
        } else {
          h.send(world.rank(), "driver", 0, kDataTag);
        }
      }});
  return s;
}

inline Scenario make_mcme(int per_component) {
  Scenario s;
  s.name = "mcme";
  const int k = per_component;
  s.registry = "BEGIN\nMulti_Component_Begin\nphysics 0 " +
               std::to_string(k - 1) + "\nchemistry " + std::to_string(k) +
               " " + std::to_string(2 * k - 1) +
               "\nMulti_Component_End\ncoupler\nEND\n";
  s.execs.push_back(ScenarioExec{
      "physics+chemistry", {"physics", "chemistry"}, "", 2 * k,
      [](mph::Mph& h, const Comm& world) {
        h.send(world.rank(), "coupler", 0, kDataTag);
      }});
  s.execs.push_back(ScenarioExec{
      "coupler", {"coupler"}, "", 1, [k](mph::Mph&, const Comm& world) {
        collect_reports(world, 2 * k, rank_sum_except(2 * k + 1, 2 * k));
      }});
  return s;
}

inline Scenario make_mime(int per_instance) {
  Scenario s;
  s.name = "mime";
  const int k = per_instance;
  s.registry = "BEGIN\nMulti_Instance_Begin\nOcean1 0 " +
               std::to_string(k - 1) + "\nOcean2 " + std::to_string(k) + " " +
               std::to_string(2 * k - 1) +
               "\nMulti_Instance_End\nstatistics\nEND\n";
  s.execs.push_back(ScenarioExec{
      "Ocean*", {}, "Ocean", 2 * k, [](mph::Mph& h, const Comm& world) {
        h.send(world.rank(), "statistics", 0, kDataTag);
      }});
  s.execs.push_back(ScenarioExec{
      "statistics", {"statistics"}, "", 1, [k](mph::Mph&, const Comm& world) {
        collect_reports(world, 2 * k, rank_sum_except(2 * k + 1, 2 * k));
      }});
  return s;
}

/// The five modes by name; std::nullopt for anything else.  `ranks` scales
/// the scenario (scse: total ranks, default 3; others: ranks per model
/// component, default 1); pass 0 for the default.
inline std::optional<Scenario> make_mode_scenario(const std::string& name,
                                                  int ranks) {
  if (name == "scse") return make_scse(ranks > 0 ? ranks : 3);
  const int k = ranks > 0 ? ranks : 1;
  if (name == "scme") return make_scme(k);
  if (name == "mcse") return make_mcse(k);
  if (name == "mcme") return make_mcme(k);
  if (name == "mime") return make_mime(k);
  return std::nullopt;
}

/// ExecSpecs for launching a scenario with minimpi::run_mpmd.  The
/// returned specs capture `scenario` by reference — it must outlive the
/// launch.
inline std::vector<minimpi::ExecSpec> make_exec_specs(
    const Scenario& scenario) {
  std::vector<minimpi::ExecSpec> specs;
  for (std::size_t i = 0; i < scenario.execs.size(); ++i) {
    const ScenarioExec& exec = scenario.execs[i];
    specs.push_back(minimpi::ExecSpec{
        exec.label, exec.nprocs,
        [&scenario, i](const Comm& world, const minimpi::ExecEnv&) {
          const ScenarioExec& me = scenario.execs[i];
          const mph::RegistrySource source =
              mph::RegistrySource::from_text(scenario.registry);
          mph::Mph handle =
              me.instance_prefix.empty()
                  ? mph::Mph::components_setup(world, source, me.names)
                  : mph::Mph::multi_instance(world, source,
                                             me.instance_prefix);
          if (me.body) me.body(handle, world);
        },
        {}});
  }
  return specs;
}

/// World-rank -> component/executable label, from the static layout.
inline std::function<std::string(rank_t)> label_fn(const Scenario& scenario) {
  std::vector<std::string> labels;
  for (const ScenarioExec& exec : scenario.execs) {
    for (int i = 0; i < exec.nprocs; ++i) labels.push_back(exec.label);
  }
  return [labels](rank_t rank) {
    const auto index = static_cast<std::size_t>(rank);
    return rank >= 0 && index < labels.size() ? labels[index] : std::string{};
  };
}

}  // namespace mph_tools
