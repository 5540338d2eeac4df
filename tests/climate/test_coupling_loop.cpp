// Error paths of the coupling-interval loop every role of the coupled system
// runs: a component with no role in the system is rejected, and a restart
// whose agreed step is missing from the checkpoint store fails with a
// SetupError that names the component and the step — the same error for a
// model role and for the coupler.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/climate/scenario.hpp"
#include "src/mph/errors.hpp"
#include "tests/mph/mph_test_util.hpp"

using namespace mph;
using namespace mph::climate;
using namespace mph::testing;
using minimpi::Comm;

namespace {

ClimateConfig test_config() {
  ClimateConfig cfg;
  cfg.atm_nlon = 8;
  cfg.atm_nlat = 6;
  cfg.ocn_nlon = 12;
  cfg.ocn_nlat = 8;
  cfg.steps_per_interval = 2;
  cfg.intervals = 8;
  return cfg;
}

/// What run_coupled_component threw on one rank: the exception class and
/// its message ("" when it returned normally).
struct Outcome {
  std::string kind;
  std::string what;
};

/// Run run_coupled_component (recovering from `store` when non-null) on
/// every rank and collect what each component's rank 0 saw.
std::map<std::string, Outcome> run_components(
    const std::string& registry, std::vector<TestExec> execs,
    const recover::CheckpointStore* store) {
  std::map<std::string, Outcome> seen;
  std::mutex mutex;
  const ClimateConfig cfg = test_config();
  const auto body = [&](Mph& h, const Comm&) {
    Outcome outcome;
    try {
      (void)run_coupled_component(h, cfg, {}, "coupler", store);
    } catch (const SetupError& ex) {
      outcome = {"SetupError", ex.what()};
    } catch (const MphError& ex) {
      outcome = {"MphError", ex.what()};
    }
    if (h.local_proc_id() == 0) {
      const std::lock_guard<std::mutex> lock(mutex);
      seen[h.comp_name()] = outcome;
    }
  };
  for (TestExec& exec : execs) exec.body = body;
  run_mph_ok(registry, std::move(execs));
  return seen;
}

TEST(CouplingLoop, ComponentWithoutARoleThrowsMphError) {
  const std::map<std::string, Outcome> seen =
      run_components("BEGIN\nstranger\nEND\n",
                     {TestExec{{"stranger"}, "", 2, {}}}, nullptr);
  ASSERT_EQ(seen.count("stranger"), 1u);
  EXPECT_EQ(seen.at("stranger").kind, "MphError");
  EXPECT_NE(seen.at("stranger").what.find("'stranger' has no role"),
            std::string::npos)
      << seen.at("stranger").what;
}

TEST(CouplingLoop, MissingAgreedRestartStepThrowsSetupError) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) /
      ("mph_loop_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  const recover::CheckpointStore store(dir.string());
  // land and the coupler reached step 5, the witness only step 2, so the
  // whole job agrees to restart after step 2 — a step the store no longer
  // holds for land or the coupler (retain = 2 keeps only 4 and 5).
  for (const char* name : {"land", "coupler"}) {
    store.save(name, recover::Checkpoint(4));
    store.save(name, recover::Checkpoint(5));
  }
  store.save("witness", recover::Checkpoint(1));
  store.save("witness", recover::Checkpoint(2));

  const std::map<std::string, Outcome> seen = run_components(
      "BEGIN\nland\ncoupler\nwitness\nEND\n",
      {TestExec{{"land"}, "", 2, {}}, TestExec{{"coupler"}, "", 1, {}},
       TestExec{{"witness"}, "", 1, {}}},
      &store);
  for (const char* name : {"land", "coupler"}) {
    ASSERT_EQ(seen.count(name), 1u) << name;
    const Outcome& outcome = seen.at(name);
    EXPECT_EQ(outcome.kind, "SetupError") << name << ": " << outcome.what;
    EXPECT_NE(outcome.what.find("component '" + std::string(name) +
                                "' has no checkpoint for the agreed restart "
                                "step 2"),
              std::string::npos)
        << outcome.what;
  }
  // The witness joined the step agreement, then had no role to play.
  EXPECT_EQ(seen.at("witness").kind, "MphError");
  std::filesystem::remove_all(dir);
}

}  // namespace
