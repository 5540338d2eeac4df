// Shared helpers for MPH tests: run an MPMD job whose executables perform
// MPH setup against a registry given as literal text, and assert success.
#pragma once

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "src/minimpi/launcher.hpp"
#include "src/mph/mph.hpp"

namespace mph::testing {

inline minimpi::JobOptions test_job_options() {
  minimpi::JobOptions options;
  options.recv_timeout = std::chrono::seconds(30);
  return options;
}

/// Description of one executable in an MPH test job.
struct TestExec {
  /// Component names this executable declares via components_setup; when
  /// `instance_prefix` is non-empty, multi_instance(prefix) is used instead.
  std::vector<std::string> names;
  std::string instance_prefix;
  int nprocs = 1;
  /// Body run after setup succeeds.
  std::function<void(Mph&, const minimpi::Comm& world)> body;
};

/// Launch the executables against `registry_text` and return the report.
/// `job_options` lets fault-injection tests pass a FaultPlan through.
inline minimpi::JobReport run_mph_job(
    const std::string& registry_text, std::vector<TestExec> execs,
    HandshakeOptions options = {},
    minimpi::JobOptions job_options = test_job_options()) {
  std::vector<minimpi::ExecSpec> specs;
  for (std::size_t i = 0; i < execs.size(); ++i) {
    const TestExec& exec = execs[i];
    specs.push_back(minimpi::ExecSpec{
        "exec" + std::to_string(i), exec.nprocs,
        [&registry_text, &execs, i, options](const minimpi::Comm& world,
                                             const minimpi::ExecEnv&) {
          const TestExec& me = execs[i];
          const RegistrySource source =
              RegistrySource::from_text(registry_text);
          Mph handle =
              me.instance_prefix.empty()
                  ? Mph::components_setup(world, source, me.names, options)
                  : Mph::multi_instance(world, source, me.instance_prefix,
                                        options);
          if (me.body) me.body(handle, world);
        },
        {}});
  }
  return minimpi::run_mpmd(specs, std::move(job_options));
}

/// Run and assert the job succeeded.
inline void run_mph_ok(const std::string& registry_text,
                       std::vector<TestExec> execs,
                       HandshakeOptions options = {}) {
  const minimpi::JobReport report =
      run_mph_job(registry_text, std::move(execs), options);
  ASSERT_TRUE(report.ok) << report.abort_reason << " / "
                         << report.first_error();
}

/// Run and return the first (root-cause) error message; "" when ok.
inline std::string run_mph_error(const std::string& registry_text,
                                 std::vector<TestExec> execs,
                                 HandshakeOptions options = {}) {
  const minimpi::JobReport report =
      run_mph_job(registry_text, std::move(execs), options);
  return report.ok ? std::string{} : report.first_error();
}

}  // namespace mph::testing
