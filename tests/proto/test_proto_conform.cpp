// Trace conformance + contract inference, end to end: record a real mode
// scenario in-process with tracing on, then check the recorded trace
// against the shipped contract (conform) and reconstruct a contract from
// it (infer) that conforms to its own source trace.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "src/minimpi/launcher.hpp"
#include "src/proto/checker.hpp"
#include "src/proto/conform.hpp"
#include "src/proto/contract.hpp"
#include "src/proto/infer.hpp"
#include "src/proto/parser.hpp"
#include "tests/proto/proto_test_util.hpp"
#include "tools/mode_scenarios.hpp"

using namespace mph::proto;
using mph::proto::testing::golden;
using mph::proto::testing::shipped_contract;

namespace {

/// Run the named mode scenario with tracing on; return the Chrome JSON.
std::string record_mode(const std::string& mode, int ranks = 0) {
  const std::optional<mph_tools::Scenario> scenario =
      mph_tools::make_mode_scenario(mode, ranks);
  if (!scenario.has_value()) throw std::runtime_error("unknown mode " + mode);
  minimpi::JobOptions options;
  options.recv_timeout = std::chrono::seconds(30);
  options.trace.enabled = true;
  const minimpi::JobReport report =
      minimpi::run_mpmd(mph_tools::make_exec_specs(*scenario), options);
  if (!report.ok) throw std::runtime_error("scenario failed: " + mode);
  if (!report.trace.has_value()) throw std::runtime_error("no trace");
  return report.trace->to_chrome_json();
}

}  // namespace

TEST(ProtoConform, EveryModeTraceConformsToItsShippedContract) {
  for (const char* mode : {"scse", "scme", "mcse", "mcme", "mime"}) {
    const std::string json = record_mode(mode);
    const ObservedTrace trace = read_trace_ops(json);
    const Contract contract = shipped_contract(std::string(mode) + ".mphc");
    const std::vector<std::string> findings = conform(contract, trace);
    EXPECT_TRUE(findings.empty())
        << mode << ": " << (findings.empty() ? "" : findings.front());
  }
}

TEST(ProtoConform, TraceAgainstTheWrongContractIsRejected) {
  const ObservedTrace trace = read_trace_ops(record_mode("scme"));
  const std::vector<std::string> findings =
      conform(shipped_contract("mcme.mphc"), trace);
  ASSERT_FALSE(findings.empty());
  EXPECT_NE(findings.front().find("belongs to no contract component"),
            std::string::npos);
}

TEST(ProtoConform, RankCountMismatchReported) {
  // scse.mphc declares solo with 3 ranks; record the scenario at 5.
  const ObservedTrace trace = read_trace_ops(record_mode("scse", 5));
  const std::vector<std::string> findings =
      conform(shipped_contract("scse.mphc"), trace);
  ASSERT_FALSE(findings.empty());
  bool mentions_count = false;
  for (const std::string& f : findings) {
    if (f.find("declares 3 rank(s)") != std::string::npos) {
      mentions_count = true;
    }
  }
  EXPECT_TRUE(mentions_count) << findings.front();
}

TEST(ProtoConform, ViolationNamesTheEventAndTheExpectedOp) {
  // A synthetic single-rank trace whose one op is a send the contract
  // never asks for.  Minimal Chrome JSON: one thread_name metadata record
  // plus one p2p span.
  const std::string json = R"({"traceEvents":[
    {"name":"thread_name","ph":"M","pid":0,"tid":0,
     "args":{"name":"a:0"}},
    {"name":"thread_name","ph":"M","pid":0,"tid":1,
     "args":{"name":"b:0"}},
    {"name":"send","cat":"p2p","ph":"X","pid":0,"tid":0,"ts":1.0,
     "dur":0.5,"args":{"peer":1,"context":0,"tag":9,"bytes":4}}
  ],"mph":{}})";
  const ObservedTrace trace = read_trace_ops(json);
  const Contract contract = parse_contract(
      "contract t\ncomponent a ranks 1\ncomponent b ranks 1\n"
      "proto a { }\nproto b { }\n", "t.mphc");
  const std::vector<std::string> findings = conform(contract, trace);
  ASSERT_FALSE(findings.empty());
  EXPECT_NE(findings.front().find("a[0]"), std::string::npos);
  EXPECT_NE(findings.front().find("violates the contract"),
            std::string::npos);
}

TEST(ProtoInfer, InferredContractParsesChecksCleanAndConforms) {
  const std::string json = record_mode("scme");
  const ObservedTrace trace = read_trace_ops(json);
  const std::string text = infer_contract_text(trace, "inferred_scme");
  // Setup collectives (registry bcast, signature allgather, splits) run in
  // phase spans that inference skips, so how they are implemented never
  // changes the inferred contract.
  EXPECT_EQ(text, golden("inferred_scme.txt"));

  // The inferred text must be valid contract grammar…
  const Contract contract = parse_contract(text, "inferred.mphc");
  EXPECT_EQ(contract.name, "inferred_scme");
  ASSERT_NE(contract.find_component("coupler"), nullptr);

  // …statically consistent…
  const ProtoReport report = check(contract);
  EXPECT_TRUE(report.clean()) << report.to_string() << "\n" << text;

  // …and it must accept the very trace it was inferred from.
  const std::vector<std::string> findings = conform(contract, trace);
  EXPECT_TRUE(findings.empty())
      << (findings.empty() ? "" : findings.front()) << "\n" << text;
}

TEST(ProtoInfer, MergesSymmetricSendersIntoRangedRecvs) {
  // scse at 5 ranks: ranks 1..4 all send to rank 0.  Inference should
  // reconstruct the ranged receive and the on-blocks, not 4 separate ops.
  const ObservedTrace trace = read_trace_ops(record_mode("scse", 5));
  const std::string text = infer_contract_text(trace, "inferred_scse");
  EXPECT_NE(text.find("recv solo[1..4]"), std::string::npos) << text;
  EXPECT_NE(text.find("on 1..4"), std::string::npos) << text;
}
