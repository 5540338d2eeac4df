// Parser tests: grammar round-trips, position-accurate diagnostics (exact
// text pinned against tests/proto/golden/parser_errors.txt), forward-
// reference validation, and contract hashing.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/proto/contract.hpp"
#include "src/proto/parser.hpp"
#include "tests/proto/proto_test_util.hpp"

using namespace mph::proto;
using mph::proto::testing::golden;

namespace {

const std::string kRich = R"(contract rich
component atm ranks 4
component cpl ranks 1

proto atm {
  loop 3 {
    send cpl[0] tag 7 type double count 16
  }
  either {
    recv cpl[0] tag 8 type int
  } or {
    recv any tag 9 bytes 12
  }
  barrier world
}

proto cpl {
  loop 3 {
    gather {
      recv atm[*] tag 7 type double count 16
    }
  }
  on 0 {
    either {
      send atm[0] tag 8 type int
      send atm[1] tag 8 type int
      send atm[2] tag 8 type int
      send atm[3] tag 8 type int
    } or {
      send atm[0] tag 9 bytes 12
      send atm[1] tag 9 bytes 12
      send atm[2] tag 9 bytes 12
      send atm[3] tag 9 bytes 12
    }
  }
  barrier world
}
)";

}  // namespace

TEST(ProtoParser, RichContractRoundTripsThroughText) {
  const Contract first = parse_contract(kRich, "rich.mphc");
  const std::string text = first.to_text();
  const Contract second = parse_contract(text, "rich.mphc");
  EXPECT_EQ(text, second.to_text());
  EXPECT_EQ(first.name, "rich");
  ASSERT_EQ(first.components.size(), 2u);
  EXPECT_EQ(first.components[0].name, "atm");
  EXPECT_EQ(first.components[0].ranks, 4);
  ASSERT_NE(first.find_proto("cpl"), nullptr);
}

TEST(ProtoParser, SourceLocationsPointAtTheOperation) {
  const Contract c = parse_contract(kRich, "rich.mphc");
  const ProtoDecl* atm = c.find_proto("atm");
  ASSERT_NE(atm, nullptr);
  // First item is the loop on line 6; its body op sits on line 7.
  ASSERT_FALSE(atm->body.items.empty());
  EXPECT_EQ(atm->body.items[0].loc.line, 6);
  ASSERT_FALSE(atm->body.items[0].branches.empty());
  EXPECT_EQ(atm->body.items[0].branches[0].items[0].op.loc.line, 7);
}

TEST(ProtoParser, BuiltinTypeSizesMatchMinimpiWidths) {
  EXPECT_EQ(builtin_type_size("char"), 1u);
  EXPECT_EQ(builtin_type_size("int"), 4u);
  EXPECT_EQ(builtin_type_size("float"), 4u);
  EXPECT_EQ(builtin_type_size("double"), 8u);
  EXPECT_EQ(builtin_type_size("i64"), 8u);
  EXPECT_EQ(builtin_type_size("u16"), 2u);
  EXPECT_EQ(builtin_type_size("widget"), 0u);
}

TEST(ProtoParser, DiagnosticsMatchGoldenFile) {
  // Each probe yields one ContractParseError; the golden file pins the
  // exact message including "origin:line:column".  Every probe shares the
  // same 4-line skeleton so positions stay comparable.
  const std::vector<std::string> probes = {
      "send solo tag 7 type int",
      "recv solo[*] tag x type int",
      "send solo[0] tag 7 type widget",
      "flarp solo[0]",
      "send solo[5] tag 7 type int",
      "either { barrier world }",
      "send solo[0] tag 99999999999999999999 type int",
      "send solo[0] tag 4294967303 type int",
  };
  std::string got;
  for (const std::string& probe : probes) {
    const std::string text = "contract t\ncomponent solo ranks 2\n"
                             "proto solo {\n  " + probe + "\n}\n";
    try {
      (void)parse_contract(text, "probe.mphc");
      ADD_FAILURE() << "probe parsed unexpectedly: " << probe;
    } catch (const ContractParseError& e) {
      got += e.what();
      got += '\n';
    }
  }
  EXPECT_EQ(got, golden("parser_errors.txt"));
}

TEST(ProtoParser, ValidatesForwardReferences) {
  // Peer component declared after the proto that uses it is fine…
  EXPECT_NO_THROW(parse_contract(
      "contract t\nproto a { send b[0] tag 1 type int }\n"
      "component a ranks 1\ncomponent b ranks 1\n"
      "proto b { recv a[0] tag 1 type int }\n"));
  // …but a peer that never appears is not.
  EXPECT_THROW(parse_contract("contract t\ncomponent a ranks 1\n"
                              "proto a { send ghost[0] tag 1 type int }\n"),
               ContractParseError);
  // A proto for an undeclared component is rejected too.
  EXPECT_THROW(parse_contract("contract t\ncomponent a ranks 1\n"
                              "proto ghost { barrier world }\n"),
               ContractParseError);
}

TEST(ProtoParser, RejectsDuplicatesAndBadStructure) {
  EXPECT_THROW(parse_contract("contract t\ncomponent a ranks 1\n"
                              "component a ranks 2\n"),
               ContractParseError);
  EXPECT_THROW(parse_contract("contract t\ncomponent a ranks 1\n"
                              "proto a { barrier world }\n"
                              "proto a { barrier world }\n"),
               ContractParseError);
  // gather admits only receives.
  EXPECT_THROW(parse_contract("contract t\ncomponent a ranks 2\n"
                              "proto a { gather { barrier world } }\n"),
               ContractParseError);
  // send must name an exact destination rank, not a range.
  EXPECT_THROW(parse_contract("contract t\ncomponent a ranks 2\n"
                              "proto a { send a[0..1] tag 1 type int }\n"),
               ContractParseError);
}

TEST(ProtoParser, HashIsStableAndTextSensitive) {
  const std::string a = "contract t\ncomponent a ranks 1\n";
  const std::string b = "contract t\ncomponent a ranks 2\n";
  EXPECT_EQ(contract_hash(a), contract_hash(a));
  EXPECT_NE(contract_hash(a), contract_hash(b));
  const std::string hex = contract_hash_hex(a);
  EXPECT_EQ(hex.size(), 8u);
  EXPECT_EQ(hex.find_first_not_of("0123456789abcdef"), std::string::npos);
}

TEST(ProtoParser, CommentsAndBlankLinesIgnored) {
  const Contract c = parse_contract(
      "# header\ncontract t  # trailing\n\ncomponent a ranks 1\n"
      "proto a {\n  # nothing yet\n  barrier world\n}\n");
  ASSERT_NE(c.find_proto("a"), nullptr);
  EXPECT_EQ(c.find_proto("a")->body.items.size(), 1u);
}
