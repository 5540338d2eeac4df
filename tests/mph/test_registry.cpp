// Registration-file parser: the paper's exact example files, grammar edge
// cases, validation failures, and round-trip serialization.
#include "src/mph/registry.hpp"

#include <gtest/gtest.h>

#include "src/mph/errors.hpp"

using namespace mph;

// ---------------------------------------------------------------------------
// The paper's own registration files must parse exactly.
// ---------------------------------------------------------------------------

TEST(RegistryParse, PaperSCMEFile) {
  // §4.1: five single-component executables.
  const Registry reg = Registry::parse(R"(BEGIN
atmosphere
ocean
land
ice
coupler
END
)");
  ASSERT_EQ(reg.num_executables(), 5);
  EXPECT_EQ(reg.total_components(), 5);
  EXPECT_EQ(reg.blocks()[0].kind, BlockKind::single);
  EXPECT_EQ(reg.blocks()[0].components[0].name, "atmosphere");
  EXPECT_FALSE(reg.blocks()[0].components[0].has_range());
  EXPECT_EQ(reg.blocks()[4].components[0].name, "coupler");
}

TEST(RegistryParse, PaperMCSEFile) {
  // §4.2: one multi-component executable, 36 processors.
  const Registry reg = Registry::parse(R"(BEGIN
Multi_Component_Begin
atmosphere 0 15
ocean 16 31
coupler 32 35
Multi_Component_End
END
)");
  ASSERT_EQ(reg.num_executables(), 1);
  const ExecutableBlock& block = reg.blocks()[0];
  EXPECT_EQ(block.kind, BlockKind::multi_component);
  ASSERT_EQ(block.components.size(), 3u);
  EXPECT_EQ(block.required_size(), 36);
  EXPECT_EQ(block.components[1].name, "ocean");
  EXPECT_EQ(block.components[1].low, 16);
  EXPECT_EQ(block.components[1].high, 31);
}

TEST(RegistryParse, PaperMCMEFileWithOverlapAndComments) {
  // §4.3: three executables; atmosphere and land overlap completely.
  const Registry reg = Registry::parse(R"(BEGIN
Multi_Component_Begin ! 1st multi-comp exec
atmosphere 0 15
land       0 15      ! overlap with atm
chemistry  16 19
Multi_Component_End
Multi_Component_Begin ! 2nd multi-comp exec
ocean 0 15
ice   16 31
Multi_Component_End
coupler                ! a single-comp exec
END
)");
  ASSERT_EQ(reg.num_executables(), 3);
  EXPECT_EQ(reg.total_components(), 6);
  const ExecutableBlock& first = reg.blocks()[0];
  EXPECT_EQ(first.required_size(), 20);
  EXPECT_EQ(first.components[0].low, first.components[1].low);
  EXPECT_EQ(first.components[0].high, first.components[1].high);
  EXPECT_EQ(reg.blocks()[2].kind, BlockKind::single);
}

TEST(RegistryParse, PaperMIMEFileWithArguments) {
  // §4.4: three Ocean instances plus a statistics executable.
  const Registry reg = Registry::parse(R"(BEGIN
Multi_Instance_Begin ! a multi-instance exec
Ocean1 0 15 inf1 outf1 logf alpha=3 debug=on
Ocean2 16 31 inf2 outf2 beta=4.5 debug=off
Ocean3 32 47 inf3 dynamics=finite_volume
Multi_Instance_End
statistics ! a single-component exec
END
)");
  ASSERT_EQ(reg.num_executables(), 2);
  const ExecutableBlock& ensemble = reg.blocks()[0];
  EXPECT_EQ(ensemble.kind, BlockKind::multi_instance);
  ASSERT_EQ(ensemble.components.size(), 3u);
  EXPECT_EQ(ensemble.required_size(), 48);

  const ComponentEntry& ocean1 = ensemble.components[0];
  EXPECT_EQ(ocean1.name, "Ocean1");
  EXPECT_EQ(ocean1.args.field_count(), 3u);
  int alpha = 0;
  EXPECT_TRUE(ocean1.args.get("alpha", alpha));
  EXPECT_EQ(alpha, 3);
  bool debug = false;
  EXPECT_TRUE(ocean1.args.get("debug", debug));
  EXPECT_TRUE(debug);

  const ComponentEntry& ocean2 = ensemble.components[1];
  double beta = 0;
  EXPECT_TRUE(ocean2.args.get("beta", beta));
  EXPECT_DOUBLE_EQ(beta, 4.5);
  EXPECT_TRUE(ocean2.args.get("debug", debug));
  EXPECT_FALSE(debug);

  std::string dynamics;
  EXPECT_TRUE(ensemble.components[2].args.get("dynamics", dynamics));
  EXPECT_EQ(dynamics, "finite_volume");
}

// ---------------------------------------------------------------------------
// Grammar flexibility.
// ---------------------------------------------------------------------------

TEST(RegistryParse, KeywordsAreCaseInsensitive) {
  const Registry reg = Registry::parse(
      "begin\nMULTI_COMPONENT_BEGIN\na 0 1\nmulti_component_end\nEnd\n");
  EXPECT_EQ(reg.num_executables(), 1);
}

TEST(RegistryParse, BlankLinesAndWhitespaceTolerated) {
  const Registry reg = Registry::parse(
      "\n\n  BEGIN  \n\n   atmosphere   \n\n\tocean\n  END\n\n");
  EXPECT_EQ(reg.num_executables(), 2);
}

TEST(RegistryParse, NoTrailingNewline) {
  const Registry reg = Registry::parse("BEGIN\nocean\nEND");
  EXPECT_EQ(reg.num_executables(), 1);
}

TEST(RegistryParse, SingleLineWithRangeAssertsSize) {
  const Registry reg = Registry::parse("BEGIN\ncoupler 0 3\nEND\n");
  EXPECT_EQ(reg.blocks()[0].required_size(), 4);
}

TEST(RegistryParse, ArbitraryNamesAreHonored) {
  // §4.1: "One may use NCAR_atm, or UCLA_atm, or any other names".
  const Registry reg =
      Registry::parse("BEGIN\nNCAR_atm\nUCLA-ocn.v2\nEND\n");
  EXPECT_TRUE(reg.has_component("NCAR_atm"));
  EXPECT_TRUE(reg.has_component("UCLA-ocn.v2"));
  EXPECT_FALSE(reg.has_component("atmosphere"));
}

TEST(RegistryParse, ComponentLineArgumentsInMultiComponentBlock) {
  // §4.4: "this parameter passing feature also works for the components of
  // multi-component executables".
  const Registry reg = Registry::parse(
      "BEGIN\nMulti_Component_Begin\nocean 0 3 restart=true\n"
      "ice 4 7 albedo=0.7\nMulti_Component_End\nEND\n");
  bool restart = false;
  EXPECT_TRUE(reg.blocks()[0].components[0].args.get("restart", restart));
  EXPECT_TRUE(restart);
  double albedo = 0;
  EXPECT_TRUE(reg.blocks()[0].components[1].args.get("albedo", albedo));
  EXPECT_DOUBLE_EQ(albedo, 0.7);
}

// ---------------------------------------------------------------------------
// Validation failures (each carries a line number).
// ---------------------------------------------------------------------------

namespace {
int error_line(const std::string& text) {
  try {
    (void)Registry::parse(text);
  } catch (const RegistryError& e) {
    return e.line();
  }
  return -1;
}
}  // namespace

TEST(RegistryErrors, MissingBegin) {
  EXPECT_THROW((void)Registry::parse("atmosphere\nEND\n"), RegistryError);
}

TEST(RegistryErrors, EmptyFile) {
  EXPECT_THROW((void)Registry::parse(""), RegistryError);
  EXPECT_THROW((void)Registry::parse("   \n  ! nothing\n"), RegistryError);
}

TEST(RegistryErrors, MissingEnd) {
  EXPECT_THROW((void)Registry::parse("BEGIN\nocean\n"), RegistryError);
}

TEST(RegistryErrors, ContentAfterEnd) {
  EXPECT_EQ(error_line("BEGIN\nocean\nEND\nstray\n"), 4);
}

TEST(RegistryErrors, NoComponents) {
  EXPECT_THROW((void)Registry::parse("BEGIN\nEND\n"), RegistryError);
}

TEST(RegistryErrors, DuplicateComponentNames) {
  EXPECT_EQ(error_line("BEGIN\nocean\nocean\nEND\n"), 3);
  EXPECT_THROW((void)Registry::parse("BEGIN\nMulti_Component_Begin\n"
                                     "a 0 1\nb 2 3\nMulti_Component_End\n"
                                     "a\nEND\n"),
               RegistryError);
}

TEST(RegistryErrors, NestedBlocks) {
  EXPECT_THROW(
      (void)Registry::parse("BEGIN\nMulti_Component_Begin\n"
                            "Multi_Instance_Begin\nMulti_Instance_End\n"
                            "Multi_Component_End\nEND\n"),
      RegistryError);
}

TEST(RegistryErrors, UnterminatedBlock) {
  EXPECT_THROW((void)Registry::parse(
                   "BEGIN\nMulti_Component_Begin\na 0 1\nEND\n"),
               RegistryError);
}

TEST(RegistryErrors, MismatchedBlockEnd) {
  EXPECT_THROW((void)Registry::parse(
                   "BEGIN\nMulti_Component_Begin\na 0 1\n"
                   "Multi_Instance_End\nEND\n"),
               RegistryError);
}

TEST(RegistryErrors, EndKeywordAloneOutsideBlock) {
  EXPECT_THROW((void)Registry::parse("BEGIN\nMulti_Component_End\nEND\n"),
               RegistryError);
}

TEST(RegistryErrors, RangeRequiredInsideBlocks) {
  EXPECT_EQ(error_line("BEGIN\nMulti_Component_Begin\natmosphere\n"
                       "Multi_Component_End\nEND\n"),
            3);
}

TEST(RegistryErrors, BadRanges) {
  // high < low
  EXPECT_THROW((void)Registry::parse("BEGIN\nMulti_Component_Begin\n"
                                     "a 5 2\nMulti_Component_End\nEND\n"),
               RegistryError);
  // negative low (parsed as no-range tokens inside a block -> error)
  EXPECT_THROW((void)Registry::parse("BEGIN\nMulti_Component_Begin\n"
                                     "a -1 3\nMulti_Component_End\nEND\n"),
               RegistryError);
}

TEST(RegistryErrors, InstanceRangesMustTileContiguously) {
  // Gap between instances.
  EXPECT_THROW((void)Registry::parse("BEGIN\nMulti_Instance_Begin\n"
                                     "O1 0 15\nO2 17 31\n"
                                     "Multi_Instance_End\nEND\n"),
               RegistryError);
  // Overlap between instances.
  EXPECT_THROW((void)Registry::parse("BEGIN\nMulti_Instance_Begin\n"
                                     "O1 0 15\nO2 10 31\n"
                                     "Multi_Instance_End\nEND\n"),
               RegistryError);
  // Not starting at 0.
  EXPECT_THROW((void)Registry::parse("BEGIN\nMulti_Instance_Begin\n"
                                     "O1 4 15\nMulti_Instance_End\nEND\n"),
               RegistryError);
}

TEST(RegistryErrors, MoreThanTenComponentsPerExecutable) {
  // Paper: "Each executable could contain up to 10 components."
  std::string text = "BEGIN\nMulti_Component_Begin\n";
  for (int i = 0; i < 11; ++i) {
    text += "c" + std::to_string(i) + " " + std::to_string(i) + " " +
            std::to_string(i) + "\n";
  }
  text += "Multi_Component_End\nEND\n";
  EXPECT_THROW((void)Registry::parse(text), RegistryError);
}

TEST(RegistryParse, InstanceCountIsUnlimited) {
  // §4.4: "There is no limit of the number of instances."
  std::string text = "BEGIN\nMulti_Instance_Begin\n";
  for (int i = 0; i < 64; ++i) {
    text += "Run" + std::to_string(i) + " " + std::to_string(i) + " " +
            std::to_string(i) + "\n";
  }
  text += "Multi_Instance_End\nEND\n";
  const Registry reg = Registry::parse(text);
  EXPECT_EQ(reg.total_components(), 64);
}

TEST(RegistryErrors, MoreThanFiveArgumentTokens) {
  // Paper: "Up to 5 character strings can be appended to each line."
  EXPECT_THROW((void)Registry::parse(
                   "BEGIN\nMulti_Instance_Begin\n"
                   "O1 0 3 f1 f2 f3 f4 f5 f6\n"
                   "Multi_Instance_End\nEND\n"),
               RegistryError);
}

TEST(RegistryErrors, DuplicateArgumentKeyOnOneLine) {
  EXPECT_THROW((void)Registry::parse("BEGIN\nMulti_Instance_Begin\n"
                                     "O1 0 3 a=1 a=2\n"
                                     "Multi_Instance_End\nEND\n"),
               RegistryError);
}

TEST(RegistryErrors, ReservedWordAsName) {
  EXPECT_THROW((void)Registry::parse("BEGIN\nBEGIN\nEND\n"), RegistryError);
}

// ---------------------------------------------------------------------------
// Round-trip: parse(to_text(parse(x))) == parse(x) on the model level.
// ---------------------------------------------------------------------------

namespace {
void expect_roundtrip(const std::string& text) {
  const Registry a = Registry::parse(text);
  const Registry b = Registry::parse(a.to_text());
  ASSERT_EQ(a.num_executables(), b.num_executables());
  for (int i = 0; i < a.num_executables(); ++i) {
    const ExecutableBlock& ba = a.blocks()[static_cast<std::size_t>(i)];
    const ExecutableBlock& bb = b.blocks()[static_cast<std::size_t>(i)];
    EXPECT_EQ(ba.kind, bb.kind);
    ASSERT_EQ(ba.components.size(), bb.components.size());
    for (std::size_t c = 0; c < ba.components.size(); ++c) {
      EXPECT_EQ(ba.components[c].name, bb.components[c].name);
      EXPECT_EQ(ba.components[c].low, bb.components[c].low);
      EXPECT_EQ(ba.components[c].high, bb.components[c].high);
      EXPECT_EQ(ba.components[c].args, bb.components[c].args);
    }
  }
}
}  // namespace

TEST(RegistryRoundTrip, AllPaperFiles) {
  expect_roundtrip("BEGIN\natmosphere\nocean\nland\nice\ncoupler\nEND\n");
  expect_roundtrip(
      "BEGIN\nMulti_Component_Begin\natmosphere 0 15\nocean 16 31\n"
      "coupler 32 35\nMulti_Component_End\nEND\n");
  expect_roundtrip(
      "BEGIN\nMulti_Instance_Begin\n"
      "Ocean1 0 15 inf1 outf1 logf alpha=3 debug=on\n"
      "Ocean2 16 31 inf2 outf2 beta=4.5 debug=off\n"
      "Ocean3 32 47 inf3 dynamics=finite_volume\n"
      "Multi_Instance_End\nstatistics\nEND\n");
}
