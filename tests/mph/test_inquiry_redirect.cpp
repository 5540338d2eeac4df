// Inquiry functions (paper §5.3), multi-channel output (paper §5.4), and
// the paper-spelling compat layer.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>

#include "src/mph/compat.hpp"
#include "src/util/strings.hpp"
#include "tests/mph/mph_test_util.hpp"

using namespace mph;
using namespace mph::testing;
using minimpi::Comm;

namespace {
const std::string kRegistry = "BEGIN\natmosphere\nocean\ncoupler\nEND\n";

std::string read_file(const std::filesystem::path& p) {
  return mph::util::read_file(p.string()).value_or("");
}

std::filesystem::path fresh_dir(const std::string& name) {
  const auto dir = std::filesystem::temp_directory_path() / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}
}  // namespace

TEST(Inquiry, AllPaperFunctions) {
  run_mph_ok(
      kRegistry,
      {TestExec{{"atmosphere"}, "", 3,
                [](Mph& h, const Comm& world) {
                  EXPECT_EQ(h.local_proc_id(), world.rank());
                  EXPECT_EQ(h.global_proc_id(), world.rank());
                  EXPECT_EQ(h.comp_name(), "atmosphere");
                  EXPECT_EQ(h.total_components(), 3);
                  EXPECT_EQ(h.exe_low_proc_limit(), 0);
                  EXPECT_EQ(h.exe_up_proc_limit(), 2);
                  EXPECT_EQ(h.exec_index(), 0);
                  EXPECT_EQ(h.my_components(),
                            std::vector<std::string>{"atmosphere"});
                }},
       TestExec{{"ocean"}, "", 2,
                [](Mph& h, const Comm& world) {
                  EXPECT_EQ(h.local_proc_id(), world.rank() - 3);
                  EXPECT_EQ(h.exe_low_proc_limit(), 3);
                  EXPECT_EQ(h.exe_up_proc_limit(), 4);
                }},
       TestExec{{"coupler"}, "", 1, nullptr}});
}

TEST(Inquiry, DirectoryCoverageQueries) {
  run_mph_ok(kRegistry,
             {TestExec{{"atmosphere"}, "", 2,
                       [](Mph& h, const Comm&) {
                         const Directory& dir = h.directory();
                         EXPECT_EQ(dir.components_covering(0),
                                   std::vector<int>{0});
                         EXPECT_EQ(dir.components_covering(3),
                                   std::vector<int>{2});
                         EXPECT_EQ(dir.exec_of_world_rank(2).base, 2);
                         EXPECT_EQ(dir.local_rank("ocean", 2), 0);
                         EXPECT_EQ(dir.local_rank("ocean", 0), -1);
                         EXPECT_EQ(dir.component_names(),
                                   (std::vector<std::string>{
                                       "atmosphere", "ocean", "coupler"}));
                       }},
              TestExec{{"ocean"}, "", 1, nullptr},
              TestExec{{"coupler"}, "", 1, nullptr}});
}

TEST(Redirect, ComponentRootsGetOwnLogFiles) {
  const auto dir = fresh_dir("mph_redirect_roots");
  run_mph_ok(
      kRegistry,
      {TestExec{{"atmosphere"}, "", 2,
                [&dir](Mph& h, const Comm&) {
                  h.redirect_output(dir.string());
                  h.out() << "atm step 1 ok" << std::endl;
                  h.flush_output();
                }},
       TestExec{{"ocean"}, "", 2,
                [&dir](Mph& h, const Comm&) {
                  h.redirect_output(dir.string());
                  h.out() << "ocn SST=15.5" << std::endl;
                  h.flush_output();
                }},
       TestExec{{"coupler"}, "", 1,
                [&dir](Mph& h, const Comm&) {
                  h.redirect_output(dir.string());
                  h.out() << "cpl fluxes merged" << std::endl;
                  h.flush_output();
                }}});

  // Local proc 0 of each component writes to <component>.log ...
  const std::string atm_log = read_file(dir / "atmosphere.log");
  EXPECT_NE(atm_log.find("atm step 1 ok"), std::string::npos);
  const std::string ocn_log = read_file(dir / "ocean.log");
  EXPECT_NE(ocn_log.find("SST=15.5"), std::string::npos);
  const std::string cpl_log = read_file(dir / "coupler.log");
  EXPECT_NE(cpl_log.find("fluxes merged"), std::string::npos);

  // ... and non-root writes land in the combined file, prefixed.
  const std::string combined =
      read_file(dir / OutputRouter::kCombinedLogName);
  EXPECT_NE(combined.find("[atmosphere:1] atm step 1 ok"),
            std::string::npos);
  EXPECT_NE(combined.find("[ocean:1] ocn SST=15.5"), std::string::npos);
  // The single-rank coupler has no non-root ranks.
  EXPECT_EQ(combined.find("coupler"), std::string::npos);
}

TEST(Redirect, LinesFromConcurrentRanksStayIntact) {
  const auto dir = fresh_dir("mph_redirect_atomic");
  run_mph_ok("BEGIN\nnoisy\nEND\n",
             {TestExec{{"noisy"}, "", 4, [&dir](Mph& h, const Comm&) {
                         h.redirect_output(dir.string());
                         for (int i = 0; i < 50; ++i) {
                           h.out() << "rank " << h.local_proc_id()
                                   << " line " << i << " complete"
                                   << std::endl;
                         }
                         h.flush_output();
                       }}});
  // Every line in the combined file must be whole (prefix...complete).
  std::ifstream in(dir / OutputRouter::kCombinedLogName);
  std::string line;
  int count = 0;
  while (std::getline(in, line)) {
    EXPECT_TRUE(line.starts_with("[noisy:")) << line;
    EXPECT_TRUE(line.ends_with("complete")) << line;
    ++count;
  }
  EXPECT_EQ(count, 3 * 50);  // ranks 1..3; rank 0 went to noisy.log
}

TEST(Redirect, PartialLineFlushedOnDemand) {
  const auto dir = fresh_dir("mph_redirect_partial");
  run_mph_ok("BEGIN\nsolo\nEND\n",
             {TestExec{{"solo"}, "", 1, [&dir](Mph& h, const Comm&) {
                         h.redirect_output(dir.string());
                         h.out() << "no newline here";
                         h.flush_output();
                       }}});
  EXPECT_NE(read_file(dir / "solo.log").find("no newline here"),
            std::string::npos);
}

TEST(Redirect, OutBeforeRedirectThrows) {
  run_mph_ok("BEGIN\nsolo\nEND\n",
             {TestExec{{"solo"}, "", 1, [](Mph& h, const Comm&) {
                         EXPECT_THROW((void)h.out(), MphError);
                       }}});
}

// ---------------------------------------------------------------------------
// Paper-spelling compat layer.
// ---------------------------------------------------------------------------

TEST(Compat, PaperStyleMainProgram) {
  const minimpi::JobReport report = minimpi::run_mpmd(
      {
          minimpi::ExecSpec{
              "atm", 2,
              [](const Comm& world, const minimpi::ExecEnv&) {
                using namespace mph::compat;
                const RegistrySource source =
                    RegistrySource::from_text(kRegistry);
                // atmosphere_World = MPH_components_setup(name1="atmosphere")
                const Comm atmosphere_world =
                    MPH_components_setup(world, source, {"atmosphere"});
                EXPECT_EQ(atmosphere_world.size(), 2);
                EXPECT_EQ(MPH_comp_name(), "atmosphere");
                EXPECT_EQ(MPH_local_proc_id(), atmosphere_world.rank());
                EXPECT_EQ(MPH_global_proc_id(), world.rank());
                EXPECT_EQ(MPH_total_components(), 3);
                EXPECT_EQ(MPH_exe_low_proc_limit(), 0);
                EXPECT_EQ(MPH_exe_up_proc_limit(), 1);
                EXPECT_TRUE(MPH_global_world().valid());
                clear_current();
              },
              {}},
          minimpi::ExecSpec{
              "ocn", 1,
              [](const Comm& world, const minimpi::ExecEnv&) {
                using namespace mph::compat;
                const Comm ocean_world = MPH_components_setup(
                    world, RegistrySource::from_text(kRegistry), {"ocean"});
                EXPECT_EQ(ocean_world.size(), 1);
                Comm check;
                EXPECT_TRUE(PROC_in_component("ocean", check));
                EXPECT_FALSE(PROC_in_component("atmosphere", check));
                clear_current();
              },
              {}},
          minimpi::ExecSpec{
              "cpl", 1,
              [](const Comm& world, const minimpi::ExecEnv&) {
                using namespace mph::compat;
                (void)MPH_components_setup(
                    world, RegistrySource::from_text(kRegistry), {"coupler"});
                clear_current();
              },
              {}},
      },
      test_job_options());
  ASSERT_TRUE(report.ok) << report.abort_reason << " / "
                         << report.first_error();
}

TEST(Compat, HandleLeftSetDoesNotReachTheNextJob) {
  // Ranks that set up and return without clear_current: their pooled
  // threads run the next job's ranks, which must start with no handle.
  const auto setup_and_leave = [](const std::string& name) {
    return minimpi::ExecSpec{
        name, 1,
        [name](const Comm& world, const minimpi::ExecEnv&) {
          using namespace mph::compat;
          (void)MPH_components_setup(
              world, RegistrySource::from_text(kRegistry), {name});
          EXPECT_TRUE(has_current());
        },
        {}};
  };
  const minimpi::JobReport first = minimpi::run_mpmd(
      {setup_and_leave("atmosphere"), setup_and_leave("ocean"),
       setup_and_leave("coupler")},
      test_job_options());
  ASSERT_TRUE(first.ok) << first.abort_reason;

  std::atomic<int> with_handle{0};
  const minimpi::JobReport next = minimpi::run_spmd(
      3,
      [&](const Comm&, const minimpi::ExecEnv&) {
        if (mph::compat::has_current()) ++with_handle;
      },
      test_job_options());
  ASSERT_TRUE(next.ok) << next.abort_reason;
  EXPECT_EQ(with_handle.load(), 0);
}

TEST(Compat, NoSetupThrows) {
  mph::compat::clear_current();
  EXPECT_FALSE(mph::compat::has_current());
  EXPECT_THROW((void)mph::compat::MPH_local_proc_id(), MphError);
}

TEST(Compat, ArgumentOverloads) {
  const std::string registry = R"(BEGIN
Multi_Instance_Begin
Run1 0 0 infile alpha=3 beta=4.5 debug=on tag=hi
Multi_Instance_End
END
)";
  const minimpi::JobReport report = minimpi::run_mpmd(
      {minimpi::ExecSpec{
          "run", 1,
          [&registry](const Comm& world, const minimpi::ExecEnv&) {
            using namespace mph::compat;
            (void)MPH_multi_instance(
                world, RegistrySource::from_text(registry), "Run");
            int alpha = 0;
            EXPECT_TRUE(MPH_get_argument("alpha", alpha));
            EXPECT_EQ(alpha, 3);
            double beta = 0;
            EXPECT_TRUE(MPH_get_argument("beta", beta));
            EXPECT_DOUBLE_EQ(beta, 4.5);
            bool debug = false;
            EXPECT_TRUE(MPH_get_argument("debug", debug));
            EXPECT_TRUE(debug);
            std::string tag;
            EXPECT_TRUE(MPH_get_argument("tag", tag));
            EXPECT_EQ(tag, "hi");
            std::string field;
            EXPECT_TRUE(MPH_get_argument(std::size_t{1}, field));
            EXPECT_EQ(field, "infile");
            clear_current();
          },
          {}}},
      test_job_options());
  ASSERT_TRUE(report.ok) << report.abort_reason;
}
