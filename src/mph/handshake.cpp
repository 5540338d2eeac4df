#include "src/mph/handshake.hpp"

#include <numeric>
#include <optional>
#include <set>
#include <span>
#include <string_view>

#include "src/minimpi/collectives.hpp"
#include "src/mph/errors.hpp"
#include "src/mph/layout.hpp"
#include "src/util/diagnostics.hpp"
#include "src/util/strings.hpp"

namespace mph {

namespace u = util;
using minimpi::Comm;
using minimpi::rank_t;

namespace {

void validate_declaration(const LocalDeclaration& decl) {
  if (decl.names.empty()) {
    throw SetupError("setup call declares no component names");
  }
  if (decl.is_instance && decl.names.size() != 1) {
    throw SetupError("multi_instance takes exactly one name prefix");
  }
  if (!decl.is_instance &&
      static_cast<int>(decl.names.size()) >
          Registry::kMaxComponentsPerExecutable) {
    throw SetupError("setup call declares " +
                     std::to_string(decl.names.size()) +
                     " components; each executable could contain up to " +
                     std::to_string(Registry::kMaxComponentsPerExecutable));
  }
  std::set<std::string, std::less<>> seen;
  for (const std::string& name : decl.names) {
    if (!u::valid_component_name(name)) {
      throw SetupError("invalid component name '" + name + "' in setup call");
    }
    if (!seen.insert(name).second) {
      throw SetupError("component name '" + name +
                       "' repeated in one setup call");
    }
  }
}

/// Ranks low..high: the group of a run or of a component's range, which
/// every rank knows after the signature allgather.
std::vector<rank_t> rank_range(rank_t low, rank_t high) {
  std::vector<rank_t> ranks(static_cast<std::size_t>(high - low + 1));
  std::iota(ranks.begin(), ranks.end(), low);
  return ranks;
}

/// True when no two components of the block share a processor.
bool block_is_disjoint(const ExecutableBlock& block) {
  for (std::size_t i = 0; i < block.components.size(); ++i) {
    for (std::size_t j = i + 1; j < block.components.size(); ++j) {
      const ComponentEntry& a = block.components[i];
      const ComponentEntry& b = block.components[j];
      if (a.low <= b.high && b.low <= a.high) return false;
    }
  }
  return true;
}

/// Index of the executable run covering world rank `me`, or -1.
int run_of(const std::vector<ExecutableRun>& runs, rank_t me) {
  for (std::size_t r = 0; r < runs.size(); ++r) {
    if (me >= runs[r].base && me < runs[r].base + runs[r].size) {
      return static_cast<int>(r);
    }
  }
  return -1;
}

/// Label this rank (result.world, run result.exec_index, executable-
/// relative rank `rel` of `block`) with its primary component — for
/// failure reports, the monitor's per-component rollup, and the trace track
/// in the paper's component[instance]:local_rank naming — and, under MIME
/// isolation, register it into its instance's failure domain.  Returns the
/// primary component id, or -1 (nothing labelled) when no component of the
/// block covers `rel`.
int adopt_primary_component(minimpi::Job& job, const HandshakeResult& result,
                            const ExecutableBlock& block, rank_t rel,
                            const HandshakeOptions& options) {
  const std::vector<int>& ids =
      result.directory.execs()[static_cast<std::size_t>(result.exec_index)]
          .component_ids;
  int primary = -1;
  rank_t local = rel;  // rank within the primary component
  if (block.kind == BlockKind::single) {
    primary = ids.front();
  } else {
    for (std::size_t i = 0; i < block.components.size(); ++i) {
      const ComponentEntry& c = block.components[i];
      if (rel >= c.low && rel <= c.high) {
        primary = ids[i];
        local = rel - c.low;
        break;
      }
    }
  }
  if (primary < 0) return -1;
  const ComponentRecord& record = result.directory.component(primary);
  const rank_t me = result.world.rank();
  job.set_rank_label(me, record.name);
  if (minimpi::MetricsRegistry* metrics = job.metrics()) {
    metrics->set_component(me, record.name);
  }
  if (minimpi::Tracer* tracer = job.tracer()) {
    tracer->set_track_name(me, record.name + ":" + std::to_string(local));
  }
  if (options.isolate_instances && block.kind == BlockKind::multi_instance) {
    job.join_domain(me, primary, record.name);
  }
  return primary;
}

}  // namespace

HandshakeResult handshake(const Comm& world, const Registry& registry,
                          const LocalDeclaration& declaration,
                          const HandshakeOptions& options) {
  minimpi::Tracer* tracer = world.job().tracer();
  const minimpi::JobClock& clock = world.job().clock();
  const minimpi::TraceSpan phase(tracer, world.global_of(world.rank()),
                                 minimpi::TraceOp::phase, "handshake",
                                 minimpi::kPhaseHandshake);
  // Record the handshake duration on every exit path, a throw included, so
  // the monitor's per-rank handshake_ns gauge is always set.
  struct HandshakeClock {
    minimpi::MetricsRegistry* metrics;
    const minimpi::JobClock& clock;
    minimpi::rank_t rank;
    std::uint64_t t0;
    [[nodiscard]] std::uint64_t micros() const {
      return (clock.now_ns() - t0) / 1000;
    }
    ~HandshakeClock() {
      if (metrics != nullptr) {
        metrics->set_handshake_ns(rank, clock.now_ns() - t0);
      }
    }
  } handshake_clock{world.job().metrics(), clock,
                    world.global_of(world.rank()), clock.now_ns()};
  validate_declaration(declaration);

  // --- Steps 1-2 (§6): allgather signatures, derive executable runs. ------
  const std::string my_signature = pinned_signature(declaration, options);
  std::vector<std::string> signatures;
  {
    const minimpi::TraceSpan stage(tracer, world.global_of(world.rank()),
                                   minimpi::TraceOp::phase,
                                   "signature_allgather",
                                   minimpi::kPhaseSignatures);
    signatures = minimpi::allgather_strings(world, my_signature);
  }

  // Contract-version agreement: every executable that pins a contract must
  // pin the SAME one.  Mismatches fail here — at registration, before any
  // model message — on every rank identically (the signature vector is
  // identical everywhere).  Unpinned executables are exempt.
  {
    std::string pin;
    rank_t pin_rank = 0;
    for (rank_t r = 0; r < static_cast<rank_t>(signatures.size()); ++r) {
      const std::string other =
          signature_contract_pin(signatures[static_cast<std::size_t>(r)]);
      if (other.empty()) continue;
      if (pin.empty()) {
        pin = other;
        pin_rank = r;
      } else if (other != pin) {
        throw SetupError(
            "contract version mismatch: world rank " +
            std::to_string(pin_rank) + " pins contract " + pin +
            " but world rank " + std::to_string(r) + " pins contract " +
            other + " — rebuild the executables against one contract");
      }
    }
  }
  const std::vector<ExecutableRun> runs = find_runs(signatures);

  // --- Step 3: match runs against the registry, build the directory. ------
  // Deterministic from identical inputs, so every rank throws (or not)
  // identically — errors never strand a subset of ranks in a collective.
  const std::uint64_t t_layout = clock.now_ns();
  LayoutResolution resolution = resolve_layout(registry, runs);
  if (tracer != nullptr) {
    tracer->span_end(world.global_of(world.rank()), minimpi::TraceOp::phase,
                     "layout_resolve", t_layout, minimpi::any_source,
                     minimpi::kWorldContext, minimpi::kPhaseLayout);
  }

  HandshakeResult result;
  result.directory = std::move(resolution.directory);
  result.world = world;
  result.declaration = declaration;
  result.options = options;

  const rank_t my_world = world.rank();
  const int my_run = run_of(runs, my_world);
  if (my_run < 0) {
    // find_runs covers every rank of the allgathered signature vector, so
    // this indicates a substrate bug (e.g. a short allgather) — fail loudly
    // instead of indexing runs[-1].
    throw SetupError("world rank " + std::to_string(my_world) +
                     " is not covered by any executable run (" +
                     std::to_string(signatures.size()) +
                     " signatures gathered, " + std::to_string(runs.size()) +
                     " runs derived)");
  }
  result.exec_index = my_run;
  const ExecutableRun& run = runs[static_cast<std::size_t>(my_run)];
  const ExecutableBlock& my_block =
      registry.blocks()[static_cast<std::size_t>(
          resolution.block_of_run[static_cast<std::size_t>(my_run)])];
  const rank_t rel = my_world - run.base;  // executable-relative rank

  // Before the first split: a failure during communicator creation should
  // already be attributed (and contained) correctly.
  (void)adopt_primary_component(world.job(), result, my_block, rel, options);

  // Publish the established layout to the job blackboard so that a
  // respawned member can rebuild this exact directory later without any
  // collective involving survivors (rejoin_handshake).  Only a failure
  // domain's ranks can be respawned, and each of them publishes (the
  // inputs, and so the values, are identical everywhere) before it can
  // leave the handshake: the splits below send nothing and hold no rank
  // back until another has published, so a replacement must find the copy
  // its own predecessor wrote.
  if (world.job().domain_of(my_world) >= 0) {
    world.job().put_shared(kRegistryKey, registry.to_text());
    world.job().put_shared(kSignaturesKey, u::join(signatures, "\n"));
  }

  // --- Step 4 (§6.1/§6.2): create communicators. ---------------------------
  // Every split's groups follow from the runs and ranges all ranks now
  // hold, so each is a split_known: the same collective, no messages.
  const minimpi::TraceSpan comm_setup(tracer, my_world,
                                      minimpi::TraceOp::phase, "comm_setup",
                                      minimpi::kPhaseCommSetup);
  const std::vector<rank_t> run_ranks =
      rank_range(run.base, run.base + run.size - 1);
  // Split world into executables first.  A single-component executable's
  // run is its component, so for it this is §6.1's one split.
  result.exec_comm = world.split_known(run_ranks);

  const std::vector<int>& block_component_ids =
      result.directory.execs()[static_cast<std::size_t>(my_run)].component_ids;

  switch (my_block.kind) {
    case BlockKind::single: {
      result.my_component_ids.push_back(block_component_ids.front());
      result.my_component_comms.push_back(result.exec_comm);
      break;
    }
    case BlockKind::multi_instance: {
      // Instances tile the executable; exactly one covers `rel`.
      int my_instance = -1;
      for (std::size_t i = 0; i < my_block.components.size(); ++i) {
        const ComponentEntry& c = my_block.components[i];
        if (rel >= c.low && rel <= c.high) {
          my_instance = static_cast<int>(i);
          break;
        }
      }
      if (my_instance < 0) {
        throw SetupError("rank " + std::to_string(rel) +
                         " of a multi-instance executable is not covered by "
                         "any instance range");
      }
      const ComponentEntry& mine =
          my_block.components[static_cast<std::size_t>(my_instance)];
      Comm comp =
          result.exec_comm.split_known(rank_range(mine.low, mine.high));
      if (options.isolate_instances) {
        // The launcher respawns a domain once every registered member has
        // exited, so no member may leave the handshake (and fail) before
        // its partners have joined the domain.  The splits send nothing
        // and so no longer hold it back; the barrier does.
        minimpi::barrier(comp);
      }
      result.my_component_ids.push_back(
          block_component_ids[static_cast<std::size_t>(my_instance)]);
      result.my_component_comms.push_back(std::move(comp));
      break;
    }
    case BlockKind::multi_component: {
      if (block_is_disjoint(my_block)) {
        // §6.2 disjoint case: a single split builds every component
        // communicator at once.
        int my_component = -1;  // index within the block
        for (std::size_t i = 0; i < my_block.components.size(); ++i) {
          const ComponentEntry& c = my_block.components[i];
          if (rel >= c.low && rel <= c.high) {
            my_component = static_cast<int>(i);
            break;
          }
        }
        std::vector<rank_t> group;
        if (my_component >= 0) {
          const ComponentEntry& c =
              my_block.components[static_cast<std::size_t>(my_component)];
          group = rank_range(c.low, c.high);
        }
        Comm comp = result.exec_comm.split_known(group);
        if (my_component >= 0) {
          result.my_component_ids.push_back(
              block_component_ids[static_cast<std::size_t>(my_component)]);
          result.my_component_comms.push_back(std::move(comp));
        }
      } else {
        // §6.2 overlap case: one split per component, every exec rank
        // participating in each (the component's range, or no group).
        for (std::size_t i = 0; i < my_block.components.size(); ++i) {
          const ComponentEntry& c = my_block.components[i];
          const bool covers = rel >= c.low && rel <= c.high;
          Comm comp = result.exec_comm.split_known(
              covers ? rank_range(c.low, c.high) : std::vector<rank_t>{});
          if (covers) {
            result.my_component_ids.push_back(block_component_ids[i]);
            result.my_component_comms.push_back(std::move(comp));
          }
        }
      }
      break;
    }
  }

  MPH_DIAG_LOG(info) << "MPH handshake done in " << handshake_clock.micros()
                     << " us";
  return result;
}

HandshakeResult rejoin_handshake(const Comm& world,
                                 const LocalDeclaration& declaration,
                                 const HandshakeOptions& options) {
  minimpi::Job& job = world.job();
  const std::uint64_t t0 = job.clock().now_ns();
  validate_declaration(declaration);
  const rank_t my_world = world.rank();

  // Rebuild the layout from the blackboard instead of an allgather: the
  // survivors are mid-run and cannot join a collective.  resolve_layout is
  // pure and deterministic, so the directory built here is byte-identical
  // to every survivor's copy.
  const std::optional<std::string> registry_text = job.get_shared(kRegistryKey);
  const std::optional<std::string> signature_text =
      job.get_shared(kSignaturesKey);
  if (!registry_text.has_value() || !signature_text.has_value()) {
    throw SetupError(
        "rejoin: the job blackboard holds no published layout — the "
        "original handshake must complete before a member can rejoin");
  }
  const Registry registry = Registry::parse(*registry_text);
  std::vector<std::string> signatures;
  for (const std::string_view sig : u::split(*signature_text, '\n')) {
    signatures.emplace_back(sig);
  }
  if (static_cast<int>(signatures.size()) != world.size()) {
    throw SetupError("rejoin: published layout covers " +
                     std::to_string(signatures.size()) + " ranks, world has " +
                     std::to_string(world.size()));
  }
  const std::string my_signature = pinned_signature(declaration, options);
  if (signatures[static_cast<std::size_t>(my_world)] != my_signature) {
    throw SetupError(
        "rejoin: world rank " + std::to_string(my_world) +
        " originally declared '" +
        signatures[static_cast<std::size_t>(my_world)] +
        "' but the replacement declares '" + my_signature + "'");
  }
  const std::vector<ExecutableRun> runs = find_runs(signatures);
  LayoutResolution resolution = resolve_layout(registry, runs);

  HandshakeResult result;
  result.directory = std::move(resolution.directory);
  result.world = world;
  result.declaration = declaration;
  result.options = options;

  const int my_run = run_of(runs, my_world);
  if (my_run < 0) {
    throw SetupError("rejoin: world rank " + std::to_string(my_world) +
                     " is not covered by any executable run");
  }
  result.exec_index = my_run;
  const ExecutableRun& run = runs[static_cast<std::size_t>(my_run)];
  const ExecutableBlock& my_block =
      registry.blocks()[static_cast<std::size_t>(
          resolution.block_of_run[static_cast<std::size_t>(my_run)])];
  const rank_t rel = my_world - run.base;

  // Idempotent for the domain: the heal kept it registered, so the
  // replacement rank re-joins the same slot.
  const int primary =
      adopt_primary_component(job, result, my_block, rel, options);
  if (primary < 0) {
    throw SetupError("rejoin: world rank " + std::to_string(my_world) +
                     " is not covered by any component of its executable");
  }
  const ComponentRecord& record = result.directory.component(primary);

  // The only collective of the rejoin: the member communicator, over
  // exactly the ranks being respawned together.  Survivors are uninvolved.
  const std::vector<rank_t> members =
      rank_range(record.global_low, record.global_high);
  Comm comp =
      world.create_ordered_world(std::span<const rank_t>(members));
  // Degradation vs. the full handshake (see handshake.hpp): the member
  // communicator stands in for the executable communicator.
  result.exec_comm = comp;
  result.my_component_ids.push_back(primary);
  result.my_component_comms.push_back(std::move(comp));
  MPH_DIAG_LOG(info) << "MPH rejoin handshake for '" << record.name
                     << "' done in " << (job.clock().now_ns() - t0) / 1000
                     << " us";
  return result;
}

}  // namespace mph
