#include "src/mph/mph.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "src/minimpi/collectives.hpp"
#include "src/util/diagnostics.hpp"
#include "src/util/strings.hpp"

namespace mph {

// ---------------------------------------------------------------------------
// RegistrySource
// ---------------------------------------------------------------------------

RegistrySource RegistrySource::from_path(std::string path) {
  RegistrySource source;
  source.kind_ = Kind::path;
  source.payload_ = std::move(path);
  return source;
}

RegistrySource RegistrySource::from_text(std::string text) {
  RegistrySource source;
  source.kind_ = Kind::text;
  source.payload_ = std::move(text);
  return source;
}

RegistrySource RegistrySource::from_registry(Registry registry) {
  RegistrySource source;
  source.kind_ = Kind::registry;
  source.registry_ = std::move(registry);
  return source;
}

Registry RegistrySource::resolve(const minimpi::Comm& world) const {
  if (kind_ == Kind::registry) {
    // Pre-parsed model: assumed identical on every rank (programmatic use).
    return *registry_;
  }
  // Paper §6: "the information in the registration file is read by the root
  // processor (global Processor ID = 0) and broadcast to all processors."
  const minimpi::TraceSpan span(world.job().tracer(),
                                world.global_of(world.rank()),
                                minimpi::TraceOp::phase, "registry_resolve",
                                minimpi::kPhaseRegistry);
  std::string text;
  if (world.rank() == 0) {
    if (kind_ == Kind::path) {
      std::optional<std::string> file = util::read_file(payload_);
      if (!file) {
        throw RegistryError(0, "cannot open registration file '" + payload_ +
                                   "' on world rank 0");
      }
      text = std::move(*file);
    } else {
      text = payload_;
    }
  }
  minimpi::bcast_string(world, text, 0);
  return Registry::parse(text);
}

// ---------------------------------------------------------------------------
// Mph
// ---------------------------------------------------------------------------

Mph Mph::components_setup(const minimpi::Comm& world,
                          const RegistrySource& source,
                          std::vector<std::string> names,
                          HandshakeOptions options) {
  const Registry registry = source.resolve(world);
  LocalDeclaration decl;
  decl.is_instance = false;
  decl.names = std::move(names);
  return Mph(handshake(world, registry, decl, options));
}

Mph Mph::multi_instance(const minimpi::Comm& world,
                        const RegistrySource& source, std::string prefix,
                        HandshakeOptions options) {
  const Registry registry = source.resolve(world);
  LocalDeclaration decl;
  decl.is_instance = true;
  decl.names = {std::move(prefix)};
  return Mph(handshake(world, registry, decl, options));
}

Mph Mph::rejoin_instance(const minimpi::Comm& world, std::string prefix,
                         HandshakeOptions options) {
  LocalDeclaration decl;
  decl.is_instance = true;
  decl.names = {std::move(prefix)};
  return Mph(rejoin_handshake(world, decl, options));
}

const minimpi::Comm& Mph::comp_comm() const {
  if (result_.my_component_comms.empty()) {
    throw LookupError("this rank belongs to no component");
  }
  return result_.my_component_comms.front();
}

const minimpi::Comm& Mph::comp_comm(std::string_view name) const {
  const ComponentRecord& record = result_.directory.component(name);
  for (std::size_t i = 0; i < result_.my_component_ids.size(); ++i) {
    if (result_.my_component_ids[i] == record.component_id) {
      return result_.my_component_comms[i];
    }
  }
  throw LookupError("rank " + std::to_string(world().rank()) +
                    " is not part of component '" + std::string(name) + "'");
}

bool Mph::proc_in_component(std::string_view name, minimpi::Comm* out) const {
  const ComponentRecord& record = result_.directory.component(name);
  for (std::size_t i = 0; i < result_.my_component_ids.size(); ++i) {
    if (result_.my_component_ids[i] == record.component_id) {
      if (out != nullptr) *out = result_.my_component_comms[i];
      return true;
    }
  }
  return false;
}

minimpi::Comm Mph::comm_join(std::string_view first,
                             std::string_view second) const {
  const ComponentRecord& a = result_.directory.component(first);
  const ComponentRecord& b = result_.directory.component(second);
  if (a.component_id == b.component_id) {
    throw SetupError("comm_join of component '" + a.name + "' with itself");
  }
  // Overlapping components share processors; a merged communicator would
  // need a rank to appear twice.  Executables never overlap (paper §2), so
  // this only arises for overlapping components of one executable.
  if (a.global_low <= b.global_high && b.global_low <= a.global_high) {
    throw SetupError("comm_join('" + a.name + "', '" + b.name +
                     "'): components overlap on processors " +
                     std::to_string(std::max(a.global_low, b.global_low)) +
                     ".." +
                     std::to_string(std::min(a.global_high, b.global_high)));
  }
  // Paper §5.1 ordering: first's processes rank 0..|A|-1, then second's.
  std::vector<minimpi::rank_t> members;
  members.reserve(static_cast<std::size_t>(a.size() + b.size()));
  for (minimpi::rank_t r = a.global_low; r <= a.global_high; ++r) {
    members.push_back(r);
  }
  for (minimpi::rank_t r = b.global_low; r <= b.global_high; ++r) {
    members.push_back(r);
  }
  const minimpi::rank_t me = world().rank();
  if (!a.covers_world_rank(me) && !b.covers_world_rank(me)) {
    throw SetupError("comm_join('" + a.name + "', '" + b.name +
                     "') called from rank " + std::to_string(me) +
                     ", which belongs to neither component");
  }
  const minimpi::TraceSpan span(world().job().tracer(),
                                world().global_of(me),
                                minimpi::TraceOp::phase, "comm_join",
                                minimpi::kPhaseCommJoin);
  return world().create_ordered_world(
      std::span<const minimpi::rank_t>(members));
}

const std::string& Mph::comp_name() const {
  return result_.directory.component(comp_id()).name;
}

int Mph::comp_id() const {
  if (result_.my_component_ids.empty()) {
    throw LookupError("this rank belongs to no component");
  }
  return result_.my_component_ids.front();
}

minimpi::rank_t Mph::exe_low_proc_limit() const {
  return result_.directory.execs()[static_cast<std::size_t>(result_.exec_index)]
      .base;
}

minimpi::rank_t Mph::exe_up_proc_limit() const {
  return result_.directory.execs()[static_cast<std::size_t>(result_.exec_index)]
      .up_limit();
}

std::vector<std::string> Mph::my_components() const {
  std::vector<std::string> names;
  names.reserve(result_.my_component_ids.size());
  for (const int id : result_.my_component_ids) {
    names.push_back(result_.directory.component(id).name);
  }
  return names;
}

bool Mph::probe_alive(const ComponentRecord& record) const {
  minimpi::Job& job = world().job();
  const bool dead =
      job.domain_aborted(record.component_id) ||
      job.any_rank_failed(record.global_low, record.global_high);
  if (dead) {
    result_.directory.mark_failed(record.component_id);
  } else {
    // A component that answers again was healed (respawned) — un-stick the
    // rank-local death cache so failed_components() reflects reality.
    result_.directory.clear_failed(record.component_id);
  }
  return !dead;
}

bool Mph::ping(std::string_view component) const {
  const ComponentRecord& record = result_.directory.component(component);
  const LivenessOptions& liveness = result_.options.liveness;
  const int attempts = std::max(1, liveness.attempts);
  auto backoff = liveness.backoff;
  for (int attempt = 1;; ++attempt) {
    if (probe_alive(record)) return true;
    if (attempt >= attempts) return false;
    if (backoff.count() > 0) {
      std::this_thread::sleep_for(backoff);
      backoff = std::chrono::milliseconds(static_cast<long long>(
          static_cast<double>(backoff.count()) * liveness.backoff_factor));
    }
  }
}

void Mph::await_alive(std::string_view component) const {
  const ComponentRecord& record = result_.directory.component(component);
  const LivenessOptions& liveness = result_.options.liveness;
  const int attempts = std::max(1, liveness.attempts);
  const auto t0 = std::chrono::steady_clock::now();
  auto backoff = liveness.backoff;
  for (int attempt = 1; attempt <= attempts; ++attempt) {
    if (probe_alive(record)) return;
    if (attempt < attempts && backoff.count() > 0) {
      std::this_thread::sleep_for(backoff);
      backoff = std::chrono::milliseconds(static_cast<long long>(
          static_cast<double>(backoff.count()) * liveness.backoff_factor));
    }
  }
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  throw PeerTimeoutError(record.name, attempts, elapsed);
}

std::optional<minimpi::AbortInfo> Mph::failure_of(
    std::string_view component) const {
  const ComponentRecord& record = result_.directory.component(component);
  minimpi::Job& job = world().job();
  if (auto info = job.domain_abort_info(record.component_id)) return info;
  const std::optional<minimpi::AbortInfo>& info = job.abort_info();
  if (info.has_value() && record.covers_world_rank(info->world_rank)) {
    return info;
  }
  return std::nullopt;
}

void Mph::require_alive(std::string_view component) const {
  if (ping(component)) return;
  const ComponentRecord& record = result_.directory.component(component);
  if (const auto info = failure_of(component)) {
    throw ComponentFailedError(record.name, info->world_rank, info->operation,
                               info->detail);
  }
  throw ComponentFailedError(record.name, -1, "",
                             "a rank of the component failed");
}

std::vector<std::string> Mph::failed_components() const {
  for (const ComponentRecord& record : result_.directory.components()) {
    probe_alive(record);  // refresh the marks; no retries for a sweep
  }
  return result_.directory.failed_components();
}

Mph::FinalizeReport Mph::finalize() {
  if (redirected_) flush_output();
  const minimpi::rank_t my_world = world().global_of(world().rank());
  if (minimpi::Tracer* tracer = world().job().tracer();
      tracer != nullptr && redirected_) {
    tracer->add_counter(my_world, "output_lines(" + channel_.path() + ")",
                        channel_.lines());
  }
  const minimpi::MailboxDrain drained =
      world().job().mailbox(my_world).drain();
  FinalizeReport report;
  report.drained_envelopes = drained.envelopes;
  report.cancelled_requests = drained.posted_recvs;
  if (minimpi::Checker* checker = world().job().checker()) {
    checker->record_drain(my_world, drained.envelopes, drained.posted_recvs);
    if (checker->options().leaks) {
      const minimpi::CheckReport::RankLeak leak = checker->rank_leak(my_world);
      MPH_DIAG_LOG(info) << "MPH_finalize audit: " << leak.to_string();
      // Communicators held by this Mph handle are still alive here, so the
      // per-rank finalize verdict covers only message/request debt; live
      // communicator handles are audited job-wide in JobReport::check.
      if (leak.envelopes > 0 || leak.posted_recvs > 0 ||
          leak.outstanding_requests > 0) {
        throw minimpi::LeakError("MPH_finalize on " + leak.to_string());
      }
    }
  }
  return report;
}

const ArgumentSet& Mph::arguments() const {
  return result_.directory.component(comp_id()).args;
}

Mph Mph::remap(const RegistrySource& new_source,
               HandshakeOptions options) const {
  const Registry registry = new_source.resolve(world());
  return Mph(handshake(world(), registry, result_.declaration, options));
}

void Mph::redirect_output(const std::string& dir) {
  const bool component_root = local_proc_id() == 0;
  channel_ = OutputRouter::instance().open(dir, comp_name(), local_proc_id(),
                                           component_root);
  redirected_ = true;
  if (minimpi::MetricsRegistry* metrics = world().job().metrics()) {
    // Live output_lines(<path>) gauge in every snapshot.  The probe holds
    // the counter by shared_ptr, so it stays valid even after this Mph
    // handle (and its channel) are gone.
    const minimpi::rank_t my_world = world().global_of(world().rank());
    metrics->add_probe(
        my_world, "output_lines(" + channel_.path() + ")",
        [counter = channel_.lines_counter()]() -> std::uint64_t {
          return counter != nullptr
                     ? counter->load(std::memory_order_relaxed)
                     : 0;
        });
  }
}

std::ostream& Mph::out() {
  if (!redirected_) {
    throw MphError("out(): call redirect_output() first");
  }
  return channel_.stream();
}

void Mph::flush_output() { channel_.flush(); }

}  // namespace mph
