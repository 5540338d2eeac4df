#include "src/mph/compat.hpp"

#include <optional>

#include "src/minimpi/launcher.hpp"

namespace mph::compat {

namespace {
thread_local std::optional<Mph> t_current;
}  // namespace

Mph& current() {
  if (!t_current.has_value()) {
    throw MphError(
        "no MPH setup has run on this rank (call MPH_components_setup or "
        "MPH_multi_instance first)");
  }
  return *t_current;
}

bool has_current() noexcept { return t_current.has_value(); }

void set_current(Mph handle) {
  // A pooled rank thread outlives its rank: drop the handle (and so the
  // rank's Job) when the rank ends, as the thread's exit used to.
  static const bool hooked =
      (minimpi::set_rank_exit_hook(&clear_current), true);
  (void)hooked;
  t_current.emplace(std::move(handle));
}

void clear_current() noexcept { t_current.reset(); }

minimpi::Comm MPH_components_setup(const minimpi::Comm& world,
                                   const RegistrySource& source,
                                   const std::vector<std::string>& names) {
  set_current(Mph::components_setup(world, source, names));
  // Paper §4.1/§4.3: a single-component executable gets its component
  // communicator ("atmosphere_World"); a multi-component executable gets
  // its executable communicator ("mpi_exec_world") — the two coincide for
  // single-component executables.
  return current().exec_comm();
}

minimpi::Comm MPH_multi_instance(const minimpi::Comm& world,
                                 const RegistrySource& source,
                                 const std::string& prefix) {
  set_current(Mph::multi_instance(world, source, prefix));
  return current().comp_comm();
}

bool PROC_in_component(const std::string& name, minimpi::Comm& comm) {
  return current().proc_in_component(name, &comm);
}

minimpi::Comm MPH_comm_join(const std::string& first,
                            const std::string& second) {
  return current().comm_join(first, second);
}

int MPH_local_proc_id() { return current().local_proc_id(); }
int MPH_global_proc_id() { return current().global_proc_id(); }
std::string MPH_comp_name() { return current().comp_name(); }
int MPH_total_components() { return current().total_components(); }
int MPH_exe_low_proc_limit() { return current().exe_low_proc_limit(); }
int MPH_exe_up_proc_limit() { return current().exe_up_proc_limit(); }

bool MPH_get_argument(const std::string& key, int& value) {
  return current().get_argument(key, value);
}
bool MPH_get_argument(const std::string& key, long long& value) {
  return current().get_argument(key, value);
}
bool MPH_get_argument(const std::string& key, double& value) {
  return current().get_argument(key, value);
}
bool MPH_get_argument(const std::string& key, bool& value) {
  return current().get_argument(key, value);
}
bool MPH_get_argument(const std::string& key, std::string& value) {
  return current().get_argument(key, value);
}
bool MPH_get_argument(std::size_t field_num, std::string& field_val) {
  return current().get_argument_field(field_num, field_val);
}

void MPH_redirect_output(const std::string& dir) {
  current().redirect_output(dir);
}

std::ostream& MPH_out() { return current().out(); }

minimpi::Comm MPH_global_world() { return current().world(); }

}  // namespace mph::compat
