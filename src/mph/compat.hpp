// compat.hpp — paper-spelling compatibility layer.
//
// The paper's Fortran 90 API is global-state based: after
// MPH_components_setup, any routine may call MPH_local_proc_id() with no
// handle.  For code being ported from the Fortran MPH (or for examples that
// want to read exactly like the paper's listings), this layer mirrors those
// names on top of a per-thread current Mph handle:
//
//   minimpi::Comm atmosphere_world =
//       mph::compat::MPH_components_setup(world, source, "atmosphere");
//   int me = mph::compat::MPH_local_proc_id();
//
// Each rank-thread owns one current handle (set implicitly by the
// MPH_*setup calls, dropped when the rank's entry point ends).  New C++
// code should prefer the explicit mph::Mph object API.
#pragma once

#include <string>
#include <vector>

#include "src/mph/mph.hpp"

namespace mph::compat {

/// The calling thread's current handle; throws MphError when no setup call
/// has been made on this thread.
[[nodiscard]] Mph& current();

/// True when a setup call has been made on this thread.
[[nodiscard]] bool has_current() noexcept;

/// Install/replace the calling thread's handle explicitly.
void set_current(Mph handle);

/// Drop the calling thread's handle (end of the component's run).
void clear_current() noexcept;

/// Paper §4.1/§4.3: register this executable's components and return the
/// communicator of the *first* name-tag — mirroring
/// `atmosphere_World = MPH_components_setup(name1="atmosphere")`.
minimpi::Comm MPH_components_setup(const minimpi::Comm& world,
                                   const RegistrySource& source,
                                   const std::vector<std::string>& names);

/// Paper §4.4: `Ocean_World = MPH_multi_instance("Ocean")`.
minimpi::Comm MPH_multi_instance(const minimpi::Comm& world,
                                 const RegistrySource& source,
                                 const std::string& prefix);

/// Paper §4.2: `if (PROC_in_component("ocean", comm)) call ocean_xyz(comm)`.
bool PROC_in_component(const std::string& name, minimpi::Comm& comm);

/// Paper §5.1: `comm_new = MPH_comm_join("atmosphere", "ocean")`.
minimpi::Comm MPH_comm_join(const std::string& first,
                            const std::string& second);

/// Paper §5.3 inquiry functions.
int MPH_local_proc_id();
int MPH_global_proc_id();
std::string MPH_comp_name();
int MPH_total_components();
int MPH_exe_low_proc_limit();
int MPH_exe_up_proc_limit();

/// Paper §4.4 argument retrieval (overloads mirror the Fortran interface).
bool MPH_get_argument(const std::string& key, int& value);
bool MPH_get_argument(const std::string& key, long long& value);
bool MPH_get_argument(const std::string& key, double& value);
bool MPH_get_argument(const std::string& key, bool& value);
bool MPH_get_argument(const std::string& key, std::string& value);
bool MPH_get_argument(std::size_t field_num, std::string& field_val);

/// Paper §5.4: `MPH_redirect_output(component_name)` — the component name
/// is implicit in the current handle; `dir` locates the log files
/// (created on demand, default "logs").
void MPH_redirect_output(const std::string& dir = "logs");

/// The redirected output stream of this rank.
std::ostream& MPH_out();

/// MPH_Global_World.
minimpi::Comm MPH_global_world();

}  // namespace mph::compat
