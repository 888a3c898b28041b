// nvgas — network-managed virtual global address space for message-driven
// runtimes. Umbrella header: include this from applications.
#pragma once

#include "core/config.hpp"     // IWYU pragma: export
#include "core/world.hpp"      // IWYU pragma: export
#include "gas/agas_net.hpp"    // IWYU pragma: export
#include "gas/agas_sw.hpp"     // IWYU pragma: export
#include "gas/gva.hpp"         // IWYU pragma: export
#include "gas/pgas.hpp"        // IWYU pragma: export
#include "rt/action.hpp"       // IWYU pragma: export
#include "rt/collectives.hpp"  // IWYU pragma: export
#include "rt/lco.hpp"          // IWYU pragma: export
#include "util/options.hpp"    // IWYU pragma: export
#include "util/rng.hpp"        // IWYU pragma: export
#include "util/zipf.hpp"       // IWYU pragma: export
#include "util/stats.hpp"      // IWYU pragma: export
#include "util/table.hpp"      // IWYU pragma: export
