// Runtime-software cost model: CPU nanoseconds charged by the
// message-driven runtime itself, on top of the hardware model.
#pragma once

#include "sim/time.hpp"

namespace nvgas::rt {

inline constexpr sim::Time kActionDispatchNs = 150;  // decode parcel, look up action
inline constexpr sim::Time kFiberResumeNs = 80;      // scheduler wakeup of a suspended fiber
inline constexpr sim::Time kLcoSetNs = 30;           // LCO state transition
inline constexpr sim::Time kSpawnNs = 100;           // create a new fiber/task

}  // namespace nvgas::rt
