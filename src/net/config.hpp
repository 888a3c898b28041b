// Software-level network configuration (the middleware knob, as opposed
// to the hardware model in sim::MachineParams), and the fixed sizes and
// timers of the middleware's wire protocol.
#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/time.hpp"

namespace nvgas::net {

struct NetConfig {
  // Parcels at or below this payload size go eager (payload rides the
  // first message); larger ones use the rendezvous (RTS + get) protocol.
  std::size_t eager_threshold = 4096;
};

// Wire header sizes, charged on every message of the given class.
inline constexpr std::uint64_t kRmaHeaderBytes = 32;     // RMA request/reply
inline constexpr std::uint64_t kAckBytes = 16;           // put / parcel delivery ack
inline constexpr std::uint64_t kAtomicBytes = 40;        // atomic request/reply
inline constexpr std::uint64_t kParcelHeaderBytes = 48;  // parcel envelope
inline constexpr std::uint64_t kRtsBytes = 40;           // rendezvous RTS

// End-to-end reliability layer (net/reliability), active only when a
// fault plan is armed. The sequence/ack header rides every data frame;
// retransmit timers start at kRetransmitTimeoutNs (sized a few RTTs
// above the ~2.5 µs put round trip of the default machine) and double
// per retry up to the cap. Receivers delay pure acks by kAckDelayNs
// hoping to piggyback on reverse traffic instead.
inline constexpr std::uint64_t kRelHeaderBytes = 12;
inline constexpr sim::Time kRetransmitTimeoutNs = 12000;
inline constexpr sim::Time kRetransmitBackoffCapNs = 96000;
inline constexpr sim::Time kAckDelayNs = 1500;

}  // namespace nvgas::net
