// Simulation-wide event counters.
//
// The paper's argument is structural (how many messages, hops, CPU tasks
// are on each critical path), so these counters are first-class outputs:
// tests assert on them and benches report them next to times.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace nvgas::sim {

// Each counter is named once, here; the X-macro generates both the
// members and items(). X(name) is one std::uint64_t counter.
#define NVGAS_SIM_COUNTERS(X)                                              \
  /* Network. */                                                           \
  X(messages_sent)                                                         \
  X(bytes_sent)                                                            \
  X(messages_delivered)                                                    \
  X(bytes_delivered)                                                       \
  /* CPU. */                                                               \
  X(cpu_tasks)                                                             \
  X(cpu_busy_ns)                                                           \
  /* RMA verbs. */                                                         \
  X(rma_puts)                                                              \
  X(rma_gets)                                                              \
  X(rma_atomics)                                                           \
  /* Parcels (two-sided). */                                               \
  X(parcels_sent)                                                          \
  X(parcels_eager)                                                         \
  X(parcels_rendezvous)                                                    \
  X(apply_forwards)   /* apply parcels the trampoline sent on */           \
  /* NIC translation unit (network-managed AGAS). */                       \
  X(nic_tlb_hits)                                                          \
  X(nic_tlb_misses)                                                        \
  X(nic_forwards)                                                          \
  X(nic_tlb_updates)                                                       \
  /* Software AGAS. */                                                     \
  X(sw_cache_hits)                                                         \
  X(sw_cache_misses)                                                       \
  X(sw_cache_invalidations)                                                \
  X(directory_lookups)                                                     \
  X(directory_nacks)                                                       \
  /* GAS-level operations. */                                              \
  X(gas_memputs)                                                           \
  X(gas_memgets)                                                           \
  X(gas_atomics)                                                           \
  X(migrations)                                                            \
  X(migration_bytes)                                                       \
  /* Wire-fault injection (sim/faults) and the end-to-end reliability   */ \
  /* layer that survives it (net/reliability). The fault ledger is what */ \
  /* conservation checks reconcile against: at quiescence,              */ \
  /* delivered = sent - faults_injected_drops + faults_injected_dups    */ \
  /* (and the byte analogue), because every injected frame is either    */ \
  /* dropped, delivered once, or delivered twice.                       */ \
  X(faults_injected_drops)                                                 \
  X(faults_dropped_bytes)                                                  \
  X(faults_injected_dups)                                                  \
  X(faults_dup_bytes)                                                      \
  X(faults_injected_delays)                                                \
  X(net_retransmits)  /* RTO-fired frame resends */                        \
  X(net_dup_discards) /* receiver-side dedup hits */                       \
  X(net_acks)         /* pure (non-piggybacked) ack frames */              \
  /* Load balancer (src/lb). */                                            \
  X(lb_epochs)                                                             \
  X(lb_migrations)    /* issued to the manager */                          \
  X(lb_rejected_cost) /* plan entries failing the cost gate */             \
  X(lb_throttled)     /* plan entries over max_inflight */                 \
  X(lb_bounced)       /* completions that missed their dst */

struct Counters {
#define NVGAS_SIM_COUNTER_MEMBER(name) std::uint64_t name = 0;
  NVGAS_SIM_COUNTERS(NVGAS_SIM_COUNTER_MEMBER)
#undef NVGAS_SIM_COUNTER_MEMBER

  void reset() { *this = Counters{}; }

  // Stable name→value view for reporting and for test snapshots.
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>> items() const {
#define NVGAS_SIM_COUNTER_ITEM(name) {#name, name},
    return {NVGAS_SIM_COUNTERS(NVGAS_SIM_COUNTER_ITEM)};
#undef NVGAS_SIM_COUNTER_ITEM
  }
};

}  // namespace nvgas::sim
