// Home-side move bookkeeping, shared by the two mobile managers.
//
// A block moves one move at a time, sequenced at its home. While it
// moves, one record keyed by the block holds the move in flight (with
// agas-sw's fence-ack count), the FIFO of move requests queued behind
// it, and the work parked behind it until it commits (`Parked`: agas-sw's
// deferred closures, agas-net's slab op ids). A record is erased once it
// holds none of the three, so between events a block has a record
// exactly while it moves.
//
// The sequencer keeps books only: it holds no time, charges nothing and
// calls no manager code. Each manager runs and charges its own steps
// around begin, queue, park, commit and next (DESIGN.md §4).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/endpoint.hpp"
#include "sim/memory.hpp"
#include "util/assert.hpp"
#include "util/format.hpp"

namespace nvgas::gas {

// A request to move a block to `dst`, made by `initiator`.
struct MoveRequest {
  int dst = -1;
  int initiator = -1;
  net::OnDone done;  // the initiator's completion
};

template <typename Parked>
class MoveSequencer {
 public:
  struct Move : MoveRequest {
    explicit Move(MoveRequest req) : MoveRequest(std::move(req)) {}
    sim::Lva dst_lva = 0;            // set once the destination allocated
    std::uint32_t pending_acks = 0;  // agas-sw: fence acks still awaited
  };
  struct Committed {
    Move move;
    std::vector<Parked> parked;  // in arrival order
  };

  [[nodiscard]] bool moving(std::uint64_t block) const {
    const auto it = blocks_.find(block);
    return it != blocks_.end() && it->second.move.has_value();
  }

  // Start a move of `block`; none may be in flight.
  Move& begin(std::uint64_t block, MoveRequest req) {
    Record& r = blocks_[block];
    NVGAS_CHECK_MSG(!r.move, "a second move of a block began mid-move");
    return r.move.emplace(std::move(req));
  }

  // The move of `block` in flight.
  [[nodiscard]] Move& move(std::uint64_t block) {
    return *moving_record(block).move;
  }

  // Queue `req` behind the move of `block` in flight.
  void queue(std::uint64_t block, MoveRequest req) {
    moving_record(block).queued.push_back(std::move(req));
  }

  // Park `work` behind the move of `block` in flight, until it commits.
  void park(std::uint64_t block, Parked work) {
    moving_record(block).parked.push_back(std::move(work));
  }

  // End the move of `block` in flight: its record and the work parked
  // behind it. Requests queued behind it stay for next().
  [[nodiscard]] Committed commit(std::uint64_t block) {
    Record& r = moving_record(block);
    Committed done{std::move(*r.move), std::move(r.parked)};
    r.move.reset();
    r.parked.clear();
    if (r.queued.empty()) blocks_.erase(block);
    return done;
  }

  // Take the oldest request queued behind `block`'s moves, if any. A
  // manager starts it as it would a fresh request, so if a completion run
  // at commit already began another move, it queues again at the back.
  [[nodiscard]] std::optional<MoveRequest> next(std::uint64_t block) {
    const auto it = blocks_.find(block);
    if (it == blocks_.end() || it->second.queued.empty()) return std::nullopt;
    Record& r = it->second;
    MoveRequest req = std::move(r.queued.front());
    r.queued.erase(r.queued.begin());
    // Work is parked only behind a move, so a record without one is empty
    // once its queue is.
    if (r.queued.empty() && !r.move) blocks_.erase(it);
    return req;
  }

  // drop_block_state's check: a block being freed is not moving, so it
  // has no queued requests or parked work either.
  void check_not_moving(std::uint64_t block) const {
    NVGAS_CHECK_MSG(blocks_.count(block) == 0,
                    "free_alloc while a block is migrating");
  }

  [[nodiscard]] std::string audit_quiescent() const {
    if (blocks_.empty()) return {};
    return util::format("%zu move(s) never committed", blocks_.size());
  }

 private:
  struct Record {
    std::optional<Move> move;
    std::vector<MoveRequest> queued;
    std::vector<Parked> parked;
  };

  Record& moving_record(std::uint64_t block) {
    const auto it = blocks_.find(block);
    NVGAS_CHECK_MSG(it != blocks_.end() && it->second.move,
                    "no move of the block in flight");
    return it->second;
  }

  // simlint:allow(D1: keyed find/erase only, never iterated)
  std::unordered_map<std::uint64_t, Record> blocks_;
};

}  // namespace nvgas::gas
