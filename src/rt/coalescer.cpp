#include "rt/coalescer.hpp"

namespace nvgas::rt {

Coalescer::Coalescer(Runtime& rt, CoalescerConfig config)
    : rt_(rt), config_(config) {
  // Receiver side: unpack and dispatch each message in the batch. One
  // parcel's o_recv+dispatch has already been charged by the parcel path;
  // each inner message still pays the per-action dispatch.
  batch_action_ = rt_.actions().add(
      "nvgas.coalesce.batch",
      [this](Context& c, int src, util::Buffer payload) {
        auto r = payload.reader();
        const auto count = r.get<std::uint32_t>();
        for (std::uint32_t i = 0; i < count; ++i) {
          const auto action = r.get<ActionId>();
          const auto len = r.get<std::uint32_t>();
          util::Buffer args;
          args.append_raw(r.rest().subspan(0, len));
          r.skip(len);
          c.charge(kActionDispatchNs);
          rt_.actions().handler(action)(c, src, std::move(args));
        }
      });
}

void Coalescer::send(Context& ctx, int dst, ActionId action,
                     util::Buffer args) {
  Slot& s = slots_[{ctx.rank(), dst}];
  if (s.count == 0) {
    s.buf.clear();
    s.buf.put<std::uint32_t>(0);  // count placeholder — rewritten at ship
    arm_timer(ctx.rank(), dst, s.epoch);
  }
  s.buf.put<ActionId>(action);
  s.buf.put<std::uint32_t>(static_cast<std::uint32_t>(args.size()));
  s.buf.append_raw(args.bytes());
  ++s.count;
  ++messages_coalesced_;
  // Tiny buffering cost per message (append to a pinned buffer).
  ctx.charge(15);

  if (s.buf.size() >= config_.max_batch_bytes ||
      s.count >= config_.max_messages) {
    ship(ctx, dst, s);
  }
}

void Coalescer::ship(Context& ctx, int dst, Slot& s) {
  if (s.count == 0) return;
  // Rewrite the count header.
  util::Buffer payload;
  payload.put<std::uint32_t>(s.count);
  payload.append_raw(s.buf.bytes().subspan(sizeof(std::uint32_t)));
  s.buf.clear();
  s.count = 0;
  ++s.epoch;  // kill the pending timer
  ++batches_sent_;
  ctx.send(dst, batch_action_, std::move(payload));
}

void Coalescer::flush(Context& ctx, int dst) {
  const auto it = slots_.find({ctx.rank(), dst});
  if (it != slots_.end()) ship(ctx, dst, it->second);
}

void Coalescer::flush_all(Context& ctx) {
  const int src = ctx.rank();
  for (auto it = slots_.lower_bound({src, 0});
       it != slots_.end() && it->first.first == src; ++it) {
    ship(ctx, it->first.second, it->second);
  }
}

void Coalescer::arm_timer(int src, int dst, std::uint64_t epoch) {
  rt_.fabric().cpu(src).submit_at(
      rt_.fabric().engine().now() + config_.max_delay_ns,
      [this, src, dst, epoch](sim::TaskCtx& task) {
        Slot& s = slots_.at({src, dst});
        if (s.epoch != epoch || s.count == 0) return;  // already shipped
        CurrentTaskScope scope(rt_, task);
        ship(rt_.ctx(src), dst, s);
      });
}

}  // namespace nvgas::rt
