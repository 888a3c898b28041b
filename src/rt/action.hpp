// Action registry: the runtime's table of remotely-invokable handlers.
//
// A parcel names an action by id; the destination node's dispatch loop
// decodes the id and invokes the handler as a CPU task. Handlers may be
// plain functions or coroutine fibers (the returned Fiber is
// fire-and-forget).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "util/assert.hpp"
#include "util/buffer.hpp"

namespace nvgas::rt {

class Context;

using ActionId = std::uint32_t;
inline constexpr ActionId kInvalidAction = 0;

// Raw handler: owns its decoded payload.
using ActionHandler = std::function<void(Context&, int src, util::Buffer args)>;

class ActionRegistry {
 public:
  ActionRegistry() {
    // Slot 0 stays empty so that id 0 means "no action".
    names_.emplace_back("<invalid>");
    handlers_.emplace_back(nullptr);
  }

  ActionId add(std::string name, ActionHandler fn) {
    NVGAS_CHECK(fn != nullptr);
    const auto id = static_cast<ActionId>(handlers_.size());
    names_.push_back(std::move(name));
    handlers_.push_back(std::move(fn));
    return id;
  }

  [[nodiscard]] const ActionHandler& handler(ActionId id) const {
    NVGAS_CHECK_MSG(id != kInvalidAction && id < handlers_.size(),
                    "unknown action id");
    return handlers_[id];
  }

  [[nodiscard]] const std::string& name(ActionId id) const {
    NVGAS_CHECK(id < names_.size());
    return names_[id];
  }

  [[nodiscard]] std::size_t size() const { return handlers_.size() - 1; }

 private:
  std::vector<std::string> names_;
  std::vector<ActionHandler> handlers_;
};

// Serialize a typed argument pack into a parcel payload.
template <typename... Args>
util::Buffer pack_args(const Args&... args) {
  util::Buffer buf((sizeof(Args) + ... + 0));
  (buf.put(args), ...);
  return buf;
}

// Register a typed action. `fn` is invoked as fn(ctx, src, args...); the
// argument types are given explicitly and must be trivially copyable.
// Braced init of the tuple guarantees left-to-right decode order.
template <typename... Args, typename F>
ActionId register_action(ActionRegistry& registry, std::string name, F fn) {
  static_assert((std::is_trivially_copyable_v<std::decay_t<Args>> && ...),
                "typed action arguments must be trivially copyable");
  return registry.add(
      std::move(name),
      [fn = std::move(fn)](Context& ctx, int src, util::Buffer args) {
        auto r = args.reader();
        std::tuple<std::decay_t<Args>...> values{r.get<std::decay_t<Args>>()...};
        std::apply([&](auto&... a) { fn(ctx, src, a...); }, values);
      });
}

}  // namespace nvgas::rt
