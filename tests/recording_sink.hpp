// A test RMA sink: keeps every get and fetch_add completion that reaches
// the endpoint it is set on, with the id the op was posted under, so a
// test can check that each id comes back once, to its issuer, with its
// own result.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "net/endpoint.hpp"

namespace nvgas::net {

class RecordingSink final : public RmaSink {
 public:
  struct Done {
    Time t = 0;
    std::uint32_t id = 0;
    std::vector<std::byte> data;  // a get's bytes
    std::uint64_t old = 0;        // a fetch_add's old word
  };

  // One sink per endpoint of `group`, each set as that endpoint's sink.
  static std::vector<RecordingSink> for_group(EndpointGroup& group) {
    std::vector<RecordingSink> sinks(static_cast<std::size_t>(group.size()));
    for (int n = 0; n < group.size(); ++n) {
      group.at(n).set_rma_sink(&sinks[static_cast<std::size_t>(n)]);
    }
    return sinks;
  }

  void get_done(Time t, std::uint32_t id, std::vector<std::byte> data) override {
    done.push_back({t, id, std::move(data), 0});
  }
  void fetch_add_done(Time t, std::uint32_t id, std::uint64_t old) override {
    done.push_back({t, id, {}, old});
  }

  std::vector<Done> done;  // in completion order
};

}  // namespace nvgas::net
