#include "core/builder.h"

#include "util/prng.h"

namespace pandas::core {

Builder::SeedingReport Builder::seed(std::uint64_t slot,
                                     const AssignmentTable& assignment,
                                     const View& builder_view,
                                     const SeedPlan& plan,
                                     util::Xoshiro256& rng) {
  SeedingReport report;
  if (trace_ != nullptr) trace_->set_slot(slot);
  std::vector<net::NodeIndex> order = builder_view.members();
  rng.shuffle(order);

  std::uint32_t cause_seq = 0;  // per-slot CauseId sequence (obs/causal.h)
  for (const auto node : order) {
    if (node == self_) continue;
    net::SeedMsg msg;
    msg.slot = slot;
    msg.cause = obs::CauseId{slot, self_, cause_seq++};
    if (node < plan.cells_per_node.size()) {
      msg.cells = plan.cells_per_node[node];
    }
    net::proof_tags(slot, msg.cells, msg.tags);
    if (fault_ != nullptr && fault_->corrupt) {
      // Same hash-based (never RNG-stream) corruption decision as Byzantine
      // peers, keyed off the builder's own index.
      for (auto& tag : msg.tags) {
        const std::uint64_t h = util::mix64(
            tag ^ util::mix64(static_cast<std::uint64_t>(self_) + 1));
        const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
        if (u < fault_->corrupt_rate) tag ^= 0x6261644b5a4721ULL;
      }
    }
    msg.boost = plan.boost_for(assignment.of(node));

    const std::uint64_t bytes = net::wire_size(msg);
    report.messages += 1;
    report.cell_copies += msg.cells.size();
    report.bytes += bytes;
    obs::emit(trace_, obs::EventType::kSeedDispatch, engine_.now(), node,
              static_cast<std::int64_t>(msg.cells.size()),
              static_cast<std::int64_t>(bytes));
    transport_.send(self_, node, std::move(msg));
  }
  return report;
}

}  // namespace pandas::core
