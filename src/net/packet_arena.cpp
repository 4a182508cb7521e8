#include "net/packet_arena.hpp"

namespace wmn::net {

void PacketArena::grow() {
  auto chunk = std::make_unique<Node[]>(kNodesPerChunk);
  // Thread the fresh nodes onto the free list in index order; the
  // poisoned free state is established here so the very first
  // allocation from a chunk behaves like a recycled one.
  for (std::size_t i = kNodesPerChunk; i-- > 0;) {
    Node* n = &chunk[i];
    n->refs = 0;
    n->next = free_head_;
    WMN_POISON(n->payload, kPayloadCapacity);
    free_head_ = n;
  }
  free_count_ += kNodesPerChunk;
  chunks_.push_back(std::move(chunk));
}

void PacketArena::destroy(PacketArena* arena) { delete arena; }

}  // namespace wmn::net
