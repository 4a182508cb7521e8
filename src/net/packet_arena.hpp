// Free-list arena for packet header nodes.
//
// Every header pushed onto a Packet used to cost one shared_ptr control
// block, and every packet copy one vector allocation — at 100 radios a
// single broadcast paid ~100 such copies. The arena replaces both: a
// header stack is an immutable, intrusively refcounted singly-linked
// list of fixed-size nodes carved from chunked storage, so push/pop are
// a free-list pop/push and a broadcast fan-out copy is one refcount
// increment.
//
// Lifetime: the arena is created by a PacketFactory and shared by every
// Packet that factory makes. It is intrusively refcounted (factory +
// each live Packet) and frees itself when the last reference drops, so
// declaration order of factories vs. packet-holding components cannot
// dangle. Chunks are only returned to the OS at arena destruction;
// freed nodes recycle through the free list for the whole run.
//
// Concurrency: NOT thread-safe by design. One arena belongs to one
// simulation (one Scenario = one thread); refcounts are plain ints.
// Experiment-level parallelism runs one arena per concurrent Scenario.
//
// Under AddressSanitizer the payload bytes of free-listed nodes are
// poisoned, so a stale pointer into a recycled header is reported at
// the exact use site instead of silently reading the next tenant.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <typeinfo>
#include <vector>

#include "core/check.hpp"

#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define WMN_ASAN 1
#endif
#elif defined(__SANITIZE_ADDRESS__)
#define WMN_ASAN 1
#endif

#if defined(WMN_ASAN)
#include <sanitizer/asan_interface.h>
#define WMN_POISON(addr, size) ASAN_POISON_MEMORY_REGION(addr, size)
#define WMN_UNPOISON(addr, size) ASAN_UNPOISON_MEMORY_REGION(addr, size)
#else
#define WMN_POISON(addr, size) ((void)0)
#define WMN_UNPOISON(addr, size) ((void)0)
#endif

namespace wmn::net {

class PacketArena {
 public:
  // Large enough for the fattest header in the tree (RerrHeader, 44
  // bytes); Packet::push static-asserts each type against this.
  static constexpr std::size_t kPayloadCapacity = 48;
  static constexpr std::size_t kNodesPerChunk = 256;

  struct Node {
    Node* next;         // stack link (live) / free-list link (freed)
    std::uint32_t refs; // owners: packet tops + predecessor links
    std::uint32_t wire_size;
    const std::type_info* type;
    alignas(std::max_align_t) unsigned char payload[kPayloadCapacity];
  };

  // Created with one reference (the owning factory's).
  PacketArena() = default;
  PacketArena(const PacketArena&) = delete;
  PacketArena& operator=(const PacketArena&) = delete;

  // --- intrusive arena lifetime ---------------------------------------
  void add_ref() { ++refs_; }
  void release_ref() {
    WMN_CHECK_GT(refs_, std::uint64_t{0}, "arena refcount underflow");
    if (--refs_ == 0) destroy(this);
  }

  // --- node allocation -------------------------------------------------
  [[nodiscard]] Node* allocate() {
    if (free_head_ == nullptr) grow();
    Node* n = free_head_;
    WMN_UNPOISON(n->payload, kPayloadCapacity);
    free_head_ = n->next;
    --free_count_;
    ++allocations_;
    return n;
  }

  void free_node(Node* n) {
    WMN_POISON(n->payload, kPayloadCapacity);
    n->next = free_head_;
    free_head_ = n;
    ++free_count_;
  }

  // Drop one reference to `n`; when it was the last, recycle the node
  // and cascade down the chain it pointed at.
  void release_chain(Node* n) {
    while (n != nullptr && --n->refs == 0) {
      Node* next = n->next;
      free_node(n);
      n = next;
    }
  }

  // --- diagnostics (tests, leak triage) -------------------------------
  [[nodiscard]] std::size_t chunk_count() const { return chunks_.size(); }
  [[nodiscard]] std::size_t capacity_nodes() const {
    return chunks_.size() * kNodesPerChunk;
  }
  [[nodiscard]] std::size_t live_nodes() const {
    return capacity_nodes() - free_count_;
  }
  // Total allocate() calls ever (recycled or fresh).
  [[nodiscard]] std::uint64_t allocations() const { return allocations_; }

 private:
  ~PacketArena() {
#if defined(WMN_ASAN)
    // Chunk storage is about to be returned to the allocator; ASan
    // forbids freeing memory that contains poisoned sub-regions.
    for (auto& chunk : chunks_) {
      for (std::size_t i = 0; i < kNodesPerChunk; ++i) {
        WMN_UNPOISON(chunk[i].payload, kPayloadCapacity);
      }
    }
#endif
  }

  void grow();
  // Out of line on purpose: with `delete this` inlined into two
  // successive release_ref() calls on one arena (a packet, then its
  // factory), GCC 12 reports a use-after-free on the path where the
  // first call already deleted it — a path the refcount rules out.
  static void destroy(PacketArena* arena);

  Node* free_head_ = nullptr;
  std::size_t free_count_ = 0;
  std::uint64_t allocations_ = 0;
  std::uint64_t refs_ = 1;
  std::vector<std::unique_ptr<Node[]>> chunks_;
};

}  // namespace wmn::net
