// Packet model.
//
// A Packet is a byte-size-accounted container with a typed header
// stack. Headers are plain structs defined by the layer that uses them
// (MAC header in mac/, AODV headers in routing/, ...); the packet
// stores them type-erased so lower layers need no knowledge of upper
// protocols. Header *contents are immutable once pushed* — forwarding a
// modified header means copying the struct, editing the copy, and
// pushing it onto a fresh packet. This makes the cheap shallow copy
// (shared header payloads) used for broadcast fan-out safe.
//
// Storage: the header stack is a persistent singly-linked list of
// refcounted nodes in a PacketArena (one arena per PacketFactory, one
// factory per simulation). push/pop recycle fixed-size nodes through
// the arena free list and a packet copy is a single refcount bump, so
// the per-packet hot path performs no heap allocation after the arena
// warms up. See packet_arena.hpp for lifetime and threading rules.
//
// Byte accounting: each header contributes its declared wire size; the
// application payload contributes `payload_bytes`. `size_bytes()` is
// what the PHY serializes, so MAC/PHY timing is driven by realistic
// frame sizes.
#pragma once

#include <cstdint>
#include <new>
#include <type_traits>
#include <typeinfo>
#include <utility>

#include "core/check.hpp"
#include "net/packet_arena.hpp"
#include "sim/time.hpp"

namespace wmn::net {

// Every header struct must expose:
//   static constexpr std::uint32_t kWireSize;   // bytes on the air
// (checked at push time via the Header concept below).
template <typename T>
concept Header = requires {
  { T::kWireSize } -> std::convertible_to<std::uint32_t>;
};

class Packet {
 public:
  Packet(PacketArena* arena, std::uint64_t uid, std::uint32_t payload_bytes,
         sim::Time created)
      : uid_(uid), payload_bytes_(payload_bytes), created_(created),
        arena_(arena) {
    WMN_CHECK_NOTNULL(arena_, "packets require an arena (use PacketFactory)");
    if (arena_ != nullptr) arena_->add_ref();
  }

  // Copies share immutable header payloads (cheap broadcast fan-out).
  Packet(const Packet& other)
      : uid_(other.uid_), payload_bytes_(other.payload_bytes_),
        header_bytes_(other.header_bytes_), created_(other.created_),
        arena_(other.arena_), top_(other.top_), flow_(other.flow_) {
    if (top_ != nullptr) ++top_->refs;
    if (arena_ != nullptr) arena_->add_ref();
  }

  Packet& operator=(const Packet& other) {
    if (this != &other) {
      Packet copy(other);
      swap(copy);
    }
    return *this;
  }

  Packet(Packet&& other) noexcept
      : uid_(other.uid_), payload_bytes_(other.payload_bytes_),
        header_bytes_(other.header_bytes_), created_(other.created_),
        arena_(other.arena_), top_(other.top_), flow_(other.flow_) {
    other.arena_ = nullptr;  // moved-from: inert, destructor is a no-op
    other.top_ = nullptr;
  }

  Packet& operator=(Packet&& other) noexcept {
    if (this != &other) {
      release();
      uid_ = other.uid_;
      payload_bytes_ = other.payload_bytes_;
      header_bytes_ = other.header_bytes_;
      created_ = other.created_;
      arena_ = other.arena_;
      top_ = other.top_;
      flow_ = other.flow_;
      other.arena_ = nullptr;
      other.top_ = nullptr;
    }
    return *this;
  }

  ~Packet() { release(); }

  [[nodiscard]] std::uint64_t uid() const { return uid_; }
  [[nodiscard]] sim::Time created() const { return created_; }
  [[nodiscard]] std::uint32_t payload_bytes() const { return payload_bytes_; }

  // Total on-air size: payload plus all pushed headers.
  [[nodiscard]] std::uint32_t size_bytes() const {
    return payload_bytes_ + header_bytes_;
  }

  // --- header stack ---------------------------------------------------
  template <Header T>
  void push(T header) {
    static_assert(sizeof(T) <= PacketArena::kPayloadCapacity,
                  "header does not fit an arena node; raise "
                  "PacketArena::kPayloadCapacity");
    static_assert(std::is_trivially_copyable_v<T> &&
                      std::is_trivially_destructible_v<T>,
                  "headers are raw wire structs; the arena does not run "
                  "destructors on recycled nodes");
    static_assert(alignof(T) <= alignof(std::max_align_t),
                  "header is over-aligned for an arena node");
    WMN_CHECK_NOTNULL(arena_, "push on a moved-from packet");
    PacketArena::Node* n = arena_->allocate();
    n->next = top_;  // transfers this packet's reference on the old top
    n->refs = 1;
    n->wire_size = T::kWireSize;
    n->type = &typeid(T);
    ::new (static_cast<void*>(n->payload)) T(std::move(header));
    top_ = n;
    header_bytes_ += T::kWireSize;
  }

  // Read the top-of-stack header, which must be a T.
  template <Header T>
  [[nodiscard]] const T& peek() const {
    WMN_CHECK_NOTNULL(top_, "peek on empty header stack");
    WMN_CHECK(*top_->type == typeid(T), "header stack type mismatch");
    return *std::launder(reinterpret_cast<const T*>(top_->payload));
  }

  // Remove and return the top-of-stack header, which must be a T.
  template <Header T>
  T pop() {
    T out = peek<T>();
    PacketArena::Node* n = top_;
    header_bytes_ -= n->wire_size;
    top_ = n->next;
    if (top_ != nullptr) ++top_->refs;  // our new direct reference
    arena_->release_chain(n);
    return out;
  }

  // True if the top-of-stack header is a T.
  template <Header T>
  [[nodiscard]] bool top_is() const {
    return top_ != nullptr && *top_->type == typeid(T);
  }

  [[nodiscard]] std::size_t header_count() const {
    std::size_t n = 0;
    for (const PacketArena::Node* p = top_; p != nullptr; p = p->next) ++n;
    return n;
  }

  // --- end-to-end metadata (set by the traffic layer, read by stats) --
  struct FlowInfo {
    std::uint32_t flow_id = 0;
    std::uint64_t seq = 0;
    sim::Time sent_at{};
    bool valid = false;
  };
  void set_flow_info(FlowInfo info) { flow_ = info; }
  [[nodiscard]] const FlowInfo& flow_info() const { return flow_; }

 private:
  void release() {
    if (top_ != nullptr) {
      arena_->release_chain(top_);
      top_ = nullptr;
    }
    if (arena_ != nullptr) {
      arena_->release_ref();
      arena_ = nullptr;
    }
  }

  void swap(Packet& other) noexcept {
    std::swap(uid_, other.uid_);
    std::swap(payload_bytes_, other.payload_bytes_);
    std::swap(header_bytes_, other.header_bytes_);
    std::swap(created_, other.created_);
    std::swap(arena_, other.arena_);
    std::swap(top_, other.top_);
    std::swap(flow_, other.flow_);
  }

  std::uint64_t uid_;
  std::uint32_t payload_bytes_;
  std::uint32_t header_bytes_ = 0;
  sim::Time created_;
  PacketArena* arena_;
  PacketArena::Node* top_ = nullptr;
  FlowInfo flow_;
};

// Factory handing out process-unique packet uids within one simulation,
// and owning the header arena those packets allocate from. The arena
// survives until the last Packet releases it, so factory/component
// declaration order is not a correctness concern.
class PacketFactory {
 public:
  PacketFactory() : arena_(new PacketArena()) {}
  PacketFactory(const PacketFactory&) = delete;
  PacketFactory& operator=(const PacketFactory&) = delete;
  ~PacketFactory() { arena_->release_ref(); }

  [[nodiscard]] Packet make(std::uint32_t payload_bytes, sim::Time now) {
    return Packet(arena_, ++next_uid_, payload_bytes, now);
  }

  [[nodiscard]] std::uint64_t packets_created() const { return next_uid_; }

  // Arena statistics (tests, diagnostics).
  [[nodiscard]] const PacketArena& arena() const { return *arena_; }

 private:
  PacketArena* arena_;
  std::uint64_t next_uid_ = 0;
};

}  // namespace wmn::net
