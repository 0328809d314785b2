// Thread-safe monotonic arena for runtime tree nodes, cells, and leaf
// chunks.
//
// Layout is cache-conscious (docs/storage.md): every chunk starts on a
// 64-byte boundary, and each thread carves private spans off the shared
// chunk so concurrent workers bump thread-local cursors instead of
// contending on (and false-sharing around) one shared cursor. The shared
// fetch_add survives only on the refill path and for large/over-aligned
// blocks. No per-node deallocation — the store owning the arena is released
// whole, like the cost-model arenas.
//
// A released arena's chunks go to a process-wide cache, and a new arena
// takes a cached chunk of the size it asks for before it allocates one.
// malloc would keep a freed chunk in the heap of whichever thread had
// allocated it, so the resident size of a process that replaces a large
// index would depend on which worker happened to grow an arena. With the
// cache the replacement takes over its predecessor's chunks, whose pages
// are already faulted in.
#pragma once

#include <sanitizer/asan_interface.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <new>
#include <vector>

#include "support/check.hpp"

namespace pwf::rt {

class ConcurrentArena {
 public:
  // Alignment of chunk starts and thread spans: one cache line.
  static constexpr std::size_t kLineBytes = 64;
  // Size of the span a thread reserves for itself on refill, and the
  // largest request served from a span (leaf chunks at the default capacity
  // are 32 * 16 = 512 bytes, the boundary case).
  static constexpr std::size_t kSpanBytes = 8192;
  static constexpr std::size_t kMaxSpanAlloc = 512;
  // The chunk cache holds at most twice the bytes of the largest arena
  // released so far, and never more than this. compact() builds a store's
  // successor while the store, or a snapshot that pins it, is still alive,
  // so that is room for two generations of a store to pass their chunks
  // on. The chunks of many small stores go back to malloc, which reuses
  // them across sizes. The oldest cached chunks go back first.
  static constexpr std::size_t kMaxCacheBytes = std::size_t{256} << 20;

  explicit ConcurrentArena(std::size_t chunk_bytes = 1 << 20)
      : id_(s_next_id.fetch_add(1, std::memory_order_relaxed)),
        chunk_bytes_(chunk_bytes) {
    install_chunk(chunk_bytes_);
  }

  // Lets the cache hold this arena's chunks, which the members' destructors
  // release into it next.
  ~ConcurrentArena() {
    ChunkCache& c = cache();
    std::lock_guard<std::mutex> lk(c.mutex);
    c.limit =
        std::max(c.limit, std::min(2 * bytes_reserved(), kMaxCacheBytes));
  }

  ConcurrentArena(const ConcurrentArena&) = delete;
  ConcurrentArena& operator=(const ConcurrentArena&) = delete;

  template <typename T, typename... Args>
  T* create(Args&&... args) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena does not run destructors");
    void* p = allocate(sizeof(T), alignof(T));
    return ::new (p) T(std::forward<Args>(args)...);
  }

  void* allocate(std::size_t bytes, std::size_t align) {
    PWF_DCHECK((align & (align - 1)) == 0);
    if (bytes <= kMaxSpanAlloc && align <= kLineBytes)
      return allocate_span(bytes, align);
    return allocate_shared(bytes, align);
  }

  std::size_t bytes_reserved() const {
    return bytes_reserved_.load(std::memory_order_relaxed);
  }

  // Lifetime accounting for long-lived stores (the service facades report
  // this per epoch): the arena is monotonic, so reserved bytes are the
  // footprint — nothing is ever returned short of destroying the arena.
  std::size_t bytes_used() const { return bytes_reserved(); }

  // Bytes this arena burned on alignment padding and abandoned chunk tails
  // (approximate — relaxed counters, for monitoring).
  std::size_t wasted_padding() const {
    return padding_waste_.load(std::memory_order_relaxed);
  }

  // Process-wide: span tails dropped when a thread's cached span was evicted
  // (the owning arena may already be gone, so this cannot be attributed).
  static std::size_t abandoned_span_bytes() {
    return s_abandoned_span_bytes.load(std::memory_order_relaxed);
  }

 private:
  struct Chunk {
    std::byte* data = nullptr;
    std::size_t size = 0;
    std::atomic<std::size_t> cursor{0};
    ~Chunk() {
      if (data != nullptr) release_chunk(data, size);
    }
  };

  // A cached chunk is linked through its first bytes, so caching one never
  // allocates.
  struct CachedChunk {
    CachedChunk* newer;
    CachedChunk* older;
    std::size_t size;
  };
  struct ChunkCache {
    std::mutex mutex;
    CachedChunk* newest = nullptr;  // guarded by mutex
    CachedChunk* oldest = nullptr;  // guarded by mutex
    std::size_t bytes = 0;          // guarded by mutex
    std::size_t limit = 0;          // guarded by mutex

    void unlink(CachedChunk* n) {
      (n->newer != nullptr ? n->newer->older : newest) = n->older;
      (n->older != nullptr ? n->older->newer : oldest) = n->newer;
      bytes -= n->size;
    }
  };
  // Leaked intentionally: an arena may be released during static teardown.
  static ChunkCache& cache() {
    static ChunkCache* c = new ChunkCache;
    return *c;
  }

  // The most recently cached chunk of exactly `size` bytes, or a new one.
  static std::byte* acquire_chunk(std::size_t size) {
    ChunkCache& c = cache();
    {
      std::lock_guard<std::mutex> lk(c.mutex);
      for (CachedChunk* n = c.newest; n != nullptr; n = n->older) {
        if (n->size != size) continue;
        c.unlink(n);
        ASAN_UNPOISON_MEMORY_REGION(n, size);
        return reinterpret_cast<std::byte*>(n);
      }
    }
    return static_cast<std::byte*>(
        ::operator new(size, std::align_val_t{kLineBytes}));
  }

  // Caches the chunk, handing the oldest cached ones back to malloc to make
  // room. Under AddressSanitizer a cached chunk stays poisoned past its
  // link, so a read through a released arena is still reported.
  static void release_chunk(std::byte* data, std::size_t size) {
    ChunkCache& c = cache();
    CachedChunk* evicted = nullptr;  // linked through `older`
    {
      std::lock_guard<std::mutex> lk(c.mutex);
      if (size >= sizeof(CachedChunk) && size <= c.limit) {
        while (c.bytes + size > c.limit) {
          CachedChunk* n = c.oldest;
          c.unlink(n);
          n->older = evicted;
          evicted = n;
        }
        auto* n = ::new (data) CachedChunk{nullptr, c.newest, size};
        (c.newest != nullptr ? c.newest->newer : c.oldest) = n;
        c.newest = n;
        c.bytes += size;
        ASAN_POISON_MEMORY_REGION(data + sizeof(CachedChunk),
                                  size - sizeof(CachedChunk));
        data = nullptr;
      }
    }
    if (data != nullptr) ::operator delete(data, std::align_val_t{kLineBytes});
    while (evicted != nullptr) {
      CachedChunk* next = evicted->older;
      ASAN_UNPOISON_MEMORY_REGION(evicted, evicted->size);
      ::operator delete(evicted, std::align_val_t{kLineBytes});
      evicted = next;
    }
  }

  // A thread's private window into some arena's current chunk. Slots are
  // validated by arena id — ids are process-monotonic and never reused, so
  // a slot left over from a destroyed arena can never match (its dangling
  // pointers are never dereferenced).
  struct Slot {
    std::uint64_t id = 0;
    std::byte* cur = nullptr;
    std::byte* end = nullptr;
  };
  struct TlsSpans {
    Slot slots[4];
    unsigned next_evict = 0;
  };
  static TlsSpans& tls() {
    static thread_local TlsSpans t;
    return t;
  }

  void* allocate_span(std::size_t bytes, std::size_t align) {
    TlsSpans& t = tls();
    Slot* s = nullptr;
    for (Slot& cand : t.slots) {
      if (cand.id == id_) {
        s = &cand;
        break;
      }
    }
    if (s == nullptr) {
      s = &t.slots[t.next_evict++ % 4];
      if (s->id != 0 && s->end > s->cur)
        s_abandoned_span_bytes.fetch_add(
            static_cast<std::size_t>(s->end - s->cur),
            std::memory_order_relaxed);
      s->id = id_;
      s->cur = s->end = nullptr;
    }
    for (;;) {
      if (s->cur != nullptr) {
        std::byte* aligned = reinterpret_cast<std::byte*>(
            (reinterpret_cast<std::uintptr_t>(s->cur) + align - 1) &
            ~(align - 1));
        if (aligned + bytes <= s->end) {
          if (aligned != s->cur)
            padding_waste_.fetch_add(
                static_cast<std::size_t>(aligned - s->cur),
                std::memory_order_relaxed);
          s->cur = aligned + bytes;
          return aligned;
        }
        padding_waste_.fetch_add(static_cast<std::size_t>(s->end - s->cur),
                                 std::memory_order_relaxed);
      }
      s->cur = static_cast<std::byte*>(allocate_shared(kSpanBytes, kLineBytes));
      s->end = s->cur + kSpanBytes;
    }
  }

  void* allocate_shared(std::size_t bytes, std::size_t align) {
    bytes = (bytes + align - 1) & ~(align - 1);
    for (;;) {
      Chunk* c = current_.load(std::memory_order_acquire);
      const std::size_t off = c->cursor.fetch_add(bytes + align,
                                                  std::memory_order_relaxed);
      if (off + bytes + align <= c->size) {
        const std::uintptr_t raw =
            reinterpret_cast<std::uintptr_t>(c->data) + off;
        const std::uintptr_t aligned = (raw + align - 1) & ~(align - 1);
        padding_waste_.fetch_add(align, std::memory_order_relaxed);
        return reinterpret_cast<void*>(aligned);
      }
      grow(c, bytes + align);
    }
  }

  void install_chunk(std::size_t size) {
    auto c = std::make_unique<Chunk>();
    c->data = acquire_chunk(size);
    c->size = size;
    bytes_reserved_.fetch_add(size, std::memory_order_relaxed);
    chunks_.push_back(std::move(c));
    current_.store(chunks_.back().get(), std::memory_order_release);
  }

  void grow(Chunk* full, std::size_t min_bytes) {
    std::lock_guard<std::mutex> lk(grow_mutex_);
    // Another thread may have grown already.
    if (current_.load(std::memory_order_acquire) != full) return;
    // The full chunk's unused tail is dead (monotonic arena).
    const std::size_t cur = full->cursor.load(std::memory_order_relaxed);
    if (cur < full->size)
      padding_waste_.fetch_add(full->size - cur, std::memory_order_relaxed);
    std::size_t size = std::min<std::size_t>(chunk_bytes_ * 2, 1u << 26);
    chunk_bytes_ = size;
    while (size < min_bytes) size *= 2;
    install_chunk(size);
  }

  inline static std::atomic<std::uint64_t> s_next_id{1};
  inline static std::atomic<std::size_t> s_abandoned_span_bytes{0};

  const std::uint64_t id_;
  std::size_t chunk_bytes_;
  std::atomic<Chunk*> current_{nullptr};
  std::mutex grow_mutex_;
  std::vector<std::unique_ptr<Chunk>> chunks_;  // guarded by grow_mutex_
  std::atomic<std::size_t> bytes_reserved_{0};
  std::atomic<std::size_t> padding_waste_{0};
};

}  // namespace pwf::rt
