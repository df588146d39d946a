// Deterministic discrete-event queue.
//
// Events at equal timestamps are ordered by (priority, insertion sequence) so
// runs are bit-reproducible regardless of container internals.
//
// Implementation: a slab of recycled entries indexed by a 4-ary heap. The
// hot path (schedule/pop tens of millions of times per trial) does no
// per-event container allocation once the slab is warm: scheduling reuses a
// free slot, popping moves the callback out. Every entry records its heap
// position, so cancellation removes the entry from the heap on the spot
// (O(log n)) instead of leaving a tombstone: timer re-arms cancel a large
// share of everything scheduled, and tombstones would inflate the heap that
// every later sift walks. The 4-ary layout halves the tree depth of a binary
// heap and keeps children of a node on one cache line of indices.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/time.h"

namespace hpcsec::sim {

/// Handle identifying a scheduled event, usable for cancellation. The value
/// is opaque: it encodes the slab slot plus enough of the insertion sequence
/// to reject stale handles after the slot is recycled.
struct EventId {
    std::uint64_t seq = 0;
    [[nodiscard]] bool valid() const { return seq != 0; }
};

using EventFn = std::function<void()>;

class EventQueue {
public:
    /// Lower `priority` runs first among events with equal timestamps.
    /// Ties break by an internally assigned insertion sequence.
    EventId schedule(SimTime when, int priority, EventFn fn);

    /// Cancel a pending event. Returns false if it already ran or was
    /// cancelled (cancelling an invalid id is a harmless no-op).
    bool cancel(EventId id);

    [[nodiscard]] bool empty() const { return heap_.empty(); }
    [[nodiscard]] std::size_t size() const { return heap_.size(); }

    /// Timestamp of the next event; kTimeNever when empty.
    [[nodiscard]] SimTime next_time() const {
        return heap_.empty() ? kTimeNever : slab_[heap_[0]].when;
    }

    /// Pop and return the next event. Precondition: !empty().
    struct Popped {
        SimTime when;
        int priority;
        EventFn fn;
    };
    Popped pop();

    void clear();

private:
    // Slot index and sequence share the 64-bit handle: high 24 bits carry
    // slot+1 (so 0 stays the invalid id), low 40 bits the insertion
    // sequence, which disambiguates recycled slots.
    static constexpr int kSlotShift = 40;
    static constexpr std::uint64_t kSeqMask = (1ull << kSlotShift) - 1;

    struct Entry {
        SimTime when = 0;
        std::uint64_t order = 0;  ///< full insertion sequence (tie-break)
        std::uint64_t id = 0;     ///< composite handle; 0 while the slot is free
        EventFn fn;
        int priority = 0;
        std::uint32_t pos = 0;    ///< index in heap_ while scheduled
    };

    [[nodiscard]] bool before(std::uint32_t a, std::uint32_t b) const {
        const Entry& ea = slab_[a];
        const Entry& eb = slab_[b];
        if (ea.when != eb.when) return ea.when < eb.when;
        if (ea.priority != eb.priority) return ea.priority < eb.priority;
        return ea.order < eb.order;
    }

    void place(std::size_t pos, std::uint32_t slot) {
        heap_[pos] = slot;
        slab_[slot].pos = static_cast<std::uint32_t>(pos);
    }
    void sift_up(std::size_t pos);
    void sift_down(std::size_t pos);
    /// Free the entry at heap index `pos` and restore the heap property.
    void remove_at(std::size_t pos);

    std::vector<Entry> slab_;
    std::vector<std::uint32_t> heap_;  ///< slab indices, 4-ary min-heap
    std::vector<std::uint32_t> free_;  ///< recycled slab slots
    std::uint64_t next_order_ = 1;
};

}  // namespace hpcsec::sim
