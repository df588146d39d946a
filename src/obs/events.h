// Structured telemetry event vocabulary.
//
// Every observable action in the stack is an enum type plus up to three
// numeric arguments — no strings are built on the hot path. Category bits
// gate recording and select what the Perfetto exporter and the timeline
// renderer see.
#pragma once

#include <cstdint>
#include <string>

#include "sim/time.h"

namespace hpcsec::obs {

enum class Category : std::uint32_t {
    kIrq = 1u << 0,
    kSched = 1u << 1,
    kHyp = 1u << 2,
    kVm = 1u << 3,
    kMmu = 1u << 4,
    kWorkload = 1u << 5,
    kBoot = 1u << 6,
    kChannel = 1u << 7,
    kCheck = 1u << 8,  ///< invariant-audit findings (src/check/)
    kResil = 1u << 9,  ///< fault detection / recovery actions (src/resil/)
    kAll = 0xffffffffu,
};

[[nodiscard]] constexpr std::uint32_t to_mask(Category c) {
    return static_cast<std::uint32_t>(c);
}

/// Stable lower-case name for one category bit ("irq", "sched", ...).
[[nodiscard]] const char* category_name(Category c);

/// Parse a comma-separated category list into a bitmask. Tokens are either
/// symbolic names ("irq,sched,hyp", "all") or raw numeric masks ("0x305",
/// "773") which OR in verbatim. On a bad token returns false and fills
/// `error` with the offending token plus the list of valid names.
/// Defined in recorder.cpp.
[[nodiscard]] bool parse_category_list(const std::string& list,
                                       std::uint32_t& out, std::string& error);

enum class EventType : std::uint8_t {
    // Spans (end > start).
    kVmRun,         ///< a0 = vm id, a1 = vcpu index, a2 = ExitReason
    kWorkChunk,     ///< a0 = reserved
    kDetour,        ///< a0 = thread index
    kOverhead,      ///< kernel/hypervisor charge on a core (Executor::charge)
    kTlbRefill,     ///< TLB-refill transient at the start of a work chunk
    // Instants (end == start).
    kVmExit,        ///< a0 = vm id, a1 = vcpu index, a2 = ExitReason
    kIrqDeliver,    ///< a0 = irq, a1 = IrqDestination
    kVirqInject,    ///< a0 = virq, a1 = vm id
    kHypercall,     ///< a0 = Call number, a1 = caller vm id
    kGuestTick,     ///< a0 = vm id, a1 = vcpu index
    kKernelTick,    ///< primary/native kernel scheduler tick
    kContextSwitch, ///< a0 = kind (0 = thread, 1 = vcpu proxy)
    kNoisePreempt,  ///< background work preempted/competed with the app
    kBarrierStep,   ///< a0 = step index
    kCheckFail,     ///< a0 = check::Rule, a1 = vm id, a2 = vcpu index
    kResilFault,    ///< a0 = resil::FailureKind, a1 = vm id, a2 = vcpu index
    kResilAction,   ///< a0 = action (0 backoff, 1 restart, 2 quarantine), a1 = vm id, a2 = consecutive failures
    kChaosInject,   ///< a0 = resil::ChaosFault, a1 = vm id, a2 = vcpu/word index
    kTagViolation,  ///< a0 = offending vm id, a1 = faulting PA, a2 = Access
    kContainAction, ///< a0 = resil::ContainmentPolicy step, a1 = vm id, a2 = detail
};

/// Stable lower-case name, used for trace export.
[[nodiscard]] const char* to_string(EventType t);

[[nodiscard]] constexpr Category category_of(EventType t) {
    switch (t) {
        case EventType::kVmRun:
        case EventType::kVmExit:
        case EventType::kGuestTick:
            return Category::kVm;
        case EventType::kWorkChunk:
        case EventType::kDetour:
        case EventType::kBarrierStep:
            return Category::kWorkload;
        case EventType::kIrqDeliver:
        case EventType::kVirqInject:
            return Category::kIrq;
        case EventType::kHypercall:
            return Category::kHyp;
        case EventType::kKernelTick:
        case EventType::kContextSwitch:
        case EventType::kNoisePreempt:
        case EventType::kOverhead:
            return Category::kSched;
        case EventType::kTlbRefill:
            return Category::kMmu;
        case EventType::kCheckFail:
            return Category::kCheck;
        case EventType::kResilFault:
        case EventType::kResilAction:
        case EventType::kChaosInject:
        case EventType::kContainAction:
            return Category::kResil;
        case EventType::kTagViolation:
            return Category::kCheck;
    }
    return Category::kAll;
}

/// One recorded event. Spans carry [start, end); instants have end == start.
struct Event {
    sim::SimTime start = 0;
    sim::SimTime end = 0;
    EventType type = EventType::kVmRun;
    std::int16_t core = -1;
    std::int64_t a0 = 0;
    std::int64_t a1 = 0;
    std::int64_t a2 = 0;

    [[nodiscard]] bool is_span() const { return end > start; }
};

}  // namespace hpcsec::obs
