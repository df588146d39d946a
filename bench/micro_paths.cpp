// Micro-benchmarks (google-benchmark) of the simulator's hot paths and the
// modeled architectural operations: event scheduling, page-table walks,
// one- vs two-stage translation, TLB operations, hypercall dispatch, full
// boot. These characterize the *simulator* cost (host-side), and document
// the modeled cycle costs of the paths the paper discusses (§II.a).
#include <benchmark/benchmark.h>

#include "arch/mmu.h"
#include "arch/platform.h"
#include "check/check.h"
#include "core/harness.h"
#include "core/node.h"
#include "gbench_json.h"
#include "hafnium/spm.h"
#include "obs/recorder.h"
#include "resil/resil.h"
#include "sim/engine.h"
#include "sim/event_queue.h"

#include <queue>
#include <unordered_set>

namespace {

using namespace hpcsec;

void BM_EventScheduleAndRun(benchmark::State& state) {
    for (auto _ : state) {
        sim::Engine e;
        for (int i = 0; i < 1000; ++i) e.after(static_cast<sim::Cycles>(i + 1), [] {});
        e.run();
        benchmark::DoNotOptimize(e.events_executed());
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventScheduleAndRun);

// --- event-queue regression baseline -----------------------------------------
// The pre-slab EventQueue: std::priority_queue of value entries plus two
// unordered_sets for O(1) cancellation via tombstones. Kept here verbatim so
// the slab queue's win stays *measured* against the design it replaced
// (schedule/pop allocation churn, tombstone-set growth, callback copies on
// pop) rather than asserted.
class LegacyEventQueue {
public:
    sim::EventId schedule(sim::SimTime when, int priority, sim::EventFn fn) {
        const std::uint64_t seq = next_seq_++;
        heap_.push(Entry{when, priority, seq, std::move(fn)});
        pending_.insert(seq);
        ++live_;
        return sim::EventId{seq};
    }

    bool cancel(sim::EventId id) {
        if (!id.valid()) return false;
        const auto it = pending_.find(id.seq);
        if (it == pending_.end()) return false;
        pending_.erase(it);
        cancelled_.insert(id.seq);
        --live_;
        return true;
    }

    [[nodiscard]] bool empty() const { return live_ == 0; }

    struct Popped {
        sim::SimTime when;
        int priority;
        sim::EventFn fn;
    };
    Popped pop() {
        drop_tombstones();
        auto& top = const_cast<Entry&>(heap_.top());
        Popped out{top.when, top.priority, std::move(top.fn)};
        pending_.erase(top.seq);
        heap_.pop();
        --live_;
        return out;
    }

private:
    struct Entry {
        sim::SimTime when;
        int priority;
        std::uint64_t seq;
        sim::EventFn fn;
    };
    struct Later {
        bool operator()(const Entry& a, const Entry& b) const {
            if (a.when != b.when) return a.when > b.when;
            if (a.priority != b.priority) return a.priority > b.priority;
            return a.seq > b.seq;
        }
    };

    void drop_tombstones() {
        while (!heap_.empty()) {
            auto it = cancelled_.find(heap_.top().seq);
            if (it == cancelled_.end()) return;
            cancelled_.erase(it);
            heap_.pop();
        }
    }

    std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
    std::unordered_set<std::uint64_t> cancelled_;
    std::unordered_set<std::uint64_t> pending_;
    std::uint64_t next_seq_ = 1;
    std::size_t live_ = 0;
};

// Deterministic timestamp scramble so heap order differs from insert order.
constexpr sim::SimTime scrambled_when(int i) {
    return static_cast<sim::SimTime>((i * 2654435761u) & 0xffff) + 1;
}

// Schedule/drain churn: the pattern the engine's run loop produces. The
// capture makes the callback large enough that a copying pop() pays a heap
// allocation per event.
template <typename Queue>
void queue_schedule_drain(benchmark::State& state, Queue& q, std::uint64_t& sink) {
    std::uint64_t payload[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    for (int i = 0; i < 1000; ++i) {
        q.schedule(scrambled_when(i), i & 3,
                   [payload, &sink] { sink += payload[0]; });
    }
    while (!q.empty()) {
        auto popped = q.pop();
        popped.fn();
    }
    benchmark::DoNotOptimize(sink);
}

void BM_EventQueueScheduleDrain(benchmark::State& state) {
    std::uint64_t sink = 0;
    for (auto _ : state) {
        sim::EventQueue q;
        queue_schedule_drain(state, q, sink);
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleDrain);

void BM_LegacyQueueScheduleDrain(benchmark::State& state) {
    std::uint64_t sink = 0;
    for (auto _ : state) {
        LegacyEventQueue q;
        queue_schedule_drain(state, q, sink);
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_LegacyQueueScheduleDrain);

// Cancellation-heavy churn: timers that are armed and mostly disarmed before
// firing (watchdogs, preemption timers). Half the scheduled events are
// cancelled; the legacy queue grows tombstone sets and still sifts the dead
// entries through the heap.
template <typename Queue>
void queue_cancel_heavy(benchmark::State& state, Queue& q, std::uint64_t& sink) {
    std::vector<sim::EventId> ids;
    ids.reserve(1000);
    for (int i = 0; i < 1000; ++i) {
        ids.push_back(q.schedule(scrambled_when(i), 0, [&sink] { ++sink; }));
    }
    for (std::size_t i = 0; i < ids.size(); i += 2) q.cancel(ids[i]);
    while (!q.empty()) {
        auto popped = q.pop();
        popped.fn();
    }
    benchmark::DoNotOptimize(sink);
}

void BM_EventQueueCancelHeavy(benchmark::State& state) {
    std::uint64_t sink = 0;
    for (auto _ : state) {
        sim::EventQueue q;
        queue_cancel_heavy(state, q, sink);
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueCancelHeavy);

void BM_LegacyQueueCancelHeavy(benchmark::State& state) {
    std::uint64_t sink = 0;
    for (auto _ : state) {
        LegacyEventQueue q;
        queue_cancel_heavy(state, q, sink);
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_LegacyQueueCancelHeavy);

// Tick-storm: the periodic-cadence pattern kernels generate — N cores each
// re-arming a fixed-period timer forever, through a real Engine. Shared
// periods make deadlines collide, so equal-key tie-breaks are exercised.
void BM_HeapQueueTickStorm(benchmark::State& state) {
    const int kCores = static_cast<int>(state.range(0));
    constexpr sim::SimTime kHorizon = 200'000;
    std::uint64_t sink = 0;
    std::int64_t events = 0;
    for (auto _ : state) {
        sim::Engine e;
        std::vector<std::function<void()>> ticks(kCores);
        for (int core = 0; core < kCores; ++core) {
            const sim::Cycles period = 100 + 10 * (core % 3);
            ticks[core] = [&e, &sink, &ticks, core, period] {
                ++sink;
                const sim::SimTime next = e.now() + period;
                if (next > kHorizon) return;
                e.at(next, [&ticks, core] { ticks[core](); }, sim::kPrioInterrupt);
            };
            e.at(100, [&ticks, core] { ticks[core](); }, sim::kPrioInterrupt);
        }
        e.run();
        events = static_cast<std::int64_t>(e.events_executed());
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_HeapQueueTickStorm)->Arg(8)->Arg(64)->Arg(256);

void BM_PageTableWalk4Level(benchmark::State& state) {
    arch::PageTable pt;
    pt.map(0x10'0000, 0x8000'0000, 64 * arch::kPageSize, arch::kPermRW, false,
           /*force_pages=*/true);
    std::uint64_t addr = 0x10'0000;
    for (auto _ : state) {
        benchmark::DoNotOptimize(pt.walk(addr));
        addr = 0x10'0000 + ((addr + arch::kPageSize) & 0x3ffff);
    }
}
BENCHMARK(BM_PageTableWalk4Level);

void BM_PageTableWalkBlock(benchmark::State& state) {
    arch::PageTable pt;
    pt.map(0, 0x4000'0000, 1ull << 30, arch::kPermRWX);  // 1 GiB block
    for (auto _ : state) {
        benchmark::DoNotOptimize(pt.walk(0x1234'5678 & 0x3fff'ffff));
    }
}
BENCHMARK(BM_PageTableWalkBlock);

void BM_MmuTranslateTwoStageCold(benchmark::State& state) {
    arch::MemoryMap mem;
    mem.add_region({"ram", 0x4000'0000, 1ull << 30, arch::RegionKind::kRam,
                    arch::World::kNonSecure});
    arch::PageTable s1, s2;
    s1.map(0, 0x1000'0000, 16ull << 20, arch::kPermRW);
    s2.map(0x1000'0000, 0x4000'0000, 16ull << 20, arch::kPermRW);
    arch::Mmu mmu(mem);
    mmu.set_context(&s1, &s2, 1, 1, arch::World::kNonSecure);
    std::uint64_t va = 0;
    for (auto _ : state) {
        mmu.tlb().flush_all();
        benchmark::DoNotOptimize(mmu.translate(va, arch::Access::kRead));
        va = (va + arch::kPageSize) & ((16ull << 20) - 1);
    }
}
BENCHMARK(BM_MmuTranslateTwoStageCold);

void BM_MmuTranslateTlbHit(benchmark::State& state) {
    arch::MemoryMap mem;
    mem.add_region({"ram", 0x4000'0000, 1ull << 30, arch::RegionKind::kRam,
                    arch::World::kNonSecure});
    arch::PageTable s1;
    s1.map(0, 0x4000'0000, 1ull << 20, arch::kPermRW);
    arch::Mmu mmu(mem);
    mmu.set_context(&s1, nullptr, 0, 1, arch::World::kNonSecure);
    (void)mmu.translate(0, arch::Access::kRead);
    for (auto _ : state) {
        benchmark::DoNotOptimize(mmu.translate(0x40, arch::Access::kRead));
    }
}
BENCHMARK(BM_MmuTranslateTlbHit);

void BM_TlbFlushVmid(benchmark::State& state) {
    arch::Tlb tlb(512, 4);
    for (auto _ : state) {
        state.PauseTiming();
        for (std::uint64_t p = 0; p < 256; ++p) {
            tlb.insert({true, static_cast<arch::VmId>(p % 3), 0, p, p, arch::kPermRW,
                        false});
        }
        state.ResumeTiming();
        tlb.flush_vmid(1);
    }
}
BENCHMARK(BM_TlbFlushVmid);

struct SpmBench {
    arch::Platform platform{arch::PlatformConfig::pine_a64()};
    hafnium::Spm spm;

    SpmBench() : spm(platform, make_manifest()) { spm.boot(); }

    static hafnium::Manifest make_manifest() {
        hafnium::Manifest m;
        hafnium::VmSpec p;
        p.name = "primary";
        p.role = hafnium::VmRole::kPrimary;
        p.mem_bytes = 64ull << 20;
        p.vcpu_count = 4;
        hafnium::VmSpec s;
        s.name = "compute";
        s.role = hafnium::VmRole::kSecondary;
        s.mem_bytes = 64ull << 20;
        s.vcpu_count = 4;
        m.vms = {p, s};
        return m;
    }
};

void BM_HypercallDispatchInfo(benchmark::State& state) {
    SpmBench b;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            b.spm.hypercall(0, 1, hafnium::Call::kVmGetInfo, {2, 0, 0, 0}));
    }
}
BENCHMARK(BM_HypercallDispatchInfo);

void BM_GuestFunctionalWrite(benchmark::State& state) {
    SpmBench b;
    std::uint64_t addr = 0;
    for (auto _ : state) {
        b.spm.vm_write64(2, addr, addr);
        addr = (addr + 8) & 0xfffff;
    }
}
BENCHMARK(BM_GuestFunctionalWrite);

// Invariant-auditor overhead on the hypercall path (ISSUE acceptance:
// audit-off must cost one predicted branch per hook site — the obs recorder
// discipline). Off = no auditor attached; sampled amortizes a full scan
// over the period; strict runs every scan rule on every hypercall.
void BM_HypercallAuditOff(benchmark::State& state) {
    SpmBench b;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            b.spm.hypercall(0, 1, hafnium::Call::kVmGetInfo, {2, 0, 0, 0}));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HypercallAuditOff);

void BM_HypercallAuditSampled(benchmark::State& state) {
    SpmBench b;
    check::Auditor auditor(
        b.spm, {check::Mode::kSampled, /*period=*/64, /*event_period=*/0});
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            b.spm.hypercall(0, 1, hafnium::Call::kVmGetInfo, {2, 0, 0, 0}));
    }
    state.SetItemsProcessed(state.iterations());
    state.counters["audits"] = static_cast<double>(auditor.audits());
}
BENCHMARK(BM_HypercallAuditSampled);

void BM_HypercallAuditStrict(benchmark::State& state) {
    SpmBench b;
    check::Auditor auditor(b.spm, {check::Mode::kStrict});
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            b.spm.hypercall(0, 1, hafnium::Call::kVmGetInfo, {2, 0, 0, 0}));
    }
    state.SetItemsProcessed(state.iterations());
    state.counters["audits"] = static_cast<double>(auditor.audits());
}
BENCHMARK(BM_HypercallAuditStrict);

// The structured recorder must cost one predicted branch per call site when
// its category is masked off (ISSUE acceptance: instrumentation is free in
// ordinary runs). Compare against the enabled path, which appends an Event.
void BM_RecorderDisabled(benchmark::State& state) {
    obs::SpanRecorder rec;  // mask defaults to 0: everything filtered
    sim::SimTime t = 0;
    for (auto _ : state) {
        rec.instant(++t, obs::EventType::kVmExit, 0, 1, 2, 3);
        benchmark::DoNotOptimize(rec.events().size());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RecorderDisabled);

void BM_RecorderEnabled(benchmark::State& state) {
    obs::SpanRecorder rec;
    rec.set_mask(obs::to_mask(obs::Category::kAll));
    sim::SimTime t = 0;
    for (auto _ : state) {
        rec.instant(++t, obs::EventType::kVmExit, 0, 1, 2, 3);
        benchmark::DoNotOptimize(rec.events().size());
        if (rec.events().size() >= (1u << 20)) {
            state.PauseTiming();
            rec.clear();
            state.ResumeTiming();
        }
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RecorderEnabled);

// Heartbeat-watchdog overhead on the hypercall path (ISSUE acceptance:
// detection is event-driven, so an armed watchdog must leave the hypercall
// hot path within noise of the audit-off baseline — nothing resil-related
// executes per call, only per scan tick and per guest timer tick).
void BM_HypercallWatchdogOff(benchmark::State& state) {
    core::Node node(
        core::Harness::default_config(core::SchedulerKind::kKittenPrimary, 7));
    node.boot();
    for (auto _ : state) {
        benchmark::DoNotOptimize(node.spm()->hypercall(
            0, 1, hafnium::Call::kVmGetInfo, {2, 0, 0, 0}));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HypercallWatchdogOff);

void BM_HypercallWatchdogArmed(benchmark::State& state) {
    core::Node node(
        core::Harness::default_config(core::SchedulerKind::kKittenPrimary, 7));
    node.boot();
    resil::Supervisor sup(node);
    sup.supervise(node.compute_vm()->id());
    sup.start();
    for (auto _ : state) {
        benchmark::DoNotOptimize(node.spm()->hypercall(
            0, 1, hafnium::Call::kVmGetInfo, {2, 0, 0, 0}));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HypercallWatchdogArmed);

void BM_SpmFullBoot(benchmark::State& state) {
    for (auto _ : state) {
        arch::Platform platform(arch::PlatformConfig::pine_a64());
        hafnium::Spm spm(platform, SpmBench::make_manifest());
        spm.boot();
        benchmark::DoNotOptimize(spm.vm_count());
    }
}
BENCHMARK(BM_SpmFullBoot);

}  // namespace

int main(int argc, char** argv) {
    return hpcsec::benchutil::run_and_report("micro_paths", argc, argv);
}
