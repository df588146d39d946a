#include <sched.h>

#include <cstdarg>
#include <cstdio>

#include "workloads.h"

namespace perfbench {

std::string fingerprint(const std::string& text) {
    std::uint64_t h = 1469598103934665603ull;
    for (const unsigned char c : text) {
        h ^= c;
        h *= 1099511628211ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
    return buf;
}

std::string format(const char* fmt, ...) {
    char buf[512];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof buf, fmt, ap);
    va_end(ap);
    return buf;
}

std::vector<int> allowed_cpus() {
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
    return cpus;
}

void pin_this_thread(int cpu) {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    (void)sched_setaffinity(0, sizeof set, &set);
}

void PassResult::append(PassResult&& part) {
    const std::size_t base = piece_s.size();
    piece_s.insert(piece_s.end(), part.piece_s.begin(), part.piece_s.end());
    piece_kind.insert(piece_kind.end(), part.piece_kind.begin(), part.piece_kind.end());
    for (const auto& [b, e] : part.op_pieces) op_pieces.emplace_back(base + b, base + e);
    run_events += part.run_events;
    for (auto& op : part.ops) ops.push_back(std::move(op));
    for (const auto& [k, v] : part.counts) counts[k] += v;
}

RunPhase::RunPhase(Ledger& ledger, hpcsec::sim::Engine& engine)
    : ledger_(ledger),
      engine_(engine),
      span_(ledger, "core.run"),
      probe_(engine, ledger.on()),
      events0_(engine.events_executed()) {}

void RunPhase::finish(PassResult& r) {
    if (finished_) return;
    finished_ = true;
    probe_.close();
    charge_dispatch(ledger_, span_, probe_);
    r.run_events += engine_.events_executed() - events0_;
    for (const double s : probe_.slices()) r.add_piece(Piece::kRun, s);
    span_.stop();
}

void collect_counts(Ledger& ledger, hpcsec::core::Node& node,
                    std::map<std::string, double>& counts) {
    hpcsec::obs::MetricsSnapshot snap;
    {
        Span span(ledger, "core.publish");
        snap = node.publish_metrics();
    }
    static const char* const kGauges[][2] = {
        {"hf.hypercalls", "hafnium.hypercalls"},
        {"hf.world_switches", "hafnium.world_switches"},
        {"hf.vm_exits", "hafnium.vm_exits"},
        {"hf.virq_injections", "hafnium.virq_injections"},
        {"kitten.ticks", "kitten.ticks"},
        {"linux.ticks", "linux.ticks"},
        {"linux.kworker_wakes", "linux.kworker_wakes"},
        {"linux.softirqs", "linux.softirqs"},
    };
    for (const auto& g : kGauges) counts[g[1]] += snap.value_of(g[0]);

    hpcsec::arch::Platform& p = node.platform();
    const hpcsec::sim::Engine& e = p.engine();
    counts["sim.events"] += static_cast<double>(e.events_executed());
    for (const auto& pc : e.executed_by_priority()) {
        const int c = RunProbe::class_of(pc.priority);
        static const char* const kNames[] = {"sim.events.p0", "sim.events.p10",
                                             "sim.events.p20", "sim.events.p50"};
        counts[kNames[c]] += static_cast<double>(pc.executed);
    }
    counts["sim.batched_pops"] += static_cast<double>(e.timer_batched_pops());
    for (int c = 0; c < p.ncores(); ++c) {
        hpcsec::arch::Mmu& mmu = p.core(c).mmu();
        counts["arch.tlb_hits"] += static_cast<double>(mmu.tlb().stats().hits);
        counts["arch.tlb_misses"] += static_cast<double>(mmu.tlb().stats().misses);
        counts["arch.l0_hits"] += static_cast<double>(mmu.l0_hits());
    }
    if (hpcsec::check::Auditor* a = node.auditor()) {
        counts["check.audits"] += static_cast<double>(a->audits());
    }
}

}  // namespace perfbench
