#include "obs/timeline.h"

#include <algorithm>
#include <array>
#include <sstream>

namespace hpcsec::obs {

namespace {

/// Weight slot per rendered span type; -1 for types the strip ignores.
int glyph_index(EventType t) {
    switch (t) {
        case EventType::kWorkChunk: return 0;
        case EventType::kOverhead: return 1;
        case EventType::kTlbRefill: return 2;
        default: return -1;
    }
}

}  // namespace

sim::Cycles span_cycles(const std::vector<Event>& events, EventType type,
                        int core, sim::SimTime from, sim::SimTime to) {
    sim::Cycles sum = 0;
    for (const auto& e : events) {
        if (e.type != type || (core >= 0 && e.core != core)) continue;
        const sim::SimTime lo = std::max(e.start, from);
        const sim::SimTime hi = std::min(e.end, to);
        if (hi > lo) sum += hi - lo;
    }
    return sum;
}

std::string render_timeline(const std::vector<Event>& events, sim::SimTime from,
                            sim::SimTime to, int ncores, int cols) {
    if (to <= from || cols <= 0 || ncores <= 0) return {};
    const double bucket =
        static_cast<double>(to - from) / static_cast<double>(cols);

    // weight[core][col][glyph_index]
    std::vector<std::vector<std::array<double, 3>>> weight(
        static_cast<std::size_t>(ncores),
        std::vector<std::array<double, 3>>(static_cast<std::size_t>(cols),
                                           {0.0, 0.0, 0.0}));
    for (const auto& e : events) {
        const int kind = glyph_index(e.type);
        if (kind < 0) continue;
        if (e.core < 0 || e.core >= ncores || e.end <= from || e.start >= to) continue;
        const sim::SimTime lo = std::max(e.start, from);
        const sim::SimTime hi = std::min(e.end, to);
        const int c0 = static_cast<int>(static_cast<double>(lo - from) / bucket);
        const int c1 = std::min(
            cols - 1, static_cast<int>(static_cast<double>(hi - 1 - from) / bucket));
        for (int c = c0; c <= c1; ++c) {
            const double cell_lo = static_cast<double>(from) + c * bucket;
            const double cell_hi = cell_lo + bucket;
            const double overlap = std::min(static_cast<double>(hi), cell_hi) -
                                   std::max(static_cast<double>(lo), cell_lo);
            if (overlap > 0) {
                weight[static_cast<std::size_t>(e.core)][static_cast<std::size_t>(c)]
                      [static_cast<std::size_t>(kind)] += overlap;
            }
        }
    }

    static constexpr char kGlyph[3] = {'#', 'o', 't'};
    std::ostringstream os;
    for (int core = 0; core < ncores; ++core) {
        os << "core" << core << " |";
        for (int c = 0; c < cols; ++c) {
            const auto& w = weight[static_cast<std::size_t>(core)]
                                  [static_cast<std::size_t>(c)];
            const double busy = w[0] + w[1] + w[2];
            if (busy < bucket * 0.05) {
                os << '.';
                continue;
            }
            // Overhead/transients are what the strip exists to show:
            // highlight them whenever they are a meaningful share of the
            // bucket, even if workload cycles dominate in absolute terms.
            if (w[1] + w[2] >= bucket * 0.10) {
                os << (w[1] >= w[2] ? kGlyph[1] : kGlyph[2]);
            } else {
                os << kGlyph[0];
            }
        }
        os << "|\n";
    }
    return os.str();
}

}  // namespace hpcsec::obs
