// Host-time ledger for the benchmark: spans that the benchmark's own code
// puts around calls into the library's public functions, plus a
// sim::DispatchProbe that splits the run phase by event class.
//
// The library itself is never instrumented. A span always measures its
// duration (the end-to-end metrics need that); only when the ledger is on
// does it also keep a record (name, start, end, parent, id) in memory and
// charge its time to the per-name and per-layer totals.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "sim/engine.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds since the first call in this process.
double now_s();

struct SpanRecord {
    std::uint64_t id = 0;      ///< thread index << 40 | sequence
    std::uint64_t parent = 0;  ///< 0 = top level
    const char* name = "";     ///< "<layer>.<operation>"
    double start = 0.0;
    double end = 0.0;
    double child_s = 0.0;      ///< time of nested spans and dispatch buckets
};

/// Host time per name (inclusive) and per layer (self), summed between two
/// calls of Ledger::take_totals().
struct Totals {
    std::map<std::string, double> inclusive_s;
    std::map<std::string, double> self_s;
    std::uint64_t spans = 0;
};

class Ledger {
public:
    explicit Ledger(bool on);
    [[nodiscard]] bool on() const { return on_; }

    /// Per-thread log, created on first use by each thread.
    struct ThreadLog {
        std::uint32_t thread = 0;
        std::uint64_t next_seq = 1;
        std::vector<SpanRecord> spans;
        std::vector<std::size_t> open;  ///< indices of open spans (a stack)
        Totals totals;
    };
    ThreadLog& local();

    /// Sum and clear every thread's totals. Call only while no worker runs.
    Totals take_totals();

    /// Every recorded span, as JSON lines, in thread then start order.
    bool write_spans(const std::string& path) const;

private:
    bool on_;
    std::uint64_t generation_;
    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<ThreadLog>> logs_;
};

/// Measures one call. stop() ends it early and returns its seconds.
class Span {
public:
    Span(Ledger& ledger, const char* name);
    ~Span() { stop(); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    double stop();
    /// Charge time spent below this span that no nested Span measured
    /// (the dispatch buckets of a run).
    void add_child_time(double seconds);

private:
    Ledger* ledger_;
    const char* name_;
    Clock::time_point start_;
    double seconds_ = -1.0;
    std::size_t index_ = 0;  ///< position in the thread log when recorded
};

/// Probe on an Engine for one run phase. It cuts the run into slices of
/// kSliceEvents dispatched events (their host times are the run's timing
/// pieces), and when `split` is set it also charges the host time of every
/// dispatch to the event's class: the engine calls on_dispatch() as each
/// event starts, and the time until the next dispatch (or close()) goes to
/// that event's class, which therefore also pays for popping the next event.
class RunProbe final : public hpcsec::sim::DispatchProbe {
public:
    static constexpr int kClasses = 4;  ///< irq, kernel, completion, other
    static constexpr std::uint64_t kSliceEvents = 4096;
    static int class_of(int priority);

    RunProbe(hpcsec::sim::Engine& engine, bool split);
    ~RunProbe() override;
    RunProbe(const RunProbe&) = delete;
    RunProbe& operator=(const RunProbe&) = delete;

    void on_dispatch(hpcsec::sim::SimTime now, int priority) override;
    /// Charge the open event, end the last slice and detach. Idempotent.
    void close();

    [[nodiscard]] const std::vector<double>& slices() const { return slices_; }
    [[nodiscard]] const std::array<double, kClasses>& seconds() const {
        return seconds_;
    }

private:
    hpcsec::sim::Engine* engine_;
    hpcsec::sim::DispatchProbe* previous_;
    bool split_;
    std::uint64_t events_ = 0;
    Clock::time_point slice_start_;
    std::vector<double> slices_;
    std::array<double, kClasses> seconds_{};
    Clock::time_point last_{};
    int open_class_ = -1;
};

/// Names of the dispatch buckets, in class order.
inline constexpr std::array<const char*, RunProbe::kClasses> kDispatchNames = {
    "sim.irq", "sim.kernel", "sim.completion", "sim.other"};

/// Add a closed probe's class buckets to the thread's totals, as children
/// of `run`.
void charge_dispatch(Ledger& ledger, Span& run, const RunProbe& probe);

}  // namespace perfbench
