// The benchmark's workloads. Each one runs the same fixed amount of work
// per pass (its inputs come from the seed only), so passes can be repeated
// until the time budget is spent and their figures compared.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/node.h"
#include "ledger.h"

namespace perfbench {

/// With this seed the outputs must equal the recorded ones.
inline constexpr std::uint64_t kDefaultSeed = 1;

/// Kinds of timing pieces.
enum class Piece : std::uint8_t {
    kSetup,  ///< one Node construction + boot()
    kRun,    ///< one slice of a run phase (RunProbe::kSliceEvents events)
    kCall,   ///< one FF-A memory call
    kOther,  ///< everything else (launch, validate, publish, teardown, ...)
};

/// One pass of a workload: timings, deterministic counts and per-operation
/// outputs.
///
/// The pass's host time is cut into pieces. Their number and order are the
/// same in every pass (the work is fixed), so the runner can take each
/// piece's fastest repetition across passes: on a shared host that is far
/// steadier than the median pass.
struct PassResult {
    std::vector<double> piece_s;
    std::vector<Piece> piece_kind;
    /// Latency operations (node lifecycles, launches): [begin, end) pieces.
    std::vector<std::pair<std::size_t, std::size_t>> op_pieces;
    std::uint64_t run_events = 0;  ///< engine events in the run phases

    void add_piece(Piece kind, double seconds) {
        piece_s.push_back(seconds);
        piece_kind.push_back(kind);
    }
    /// The pieces added after `begin` (a piece_s.size()) form one operation.
    void end_op(std::size_t begin) { op_pieces.emplace_back(begin, piece_s.size()); }

    /// One entry per attempted operation. `output` is compared with the
    /// recorded file (default seed) or with the first pass (other seeds);
    /// "" means the operation has no recorded output.
    struct Op {
        std::string output;
        std::string failure;  ///< non-empty = failed, with the reason
    };
    std::vector<Op> ops;

    /// Deterministic per-layer counts (same seed => same values).
    std::map<std::string, double> counts;

    /// Append another part of the pass (a fleet node) after this one.
    void append(PassResult&& part);

    std::size_t add_op(std::string output = {}) {
        ops.push_back({std::move(output), {}});
        return ops.size() - 1;
    }
    void fail(std::size_t op, const std::string& why) {
        if (ops[op].failure.empty()) ops[op].failure = why;
    }
};

class Workload {
public:
    virtual ~Workload() = default;
    /// Hash of the generated inputs (changes with the seed).
    [[nodiscard]] virtual std::string inputs() const = 0;
    virtual PassResult run_pass(Ledger& ledger) = 0;
    /// Place the workload's own worker threads for pass `pass`; the runner
    /// has already pinned the calling thread to cpus[pass % cpus.size()].
    virtual void place(int /*pass*/, const std::vector<int>& /*cpus*/) {}
};

std::unique_ptr<Workload> make_paper_figs(std::uint64_t seed);
std::unique_ptr<Workload> make_fleet_boot(std::uint64_t seed);
std::unique_ptr<Workload> make_vm_churn(std::uint64_t seed);

// --- helpers shared by the workloads ----------------------------------------

/// FNV-1a over a string, as 16 hex digits.
std::string fingerprint(const std::string& text);

/// printf into a std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// CPUs this process may run on, and pinning of the calling thread. The
/// runner moves each pass to the next CPU, so the fastest repetition of a
/// piece of work is not hostage to one slow core of a shared host.
std::vector<int> allowed_cpus();
void pin_this_thread(int cpu);

/// One run phase: a "core.run" span and a RunProbe on the engine, which
/// also splits the time by event class when the ledger is on.
class RunPhase {
public:
    RunPhase(Ledger& ledger, hpcsec::sim::Engine& engine);
    /// End the phase: add its slices as run pieces and its events to `r`.
    /// Later calls do nothing.
    void finish(PassResult& r);

private:
    Ledger& ledger_;
    hpcsec::sim::Engine& engine_;
    Span span_;
    RunProbe probe_;
    std::uint64_t events0_;
    bool finished_ = false;
};

/// Seconds since `start`.
inline double since(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Add the node's engine, SPM, kernel, MMU and audit counts to `counts`.
/// Calls Node::publish_metrics() inside a "core.publish" span.
void collect_counts(Ledger& ledger, hpcsec::core::Node& node,
                    std::map<std::string, double>& counts);

}  // namespace perfbench
