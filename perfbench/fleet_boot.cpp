// fleet_boot: the fleet_scaling shape. kNodes Kitten-primary nodes, each
// running a 64-superstep LU, are fanned over a core::ThreadPool with
// kWorkers workers. Each worker reuses one thread_local sim::Arena (reset
// between nodes), and the cluster::ScaleModel projection over the nodes'
// superstep traces runs at the end of the pass.
#include <latch>
#include <optional>

#include "cluster/scale_model.h"
#include "core/harness.h"
#include "core/parallel.h"
#include "sim/arena.h"
#include "workloads.h"
#include "workloads/nas.h"

namespace perfbench {
namespace {

using hpcsec::core::Node;

constexpr int kNodes = 64;
constexpr int kWorkers = 2;

struct NodeOut {
    PassResult part;  ///< the node's pieces and counts
    std::uint64_t run_events = 0;
    std::uint64_t events = 0;
    std::uint64_t frames = 0;
    std::size_t arena_bytes = 0;
    hpcsec::cluster::NodeTrace trace;
    std::string error;
};

class FleetBoot final : public Workload {
public:
    explicit FleetBoot(std::uint64_t seed) : seed_(seed), pool_(kWorkers) {
        spec_ = hpcsec::wl::nas_lu_spec();
        spec_.supersteps = 64;
    }

    [[nodiscard]] std::string inputs() const override {
        std::string text = spec_.name + ":" + std::to_string(spec_.supersteps);
        for (int i = 0; i < kNodes; ++i) text += "," + std::to_string(node_seed(i));
        return fingerprint(text);
    }

    PassResult run_pass(Ledger& ledger) override {
        PassResult r;
        std::vector<NodeOut> nodes(kNodes);
        hpcsec::core::parallel_for_indexed(
            pool_, nodes.size(), [&](std::size_t i) { run_node(ledger, i, nodes[i]); });

        std::vector<hpcsec::cluster::NodeTrace> traces;
        traces.reserve(nodes.size());
        for (std::size_t i = 0; i < nodes.size(); ++i) {
            NodeOut& n = nodes[i];
            r.append(std::move(n.part));
            r.counts["arch.frames_allocated"] += static_cast<double>(n.frames);
            r.counts["sim.arena_bytes"] += static_cast<double>(n.arena_bytes);
            r.counts["core.nodes"] += 1;
            const std::size_t op = r.add_op(format(
                "node %zu events=%llu run_events=%llu frames=%llu arena_bytes=%zu "
                "steps=%zu step_cycles=%llu",
                i, static_cast<unsigned long long>(n.events),
                static_cast<unsigned long long>(n.run_events),
                static_cast<unsigned long long>(n.frames), n.arena_bytes,
                n.trace.step_cycles.size(),
                static_cast<unsigned long long>(n.trace.total())));
            if (!n.error.empty()) r.fail(op, n.error);
            if (n.events == 0 || n.arena_bytes == 0 ||
                n.trace.step_cycles.size() != static_cast<std::size_t>(spec_.supersteps)) {
                r.fail(op, "node ran no events, used no arena or missed supersteps");
            }
            traces.push_back(std::move(n.trace));
        }

        hpcsec::cluster::ScaleResult proj;
        std::string error;
        {
            Span span(ledger, "cluster.project");
            try {
                const hpcsec::cluster::ScaleModel model(
                    std::move(traces), hpcsec::sim::ClockSpec{1'100'000'000});
                proj = model.project(kNodes, /*seed=*/777);
            } catch (const std::exception& e) {
                error = e.what();
            }
            r.add_piece(Piece::kOther, span.stop());
        }
        const std::size_t op = r.add_op(format("projection nodes=%d eff=%.17g step_us=%.17g",
                                               kNodes, proj.efficiency,
                                               proj.mean_step_us));
        if (!error.empty()) r.fail(op, "projection threw: " + error);
        if (!(proj.efficiency > 0.0 && proj.efficiency <= 1.0) ||
            !(proj.mean_step_us > 0.0)) {
            r.fail(op, "projected efficiency outside (0, 1] or no step time");
        }
        return r;
    }

    void place(int pass, const std::vector<int>& cpus) override {
        if (cpus.size() < 2) return;
        // Each task blocks until all have started, so every worker takes
        // exactly one and pins itself to the CPUs after the runner's.
        std::latch started(kWorkers);
        for (int k = 0; k < kWorkers; ++k) {
            const int cpu = cpus[static_cast<std::size_t>(pass + 1 + k) % cpus.size()];
            pool_.submit([&started, cpu] {
                pin_this_thread(cpu);
                started.arrive_and_wait();
            });
        }
        pool_.wait_idle();
    }

private:
    [[nodiscard]] std::uint64_t node_seed(int i) const {
        return 20210100 + seed_ + 6151ull * static_cast<std::uint64_t>(i);
    }

    void run_node(Ledger& ledger, std::size_t i, NodeOut& out) {
        // One arena per worker, reused for every node the worker runs:
        // teardown is the Node destructor plus arena.reset().
        static thread_local hpcsec::sim::Arena arena;
        PassResult& part = out.part;
        Span op(ledger, "bench.node");
        Clock::time_point rest_start = Clock::now();
        try {
            hpcsec::core::NodeConfig cfg = hpcsec::core::Harness::default_config(
                hpcsec::core::SchedulerKind::kKittenPrimary,
                node_seed(static_cast<int>(i)));
            cfg.platform.arena = &arena;
            std::optional<Node> node;
            {
                Span boot(ledger, "core.boot");
                node.emplace(std::move(cfg));
                node->boot();
                part.add_piece(Piece::kSetup, boot.stop());
            }
            hpcsec::sim::Engine& engine = node->platform().engine();
            out.frames = node->platform().mem().allocated_frames();
            hpcsec::wl::ParallelWorkload w(spec_);
            const hpcsec::sim::SimTime start = engine.now();
            {
                RunPhase run(ledger, engine);
                (void)node->run_workload(w);
                run.finish(part);
            }
            rest_start = Clock::now();
            out.run_events = part.run_events;
            if (!w.finished()) out.error = "workload timed out";
            out.events = engine.events_executed();
            out.trace = hpcsec::cluster::trace_from_step_times(w.step_completion_times(),
                                                               start);
            collect_counts(ledger, *node, part.counts);
            Span teardown(ledger, "core.teardown");
            node.reset();
        } catch (const std::exception& e) {
            out.error = std::string("node threw: ") + e.what();
        }
        // The external arena outlives the Platform: bytes_used here is the
        // node's whole long-lived footprint.
        out.arena_bytes = arena.bytes_used();
        {
            Span reset(ledger, "sim.arena_reset");
            arena.reset();
        }
        part.add_piece(Piece::kOther, since(rest_start));
        part.end_op(0);
    }

    std::uint64_t seed_;
    hpcsec::wl::WorkloadSpec spec_;
    hpcsec::core::ThreadPool pool_;
};

}  // namespace

std::unique_ptr<Workload> make_fleet_boot(std::uint64_t seed) {
    return std::make_unique<FleetBoot>(seed);
}

}  // namespace perfbench
