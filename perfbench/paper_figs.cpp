// paper_figs: regenerate the paper's figures once per pass.
//
// Figs. 7-10 go through core::Harness::run_rows (HPCG, STREAM, RandomAccess
// and NAS LU/BT/CG/EP/SP x Native/Kitten/Linux x kTrials, serial). The
// Harness builds its nodes itself, so the spans around Node construction +
// boot, the run and the destructor are opened and closed from its
// config_factory / pre_trial / post_trial hooks. Figs. 4-6 (the selfish
// detour runs, 60 s simulated per config) call the Node directly.
#include <cmath>
#include <optional>

#include "core/harness.h"
#include "workloads.h"
#include "workloads/hpcg.h"
#include "workloads/nas.h"
#include "workloads/randomaccess.h"
#include "workloads/selfish.h"
#include "workloads/stream.h"

namespace perfbench {
namespace {

using hpcsec::core::Harness;
using hpcsec::core::kAllConfigs;
using hpcsec::core::Node;
using hpcsec::core::SchedulerKind;

constexpr int kTrials = 1;
constexpr double kSelfishSeconds = 60.0;

/// Paper raw values (Figs. 8 and 10), Native / Kitten / Linux, in row order.
constexpr double kPaper[8][3] = {
    {0.0018, 0.0019, 0.0018},     // HPCG (GFlops)
    {59.6, 59.8, 60.2},           // Stream (MB/s)
    {6.5e-5, 6.2e-5, 6.04e-5},    // RandomAccess (GUP/s)
    {33.16, 33.116, 32.06},       // LU (Mop/s)
    {34.214, 34.2, 34.142},       // BT
    {4.38, 4.38, 4.37},           // CG
    {0.77, 0.77, 0.77},           // EP
    {15.084, 15.08, 15.1},        // SP
};

class PaperFigs final : public Workload {
public:
    explicit PaperFigs(std::uint64_t seed) : seed_(seed) {
        specs_ = {hpcsec::wl::hpcg_spec(), hpcsec::wl::stream_spec(),
                  hpcsec::wl::randomaccess_spec()};
        for (auto& s : hpcsec::wl::nas_suite()) specs_.push_back(std::move(s));
    }

    [[nodiscard]] std::string inputs() const override {
        const Harness h(options());
        std::string text;
        for (const auto& spec : specs_) text += spec.name + ";";
        for (std::size_t c = 0; c < kAllConfigs.size(); ++c) {
            for (int t = 0; t < kTrials; ++t) {
                text += std::to_string(h.trial_seed(c, t)) + ",";
            }
        }
        text += "selfish:" + std::to_string(selfish_seed());
        return fingerprint(text);
    }

    PassResult run_pass(Ledger& ledger) override {
        PassResult r;
        run_rows(ledger, r);
        run_selfish(ledger, r);
        return r;
    }

private:
    [[nodiscard]] Harness::Options options() const {
        Harness::Options opt;
        opt.trials = kTrials;
        opt.jobs = 1;
        opt.base_seed = 20210100 + seed_;  // default seed = the fig benches' seed
        return opt;
    }
    [[nodiscard]] std::uint64_t selfish_seed() const { return 20211113 + seed_; }

    void run_rows(Ledger& ledger, PassResult& r) {
        // The trial in flight; the hooks below move it from phase to phase.
        std::optional<Span> trial;
        std::optional<Span> phase;  // boot, then teardown
        std::optional<RunPhase> run;
        std::size_t first_piece = 0;
        Clock::time_point rest_start;
        auto end_run = [&] {
            if (!run) return;
            run->finish(r);
            run.reset();
            rest_start = Clock::now();
        };
        auto end_trial = [&] {
            if (!trial) return;
            phase.reset();
            r.add_piece(Piece::kOther, since(rest_start));
            r.end_op(first_piece);
            trial.reset();
        };

        Harness::Options opt = options();
        opt.config_factory = [&](SchedulerKind kind, std::uint64_t seed) {
            end_trial();
            first_piece = r.piece_s.size();
            trial.emplace(ledger, "bench.trial");
            phase.emplace(ledger, "core.boot");
            return Harness::default_config(kind, seed);
        };
        opt.pre_trial = [&](SchedulerKind, std::uint64_t,
                            Node& node) -> std::shared_ptr<void> {
            r.add_piece(Piece::kSetup, phase->stop());
            phase.reset();
            r.counts["arch.frames_allocated"] +=
                static_cast<double>(node.platform().mem().allocated_frames());
            run.emplace(ledger, node.platform().engine());
            // Destroyed before the node even when the trial throws, so the
            // probe never outlives the engine it is attached to.
            return std::shared_ptr<void>(static_cast<void*>(&run),
                                         [&](void*) { end_run(); });
        };
        opt.post_trial = [&](SchedulerKind, std::uint64_t, Node& node) {
            end_run();
            collect_counts(ledger, node, r.counts);
            r.counts["sim.arena_bytes"] +=
                static_cast<double>(node.platform().arena().bytes_used());
            r.counts["core.nodes"] += 1;
            phase.emplace(ledger, "core.teardown");
        };

        std::vector<hpcsec::core::ExperimentRow> rows;
        std::string error;
        try {
            Harness harness(opt);
            rows = harness.run_rows(specs_);
        } catch (const std::exception& e) {
            error = e.what();
        }
        end_trial();

        double err_sum = 0.0;
        int err_n = 0;
        for (std::size_t s = 0; s < specs_.size(); ++s) {
            for (std::size_t c = 0; c < kAllConfigs.size(); ++c) {
                const std::string cfg = hpcsec::core::to_string(kAllConfigs[c]);
                if (!error.empty()) {
                    r.fail(r.add_op(), "run_rows threw: " + error);
                    continue;
                }
                const auto& cell = rows[s].cells[c];
                const double norm = cell.mean / rows[s].cells[0].mean;
                const std::size_t op = r.add_op(
                    format("%s %s mean=%.17g stdev=%.17g n=%d",
                           specs_[s].name.c_str(), cfg.c_str(), cell.mean,
                           cell.stdev, cell.n));
                if (cell.n != kTrials || !std::isfinite(cell.mean) ||
                    cell.mean <= 0.0 || !std::isfinite(cell.stdev) ||
                    cell.stdev < 0.0) {
                    r.fail(op, "cell is not a finite positive mean over all trials");
                } else if (norm < 0.8 || norm > 1.2) {
                    r.fail(op, format("normalized %.4f is outside [0.8, 1.2]", norm));
                }
                if (c != 0) {
                    const double paper = kPaper[s][c] / kPaper[s][0];
                    err_sum += std::fabs(norm - paper) * 100.0;
                    ++err_n;
                }
            }
        }
        if (err_n > 0) r.counts["model.err_pct"] = err_sum / err_n;
    }

    void run_selfish(Ledger& ledger, PassResult& r) {
        struct Series {
            std::uint64_t detours = 0;
            double lost_us = 0.0;
            double max_us = 0.0;
        };
        std::array<Series, 3> series{};
        std::array<std::size_t, 3> ops{};
        for (std::size_t c = 0; c < kAllConfigs.size(); ++c) {
            const SchedulerKind kind = kAllConfigs[c];
            Series& out = series[c];
            std::string error;
            const std::size_t first_piece = r.piece_s.size();
            Clock::time_point rest_start = Clock::now();
            {
                Span trial(ledger, "bench.trial");
                try {
                    std::optional<Node> node;
                    {
                        Span boot(ledger, "core.boot");
                        node.emplace(Harness::default_config(kind, selfish_seed()));
                        node->boot();
                        r.add_piece(Piece::kSetup, boot.stop());
                    }
                    r.counts["arch.frames_allocated"] += static_cast<double>(
                        node->platform().mem().allocated_frames());
                    hpcsec::wl::SelfishBenchmark selfish(
                        node->platform().ncores(), node->platform().engine().clock());
                    selfish.attach_obs(node->platform().obs());
                    {
                        RunPhase run(ledger, node->platform().engine());
                        node->run_selfish(selfish, kSelfishSeconds);
                        run.finish(r);
                    }
                    rest_start = Clock::now();
                    for (int t = 0; t < selfish.nthreads(); ++t) {
                        const auto& rec = selfish.recorder(t);
                        out.detours += rec.detours().size();
                        out.lost_us += rec.total_detour_us();
                        out.max_us = std::max(out.max_us, rec.max_detour_us());
                    }
                    collect_counts(ledger, *node, r.counts);
                    r.counts["sim.arena_bytes"] +=
                        static_cast<double>(node->platform().arena().bytes_used());
                    r.counts["core.nodes"] += 1;
                    Span teardown(ledger, "core.teardown");
                    node.reset();
                } catch (const std::exception& e) {
                    error = e.what();
                }
                r.add_piece(Piece::kOther, since(rest_start));
                r.end_op(first_piece);
            }
            ops[c] = r.add_op(format("selfish %s detours=%llu lost_us=%.17g max_us=%.17g",
                                     hpcsec::core::to_string(kind).c_str(),
                                     static_cast<unsigned long long>(out.detours),
                                     out.lost_us, out.max_us));
            if (!error.empty()) r.fail(ops[c], "selfish run threw: " + error);
            if (out.detours == 0 || !(out.lost_us > 0.0) || !(out.max_us > 0.0)) {
                r.fail(ops[c], "no detours recorded");
            }
        }
        // The paper's shape: the Linux-scheduled node is by far the noisiest.
        if (!(series[2].lost_us > series[1].lost_us) ||
            !(series[2].detours > series[0].detours)) {
            r.fail(ops[2], "Linux primary is not noisier than Kitten and native");
        }
    }

    std::uint64_t seed_;
    std::vector<hpcsec::wl::WorkloadSpec> specs_;
};

}  // namespace

std::unique_ptr<Workload> make_paper_figs(std::uint64_t seed) {
    return std::make_unique<PaperFigs>(seed);
}

}  // namespace perfbench
