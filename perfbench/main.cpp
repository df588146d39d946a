// perfbench_runner: runs one benchmark workload for a time budget and prints
// one JSON result line.
//
// Usage: perfbench_runner --workload NAME --seed N --seconds S --trace 0|1
//            [--recorded FILE] [--record FILE] [--spans FILE]
//
// A run repeats whole passes of the workload (same inputs every pass) until
// S seconds are spent. With --trace 0 every pass is untraced and the result
// holds the end-to-end metrics, computed from each timing piece's fastest
// repetition. With --trace 1 passes alternate untraced / traced; the result
// holds the per-layer metrics (span times are medians over the traced
// passes, counts come from one pass) and the tracing overhead.
// Every operation's output is checked: against --recorded at the default
// seed, and against the run's first pass always.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {
namespace {

struct Args {
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    std::string recorded;
    std::string record;
    std::string spans;
};

bool parse(int argc, char** argv, Args& a) {
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (i + 1 >= argc) return false;
        const std::string v = argv[++i];
        if (k == "--workload") a.workload = v;
        else if (k == "--seed") a.seed = std::stoull(v);
        else if (k == "--seconds") a.seconds = std::stod(v);
        else if (k == "--trace") a.trace = v == "1";
        else if (k == "--recorded") a.recorded = v;
        else if (k == "--record") a.record = v;
        else if (k == "--spans") a.spans = v;
        else return false;
    }
    return !a.workload.empty() && a.seconds > 0.0;
}

double quantile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// Each piece of the pass at its fastest repetition over `passes`.
struct Fastest {
    std::vector<double> piece_s;
    const PassResult* shape = nullptr;  ///< kinds and operations of the pieces

    explicit Fastest(const std::vector<PassResult>& passes) {
        for (const PassResult& p : passes) {
            if (shape == nullptr) {
                shape = &p;
                piece_s = p.piece_s;
            }
            for (std::size_t i = 0; i < std::min(piece_s.size(), p.piece_s.size()); ++i) {
                piece_s[i] = std::min(piece_s[i], p.piece_s[i]);
            }
        }
    }
    [[nodiscard]] double total() const {
        double s = 0.0;
        for (const double x : piece_s) s += x;
        return s;
    }
    [[nodiscard]] std::vector<double> of(Piece kind) const {
        std::vector<double> v;
        for (std::size_t i = 0; i < piece_s.size(); ++i) {
            if (shape->piece_kind[i] == kind) v.push_back(piece_s[i]);
        }
        return v;
    }
    [[nodiscard]] double sum_of(Piece kind) const {
        double s = 0.0;
        for (const double x : of(kind)) s += x;
        return s;
    }
    [[nodiscard]] std::vector<double> op_seconds() const {
        std::vector<double> v;
        for (const auto& [b, e] : shape->op_pieces) {
            double s = 0.0;
            for (std::size_t i = b; i < std::min(e, piece_s.size()); ++i) s += piece_s[i];
            v.push_back(s);
        }
        return v;
    }
};

double peak_rss_mib() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::vector<std::string> outputs_of(const PassResult& p) {
    std::vector<std::string> out;
    for (const auto& op : p.ops) {
        if (!op.output.empty()) out.push_back(op.output);
    }
    return out;
}

/// Mark every op whose output differs from `want` (in output order) failed.
void check_outputs(PassResult& p, const std::vector<std::string>& want,
                   const char* against) {
    std::size_t j = 0;
    for (std::size_t i = 0; i < p.ops.size(); ++i) {
        if (p.ops[i].output.empty()) continue;
        if (j >= want.size() || p.ops[i].output != want[j]) {
            p.fail(i, std::string("output differs from ") + against + ": " +
                          p.ops[i].output);
        }
        ++j;
    }
    if (j < want.size() && !p.ops.empty()) {
        p.fail(0, std::string("fewer outputs than ") + against);
    }
}

struct Metric {
    std::string name;
    double value;
    const char* unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                correct ? "true" : "false", static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                    metrics[i].name.c_str(), v, metrics[i].unit);
    }
    std::printf("}}\n");
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::vector<Metric> end_to_end(const std::vector<PassResult>& passes) {
    const Fastest f(passes);
    const std::vector<double> ops = f.op_seconds();
    return {
        {"wall_s", f.total(), "s"},
        {"setup_s", f.sum_of(Piece::kSetup), "s"},
        {"peak_rss_mib", peak_rss_mib(), "MiB"},
        {"sim_events_per_s",
         ratio(static_cast<double>(passes.front().run_events), f.sum_of(Piece::kRun)),
         "1/s"},
        {"op_ms_p50", quantile(ops, 0.5) * 1e3, "ms"},
    };
}

std::vector<Metric> per_layer(const std::vector<PassResult>& untraced,
                              const std::vector<PassResult>& traced,
                              const std::vector<Totals>& totals) {
    auto med_incl = [&](const char* name) {
        std::vector<double> v;
        for (const Totals& t : totals) {
            const auto it = t.inclusive_s.find(name);
            v.push_back(it == t.inclusive_s.end() ? 0.0 : it->second);
        }
        return quantile(std::move(v), 0.5);
    };
    auto med_self = [&](const char* layer) {
        std::vector<double> v;
        for (const Totals& t : totals) {
            const auto it = t.self_s.find(layer);
            v.push_back(it == t.self_s.end() ? 0.0 : it->second);
        }
        return quantile(std::move(v), 0.5);
    };
    const PassResult& first = traced.front();
    auto count = [&](const char* name) {
        const auto it = first.counts.find(name);
        return it == first.counts.end() ? 0.0 : it->second;
    };
    std::vector<double> spans;
    for (const Totals& t : totals) spans.push_back(static_cast<double>(t.spans));
    const double med_spans = quantile(spans, 0.5);
    const Fastest f_traced(traced);
    const std::vector<double> call_s = f_traced.of(Piece::kCall);
    const double boot = med_incl("core.boot");
    const double run = med_incl("core.run");
    const double teardown = med_incl("core.teardown");
    const double lifecycle = boot + run + teardown;
    double dispatch_s = 0.0;
    for (const char* n : kDispatchNames) dispatch_s += med_incl(n);

    std::vector<Metric> m = {
        {"core.boot_s", boot, "s"},
        {"core.run_s", run, "s"},
        {"core.teardown_s", teardown, "s"},
        {"core.publish_s", med_incl("core.publish"), "s"},
        {"share.boot", ratio(boot, lifecycle), "ratio"},
        {"share.run", ratio(run, lifecycle), "ratio"},
        {"share.teardown", ratio(teardown, lifecycle), "ratio"},
        {"sim.arena_bytes_per_node", ratio(count("sim.arena_bytes"), count("core.nodes")), "bytes"},
        {"sim.arena_reset_s", med_incl("sim.arena_reset"), "s"},
        {"arch.frames_allocated", count("arch.frames_allocated"), "count"},
        {"arch.frames_after_destroy", count("arch.frames_after_destroy"), "count"},
        {"sim.irq_s", med_incl("sim.irq"), "s"},
        {"sim.kernel_s", med_incl("sim.kernel"), "s"},
        {"sim.completion_s", med_incl("sim.completion"), "s"},
        {"sim.other_s", med_incl("sim.other"), "s"},
        {"sim.ns_per_event",
         ratio(dispatch_s * 1e9,
               static_cast<double>(first.run_events)),
         "ns"},
        {"sim.events", count("sim.events"), "count"},
        {"sim.events.p0", count("sim.events.p0"), "count"},
        {"sim.events.p10", count("sim.events.p10"), "count"},
        {"sim.events.p20", count("sim.events.p20"), "count"},
        {"sim.events.p50", count("sim.events.p50"), "count"},
        {"sim.batched_pops", count("sim.batched_pops"), "count"},
        {"sim.batched_pops_per_event", ratio(count("sim.batched_pops"), count("sim.events")), "ratio"},
        {"hafnium.hypercalls", count("hafnium.hypercalls"), "count"},
        {"hafnium.world_switches", count("hafnium.world_switches"), "count"},
        {"hafnium.vm_exits", count("hafnium.vm_exits"), "count"},
        {"hafnium.virq_injections", count("hafnium.virq_injections"), "count"},
        {"kitten.ticks", count("kitten.ticks"), "count"},
        {"linux.ticks", count("linux.ticks"), "count"},
        {"linux.kworker_wakes", count("linux.kworker_wakes"), "count"},
        {"linux.softirqs", count("linux.softirqs"), "count"},
        {"check.audits", count("check.audits"), "count"},
        {"check.validate_s", med_incl("check.validate"), "s"},
        {"hafnium.launch_s", med_incl("hafnium.launch"), "s"},
        {"hafnium.destroy_s", med_incl("hafnium.destroy"), "s"},
        {"hafnium.hypercall_s", med_incl("hafnium.hypercall"), "s"},
        {"hafnium.call_ok_ratio", ratio(count("hafnium.calls_ok"), count("hafnium.calls")), "ratio"},
        {"hafnium.call_us_p50", quantile(call_s, 0.5) * 1e6, "us"},
        {"hafnium.call_us_p90", quantile(call_s, 0.9) * 1e6, "us"},
        {"cluster.project_s", med_incl("cluster.project"), "s"},
        {"arch.tlb_hit_ratio",
         ratio(count("arch.tlb_hits"), count("arch.tlb_hits") + count("arch.tlb_misses")), "ratio"},
        {"arch.l0_hit_ratio", ratio(count("arch.l0_hits"), count("arch.tlb_hits")), "ratio"},
        {"model.err_pct", count("model.err_pct"), "pct"},
        {"self.bench_s", med_self("bench"), "s"},
        {"self.core_s", med_self("core"), "s"},
        {"self.dispatch_s", med_self("dispatch"), "s"},
        {"self.hafnium_s", med_self("hafnium"), "s"},
        {"self.check_s", med_self("check"), "s"},
        {"self.cluster_s", med_self("cluster"), "s"},
        {"self.sim_s", med_self("sim"), "s"},
        {"trace.overhead_s", f_traced.total() - Fastest(untraced).total(), "s"},
        {"trace.spans_per_pass", med_spans, "count"},
    };
    return m;
}

int run(const Args& args) {
    std::unique_ptr<Workload> w;
    if (args.workload == "paper_figs") w = make_paper_figs(args.seed);
    else if (args.workload == "fleet_boot") w = make_fleet_boot(args.seed);
    else if (args.workload == "vm_churn") w = make_vm_churn(args.seed);
    else {
        std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
        return 2;
    }
    std::printf("inputs %s\n", w->inputs().c_str());

    std::vector<std::string> recorded;
    if (!args.recorded.empty() && args.seed == kDefaultSeed) {
        std::ifstream in(args.recorded);
        if (!in) {
            std::fprintf(stderr, "cannot read %s\n", args.recorded.c_str());
            return 1;
        }
        for (std::string line; std::getline(in, line);) recorded.push_back(line);
    }

    Ledger off(false);
    Ledger on(args.trace);
    std::vector<PassResult> untraced;
    std::vector<PassResult> traced;
    std::vector<Totals> totals;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> first_outputs;
    std::map<std::string, double> first_counts;
    const std::vector<int> cpus = allowed_cpus();
    const double t0 = now_s();
    for (int pass = 0; now_s() - t0 < args.seconds || (args.trace && traced.empty());
         ++pass) {
        const bool trace_this = args.trace && pass % 2 == 1;
        Ledger& ledger = trace_this ? on : off;
        if (cpus.size() > 1) {
            pin_this_thread(cpus[static_cast<std::size_t>(pass) % cpus.size()]);
            w->place(pass, cpus);
        }
        PassResult p = w->run_pass(ledger);
        if (pass == 0) {
            first_outputs = outputs_of(p);
            first_counts = p.counts;
            if (!args.record.empty()) {
                std::ofstream out(args.record);
                for (const auto& line : first_outputs) out << line << "\n";
            }
        } else {
            check_outputs(p, first_outputs, "the first pass");
            if (p.counts != first_counts && !p.ops.empty()) {
                p.fail(0, "per-layer counts differ from the first pass");
            }
        }
        if (!recorded.empty()) check_outputs(p, recorded, "the recorded output");
        for (const auto& op : p.ops) {
            ++attempted;
            if (!op.failure.empty()) {
                ++failed;
                std::fprintf(stderr, "FAILED (pass %d): %s\n", pass, op.failure.c_str());
            }
        }
        // Keep only what the metrics need, so memory does not grow with the
        // number of passes (peak RSS is a metric).
        p.ops = {};
        if (!trace_this || !traced.empty()) p.counts = {};
        if (trace_this) {
            totals.push_back(on.take_totals());
            traced.push_back(std::move(p));
        } else {
            untraced.push_back(std::move(p));
        }
    }
    if (!args.spans.empty() && args.trace && !on.write_spans(args.spans)) {
        std::fprintf(stderr, "cannot write %s\n", args.spans.c_str());
        return 1;
    }
    const std::vector<Metric> metrics =
        args.trace ? per_layer(untraced, traced, totals)
                   : end_to_end(untraced);
    print_result(failed == 0, attempted, failed, metrics);
    return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
    perfbench::Args args;
    if (!perfbench::parse(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: perfbench_runner --workload NAME --seed N --seconds S "
                     "--trace 0|1 [--recorded FILE] [--record FILE] [--spans FILE]\n");
        return 2;
    }
    try {
        return perfbench::run(args);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench_runner: %s\n", e.what());
        return 1;
    }
}
