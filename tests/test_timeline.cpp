// Timeline renderer tests: span accounting, window clamping, rendering over
// recorded events, executor span emission, and the no-observer-effect
// guarantee.
#include <gtest/gtest.h>

#include <vector>

#include "core/harness.h"
#include "core/node.h"
#include "obs/recorder.h"
#include "obs/timeline.h"
#include "workloads/nas.h"

namespace hpcsec {
namespace {

using obs::EventType;

obs::Event span(int core, sim::SimTime start, sim::SimTime end, EventType t) {
    obs::Event e;
    e.start = start;
    e.end = end;
    e.type = t;
    e.core = static_cast<std::int16_t>(core);
    return e;
}

TEST(Timeline, RecordsAndTotals) {
    const std::vector<obs::Event> ev = {
        span(0, 100, 200, EventType::kWorkChunk),
        span(0, 200, 230, EventType::kOverhead),
        span(1, 0, 50, EventType::kWorkChunk),
    };
    EXPECT_EQ(obs::span_cycles(ev, EventType::kWorkChunk), 150u);
    EXPECT_EQ(obs::span_cycles(ev, EventType::kWorkChunk, 0), 100u);
    EXPECT_EQ(obs::span_cycles(ev, EventType::kOverhead), 30u);
    EXPECT_EQ(obs::span_cycles(ev, EventType::kTlbRefill), 0u);
}

TEST(Timeline, TotalClampsToWindow) {
    const std::vector<obs::Event> ev = {span(0, 100, 300, EventType::kWorkChunk)};
    EXPECT_EQ(obs::span_cycles(ev, EventType::kWorkChunk, 0, 150, 250), 100u);
    EXPECT_EQ(obs::span_cycles(ev, EventType::kWorkChunk, 0, 0, 100), 0u);
    EXPECT_EQ(obs::span_cycles(ev, EventType::kWorkChunk, 0, 300, 400), 0u);
}

TEST(Timeline, IgnoresInstantsAndOtherTypes) {
    const std::vector<obs::Event> ev = {
        span(0, 10, 10, EventType::kWorkChunk),    // zero length: an instant
        span(0, 0, 100, EventType::kKernelTick),   // not a timeline type
        span(0, 0, 100, EventType::kVmRun),
    };
    EXPECT_EQ(obs::span_cycles(ev, EventType::kWorkChunk), 0u);
    EXPECT_EQ(obs::render_timeline(ev, 0, 100, 1, 4), "core0 |....|\n");
}

TEST(Timeline, RenderShowsBusyAndIdle) {
    const std::vector<obs::Event> ev = {
        span(0, 0, 500, EventType::kWorkChunk),  // first half busy
    };
    const std::string s = obs::render_timeline(ev, 0, 1000, 1, 10);
    EXPECT_NE(s.find("#####....."), std::string::npos);
}

TEST(Timeline, RenderHighlightsOverheadSlivers) {
    const std::vector<obs::Event> ev = {
        span(0, 0, 1000, EventType::kWorkChunk),
        span(0, 400, 480, EventType::kOverhead),  // 8% of the strip, 80% of its bucket
    };
    const std::string s = obs::render_timeline(ev, 0, 1000, 1, 10);
    EXPECT_NE(s.find('o'), std::string::npos);
}

TEST(Timeline, RenderTlbGlyph) {
    const std::vector<obs::Event> ev = {span(0, 0, 100, EventType::kTlbRefill)};
    const std::string s = obs::render_timeline(ev, 0, 100, 1, 4);
    EXPECT_NE(s.find('t'), std::string::npos);
}

TEST(Timeline, ExecutorEmitsWorkOverheadAndTransient) {
    sim::Engine engine;
    arch::PerfModel perf;
    arch::Executor ex(engine, perf, 0);
    obs::SpanRecorder rec;
    rec.set_mask(obs::to_mask(obs::Category::kSched) |
                 obs::to_mask(obs::Category::kWorkload) |
                 obs::to_mask(obs::Category::kMmu));
    ex.set_recorder(&rec);

    struct W : arch::Runnable {
        double rem = 1000;
        arch::WorkProfile prof{};
        std::string_view label() const override { return "w"; }
        double remaining_units() const override { return rem; }
        void advance(double u, sim::SimTime) override {
            rem = u >= rem ? 0 : rem - u;
        }
        const arch::WorkProfile& profile() const override { return prof_; }
        arch::TranslationMode mode() const override {
            return arch::TranslationMode::kNative;
        }
        arch::WorkProfile prof_{1.0, 0.0, 0.0, 64.0};
    } w;

    ex.charge(100);
    ex.add_transient(50);
    ex.begin(&w);
    engine.run();
    EXPECT_EQ(obs::span_cycles(rec.events(), EventType::kOverhead), 100u);
    EXPECT_EQ(obs::span_cycles(rec.events(), EventType::kTlbRefill), 50u);
    EXPECT_EQ(obs::span_cycles(rec.events(), EventType::kWorkChunk), 1000u);
}

TEST(Timeline, AttachingNeverChangesTiming) {
    wl::WorkloadSpec spec = wl::nas_cg_spec();
    spec.units_per_thread_step /= 16;

    auto run = [&](std::uint32_t obs_mask) {
        core::NodeConfig cfg = core::Harness::default_config(
            core::SchedulerKind::kLinuxPrimary, 44);
        cfg.platform.obs_mask = obs_mask;
        core::Node node(cfg);
        node.boot();
        wl::ParallelWorkload w(spec);
        return node.run_workload(w, 60.0);
    };
    EXPECT_EQ(run(0), run(obs::to_mask(obs::Category::kAll)));
}

}  // namespace
}  // namespace hpcsec
