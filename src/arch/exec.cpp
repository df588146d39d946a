#include "arch/exec.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace hpcsec::arch {

Executor::Executor(sim::Engine& engine, const PerfModel& perf, CoreId core)
    : engine_(&engine), perf_(&perf), core_(core) {}

void Executor::charge(sim::Cycles overhead) {
    if (state_ == State::kRunning) {
        throw std::logic_error("Executor::charge: preempt the runnable first");
    }
    const sim::SimTime start = std::max(busy_until_, engine_->now());
    busy_until_ = start + overhead;
    usage_.overhead += overhead;
    if (recorder_ != nullptr && overhead > 0) {
        recorder_->span(start, busy_until_, obs::EventType::kOverhead, core_);
    }
    if (state_ == State::kPendingBegin) {
        // Push the pending start out past the new charge.
        engine_->cancel(pending_event_);
        schedule_start();
    }
}

void Executor::begin(Runnable* r) {
    if (state_ == State::kRunning) {
        // sca-suppress(no-throw-guest-path): Spm::on_vcpu_run returns kBusy
        // before enter_vcpu when the core is running; reaching this on a
        // busy core is a scheduler invariant break worth fail-stopping.
        throw std::logic_error("Executor::begin: core already running");
    }
    if (state_ == State::kPendingBegin) {
        engine_->cancel(pending_event_);
        state_ = State::kIdle;
    }
    current_ = r;
    if (r == nullptr) return;
    if (busy_until_ <= engine_->now()) {
        start_chunk();
    } else {
        state_ = State::kPendingBegin;
        schedule_start();
    }
}

void Executor::schedule_start() {
    pending_event_ =
        engine_->at(std::max(busy_until_, engine_->now()),
                    [this] { start_chunk(); }, sim::kPrioKernel);
}

void Executor::start_chunk() {
    Runnable* r = current_;
    state_ = State::kRunning;
    chunk_start_ = engine_->now();
    chunk_transient_ = pending_transient_;
    pending_transient_ = 0;
    rate_ = perf_->unit_cost(r->profile(), r->mode());
    if (rate_ <= 0.0) rate_ = 1.0;

    const double remaining = r->remaining_units();
    if (!std::isfinite(remaining) || remaining > 1e15) {
        // Run-forever loop: no completion event; only preemption stops it.
        pending_event_ = sim::EventId{};
        return;
    }
    const double cycles = remaining * rate_ + static_cast<double>(chunk_transient_);
    const auto delay = static_cast<sim::Cycles>(std::ceil(cycles));
    pending_event_ =
        engine_->after(delay, [this] { finish_chunk(); }, sim::kPrioCompletion);
}

Runnable* Executor::preempt() {
    switch (state_) {
        case State::kIdle:
            return nullptr;
        case State::kPendingBegin: {
            engine_->cancel(pending_event_);
            Runnable* r = current_;
            current_ = nullptr;
            state_ = State::kIdle;
            return r;
        }
        case State::kRunning: {
            if (pending_event_.valid()) engine_->cancel(pending_event_);
            const sim::SimTime now = engine_->now();
            const sim::Cycles elapsed = now - chunk_start_;
            const sim::Cycles transient_used = std::min(elapsed, chunk_transient_);
            const sim::Cycles effective = elapsed - transient_used;
            usage_.transient += transient_used;
            usage_.work += effective;
            // Unconsumed transient carries over: the TLB is still cold.
            pending_transient_ += chunk_transient_ - transient_used;
            chunk_transient_ = 0;

            Runnable* r = current_;
            if (profiler_ != nullptr) [[unlikely]] {
                profile_walk(r, transient_used, effective);
            }
            const double units = static_cast<double>(effective) / rate_;
            if (units > 0.0) r->advance(units, now);
            if (now > chunk_start_) r->on_interval(chunk_start_, now);
            if (now > chunk_start_) observe_chunk(chunk_start_ + transient_used, now);
            current_ = nullptr;
            state_ = State::kIdle;
            busy_until_ = std::max(busy_until_, now);
            return r;
        }
    }
    return nullptr;
}

void Executor::observe_chunk(sim::SimTime split, sim::SimTime now) {
    if (recorder_ != nullptr) {
        if (split > chunk_start_) {
            recorder_->span(chunk_start_, split, obs::EventType::kTlbRefill, core_);
        }
        if (now > split) recorder_->span(split, now, obs::EventType::kWorkChunk, core_);
    }
    if (metrics_ != nullptr) {
        metrics_->observe(chunk_hist_,
                          engine_->clock().to_micros(now - chunk_start_));
    }
}

// Stage-2 walk attribution: the TLB-refill transient the chunk consumed
// plus the nested-walk share of its steady-state cost (the walk term of
// PerfModel::unit_cost). Native stage-1 walks are not attributed — the
// profiler's tree mirrors the paper's virtualization-overhead breakdown.
void Executor::profile_walk(Runnable* r, sim::Cycles transient_used,
                            sim::Cycles effective) {
    if (r == nullptr || r->mode() != TranslationMode::kTwoStage) return;
    sim::Cycles walk = transient_used;
    const WorkProfile& p = r->profile();
    const double walk_per_unit =
        p.mem_refs_per_unit * p.tlb_miss_rate *
        static_cast<double>(perf_->walk_penalty(TranslationMode::kTwoStage));
    if (rate_ > 0.0 && walk_per_unit > 0.0) {
        walk += static_cast<sim::Cycles>(static_cast<double>(effective) *
                                         (walk_per_unit / rate_));
    }
    if (walk > 0) profiler_->charge(core_, obs::ProfPath::kStage2Walk, walk);
}

void Executor::reprice() {
    if (state_ != State::kRunning) return;
    Runnable* r = preempt();
    begin(r);
}

void Executor::finish_chunk() {
    const sim::SimTime now = engine_->now();
    const sim::Cycles elapsed = now - chunk_start_;
    const sim::Cycles transient_used = std::min(elapsed, chunk_transient_);
    usage_.transient += transient_used;
    usage_.work += elapsed - transient_used;
    chunk_transient_ = 0;
    if (profiler_ != nullptr) [[unlikely]] {
        profile_walk(current_, transient_used, elapsed - transient_used);
    }
    if (now > chunk_start_) observe_chunk(chunk_start_ + transient_used, now);

    Runnable* r = current_;
    current_ = nullptr;
    state_ = State::kIdle;
    pending_event_ = sim::EventId{};
    busy_until_ = std::max(busy_until_, now);

    r->advance(r->remaining_units(), now);
    if (now > chunk_start_) r->on_interval(chunk_start_, now);
    if (on_complete_) on_complete_(r);
}

}  // namespace hpcsec::arch
