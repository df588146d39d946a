#include "ledger.h"

#include <atomic>
#include <cstdio>

namespace perfbench {

namespace {

std::atomic<std::uint64_t> g_generation{0};

std::string layer_of(const char* name) {
    const std::string s(name);
    const auto dot = s.find('.');
    return dot == std::string::npos ? s : s.substr(0, dot);
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

}  // namespace

double now_s() {
    static const Clock::time_point origin = Clock::now();
    return seconds_between(origin, Clock::now());
}

Ledger::Ledger(bool on) : on_(on), generation_(++g_generation) {}

Ledger::ThreadLog& Ledger::local() {
    thread_local ThreadLog* cached = nullptr;
    thread_local std::uint64_t cached_generation = 0;
    if (cached_generation != generation_) {
        std::lock_guard<std::mutex> lock(mutex_);
        logs_.push_back(std::make_unique<ThreadLog>());
        logs_.back()->thread = static_cast<std::uint32_t>(logs_.size());
        cached = logs_.back().get();
        cached_generation = generation_;
    }
    return *cached;
}

Totals Ledger::take_totals() {
    std::lock_guard<std::mutex> lock(mutex_);
    Totals sum;
    for (auto& log : logs_) {
        for (const auto& [k, v] : log->totals.inclusive_s) sum.inclusive_s[k] += v;
        for (const auto& [k, v] : log->totals.self_s) sum.self_s[k] += v;
        sum.spans += log->totals.spans;
        log->totals = Totals{};
    }
    return sum;
}

bool Ledger::write_spans(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& log : logs_) {
        for (const SpanRecord& s : log->spans) {
            std::fprintf(f,
                         "{\"id\": %llu, \"parent\": %llu, \"name\": \"%s\", "
                         "\"start\": %.9f, \"end\": %.9f, \"self_s\": %.9f}\n",
                         static_cast<unsigned long long>(s.id),
                         static_cast<unsigned long long>(s.parent), s.name,
                         s.start, s.end, s.end - s.start - s.child_s);
        }
    }
    return std::fclose(f) == 0;
}

Span::Span(Ledger& ledger, const char* name)
    : ledger_(&ledger), name_(name), start_(Clock::now()) {
    if (!ledger.on()) return;
    Ledger::ThreadLog& log = ledger.local();
    SpanRecord rec;
    rec.id = (static_cast<std::uint64_t>(log.thread) << 40) | log.next_seq++;
    rec.parent = log.open.empty() ? 0 : log.spans[log.open.back()].id;
    rec.name = name;
    rec.start = now_s();
    index_ = log.spans.size();
    log.spans.push_back(rec);
    log.open.push_back(index_);
}

double Span::stop() {
    if (seconds_ >= 0.0) return seconds_;
    seconds_ = seconds_between(start_, Clock::now());
    if (!ledger_->on()) return seconds_;
    Ledger::ThreadLog& log = ledger_->local();
    SpanRecord& rec = log.spans[index_];
    rec.end = rec.start + seconds_;
    log.open.pop_back();
    if (!log.open.empty()) log.spans[log.open.back()].child_s += seconds_;
    log.totals.inclusive_s[name_] += seconds_;
    log.totals.self_s[layer_of(name_)] += seconds_ - rec.child_s;
    ++log.totals.spans;
    return seconds_;
}

void Span::add_child_time(double seconds) {
    if (ledger_->on() && seconds_ < 0.0) {
        ledger_->local().spans[index_].child_s += seconds;
    }
}

int RunProbe::class_of(int priority) {
    switch (priority) {
        case hpcsec::sim::kPrioInterrupt: return 0;
        case hpcsec::sim::kPrioKernel: return 1;
        case hpcsec::sim::kPrioCompletion: return 2;
        default: return 3;
    }
}

RunProbe::RunProbe(hpcsec::sim::Engine& engine, bool split)
    : engine_(&engine),
      previous_(engine.dispatch_probe()),
      split_(split),
      slice_start_(Clock::now()) {
    engine.set_dispatch_probe(this);
}

RunProbe::~RunProbe() { close(); }

void RunProbe::on_dispatch(hpcsec::sim::SimTime, int priority) {
    if (split_) {
        const Clock::time_point t = Clock::now();
        if (open_class_ >= 0) {
            seconds_[static_cast<std::size_t>(open_class_)] += seconds_between(last_, t);
        }
        last_ = t;
        open_class_ = class_of(priority);
    }
    if (++events_ % kSliceEvents == 0) {
        const Clock::time_point t = Clock::now();
        slices_.push_back(seconds_between(slice_start_, t));
        slice_start_ = t;
    }
}

void RunProbe::close() {
    if (engine_ == nullptr) return;
    const Clock::time_point t = Clock::now();
    if (open_class_ >= 0) {
        seconds_[static_cast<std::size_t>(open_class_)] += seconds_between(last_, t);
        open_class_ = -1;
    }
    slices_.push_back(seconds_between(slice_start_, t));
    engine_->set_dispatch_probe(previous_);
    engine_ = nullptr;
}

void charge_dispatch(Ledger& ledger, Span& run, const RunProbe& probe) {
    if (!ledger.on()) return;
    Totals& t = ledger.local().totals;
    double sum = 0.0;
    for (int c = 0; c < RunProbe::kClasses; ++c) {
        const double s = probe.seconds()[static_cast<std::size_t>(c)];
        t.inclusive_s[kDispatchNames[static_cast<std::size_t>(c)]] += s;
        sum += s;
    }
    t.self_s["dispatch"] += sum;
    run.add_child_time(sum);
}

}  // namespace perfbench
