// vm_churn: one long-lived Kitten-primary node per pass under strict audit
// (check::Mode::kStrict, what a bare --check gives). Each of kCycles cycles
// launches a signed dynamic VM, runs a short workload in it, does kRounds
// rounds of FF-A share / lend / reclaim between the compute VM and the new
// VM, validates the audit and destroys the VM. Lamport key generation and
// signing are input generation: they happen once, before any pass, untimed.
#include <optional>

#include "core/harness.h"
#include "hafnium/abi.h"
#include "sim/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

using hpcsec::core::Node;
using hpcsec::hafnium::HfError;
using hpcsec::hafnium::HfResult;

constexpr int kCycles = 6;
constexpr int kRounds = 4;
constexpr std::uint64_t kMiB = 1ull << 20;

struct Round {
    std::uint64_t share_pages = 0;
    std::uint64_t lend_pages = 0;
    std::uint64_t share_ipa = 0;  ///< in the compute VM
    std::uint64_t lend_ipa = 0;
};

struct Cycle {
    hpcsec::core::SignedImage image;
    hpcsec::crypto::LamportPublicKey key;
    std::uint64_t mem_bytes = 0;
    int vcpus = 0;
    hpcsec::wl::WorkloadSpec spec;
    std::array<Round, kRounds> rounds{};
};

template <std::size_t N>
void shuffle(std::array<std::uint64_t, N>& a, hpcsec::sim::Rng& rng) {
    for (std::size_t i = N - 1; i > 0; --i) std::swap(a[i], a[rng.next_below(i + 1)]);
}

class VmChurn final : public Workload {
public:
    explicit VmChurn(std::uint64_t seed) : seed_(seed) {
        hpcsec::sim::Rng rng(0xc4a1'2000ull ^ seed);
        for (int k = 0; k < kCycles; ++k) {
            Cycle c;
            std::vector<std::uint8_t> key_seed(32);
            for (auto& b : key_seed) b = static_cast<std::uint8_t>(rng.next_below(256));
            hpcsec::core::ImageSigner signer(key_seed);
            const std::string name = "churn-" + std::to_string(k);
            c.image = *signer.sign(name, Node::make_image(name, 2 * 4096));
            c.key = signer.public_key();
            // Only placement, key material and order vary with the seed; the
            // amount of work per cycle is the same for every seed.
            c.mem_bytes = 48 * kMiB;
            c.vcpus = 2;
            c.spec.name = name;
            c.spec.nthreads = c.vcpus;
            c.spec.supersteps = 3;
            c.spec.units_per_thread_step = 100'000.0;
            c.spec.profile.cycles_per_unit = 10;
            std::array<std::uint64_t, kRounds> share_pages = {2, 4, 6, 8};
            std::array<std::uint64_t, kRounds> lend_pages = {1, 3, 5, 7};
            shuffle(share_pages, rng);
            shuffle(lend_pages, rng);
            for (std::size_t i = 0; i < kRounds; ++i) {
                Round& rd = c.rounds[i];
                const std::uint64_t window = 16 * kMiB + i * kMiB;
                rd.share_pages = share_pages[i];
                rd.lend_pages = lend_pages[i];
                rd.share_ipa = window + 4096 * rng.next_below(64);
                rd.lend_ipa = window + kMiB / 2 + 4096 * rng.next_below(64);
            }
            cycles_.push_back(std::move(c));
        }
    }

    [[nodiscard]] std::string inputs() const override {
        std::string text;
        for (const Cycle& c : cycles_) {
            text += format("%s/%zu/%llu/%d/%d/%.0f;", c.image.name.c_str(),
                           c.image.bytes.size(),
                           static_cast<unsigned long long>(c.mem_bytes), c.vcpus,
                           c.spec.supersteps, c.spec.units_per_thread_step);
            for (const Round& rd : c.rounds) {
                text += format("%llu,%llu,%llu,%llu;",
                               static_cast<unsigned long long>(rd.share_pages),
                               static_cast<unsigned long long>(rd.lend_pages),
                               static_cast<unsigned long long>(rd.share_ipa),
                               static_cast<unsigned long long>(rd.lend_ipa));
            }
            for (const std::uint8_t b : c.image.key_fingerprint) text += std::to_string(b);
        }
        return fingerprint(text);
    }

    PassResult run_pass(Ledger& ledger) override {
        PassResult r;
        const std::size_t node_op = r.add_op();
        try {
            hpcsec::core::NodeConfig cfg = hpcsec::core::Harness::default_config(
                hpcsec::core::SchedulerKind::kKittenPrimary, 20210100 + seed_);
            cfg.check_mode = hpcsec::check::Mode::kStrict;
            std::optional<Node> node;
            {
                Span boot(ledger, "core.boot");
                node.emplace(std::move(cfg));
                node->boot();
                r.add_piece(Piece::kSetup, boot.stop());
            }
            const Clock::time_point enroll_start = Clock::now();
            for (const Cycle& c : cycles_) node->verifier().enroll(c.key);
            r.counts["arch.frames_allocated"] +=
                static_cast<double>(node->platform().mem().allocated_frames());
            r.add_piece(Piece::kOther, since(enroll_start));
            for (const Cycle& c : cycles_) run_cycle(ledger, *node, c, r);
            const Clock::time_point start = Clock::now();
            collect_counts(ledger, *node, r.counts);
            r.counts["sim.arena_bytes"] +=
                static_cast<double>(node->platform().arena().bytes_used());
            r.counts["core.nodes"] += 1;
            {
                Span teardown(ledger, "core.teardown");
                node.reset();
            }
            r.add_piece(Piece::kOther, since(start));
        } catch (const std::exception& e) {
            r.fail(node_op, std::string("node threw: ") + e.what());
        }
        return r;
    }

private:
    void run_cycle(Ledger& ledger, Node& node, const Cycle& c, PassResult& r) {
        hpcsec::arch::MemoryMap& mem = node.platform().mem();
        hpcsec::hafnium::Spm& spm = *node.spm();
        const std::uint64_t frames0 = mem.allocated_frames();
        const std::size_t log0 = node.attestation().log().size();

        const std::size_t launch_op = r.add_op();
        hpcsec::arch::VmId id = 0;
        {
            const std::size_t first_piece = r.piece_s.size();
            Span launch(ledger, "hafnium.launch");
            id = node.launch_dynamic_vm(c.image, c.mem_bytes, c.vcpus);
            r.add_piece(Piece::kOther, launch.stop());
            r.end_op(first_piece);
        }
        r.counts["arch.frames_allocated"] +=
            static_cast<double>(mem.allocated_frames() - frames0);
        if (node.attestation().log().size() != log0 + 1) {
            r.fail(launch_op, "attestation log did not grow by exactly one entry");
        }

        const std::size_t run_op = r.add_op();
        {
            hpcsec::wl::ParallelWorkload w(c.spec);
            RunPhase run(ledger, node.platform().engine());
            (void)node.run_workload_on(id, w, 30.0);
            run.finish(r);
            if (!w.finished()) r.fail(run_op, "workload in the dynamic VM timed out");
        }

        const hpcsec::arch::VmId owner = node.compute_vm()->id();
        auto call = [&](const char* what, auto&& fn) {
            const std::size_t op = r.add_op();
            HfResult res;
            {
                Span span(ledger, "hafnium.hypercall");
                res = fn();
                r.add_piece(Piece::kCall, span.stop());
            }
            r.counts["hafnium.calls"] += 1;
            if (res.error == HfError::kOk) {
                r.counts["hafnium.calls_ok"] += 1;
            } else {
                r.fail(op, format("%s returned %s", what,
                                  hpcsec::hafnium::to_string(res.error).c_str()));
            }
        };
        const std::uint64_t borrow_base = 0x4000'0000;
        for (std::size_t i = 0; i < c.rounds.size(); ++i) {
            const Round& rd = c.rounds[i];
            const std::uint64_t share_at = borrow_base + i * kMiB;
            const std::uint64_t lend_at = share_at + kMiB / 2;
            call("mem_share", [&] {
                return hpcsec::hf::mem_share(spm, 0, owner, id, rd.share_ipa,
                                             rd.share_pages, share_at);
            });
            call("mem_lend", [&] {
                return hpcsec::hf::mem_lend(spm, 0, owner, id, rd.lend_ipa,
                                            rd.lend_pages, lend_at);
            });
            call("mem_reclaim", [&] {
                return hpcsec::hf::mem_reclaim(spm, 0, owner, id, rd.share_ipa);
            });
            call("mem_reclaim", [&] {
                return hpcsec::hf::mem_reclaim(spm, 0, owner, id, rd.lend_ipa);
            });
        }

        const std::size_t validate_op = r.add_op();
        {
            hpcsec::check::Auditor& auditor = *node.auditor();
            Span span(ledger, "check.validate");
            const std::size_t found = auditor.validate();
            r.add_piece(Piece::kOther, span.stop());
            if (found != 0 || !auditor.failures().empty()) {
                r.fail(validate_op, "audit findings: " + auditor.report());
            }
        }

        const std::size_t destroy_op = r.add_op();
        {
            Span destroy(ledger, "hafnium.destroy");
            node.destroy_dynamic_vm(id);
            r.add_piece(Piece::kOther, destroy.stop());
        }
        r.counts["arch.frames_after_destroy"] +=
            static_cast<double>(mem.allocated_frames());
        if (mem.allocated_frames() != frames0) {
            r.fail(destroy_op, "allocated frames did not return to the pre-launch count");
        }
    }

    std::uint64_t seed_;
    std::vector<Cycle> cycles_;
};

}  // namespace

std::unique_ptr<Workload> make_vm_churn(std::uint64_t seed) {
    return std::make_unique<VmChurn>(seed);
}

}  // namespace perfbench
