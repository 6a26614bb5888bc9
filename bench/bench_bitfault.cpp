// E22 — bit-granular value-fault plane: BER sampler throughput, the
// pooled broadcast path's allocation profile, and classifier separation
// of the bit-fault workloads.
//
// Section 1 (sampler): geometric skip-sampling cost — bits/s scanned at
// BER 0 (the disabled plane must be a branch, not a loop) and flips/s at
// a realistic wearout BER.
//
// Section 2 (transmit): a five-node TDMA broadcast loop on the raw bus.
// With faults off, the ref-counted FramePool shares one master frame per
// transmission across every receiver — steady state must allocate
// *nothing* per round (the perf gate holds this at exactly 0). A second
// pass arms a receiver-side BER sampler and reports the copy-on-corrupt
// traffic: corrupted deliveries pay for a private pool slot, pristine
// ones keep riding the shared master. Each sender seals its frame in its
// pool slot, which records the CRC verdict, and each receiver verifies
// the CRC through its pooled handle; so the faults-off pass reports zero
// receive-side CRC evaluations per transmission (gated).
//
// Section 2b (cluster): the same faults-off measurement on a real 7-node
// tta::Cluster, whose nodes also close every slot and run the FTA clock
// sync. Gated: zero allocations per round, zero receive-side CRC
// evaluations per transmission, and exactly N+2 kernel events per
// transmission (the transmit, its one delivery event, and one slot close
// per node). The faults-off Fig. 10 rig (diagnosis, TMR voter and every
// DAS on top of the cluster) is held to zero allocations per round too,
// over rounds 400-1200; that figure goes to the --json export only.
//
// Section 3 (campaign): the wearout/EMI/SEU workloads of
// scenario/bitfault.hpp, honouring `--ber <rate>` (EMI/SEU receive BER)
// and `--wearout <profile>` (wearout curve). Reports per-archetype
// taxonomy and bit-pattern accuracy plus the orphan-flip audit: every
// logged flip must belong to a provenance journey.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "fault/bitfault.hpp"
#include "obs/bench_io.hpp"
#include "scenario/bitfault.hpp"
#include "scenario/fig10.hpp"
#include "sim/simulator.hpp"
#include "tta/bus.hpp"
#include "tta/cluster.hpp"
#include "tta/frame.hpp"
#include "tta/tdma.hpp"

namespace {
// Campaign worker threads allocate too, hence atomic; relaxed suffices,
// since every measured window runs on one thread.
std::atomic<unsigned long long> g_allocs{0};
}

// Counting global allocator hooks: every variant funnels through malloc so
// the count covers array, nothrow and over-aligned forms alike.
void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n);
}
void* operator new(std::size_t n, std::align_val_t a) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto align = static_cast<std::size_t>(a);
  if (void* p = std::aligned_alloc(align, (n + align - 1) / align * align)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return ::operator new(n, a);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace decos;

// --- section 1: sampler ------------------------------------------------------

void bench_sampler(obs::BenchReporter& reporter, std::uint64_t frames) {
  sim::Simulator s(11);
  const std::uint64_t bits_per_frame = 1024;

  fault::BerSampler off(s.fork_rng("bench.ber.off"));
  off.set_ber(0.0);
  std::uint64_t sink = 0;
  auto w0 = std::chrono::steady_clock::now();
  for (std::uint64_t f = 0; f < frames; ++f) {
    off.scan(bits_per_frame, [&](std::uint64_t bit) { sink += bit; });
  }
  auto w1 = std::chrono::steady_clock::now();
  const double bits_scanned =
      static_cast<double>(frames) * static_cast<double>(bits_per_frame);
  const double gbits_off =
      bits_scanned / std::chrono::duration<double>(w1 - w0).count() / 1e9;

  fault::BerSampler on(s.fork_rng("bench.ber.on"));
  on.set_ber(1e-3);
  std::uint64_t flips = 0;
  w0 = std::chrono::steady_clock::now();
  for (std::uint64_t f = 0; f < frames; ++f) {
    on.scan(bits_per_frame, [&](std::uint64_t bit) {
      sink += bit;
      ++flips;
    });
  }
  w1 = std::chrono::steady_clock::now();
  const double flips_per_sec = static_cast<double>(flips) /
                               std::chrono::duration<double>(w1 - w0).count();

  std::printf(
      "sampler: ber0 %.1f Gbit/s scanned, ber1e-3 %llu flips (%.3g "
      "flips/s) sink=%llu\n",
      gbits_off, static_cast<unsigned long long>(flips), flips_per_sec,
      static_cast<unsigned long long>(sink));
  reporter.set_info("sampler_gbits_per_sec_ber0", gbits_off);
  reporter.set_info("sampler_flips_per_sec", flips_per_sec);
}

// --- section 2: pooled transmit ---------------------------------------------

struct Sink : tta::BusReceiver {
  tta::NodeId id = 0;
  std::uint64_t bytes = 0;
  std::uint64_t crc_bad = 0;
  void on_frame(const tta::FrameHandle& h, sim::SimTime) override {
    bytes += h->payload.size();
    if (!h.crc_ok()) ++crc_bad;
  }
  [[nodiscard]] tta::NodeId node_id() const override { return id; }
};

/// One five-node broadcast round loop on the raw bus; `rx_ber` > 0 arms a
/// receiver-side sampler on node 2 (the copy-on-corrupt pass).
struct TransmitStats {
  double rounds_per_sec = 0.0;
  double allocs_per_round = 0.0;
  double corrupt_copies_per_round = 0.0;
  double crc_checks_per_tx = 0.0;
  std::uint64_t crc_bad = 0;
};

TransmitStats bench_transmit(tta::RoundId rounds, double rx_ber) {
  constexpr std::uint32_t kNodes = 5;
  sim::Simulator s(7);
  tta::TdmaSchedule sched{tta::TdmaSchedule::Params{
      .slots_per_round = kNodes, .slot_length = sim::microseconds(500)}};
  tta::Bus bus(s, sched, tta::Bus::Params{});

  std::vector<Sink> sinks(kNodes);
  for (std::uint32_t n = 0; n < kNodes; ++n) {
    sinks[n].id = n;
    bus.attach(sinks[n]);
  }

  fault::BerSampler sampler(s.fork_rng("bench.transmit.rx"));
  sampler.set_ber(rx_ber);
  std::vector<std::uint64_t> bits;
  bits.reserve(64);
  if (rx_ber > 0.0) {
    bus.add_channel_fault([&sampler, &bits](tta::Delivery& d,
                                            tta::NodeId receiver,
                                            sim::SimTime) {
      if (receiver != 2) return true;
      const std::uint64_t nbits = d.frame().payload.size() * 8;
      bits.clear();
      sampler.scan(nbits, [&bits](std::uint64_t b) { bits.push_back(b); });
      if (bits.empty()) return true;
      tta::Frame& copy = d.corrupt();
      for (const std::uint64_t b : bits) {
        copy.payload[b >> 3] ^= static_cast<std::uint8_t>(1u << (b & 7));
      }
      return true;
    });
  }

  tta::Frame frame;
  frame.payload.assign(96, 0xA5);  // a typical muxed TDMA payload

  const std::uint64_t copies0 = bus.frame_pool()->corrupt_copies();

  // Self-rescheduling per-node senders, the E18 idiom: each node's chain
  // event transmits its slot and re-arms for the next round, so the event
  // queue stays at its (tiny) steady-state size and the measured region
  // exercises only the broadcast path — seal, transmit, pooled delivery,
  // hook. Like a TtaNode, the sender seals the frame in its pool slot.
  struct NodeChain {
    sim::Simulator* s = nullptr;
    tta::Bus* bus = nullptr;
    const tta::TdmaSchedule* sched = nullptr;
    const tta::Frame* frame = nullptr;
    std::uint32_t node = 0;
    tta::RoundId round = 0;
    tta::RoundId stop = 0;
    void arm() {
      s->schedule_at(sched->send_instant(round, node),
                     [this] {
                       tta::FrameHandle h = bus->frame_pool()->acquire(*frame);
                       tta::Frame& f = h.mutate();
                       f.sender = node;
                       f.slot = static_cast<tta::SlotId>(node);
                       f.round = round;
                       h.seal();
                       (void)bus->transmit(node, std::move(h));
                       if (++round < stop) arm();
                     },
                     sim::EventPriority::kTransport);
    }
  };
  std::vector<NodeChain> chains(kNodes);
  auto run_rounds = [&](tta::RoundId first, tta::RoundId n) {
    for (std::uint32_t node = 0; node < kNodes; ++node) {
      chains[node] = NodeChain{&s, &bus, &sched, &frame, node, first,
                               static_cast<tta::RoundId>(first + n)};
      chains[node].arm();
    }
    s.run_until(sched.slot_start(first + n, 0));
  };

  run_rounds(0, 256);  // warm-up: pool, kernel slab, payload capacity
  const std::uint64_t checks0 = bus.frame_pool()->crc_checks();
  const std::uint64_t sent0 = bus.frames_sent();
  const auto a0 = g_allocs.load(std::memory_order_relaxed);
  const auto w0 = std::chrono::steady_clock::now();
  run_rounds(256, rounds);
  const auto w1 = std::chrono::steady_clock::now();
  const auto allocs = g_allocs.load(std::memory_order_relaxed) - a0;
  const double wall = std::chrono::duration<double>(w1 - w0).count();

  TransmitStats t;
  t.rounds_per_sec = static_cast<double>(rounds) / wall;
  t.allocs_per_round =
      static_cast<double>(allocs) / static_cast<double>(rounds);
  t.corrupt_copies_per_round =
      static_cast<double>(bus.frame_pool()->corrupt_copies() - copies0) /
      static_cast<double>(rounds);
  t.crc_checks_per_tx =
      static_cast<double>(bus.frame_pool()->crc_checks() - checks0) /
      static_cast<double>(bus.frames_sent() - sent0);
  for (const Sink& sk : sinks) t.crc_bad += sk.crc_bad;
  return t;
}

// --- section 2b: faults-off cluster -------------------------------------------

struct ClusterStats {
  double rounds_per_sec = 0.0;
  double allocs_per_round = 0.0;
  double events_per_tx = 0.0;
  double crc_checks_per_tx = 0.0;
};

ClusterStats bench_cluster(tta::RoundId rounds) {
  constexpr std::uint32_t kNodes = 7;
  sim::Simulator s(7);
  tta::Cluster cluster(s, tta::Cluster::Params{.node_count = kNodes});
  cluster.start();
  const tta::TdmaSchedule& sched = cluster.schedule();
  tta::Bus& bus = cluster.bus();

  // Window edges sit mid-slot 0, after node 0's transmission has been
  // delivered and before any node closes the slot, so both edges split
  // the event stream at the same point of the round.
  const sim::Duration half_slot{sched.params().slot_length.ns() / 2};
  auto edge = [&](tta::RoundId r) { return sched.slot_start(r, 0) + half_slot; };

  s.run_until(edge(256));  // warm-up: pool, batches, sync buffers, kernel
  const std::uint64_t events0 = s.events_executed();
  const std::uint64_t sent0 = bus.frames_sent();
  const std::uint64_t checks0 = bus.frame_pool()->crc_checks();
  const auto a0 = g_allocs.load(std::memory_order_relaxed);
  const auto w0 = std::chrono::steady_clock::now();
  s.run_until(edge(256 + rounds));
  const auto w1 = std::chrono::steady_clock::now();
  const auto allocs = g_allocs.load(std::memory_order_relaxed) - a0;

  const double sent = static_cast<double>(bus.frames_sent() - sent0);
  ClusterStats c;
  c.rounds_per_sec = static_cast<double>(rounds) /
                     std::chrono::duration<double>(w1 - w0).count();
  c.allocs_per_round =
      static_cast<double>(allocs) / static_cast<double>(rounds);
  c.events_per_tx = static_cast<double>(s.events_executed() - events0) / sent;
  c.crc_checks_per_tx =
      static_cast<double>(bus.frame_pool()->crc_checks() - checks0) / sent;
  return c;
}

/// Allocations per round of the faults-off Fig. 10 rig over rounds
/// 400-1200, after the warm-up has sized every buffer.
double fig10_rig_allocs_per_round() {
  constexpr std::int64_t kWarmup = 400;
  constexpr std::int64_t kRounds = 800;
  scenario::Fig10System rig;
  const sim::Duration round = rig.system().cluster().schedule().round_length();
  rig.run(round * kWarmup);
  const auto a0 = g_allocs.load(std::memory_order_relaxed);
  rig.run(round * kRounds);
  const auto allocs = g_allocs.load(std::memory_order_relaxed) - a0;
  return static_cast<double>(allocs) / static_cast<double>(kRounds);
}

}  // namespace

int main(int argc, char** argv) {
  obs::BenchReporter reporter("bench_bitfault", argc, argv);
  const bool quick = reporter.flag("--quick");
  const std::optional<double> ber = reporter.number("--ber", 0.0, 1.0);
  const std::optional<std::string> profile = reporter.value("--wearout");
  const std::optional<fault::WearoutCurve> curve =
      fault::WearoutCurve::profile(profile.value_or("bathtub"));
  if (!curve) {
    std::string known;
    for (const std::string_view name : fault::WearoutCurve::profile_names()) {
      known += known.empty() ? "" : ", ";
      known += name;
    }
    std::fprintf(stderr, "error: --wearout wants one of {%s}, got '%s'\n",
                 known.c_str(), profile->c_str());
    return 1;
  }

  bench_sampler(reporter, quick ? 200'000 : 2'000'000);

  const TransmitStats clean = bench_transmit(quick ? 20'000 : 100'000, 0.0);
  std::printf(
      "transmit(faults off): rounds_per_sec=%.3g allocs_per_round=%.4f "
      "crc_checks_per_tx=%.4f\n",
      clean.rounds_per_sec, clean.allocs_per_round, clean.crc_checks_per_tx);
  reporter.set_info("tx_rounds_per_sec", clean.rounds_per_sec);
  reporter.set_info("allocs_per_round", clean.allocs_per_round);
  reporter.set_info("crc_checks_per_tx", clean.crc_checks_per_tx);

  const ClusterStats cluster = bench_cluster(quick ? 5'000 : 20'000);
  std::printf(
      "cluster(7 nodes, faults off): rounds_per_sec=%.3g "
      "allocs_per_round=%.4f events_per_tx=%.4f crc_checks_per_tx=%.4f\n",
      cluster.rounds_per_sec, cluster.allocs_per_round, cluster.events_per_tx,
      cluster.crc_checks_per_tx);
  reporter.set_info("cluster_allocs_per_round", cluster.allocs_per_round);
  reporter.set_info("rig_allocs_per_round", fig10_rig_allocs_per_round());
  reporter.set_info("events_per_tx", cluster.events_per_tx);
  reporter.set_info("cluster_crc_checks_per_tx", cluster.crc_checks_per_tx);

  const TransmitStats noisy = bench_transmit(quick ? 20'000 : 100'000, 5e-4);
  std::printf(
      "transmit(rx ber 5e-4): rounds_per_sec=%.3g allocs_per_round=%.4f "
      "corrupt_copies_per_round=%.4f crc_bad=%llu\n",
      noisy.rounds_per_sec, noisy.allocs_per_round,
      noisy.corrupt_copies_per_round,
      static_cast<unsigned long long>(noisy.crc_bad));
  reporter.set_info("corrupt_copies_per_round", noisy.corrupt_copies_per_round);

  // Section 3: classifier separation campaign.
  const std::vector<std::uint64_t> seeds =
      reporter.seeds_or(quick ? std::vector<std::uint64_t>{1}
                              : std::vector<std::uint64_t>{1, 2, 3, 4, 5});
  const scenario::BitCampaignResult campaign = scenario::run_bitfault_campaign(
      scenario::bitfault_archetypes(ber.value_or(2e-3), *curve,
                                    ber.value_or(5e-3)),
      seeds, {}, reporter.jobs());

  std::printf(
      "\n%-14s %5s %9s %7s %8s %8s %8s %8s %8s\n", "archetype", "runs",
      "class-acc", "bit-acc", "flips", "orphans", "f/event", "burst", "ratio");
  for (const auto& row : campaign.rows) {
    const double n = row.runs == 0 ? 1.0 : static_cast<double>(row.runs);
    const double class_acc = static_cast<double>(row.class_correct) / n;
    const double bit_acc = static_cast<double>(row.bit_correct) / n;
    std::printf("%-14s %5zu %9.2f %7.2f %8llu %8llu %8.2f %8.2f %8.2f\n",
                row.name.c_str(), row.runs, class_acc, bit_acc,
                static_cast<unsigned long long>(row.flips),
                static_cast<unsigned long long>(row.orphan_flips),
                row.mean_flips_per_event, row.mean_burst_len,
                row.mean_rate_ratio);
    reporter.set_info("class_acc_" + row.name, class_acc);
    reporter.set_info("bit_acc_" + row.name, bit_acc);
  }
  reporter.set_info("campaign_flips",
                    static_cast<double>(campaign.total_flips()));
  reporter.set_info("orphan_flips",
                    static_cast<double>(campaign.total_orphans()));

  return reporter.finish();
}
