// Per-component diagnostic agent.
//
// The detection stage of the three-step diagnostic architecture (detect ->
// disseminate -> analyse, Section II-D). The agent hooks the local
// observability points of its component:
//   * the TTA node's slot observations (transport verdicts about remote
//     senders),
//   * the multiplexer's queue-overflow events,
//   * the sender-side LIF monitor (every message the component puts on a
//     vnet, checked against the port's value/period spec).
// Detected symptoms are coalesced per round and flushed as messages on the
// virtual diagnostic network by the agent's own job, so dissemination
// competes for real bandwidth and arrives with real latency — no probe
// effect on the application vnets, exactly as the paper requires.
//
// The symptom stream itself runs over the same fallible cluster it
// monitors, so the agent hardens its own channel: a periodic heartbeat
// keeps the assessor's staleness watchdog fed even when nothing is wrong,
// and a small bounded resend buffer retransmits recent symptoms with
// exponential backoff — loss on the diagnostic vnet becomes duplicates
// (deduplicated at the assessor) instead of silently missing evidence.
// The heartbeat period and the resend schedule are constants; the one
// setting is the hardening switch, which mirrors the assessor's.
#pragma once

#include <deque>
#include <map>
#include <vector>

#include "diag/port_spec.hpp"
#include "diag/symptom.hpp"
#include "diag/topology.hpp"
#include "fault/faultpoint.hpp"
#include "obs/metrics.hpp"
#include "obs/provenance.hpp"
#include "platform/system.hpp"

namespace decos::diag {

class Agent {
 public:
  /// Rounds between heartbeats on the symptom port.
  static constexpr tta::RoundId kHeartbeatPeriod = 8;
  /// Recently sent symptoms retained for retransmission.
  static constexpr std::size_t kResendBuffer = 32;
  /// Retransmissions per symptom beyond the first send.
  static constexpr std::uint32_t kMaxResends = 2;
  /// Rounds until the first retransmission; doubles per resend.
  static constexpr tta::RoundId kResendBackoff = 8;
  /// Rounds from a symptom's first send to its last retransmission's due
  /// round: the sum of the doubling backoffs, so at least the largest one.
  static constexpr tta::RoundId kResendSpan =
      kResendBackoff * ((tta::RoundId{1} << kMaxResends) - 1);

  /// Creates the agent job on `component` inside `diag_das` and installs
  /// all hooks. `assessors` are the jobs subscribed to this agent's
  /// symptom port. `hardening` switches the channel hardening (heartbeats
  /// + resends); off reproduces the pre-hardening agent, for ablation
  /// runs.
  Agent(platform::System& system, platform::DasId diag_das,
        platform::ComponentId component, const SpecTable& specs,
        const std::vector<platform::JobId>& assessors, bool hardening);

  [[nodiscard]] platform::ComponentId component() const { return component_; }
  [[nodiscard]] platform::JobId job_id() const { return job_id_; }
  [[nodiscard]] platform::PortId symptom_port() const { return port_; }

  /// Symptoms detected but not yet flushed (inspection/testing).
  [[nodiscard]] std::size_t backlog() const { return pending_.size(); }
  [[nodiscard]] std::uint64_t symptoms_detected() const { return detected_; }
  /// Symptoms dropped from the bounded backlog (evidence loss at source).
  [[nodiscard]] std::uint64_t symptoms_dropped() const { return dropped_; }
  [[nodiscard]] std::uint64_t heartbeats_sent() const { return heartbeats_; }
  [[nodiscard]] std::uint64_t retransmissions() const { return resent_; }

  /// Attaches the fault-point registry (not owned; nullptr detaches): the
  /// heartbeat-send and resend-push edges become enumerable injection
  /// sites. DiagnosticService::bind_fault_points wires every agent.
  void bind_fault_points(fault::FaultPointRegistry* fp) { fp_ = fp; }

  /// Switches the agent to hierarchy routing: instead of multicasting on
  /// the shared symptom port, each flushed message is unicast to the
  /// *current testers* of its routing key (the subject component;
  /// heartbeats key on the agent's own component). `view` is the
  /// service's overlay view (not owned, refreshed by the service each
  /// round); `tester_ports[p]` is this agent's unicast port to the
  /// assessor at cube position p. Traffic becomes O(log A) per symptom
  /// instead of O(A) — the tentpole scaling change.
  void enable_hierarchy(const HierarchyTopology* view,
                        std::vector<platform::PortId> tester_ports);
  [[nodiscard]] bool hierarchical() const { return topo_ != nullptr; }

 private:
  void on_observation(const tta::SlotObservation& obs);
  void on_overflow(platform::PortId port, tta::RoundId round);
  void on_sent(const vnet::Message& msg, tta::RoundId round);
  void flush(platform::JobContext& ctx);
  void note(Symptom s);
  /// Records a kSymptom provenance event against the journey owning the
  /// symptom's subject FRU (job first, else component). Single-branch
  /// no-op when tracing is off.
  void trace_symptom(const Symptom& s, std::string_view detail);

  platform::System& system_;
  platform::ComponentId component_;
  const SpecTable& specs_;
  bool hardening_;
  obs::ProvenanceTracer* prov_ = nullptr;
  fault::FaultPointRegistry* fp_ = nullptr;
  /// Cached span entity label ("agent.N") so the hot path never builds it.
  std::string entity_;
  platform::JobId job_id_ = platform::kInvalidJob;
  platform::PortId port_ = 0;

  /// Hierarchy routing state (see enable_hierarchy).
  const HierarchyTopology* topo_ = nullptr;
  std::vector<platform::PortId> tester_ports_;
  /// Sends one encoded message to every current tester of `subject`;
  /// returns the number of unicast sends that were accepted (0 means
  /// every destination queue pushed back — retry next round).
  std::size_t route(platform::JobContext& ctx, const vnet::Message& m,
                    platform::ComponentId subject);

  /// Coalescing: at most one symptom per (type, subject component, subject
  /// job) per round; repeats bump the magnitude (occurrence count or max
  /// deviation).
  struct Key {
    SymptomType type;
    platform::ComponentId subj_c;
    platform::JobId subj_j;
    auto operator<=>(const Key&) const = default;
  };
  std::map<Key, Symptom> this_round_;
  tta::RoundId coalesce_round_ = 0;
  /// Flush order is FIFO and the backlog trim drops from the front, so a
  /// deque gives O(1) at both ends (the vector it replaces paid O(n) per
  /// flushed symptom).
  std::deque<Symptom> pending_;
  std::uint64_t detected_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t heartbeats_ = 0;
  std::uint64_t resent_ = 0;

  /// Resend buffer: symptoms already sent once, awaiting their backoff
  /// retransmissions. Bounded; oldest entries fall off first.
  struct Resend {
    Symptom s;
    tta::RoundId due = 0;
    std::uint32_t sends = 1;  // transmissions so far (1 = original)
  };
  std::deque<Resend> resend_;
  tta::RoundId last_heartbeat_ = 0;

  /// The LIF monitor's table: one row per spec'd port owned by a job
  /// hosted here, ascending port id. Built on first use, once the plan is
  /// final (the service adds its own ports after the agents). on_sent
  /// finds a sent message's row by binary search; the gap check walks the
  /// gap-checked rows.
  struct SpecPort {
    platform::PortId port;
    platform::JobId owner;
    double min_value;
    double max_value;
    /// Gap-checked: periodic and not on the diagnostic vnet.
    bool gap_checked;
    tta::RoundId gap_limit;  // period_rounds * gap_tolerance_periods
    tta::RoundId last_sent = 0;
    tta::RoundId last_report = 0;
  };
  std::vector<SpecPort> spec_ports_;
  bool spec_ports_built_ = false;
  std::vector<SpecPort>& spec_ports();

  // Cluster-wide aggregates (all agents of one simulator share the cells).
  obs::Counter heartbeats_metric_;
  obs::Counter retransmissions_metric_;
  obs::Counter dropped_metric_;
  obs::Counter fanout_metric_;
};

}  // namespace decos::diag
