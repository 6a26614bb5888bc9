# Bench gate: compares a fresh `bench_* --json` snapshot against its
# checked-in baseline (bench/baselines/) under the rule table of the bench
# named in the snapshot's "bench" field.
#
# Usage:
#   cmake -DCURRENT=<fresh.json> -DBASELINE=<baseline.json>
#         [-DTOLERANCE_PCT=<pct>] [-DNFF_BAND=0.05] -P tools/check_bench.cmake
#
# Rule types, each applied to one info.<key> of the snapshot:
#   floor    current >= baseline * (100 - TOLERANCE_PCT) / 100
#   ceiling  current <= baseline * (100 + TOLERANCE_PCT) / 100
#   band     floor and ceiling both
#   exact    current == baseline
#   zero     current <= 0 (machine-independent hard zeros)
#   abs_band |current - baseline| <= NFF_BAND
#   min <v>  current >= v (absolute structural floor)
#
# Throughput floors are relative to baselines recorded on a deliberately
# modest reference box, so they catch collapses (an accidental O(n) scan,
# a re-introduced per-event allocation), not percent-level jitter.
# bench/baselines/README.md explains each bench's rules and how to refresh
# a baseline.
if(NOT DEFINED CURRENT OR NOT DEFINED BASELINE)
  message(FATAL_ERROR
    "usage: cmake -DCURRENT=<json> -DBASELINE=<json> -P check_bench.cmake")
endif()

# --- rule tables, keyed by the snapshot's "bench" field ----------------------

# E18 kernel hot path: throughput floors; the event, round and diag
# ingest hot paths are all allocation-free once warm (DESIGN.md §12).
set(tolerance_bench_kernel_hotpath 10)
set(rules_bench_kernel_hotpath
  "floor events_per_sec" "floor rounds_per_sec" "floor symptoms_per_sec"
  "zero allocs_per_event" "zero allocs_per_round" "zero allocs_per_symptom")

# E21 hierarchy scaling runs in simulated time with a fixed seed, so its
# numbers are deterministic counts. Structural fields must match exactly:
# any drift means hierarchical diagnosis stopped converging or the legacy
# failover path re-engaged. Traffic and latency get a two-sided band, so a
# last-ulp classifier or libm difference that shifts one detection by a
# round passes while an O(N^2) traffic blowup or a silent overlay fails.
# The flagship's records decoded per reception is a pure work count: exact,
# so a receiver that decodes records it hosts no receiver for fails. The
# largest rig allocates nothing per round in its faults-off window, so a
# history that grows with the run (say, per-round samples) fails.
set(tolerance_bench_hierarchy_scaling 15)
set(rules_bench_hierarchy_scaling
  "exact scale_convicted" "exact kill_convicted" "exact failovers"
  "exact flagship_converged" "exact frus"
  "exact records_decoded_per_reception" "zero rig_allocs_per_round"
  "band msgs_per_round_8" "band msgs_per_round_16" "band msgs_per_round_32"
  "band msgs_per_round_64" "band detect_rounds_8" "band detect_rounds_16"
  "band detect_rounds_32" "band detect_rounds_64")

# E22 bit faults: the faults-off pooled broadcast path allocates nothing
# (one ref-counted master frame per transmission) and runs no receive-side
# CRC (the sender seals in its pool slot, which records the verdict for
# every receiver), every campaign bit flip joins a provenance journey, and
# transmit throughput keeps its floor. The faults-off 7-node cluster is
# held to the same zeros per round and per transmission, and to exactly
# N+2 = 9 kernel events per transmission (transmit, one delivery event,
# one slot close per node): a per-receiver delivery event fails it. The
# faults-off Fig. 10 rig on top (diagnosis, TMR voter, every DAS) is held
# to zero allocations per round as well.
set(tolerance_bench_bitfault 10)
set(rules_bench_bitfault
  "floor tx_rounds_per_sec" "zero allocs_per_round" "exact crc_checks_per_tx"
  "zero cluster_allocs_per_round" "zero rig_allocs_per_round"
  "exact events_per_tx"
  "exact cluster_crc_checks_per_tx" "zero orphan_flips")

# E23 fleet: throughput floors; steady-state stepping is allocation-free
# (DESIGN.md §17), which is also the no-cross-shard proof, and schedules
# every epoch in firing order, so each push is an O(1) append to its
# shard's run and none takes the heap (an exact 0); the Fig. 12 NFF
# ratios stay within an absolute band; the Fig. 7 bathtub and the 20-80
# software head share keep their structural separations. Shapes are bands
# and floors, not float equality: libm differences across toolchains can
# nudge the sampled doubles.
set(tolerance_bench_fleet 15)
set(rules_bench_fleet
  "floor vehicle_epochs_per_sec" "floor campaign_vehicles_per_sec"
  "zero steady_allocs" "exact heap_pushes_per_vehicle_epoch"
  "abs_band nff_naive" "abs_band nff_guided"
  "min infant_over_valley 2.0" "min wearout_over_valley 2.0"
  "min sw_head_share 0.5")

# --- shared helpers -------------------------------------------------------------

file(READ "${CURRENT}" current_json)
file(READ "${BASELINE}" baseline_json)

# Reads a top-level or info.<key> field from a snapshot; FATAL if missing.
function(read_field out json_text)
  string(JSON v ERROR_VARIABLE err GET "${json_text}" ${ARGN})
  if(err)
    string(REPLACE ";" "." path "${ARGN}")
    message(FATAL_ERROR "snapshot lacks ${path}: ${err}")
  endif()
  set(${out} "${v}" PARENT_SCOPE)
endfunction()

# Scales a decimal number string by 10^4 into a 64-bit integer (truncating),
# so rules are judged with CMake's integer math() regardless of how the
# bench formatted the double, and ratios near 1 keep enough resolution for
# the band checks. Scientific notation is rejected loudly, not misparsed.
function(to_fixed out value)
  if(value MATCHES "[eE]")
    message(FATAL_ERROR "cannot parse scientific notation: ${value}")
  endif()
  if(NOT value MATCHES "^(-?)([0-9]+)(\\.([0-9]+))?$")
    message(FATAL_ERROR "not a number: ${value}")
  endif()
  set(sign "${CMAKE_MATCH_1}")
  set(int_part "${CMAKE_MATCH_2}")
  set(frac "${CMAKE_MATCH_4}0000")
  string(SUBSTRING "${frac}" 0 4 frac)
  math(EXPR scaled "${sign}(${int_part} * 10000 + ${frac})")
  set(${out} "${scaled}" PARENT_SCOPE)
endfunction()

# --- apply the bench's rules ---------------------------------------------------

read_field(bench "${current_json}" bench)
read_field(baseline_bench "${baseline_json}" bench)
if(NOT bench STREQUAL baseline_bench)
  message(FATAL_ERROR
    "snapshot is from ${bench} but the baseline is from ${baseline_bench}")
endif()
if(NOT DEFINED rules_${bench})
  message(FATAL_ERROR "no gate rules for bench '${bench}'")
endif()
if(NOT DEFINED TOLERANCE_PCT)
  set(TOLERANCE_PCT ${tolerance_${bench}})
endif()
if(NOT DEFINED NFF_BAND)
  set(NFF_BAND 0.05)
endif()
to_fixed(band_f "${NFF_BAND}")

set(failures 0)
foreach(rule IN LISTS rules_${bench})
  string(REPLACE " " ";" rule "${rule}")
  list(GET rule 0 type)
  list(GET rule 1 key)
  read_field(cur "${current_json}" info ${key})
  read_field(base "${baseline_json}" info ${key})
  to_fixed(cur_f "${cur}")
  to_fixed(base_f "${base}")
  math(EXPR lo_pct "${base_f} * (100 - ${TOLERANCE_PCT}) / 100")
  math(EXPR hi_pct "${base_f} * (100 + ${TOLERANCE_PCT}) / 100")
  set(bad FALSE)
  if(type STREQUAL "floor")
    set(want ">= ${TOLERANCE_PCT}% floor of baseline ${base}")
    if(cur_f LESS lo_pct)
      set(bad TRUE)
    endif()
  elseif(type STREQUAL "ceiling")
    set(want "<= ${TOLERANCE_PCT}% ceiling over baseline ${base}")
    if(cur_f GREATER hi_pct)
      set(bad TRUE)
    endif()
  elseif(type STREQUAL "band")
    set(want "within ${TOLERANCE_PCT}% band around baseline ${base}")
    if(cur_f LESS lo_pct OR cur_f GREATER hi_pct)
      set(bad TRUE)
    endif()
  elseif(type STREQUAL "exact")
    set(want "== baseline ${base}")
    if(NOT cur_f EQUAL base_f)
      set(bad TRUE)
    endif()
  elseif(type STREQUAL "zero")
    set(want "0")
    if(cur_f GREATER 0)
      set(bad TRUE)
    endif()
  elseif(type STREQUAL "abs_band")
    set(want "within +/-${NFF_BAND} of baseline ${base}")
    math(EXPR lo "${base_f} - ${band_f}")
    math(EXPR hi "${base_f} + ${band_f}")
    if(cur_f LESS lo OR cur_f GREATER hi)
      set(bad TRUE)
    endif()
  elseif(type STREQUAL "min")
    list(GET rule 2 min_value)
    set(want ">= structural floor ${min_value}")
    to_fixed(min_f "${min_value}")
    if(cur_f LESS min_f)
      set(bad TRUE)
    endif()
  else()
    message(FATAL_ERROR "unknown rule type '${type}' for ${bench}.${key}")
  endif()
  if(bad)
    message(SEND_ERROR "${bench}: ${key} = ${cur}, want ${want}")
    math(EXPR failures "${failures} + 1")
  else()
    message(STATUS "${key}: ${cur} (${type}) ok")
  endif()
endforeach()

if(failures GREATER 0)
  message(FATAL_ERROR "${bench} gate failed: ${failures} check(s)")
endif()
message(STATUS "${bench} gate passed")
