# Simulator-throughput check driven by ctest and the perf-smoke CI job:
# run bench/perf_throughput in smoke mode, validate the emitted
# BENCH_perf.json, and (when a baseline is supplied) fail on a >25%
# geomean-throughput regression.
#
# Expected variables:
#   PERF_BIN      - path to the perf_throughput binary
#   OUT_JSON      - where to write BENCH_perf.json
#   BASELINE      - optional path to a baseline BENCH_perf.json; when
#                   the file does not exist yet it is created from this
#                   run and the threshold is skipped (first-run
#                   bootstrap).
#
# Wall-clock throughput is machine-dependent, so the threshold only
# makes sense against a baseline produced on comparable hardware (the
# CI job compares against the artifact refreshed in CI). The generous
# 25% margin plus best-of-N timing inside the harness absorbs normal
# runner noise.

execute_process(
    COMMAND "${PERF_BIN}" --smoke --out "${OUT_JSON}"
    RESULT_VARIABLE perf_status
    OUTPUT_VARIABLE perf_output
    ERROR_VARIABLE perf_output)
message(STATUS "${perf_output}")
if(NOT perf_status EQUAL 0)
    message(FATAL_ERROR "perf_throughput failed (${perf_status})")
endif()

# string(JSON) both validates the document and extracts the geomean.
file(READ "${OUT_JSON}" current_doc)
string(JSON current_geo ERROR_VARIABLE json_error
       GET "${current_doc}" geomean_cycles_per_sec_int)
if(NOT json_error STREQUAL "NOTFOUND")
    message(FATAL_ERROR "bad ${OUT_JSON}: ${json_error}")
endif()
message(STATUS "geomean throughput: ${current_geo} cycles/s")

if(NOT DEFINED BASELINE OR BASELINE STREQUAL "")
    return()
endif()

if(NOT EXISTS "${BASELINE}")
    file(COPY_FILE "${OUT_JSON}" "${BASELINE}")
    message(STATUS "baseline created at ${BASELINE}; threshold skipped "
                   "- [PERF-BASELINE-CREATED]")
    return()
endif()

file(READ "${BASELINE}" baseline_doc)
string(JSON baseline_geo ERROR_VARIABLE json_error
       GET "${baseline_doc}" geomean_cycles_per_sec_int)
if(NOT json_error STREQUAL "NOTFOUND")
    message(FATAL_ERROR "bad baseline ${BASELINE}: ${json_error}")
endif()

math(EXPR threshold "(3 * ${baseline_geo}) / 4")
if(current_geo LESS threshold)
    message(FATAL_ERROR
            "throughput regression: ${current_geo} cycles/s is more "
            "than 25% below the baseline ${baseline_geo} cycles/s "
            "(threshold ${threshold})")
endif()
message(STATUS "throughput OK: ${current_geo} cycles/s vs baseline "
               "${baseline_geo} cycles/s (threshold ${threshold})")
