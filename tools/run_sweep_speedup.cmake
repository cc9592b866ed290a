# Sweep parallel-speedup check driven by ctest: time a 24-point sweep
# at --jobs 1 and --jobs 4 and require >= 2.5x wall-clock improvement.
# The check needs real parallel hardware; on machines with fewer than 4
# processors it prints the SKIP marker matched by the test's
# SKIP_REGULAR_EXPRESSION property and returns.
#
# Expected variables:
#   SWEEP_BIN - path to the getm-sweep binary
#   MANIFEST  - path to a sweep manifest of equal-cost points
#   OUT_DIR   - writable scratch directory

cmake_host_system_information(RESULT num_cpus
                              QUERY NUMBER_OF_LOGICAL_CORES)
if(num_cpus LESS 4)
    message(STATUS "only ${num_cpus} logical cores; speedup check "
                   "needs >= 4 - [SKIP-SPEEDUP-CHECK]")
    return()
endif()

# Millisecond timestamps: whole seconds misread a 2.4 s run as 2 or 3 s
# and a 7 s one as 6 to 8 s, which alone could fail a 3x speedup.
# (CMake before 3.23 has no %f; it falls back to whole seconds.)
if(CMAKE_VERSION VERSION_LESS 3.23)
    set(usec_format "%s000000")
else()
    set(usec_format "%s%f")
endif()

foreach(run "serial;1" "parallel;4")
    list(GET run 0 label)
    list(GET run 1 jobs)
    set(dir "${OUT_DIR}/sweep_speedup_${label}")
    file(REMOVE_RECURSE "${dir}")
    string(TIMESTAMP t0 "${usec_format}")
    execute_process(
        COMMAND "${SWEEP_BIN}" --manifest "${MANIFEST}" --dir "${dir}"
                --jobs "${jobs}" --quiet
        RESULT_VARIABLE sweep_status
        OUTPUT_VARIABLE sweep_output
        ERROR_VARIABLE sweep_output)
    string(TIMESTAMP t1 "${usec_format}")
    if(NOT sweep_status EQUAL 0)
        message(FATAL_ERROR
                "getm-sweep (--jobs ${jobs}) failed "
                "(${sweep_status}):\n${sweep_output}")
    endif()
    math(EXPR elapsed_${label} "(${t1} - ${t0}) / 1000")
    message(STATUS "--jobs ${jobs}: ${elapsed_${label}} ms")
endforeach()

# Require serial >= 2.5 * parallel, with a little guard against a
# degenerate 0 ms parallel run.
if(elapsed_parallel LESS 1)
    set(elapsed_parallel 1)
endif()
math(EXPR threshold "(5 * ${elapsed_parallel} + 1) / 2")
if(elapsed_serial LESS threshold)
    message(FATAL_ERROR
            "parallel speedup below 2.5x: serial ${elapsed_serial} ms vs "
            "parallel ${elapsed_parallel} ms on 4 workers")
endif()
message(STATUS "speedup OK: serial ${elapsed_serial} ms / parallel "
               "${elapsed_parallel} ms >= 2.5x")
