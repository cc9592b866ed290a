# Instrument byte golden: five fully instrumented runs (checker,
# transaction tracer at rate 1, sampler and Perfetto timeline all on)
# whose output bytes are compared with tests/golden/instrument_digests.txt.
#
# For every fixture the script records the SHA-256 of the --json stdout
# line, the metrics document (sampler series, hot addresses, tx_trace)
# and the timeline, plus the checker's "check[serial]" summary line.
# The HT-H/GETM fixture also checkpoints every 10,000 cycles and pins
# its first snapshot, which carries the timeline, observability and
# tracer state mid-run. Any reordering of instrument events changes at
# least one of these digests.
#
# Runs execute in per-fixture working directories so relative side-file
# paths are identical bytes; snapshot files are deleted after hashing.
#
# Expected variables:
#   SIM_BIN - path to the getm-sim binary
#   OUT_DIR - writable scratch directory
#   GOLDEN  - the checked-in digest file
#   UPDATE  - optional; when true, rewrite GOLDEN instead of comparing

set(work_dir "${OUT_DIR}/instrument_golden")
file(REMOVE_RECURSE "${work_dir}")
file(MAKE_DIRECTORY "${work_dir}")

set(digests "")

# digest_run(<fixture> <getm-sim args>...)
function(digest_run fixture)
    set(run_dir "${work_dir}/${fixture}")
    file(MAKE_DIRECTORY "${run_dir}")
    execute_process(
        COMMAND "${SIM_BIN}" ${ARGN} --scale 0.05 --seed 7 --check
                --trace-tx 1 --metrics m.json --timeline t.json --json
        WORKING_DIRECTORY "${run_dir}"
        RESULT_VARIABLE sim_status
        OUTPUT_FILE "${run_dir}/stdout.json"
        ERROR_VARIABLE sim_stderr)
    if(NOT sim_status EQUAL 0)
        message(FATAL_ERROR
                "${fixture} exited ${sim_status}:\n${sim_stderr}")
    endif()
    set(lines "")
    foreach(artifact stdout.json m.json t.json)
        file(SHA256 "${run_dir}/${artifact}" sha)
        string(APPEND lines "${fixture} ${artifact} ${sha}\n")
    endforeach()
    string(REGEX MATCH "check\\[serial\\][^\n]*" summary "${sim_stderr}")
    if(summary STREQUAL "")
        message(FATAL_ERROR "${fixture}: no check summary:\n${sim_stderr}")
    endif()
    string(APPEND lines "${fixture} check ${summary}\n")
    file(GLOB snapshots "${run_dir}/ckpt/ckpt-*.ckpt")
    if(snapshots)
        list(SORT snapshots)
        list(GET snapshots 0 first)
        get_filename_component(first_name "${first}" NAME)
        file(SHA256 "${first}" sha)
        string(APPEND lines "${fixture} ${first_name} ${sha}\n")
        file(REMOVE_RECURSE "${run_dir}/ckpt")
    endif()
    set(digests "${digests}${lines}" PARENT_SCOPE)
endfunction()

digest_run(getm_hth --bench HT-H --protocol getm
           --checkpoint-every 10000 --checkpoint-dir ckpt)
digest_run(warptm_atm --bench ATM --protocol warptm)
digest_run(warptm_el_hth --bench HT-H --protocol warptm-el)
digest_run(eapg_atm --bench ATM --protocol eapg)
digest_run(getm_hth_rollover4 --bench HT-H --protocol getm --rollover 4)

if(UPDATE)
    file(WRITE "${GOLDEN}" "${digests}")
    message(STATUS "wrote ${GOLDEN}")
    return()
endif()

file(READ "${GOLDEN}" expected)
if(NOT digests STREQUAL expected)
    message(FATAL_ERROR
            "instrument output differs from ${GOLDEN}: an instrument "
            "now hears events in a different order or with different "
            "values.\nexpected:\n${expected}\nactual:\n${digests}")
endif()
message(STATUS "instrument bytes match ${GOLDEN}")
