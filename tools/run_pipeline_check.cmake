# One point pipeline: getm-sim --metrics and getm-sweep run a point
# through the same code, so for the same spec getm-sim's metrics file
# must equal the sweep's points/<id>.json plus one trailing newline.
# Three specs:
#
#   clean    HT-H/GETM at scale 0.05, no checker;
#   check    the same with check = serial and inject = skip-rts-bump,
#            so the document carries a "check" section (validated by
#            check_metrics.py when PYTHON and CHECKER are given);
#   failure  ATM/GETM on a tiny machine with inject = leak-lock, which
#            ends in a typed failure document.
#
# The script also asserts that the removed `ref` check level is a bad
# level everywhere: getm-sim --check=ref and a config file with
# `check = ref` exit 2, and a manifest with `check = ref` fails to
# parse (exit 2). Last, a config file's `seed = 9` runs getm-sim as
# --seed 9 does (a --seed flag wins), and a sweep whose base config
# sets `seed` exits 2.
#
# Expected variables:
#   SIM_BIN   - path to the getm-sim binary
#   SWEEP_BIN - path to the getm-sweep binary
#   OUT_DIR   - writable scratch directory
#   PYTHON    - optional python3 interpreter
#   CHECKER   - optional path to tools/check_metrics.py

set(work_dir "${OUT_DIR}/pipeline_check")
file(REMOVE_RECURSE "${work_dir}")
file(MAKE_DIRECTORY "${work_dir}")

# Keys neither driver has a flag for go through one config file.
file(WRITE "${work_dir}/tiny.cfg" "cores = 2\npartitions = 2\nwarps_per_core = 4\n")

# compare_point(<name> <point id> <sim exit> <sweep exit>
#               MANIFEST <lines>... SIM <getm-sim args>...)
function(compare_point name point_id sim_want sweep_want)
    cmake_parse_arguments(P "" "" "MANIFEST;SIM" ${ARGN})
    string(REPLACE ";" "\n" manifest "name = ${name};${P_MANIFEST}")
    file(WRITE "${work_dir}/${name}.sweep" "${manifest}\n")

    execute_process(
        COMMAND "${SWEEP_BIN}" --manifest "${work_dir}/${name}.sweep"
                --dir "${work_dir}/${name}" --jobs 1 --quiet
        RESULT_VARIABLE sweep_status
        OUTPUT_QUIET ERROR_VARIABLE sweep_stderr)
    if(NOT sweep_status EQUAL sweep_want)
        message(FATAL_ERROR "${name}: getm-sweep exited ${sweep_status}, "
                            "want ${sweep_want}:\n${sweep_stderr}")
    endif()

    execute_process(
        COMMAND "${SIM_BIN}" ${P_SIM} --metrics "${work_dir}/${name}.json"
        WORKING_DIRECTORY "${work_dir}"
        RESULT_VARIABLE sim_status
        OUTPUT_QUIET ERROR_VARIABLE sim_stderr)
    if(NOT sim_status EQUAL sim_want)
        message(FATAL_ERROR "${name}: getm-sim exited ${sim_status}, "
                            "want ${sim_want}:\n${sim_stderr}")
    endif()

    file(READ "${work_dir}/${name}/points/${point_id}.json" sweep_doc)
    file(READ "${work_dir}/${name}.json" sim_doc)
    if(NOT sim_doc STREQUAL "${sweep_doc}\n")
        message(FATAL_ERROR
                "${name}: getm-sim's metrics document differs from the "
                "sweep's points/${point_id}.json:\n"
                "getm-sim:\n${sim_doc}\ngetm-sweep:\n${sweep_doc}")
    endif()
    set(sim_doc "${sim_doc}" PARENT_SCOPE)
endfunction()

compare_point(clean "HT-H+GETM" 0 0
    MANIFEST "bench = HT-H" "protocol = getm" "scale = 0.05" "seed = 7"
             "sample_interval = 512"
    SIM --bench HT-H --protocol getm --scale 0.05 --seed 7)

compare_point(check "HT-H+GETM" 3 3
    MANIFEST "bench = HT-H" "protocol = getm" "scale = 0.05" "seed = 7"
             "sample_interval = 512" "check = serial"
             "inject = skip-rts-bump"
    SIM --bench HT-H --protocol getm --scale 0.05 --seed 7 --check=serial
        --inject=skip-rts-bump)
if(NOT sim_doc MATCHES "\"check\":{\"level\":\"serial\"")
    message(FATAL_ERROR "check: the document lacks a serial check "
                        "section:\n${sim_doc}")
endif()
if(PYTHON AND CHECKER)
    execute_process(
        COMMAND "${PYTHON}" "${CHECKER}" "${work_dir}/check.json"
                "${work_dir}/check/sweep.json"
        RESULT_VARIABLE checker_status
        OUTPUT_VARIABLE checker_out ERROR_VARIABLE checker_out)
    if(NOT checker_status EQUAL 0)
        message(FATAL_ERROR "check_metrics.py rejected the check "
                            "documents:\n${checker_out}")
    endif()
endif()

compare_point(failure "ATM+GETM" 4 4
    MANIFEST "config = tiny.cfg" "bench = ATM" "protocol = getm"
             "scale = 0.02" "seed = 7" "sample_interval = 256"
             "max_cycles = 30000000" "inject = leak-lock"
    SIM --bench ATM --protocol getm --scale 0.02 --seed 7
        --config tiny.cfg --sample-interval 256 --max-cycles 30000000
        --inject=leak-lock)
if(NOT sim_doc MATCHES "\"failure\":{")
    message(FATAL_ERROR "failure: not a failure document:\n${sim_doc}")
endif()

# The `ref` level is gone: every spelling of it is a bad level.
execute_process(COMMAND "${SIM_BIN}" --check=ref
                RESULT_VARIABLE status OUTPUT_QUIET ERROR_QUIET)
if(NOT status EQUAL 2)
    message(FATAL_ERROR "getm-sim --check=ref exited ${status}, want 2")
endif()
file(WRITE "${work_dir}/ref.cfg" "check = ref\n")
execute_process(COMMAND "${SIM_BIN}" --config "${work_dir}/ref.cfg"
                RESULT_VARIABLE status OUTPUT_QUIET ERROR_QUIET)
if(NOT status EQUAL 2)
    message(FATAL_ERROR "getm-sim with a `check = ref` config exited "
                        "${status}, want 2")
endif()
file(WRITE "${work_dir}/ref.sweep" "name = ref\ncheck = ref\n")
execute_process(COMMAND "${SWEEP_BIN}" --manifest "${work_dir}/ref.sweep"
                        --dir "${work_dir}/ref" --quiet
                RESULT_VARIABLE status OUTPUT_QUIET
                ERROR_VARIABLE sweep_stderr)
if(NOT status EQUAL 2 OR NOT sweep_stderr MATCHES "check")
    message(FATAL_ERROR "getm-sweep with a `check = ref` manifest exited "
                        "${status}, want 2 and a parse error naming "
                        "check:\n${sweep_stderr}")
endif()

# A config file's seed: getm-sim takes it as the point's seed unless
# --seed is given, and getm-sweep rejects a base config that sets one,
# since its seed axis sets every point's seed.
file(WRITE "${work_dir}/seed9.cfg" "seed = 9\n")
function(sim_json out)
    execute_process(
        COMMAND "${SIM_BIN}" --bench ATM --protocol getm --scale 0.02
                --json ${ARGN}
        WORKING_DIRECTORY "${work_dir}"
        RESULT_VARIABLE status OUTPUT_VARIABLE json ERROR_QUIET)
    if(NOT status EQUAL 0)
        message(FATAL_ERROR "getm-sim ${ARGN} exited ${status}")
    endif()
    set(${out} "${json}" PARENT_SCOPE)
endfunction()
sim_json(seed7)
sim_json(seed9 --seed 9)
sim_json(config9 --config seed9.cfg)
sim_json(flag7 --seed 7 --config seed9.cfg)
if(seed7 STREQUAL seed9)
    message(FATAL_ERROR "seeds 7 and 9 gave the same run:\n${seed7}")
endif()
if(NOT config9 STREQUAL seed9)
    message(FATAL_ERROR "a config's `seed = 9` is not --seed 9:\n"
                        "${config9}${seed9}")
endif()
if(NOT flag7 STREQUAL seed7)
    message(FATAL_ERROR "--seed 7 did not override the config's seed:\n"
                        "${flag7}${seed7}")
endif()
file(WRITE "${work_dir}/seed.sweep" "name = seed\nconfig = seed9.cfg\n")
execute_process(COMMAND "${SWEEP_BIN}" --manifest "${work_dir}/seed.sweep"
                        --dir "${work_dir}/seed" --quiet
                RESULT_VARIABLE status OUTPUT_QUIET
                ERROR_VARIABLE sweep_stderr)
if(NOT status EQUAL 2 OR NOT sweep_stderr MATCHES "seed axis")
    message(FATAL_ERROR "getm-sweep with a base config that sets seed "
                        "exited ${status}, want 2 and an error naming the "
                        "seed axis:\n${sweep_stderr}")
endif()

message(STATUS "getm-sim and getm-sweep wrote identical documents")
