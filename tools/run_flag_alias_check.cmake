# getm-sim's machine flags are aliases of config keys: each flag must
# run exactly as its `key = value` line in a --config file does. Checks:
#
#   aliases      every alias flag and its config line give the same
#                exit status and byte-identical metrics documents, and
#                a provenance key's value shows in the `config` block;
#   concurrency  a config file's `tx_warp_limit = 2` runs as
#                --concurrency 2 does, and --concurrency wins over the
#                file;
#   rollover     --rollover 0 disables rollover, as the key does;
#   bad values   a malformed flag value, point flags' included, exits 2
#                (usage), not 0, 4 or 5.
#
# Expected variables:
#   SIM_BIN - path to the getm-sim binary
#   OUT_DIR - writable scratch directory

set(work_dir "${OUT_DIR}/flag_alias_check")
file(REMOVE_RECURSE "${work_dir}")
file(MAKE_DIRECTORY "${work_dir}")

# run_sim(<prefix> <args>...): sets <prefix>_status and <prefix>_out.
function(run_sim prefix)
    execute_process(COMMAND "${SIM_BIN}" ${ARGN}
                    WORKING_DIRECTORY "${work_dir}"
                    RESULT_VARIABLE status OUTPUT_VARIABLE out
                    ERROR_QUIET)
    set(${prefix}_status "${status}" PARENT_SCOPE)
    set(${prefix}_out "${out}" PARENT_SCOPE)
endfunction()

# check_alias(<name> <config lines> <provenance match or ""> <flag>...)
function(check_alias name lines shows)
    string(REPLACE ";" "\n" text "${lines}")
    file(WRITE "${work_dir}/${name}.cfg" "${text}\n")
    set(run --bench ATM --protocol getm --scale 0.02)
    run_sim(flag ${run} ${ARGN} --metrics "${name}.flag.json")
    run_sim(file ${run} --config "${name}.cfg"
            --metrics "${name}.file.json")
    if(NOT flag_status STREQUAL file_status)
        message(FATAL_ERROR "${name}: '${ARGN}' exited ${flag_status}, "
                            "its config line exited ${file_status}")
    endif()
    file(READ "${work_dir}/${name}.flag.json" flag_doc)
    file(READ "${work_dir}/${name}.file.json" file_doc)
    if(NOT flag_doc STREQUAL file_doc)
        message(FATAL_ERROR "${name}: '${ARGN}' and '${text}' wrote "
                            "different metrics documents")
    endif()
    if(shows AND NOT flag_doc MATCHES "\"config\":{[^}]*${shows}")
        message(FATAL_ERROR "${name}: the config block lacks ${shows}")
    endif()
endfunction()

check_alias(cores "cores = 3" "\"cores\":\"3\"" --cores 3)
check_alias(partitions "partitions = 4" "\"partitions\":\"4\""
            --partitions 4)
check_alias(granule "getm_granule = 64" "\"getm_granule\":\"64\""
            --granule 64)
check_alias(table_entries "getm_precise_entries = 2048"
            "\"getm_precise_entries\":\"2048\"" --table-entries 2048)
check_alias(max_registers "getm_max_registers = 1"
            "\"getm_max_registers\":\"1\"" --max-registers)
check_alias(rollover "rollover_threshold = 50"
            "\"rollover_threshold\":\"50\"" --rollover 50)
check_alias(sample_interval "sample_interval = 128"
            "\"sample_interval\":\"128\"" --sample-interval 128)
# Naming the key turns --metrics' default sampler off, from either side.
check_alias(sample_interval_off "sample_interval = 0"
            "\"sample_interval\":\"0\"" --sample-interval 0)
check_alias(hot_addrs "hot_addrs = 4" "\"hot_addrs\":\"4\"" --hot-addrs 4)
check_alias(trace_tx "trace_tx = 2" "" --trace-tx 2)
check_alias(check "check = serial" "" --check)
check_alias(check_read "check = read" "" --check=read)
check_alias(inject "inject = skip-rts-bump;inject_prob = 0.5" ""
            --inject=skip-rts-bump@0.5)
check_alias(inject_default "inject = corrupt-commit;inject_prob = 1" ""
            --inject=corrupt-commit)
check_alias(watchdog "watchdog_cycles = 2000" "" --watchdog-cycles 2000)
check_alias(timeout "timeout_sec = 600" "" --timeout-sec 600)

# The tx-warp limit: --concurrency, then a config file's
# tx_warp_limit, then the Table IV optimum.
file(WRITE "${work_dir}/limit2.cfg" "tx_warp_limit = 2\n")
set(hth --bench HT-H --protocol getm --scale 0.05 --json)
run_sim(opt ${hth})
run_sim(flag2 ${hth} --concurrency 2)
run_sim(file2 ${hth} --config limit2.cfg)
run_sim(flag4 ${hth} --concurrency 4)
run_sim(both ${hth} --concurrency 4 --config limit2.cfg)
if(flag2_out STREQUAL opt_out)
    message(FATAL_ERROR "--concurrency 2 ran as the optimum:\n${opt_out}")
endif()
if(NOT file2_out STREQUAL flag2_out)
    message(FATAL_ERROR "a config's tx_warp_limit = 2 is not "
                        "--concurrency 2:\n${file2_out}${flag2_out}")
endif()
if(NOT both_out STREQUAL flag4_out)
    message(FATAL_ERROR "--concurrency 4 did not win over the config "
                        "file:\n${both_out}${flag4_out}")
endif()

# --rollover 0 disables rollover, as rollover_threshold = 0 does.
run_sim(never ${hth} --rollover 0)
if(NOT never_status EQUAL 0 OR NOT never_out STREQUAL opt_out)
    message(FATAL_ERROR "--rollover 0 exited ${never_status} and did not "
                        "run as the default:\n${never_out}${opt_out}")
endif()

foreach(bad "--cores;3x" "--cores;abc" "--timeout-sec;abc"
            "--inject=leak-lock@x" "--check=bogus" "--concurrency;x"
            "--seed;x" "--cores;4#" "--scale;abc" "--scale;0" "--scale;-1"
            "--max-cycles;abc" "--max-cycles;-5" "--protocol;x")
    run_sim(bad --bench ATM --scale 0.02 ${bad})
    if(NOT bad_status EQUAL 2)
        message(FATAL_ERROR "getm-sim ${bad} exited ${bad_status}, want 2")
    endif()
endforeach()

message(STATUS "every alias flag runs as its config line")
