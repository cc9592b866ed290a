# Checkpoint/restore determinism check driven by ctest: for every
# protocol (GETM, WarpTM-LL, WarpTM-EL, EAPG), with and without fault
# injection, run the same benchmark three ways:
#
#   base     uninterrupted, fully instrumented (--json stdout, metrics
#            document, timeline);
#   killed   identical instrumentation plus --checkpoint-every, cut
#            mid-flight by the --ckpt-kill-at crash hook (a SIGKILL
#            stand-in: std::_Exit, no cleanup, no final checkpoint);
#   restored --restore from the killed run's last snapshot.
#
# The contract (docs/DURABILITY.md): the restored run's stdout,
# metrics document, and timeline are byte-identical to base, the kill
# exits 137, and the restore genuinely resumes mid-kernel (cycle > 0,
# asserted via the "restored checkpoint ... (cycle N)" stderr line).
#
# Runs under the online checker (--check) must also restore the
# checker's state: their check summary and violation samples on stderr
# must match base line for line. One checked fixture is clean and runs
# several checker GC passes before the kill; the other injects a GETM
# fault, so restored cycle reports are compared too.
#
# Runs are executed inside per-run working directories so relative
# side-file paths -- which appear in stdout -- are identical bytes.
#
# A second check guards the archive buffer a machine reuses across its
# snapshots: HT-H/GETM checkpointed every 400 and every 800 cycles
# must write byte-identical files for every cycle both runs
# snapshotted. A buffer that carried stale bytes from one snapshot
# into the next would make the two cadences disagree.
#
# Expected variables:
#   SIM_BIN - path to the getm-sim binary
#   OUT_DIR - writable scratch directory

set(work_dir "${OUT_DIR}/ckpt_check")
file(REMOVE_RECURSE "${work_dir}")
file(MAKE_DIRECTORY "${work_dir}")

# The checker's stderr report: the summary line and the sample lines.
function(check_report stderr_text out_var)
    string(REGEX MATCHALL "check\\[[^\n]*|\n  [A-Z_]+ addr=[^\n]*"
           lines "${stderr_text}")
    set(${out_var} "${lines}" PARENT_SCOPE)
endfunction()

# kill_restore(<fixture> <kill cycle> <snapshot cadence> <exit status>
#              <getm-sim args>...)
function(kill_restore fixture kill_at every expect_status)
    set(common_args ${ARGN} --json --metrics m.json --timeline t.json)
    foreach(run base killed restored)
        set(run_dir "${work_dir}/${fixture}/${run}")
        file(MAKE_DIRECTORY "${run_dir}")
        set(run_args "${SIM_BIN}" ${common_args})
        if(run STREQUAL "killed")
            list(APPEND run_args
                 --checkpoint-every ${every}
                 --checkpoint-dir ckpt
                 --ckpt-kill-at ${kill_at})
        elseif(run STREQUAL "restored")
            list(APPEND run_args
                 --restore "${work_dir}/${fixture}/killed/ckpt")
        endif()
        execute_process(
            COMMAND ${run_args}
            WORKING_DIRECTORY "${run_dir}"
            RESULT_VARIABLE sim_status
            OUTPUT_FILE "${run_dir}/stdout.json"
            ERROR_VARIABLE sim_stderr)
        if(run STREQUAL "killed")
            if(NOT sim_status EQUAL 137)
                message(FATAL_ERROR
                        "${fixture}: --ckpt-kill-at should "
                        "exit 137, got ${sim_status}:\n"
                        "${sim_stderr}")
            endif()
        elseif(NOT sim_status EQUAL expect_status)
            message(FATAL_ERROR
                    "${fixture} (${run}) exited ${sim_status}, "
                    "expected ${expect_status}:\n${sim_stderr}")
        endif()
        if(run STREQUAL "base")
            check_report("${sim_stderr}" base_report)
        elseif(run STREQUAL "restored")
            if(NOT sim_stderr MATCHES
               "restored checkpoint .* \\(cycle ([0-9]+)\\)")
                message(FATAL_ERROR
                        "${fixture}: restore did not report "
                        "its resume cycle:\n${sim_stderr}")
            endif()
            if(CMAKE_MATCH_1 EQUAL 0)
                message(FATAL_ERROR
                        "${fixture}: restore resumed at cycle "
                        "0 -- no mid-kernel state was loaded")
            endif()
            check_report("${sim_stderr}" restored_report)
        endif()
    endforeach()

    foreach(artifact "stdout.json" "m.json" "t.json")
        execute_process(
            COMMAND ${CMAKE_COMMAND} -E compare_files
                    "${work_dir}/${fixture}/base/${artifact}"
                    "${work_dir}/${fixture}/restored/${artifact}"
            RESULT_VARIABLE same)
        if(NOT same EQUAL 0)
            message(FATAL_ERROR
                    "${fixture}: ${artifact} differs between "
                    "the uninterrupted and the kill+restore "
                    "run: the snapshot missed machine state "
                    "(docs/DURABILITY.md)")
        endif()
    endforeach()
    if(NOT base_report STREQUAL restored_report)
        message(FATAL_ERROR
                "${fixture}: the check report differs between the "
                "uninterrupted and the kill+restore run: the snapshot "
                "missed checker state\nbase: ${base_report}\n"
                "restored: ${restored_report}")
    endif()
    message(STATUS
            "${fixture}: kill at ${kill_at} + restore is "
            "byte-identical")
endfunction()

foreach(protocol getm warptm warptm-el eapg)
    kill_restore(${protocol}_plain 1500 400 0
                 --bench HT-H --protocol ${protocol} --scale 0.05)
    kill_restore(${protocol}_inject 1500 400 0
                 --bench HT-H --protocol ${protocol} --scale 0.05
                 --inject=skip-validation@0.02)
endforeach()

# Checker state: CL/GETM at scale 0.25 commits 14,620 transactions over
# ~56k cycles, so the kill at 40k follows two checker GC passes;
# skip-rts-bump on HT-H at scale 0.25 closes cycles on both sides of
# the kill and exits 3 (checker violations).
kill_restore(getm_check 40000 5000 0
             --bench CL --protocol getm --scale 0.25 --check)
kill_restore(getm_check_inject 46000 5000 3
             --bench HT-H --protocol getm --scale 0.25 --check
             --inject=skip-rts-bump)

# GETM's grant tables: YCSB theta=0.99 is the workload whose cycles
# move most with the order of the commit point's cleanup walk (a
# sorted walk moves it by 35%, GetmBehavior.CleanupGrantOrderPinned).
# The snapshot at cycle 300,000 holds live grants, stall-buffer waiters
# and intra-warp claims, so the restore must rebuild every lane's grant
# map in its iteration order and keep each slot's intra-warp table.
kill_restore(getm_ycsb_skew 310000 50000 0
             --bench YCSB:theta=0.99 --protocol getm --scale 0.05)

set(cadence_dir "${work_dir}/cadence")
foreach(cadence 400 800)
    set(run_dir "${cadence_dir}/every${cadence}")
    file(MAKE_DIRECTORY "${run_dir}")
    execute_process(
        COMMAND "${SIM_BIN}" --bench HT-H --protocol getm --scale 0.05
                --checkpoint-every ${cadence} --checkpoint-dir ckpt
        WORKING_DIRECTORY "${run_dir}"
        RESULT_VARIABLE sim_status
        OUTPUT_QUIET
        ERROR_VARIABLE sim_stderr)
    if(NOT sim_status EQUAL 0)
        message(FATAL_ERROR
                "checkpoint cadence ${cadence} run failed "
                "(${sim_status}):\n${sim_stderr}")
    endif()
endforeach()

# Every cycle the 800 run snapshotted, the 400 run snapshotted too: it
# reaches each multiple of 800 with its own snapshot due.
file(GLOB sparse_snapshots RELATIVE "${cadence_dir}/every800/ckpt"
     "${cadence_dir}/every800/ckpt/ckpt-*.ckpt")
list(LENGTH sparse_snapshots shared)
if(shared EQUAL 0)
    message(FATAL_ERROR "checkpoint cadence 800 wrote no snapshot")
endif()
foreach(name ${sparse_snapshots})
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files
                "${cadence_dir}/every400/ckpt/${name}"
                "${cadence_dir}/every800/ckpt/${name}"
        RESULT_VARIABLE same)
    if(NOT same EQUAL 0)
        message(FATAL_ERROR
                "${name} differs between --checkpoint-every 400 and "
                "800 (or is missing from the 400 run): a snapshot "
                "depends on the snapshots written before it")
    endif()
endforeach()
message(STATUS
        "checkpoint cadences 400 and 800: ${shared} shared snapshots "
        "are byte-identical")
