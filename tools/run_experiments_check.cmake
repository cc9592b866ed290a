# EXPERIMENTS.md freshness check driven by ctest: rerun the Fig. 10-13
# manifest from scratch and require render_experiments.py --check to
# reproduce every region that sweep feeds (Fig. 10-13 and the headline
# Summary) byte for byte. A simulator change that moves one of those
# numbers fails here until EXPERIMENTS.md is re-rendered with --write.
#
# Expected variables:
#   SWEEP_BIN - path to the getm-sweep binary
#   MANIFEST  - path to configs/sweeps/fig10_12_protocols.sweep
#   RENDERER  - path to render_experiments.py
#   PYTHON    - python3 interpreter
#   OUT_DIR   - writable scratch directory

# Spec hashes cover the configuration, not the simulator, so a resumed
# point could carry numbers from an older build: always start clean.
file(REMOVE_RECURSE "${OUT_DIR}")

execute_process(
    COMMAND "${SWEEP_BIN}" --manifest "${MANIFEST}" --dir "${OUT_DIR}"
            --jobs 4 --quiet
    RESULT_VARIABLE sweep_status
    OUTPUT_VARIABLE sweep_output
    ERROR_VARIABLE sweep_output)
if(NOT sweep_status EQUAL 0)
    message(FATAL_ERROR
            "getm-sweep failed (${sweep_status}):\n${sweep_output}")
endif()
message(STATUS "${sweep_output}")

execute_process(
    COMMAND "${PYTHON}" "${RENDERER}" --check "${OUT_DIR}/sweep.json"
    RESULT_VARIABLE render_status
    OUTPUT_VARIABLE render_output
    ERROR_VARIABLE render_output)
if(NOT render_status EQUAL 0)
    message(FATAL_ERROR
            "EXPERIMENTS.md disagrees with the sweep (${render_status}):\n"
            "${render_output}\nIf the change in simulated behaviour is "
            "intended, re-render with: python3 tools/render_experiments.py "
            "--write ${OUT_DIR}/sweep.json")
endif()
message(STATUS "${render_output}")
