# Gate-tool self-test for scripts/perf_check: the threshold argument
# must be validated (a non-numeric value used to escape as an uncaught
# ValueError traceback, and negative/NaN/>=1 values made the gate
# vacuous — floor <= 0 or NaN comparisons pass everything). Each bad
# value must exit 2 with a clean usage message, the committed
# baseline compared against itself must still pass, and a counter
# raised above the baseline's must fail.
#
# Invoke with
#   cmake -DPYTHON=<python3> -DPERF_CHECK=<scripts/perf_check>
#         -DBASELINE=<bench/BENCH_perf.baseline.json> -P perf_check_smoke.cmake

foreach(var PYTHON PERF_CHECK BASELINE)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "perf_check_smoke.cmake needs -D${var}=...")
    endif()
endforeach()

# One rejected threshold value: exit 2, diagnostic + usage on stderr,
# no traceback.
function(expect_rejected value)
    execute_process(
        COMMAND "${PYTHON}" "${PERF_CHECK}" "--threshold=${value}"
                "${BASELINE}" "${BASELINE}"
        RESULT_VARIABLE code
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err)
    if(NOT code EQUAL 2)
        message(FATAL_ERROR
                "--threshold=${value}: want exit 2, got '${code}'\n${err}")
    endif()
    if(NOT err MATCHES "invalid --threshold")
        message(FATAL_ERROR
                "--threshold=${value}: missing diagnostic; stderr:\n${err}")
    endif()
    if(NOT err MATCHES "usage: perf_check")
        message(FATAL_ERROR
                "--threshold=${value}: missing usage line; stderr:\n${err}")
    endif()
    if(err MATCHES "Traceback")
        message(FATAL_ERROR
                "--threshold=${value}: leaked a traceback:\n${err}")
    endif()
    message(STATUS "rejected --threshold=${value} cleanly")
endfunction()

expect_rejected("abc")     # the historical ValueError crash
expect_rejected("")        # empty value
expect_rejected("-0.1")    # negative: floor above baseline, gate inverted
expect_rejected("nan")     # NaN: every comparison false, gate vacuous
expect_rejected("inf")     # non-finite
expect_rejected("1.0")     # floor 0: gate vacuous
expect_rejected("2")       # floor negative: gate vacuous

# Missing file arguments: usage + exit 2 (pre-existing path, kept).
execute_process(
    COMMAND "${PYTHON}" "${PERF_CHECK}" "--threshold=0.15"
    RESULT_VARIABLE code
    ERROR_VARIABLE err)
if(NOT code EQUAL 2 OR NOT err MATCHES "usage: perf_check")
    message(FATAL_ERROR "missing paths: want usage + exit 2, got "
            "'${code}'\n${err}")
endif()

# Good path: the committed baseline against itself is never a
# regression (normalized == baseline exactly).
execute_process(
    COMMAND "${PYTHON}" "${PERF_CHECK}" "--threshold=0.15"
            "${BASELINE}" "${BASELINE}"
    RESULT_VARIABLE code
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT code EQUAL 0)
    message(FATAL_ERROR
            "baseline vs itself: want exit 0, got '${code}'\n${err}")
endif()
if(NOT out MATCHES "perf_check: OK")
    message(FATAL_ERROR "baseline vs itself: missing OK line:\n${out}")
endif()
message(STATUS "baseline vs itself passes the gate")

# Counters gate: the deterministic work counts must not exceed the
# baseline's. One counter raised by one, everything else equal, must
# fail with a line naming it.
file(READ "${BASELINE}" doc)
string(JSON builds GET "${doc}" counters slice_builds)
math(EXPR inflated "${builds} + 1")
string(JSON doc SET "${doc}" counters slice_builds "${inflated}")
set(inflated_json "${CMAKE_CURRENT_BINARY_DIR}/perf_check_inflated.json")
file(WRITE "${inflated_json}" "${doc}")
execute_process(
    COMMAND "${PYTHON}" "${PERF_CHECK}" "${inflated_json}" "${BASELINE}"
    RESULT_VARIABLE code
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT code EQUAL 1)
    message(FATAL_ERROR
            "inflated counter: want exit 1, got '${code}'\n${out}${err}")
endif()
if(NOT err MATCHES "REGRESSION: counter slice_builds")
    message(FATAL_ERROR "inflated counter: not named; stderr:\n${err}")
endif()
message(STATUS "an inflated counter fails the gate")
