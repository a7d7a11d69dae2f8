# End-to-end fault-tolerance check for the sweep supervisor, run as a
# ctest (and mirrored by the CI fault-tolerance-smoke job). Against a
# bench binary (-DBENCH=...) and workload subset (-DWORKLOADS=...), it
# injects worker crashes, wedges, and coordinator kills through the
# ACR_TEST_* hooks and verifies the BenchMain fault-tolerance contract:
#
#   * a worker crash mid-sweep is retried on a respawned worker, the
#     retry reason names the child's exit status, and the rendered
#     stdout stays byte-identical to --jobs=1;
#   * a wedged worker is SIGKILLed by the --point-timeout watchdog and
#     its point retried, same byte-identical contract, and no worker
#     process outlives the sweep;
#   * a transport fault (ACR_NET_FAULT) in the forked workers' framed
#     channels is retried the same way, and a long but finite
#     --point-timeout runs clean;
#   * a point failing every attempt is quarantined: the table renders a
#     FAILED cell and the process exits 3 instead of aborting;
#   * a sweep killed mid-run resumes from its --journal without
#     re-simulating completed points (run counts checked via the
#     "journal: served X of Y" stderr stat), including after the
#     journal's final line is torn.
#
# Invoke with
#   cmake -DBENCH=<path> -DWORKLOADS=<a,b> -DOUT=<scratch dir>
#         -P fault_smoke.cmake

foreach(var BENCH WORKLOADS OUT)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "fault_smoke.cmake needs -D${var}=...")
    endif()
endforeach()

file(REMOVE_RECURSE "${OUT}")
file(MAKE_DIRECTORY "${OUT}")

# Run the bench with extra environment (a cmake list of VAR=VALUE, may
# be empty) and require a specific exit status.
function(run_case output errfile expect_status envs)
    execute_process(
        COMMAND "${CMAKE_COMMAND}" -E env ${envs}
                "${BENCH}" "--workloads=${WORKLOADS}" ${ARGN}
        OUTPUT_FILE "${output}"
        ERROR_FILE "${errfile}"
        RESULT_VARIABLE status)
    if(NOT status EQUAL ${expect_status})
        file(READ "${errfile}" stderr)
        message(FATAL_ERROR
                "${BENCH} ${ARGN} [env: ${envs}] exited ${status} "
                "(expected ${expect_status}):\n${stderr}")
    endif()
endfunction()

function(expect_identical reference candidate what)
    execute_process(
        COMMAND "${CMAKE_COMMAND}" -E compare_files
                "${reference}" "${candidate}"
        RESULT_VARIABLE status)
    if(NOT status EQUAL 0)
        message(FATAL_ERROR
                "${what} output differs from the --jobs=1 reference "
                "(${reference} vs ${candidate})")
    endif()
endfunction()

function(expect_match file pattern what)
    file(READ "${file}" content)
    if(NOT content MATCHES "${pattern}")
        message(FATAL_ERROR
                "${what}: '${file}' does not match '${pattern}':\n"
                "${content}")
    endif()
endfunction()

run_case("${OUT}/reference.txt" "${OUT}/reference.err" 0 "" --jobs=1)

# --- Worker crash: retried on a respawned worker, output identical ---
run_case("${OUT}/crash.txt" "${OUT}/crash.err" 0
         "ACR_TEST_CRASH_AT=2" --forks=2)
expect_identical("${OUT}/reference.txt" "${OUT}/crash.txt"
                 "crash-injected forked sweep")
expect_match("${OUT}/crash.err" "retry" "crash retry report")
expect_match("${OUT}/crash.err" "respawn" "crash respawn stat")
expect_match("${OUT}/crash.err" "exited with status 42"
             "crash retry reason names the exit status")

# --- Wedged worker: watchdog SIGKILL + retry, output identical, and
#     every worker is gone once the coordinator exits. The marker
#     variable (which nothing reads) tags this run's processes so the
#     /proc scan cannot mistake a concurrent test's workers for ours.
set(wedge_mark "ACR_SMOKE_MARK=${OUT}/wedge")
run_case("${OUT}/wedge.txt" "${OUT}/wedge.err" 0
         "ACR_TEST_WEDGE_AT=1;${wedge_mark}" --forks=2 --point-timeout=5)
expect_identical("${OUT}/reference.txt" "${OUT}/wedge.txt"
                 "watchdog-killed forked sweep")
expect_match("${OUT}/wedge.err" "point-timeout" "watchdog kill report")
if(IS_DIRECTORY /proc/self)
    execute_process(
        COMMAND sh -c "grep -l -a -s -x -z '${wedge_mark}' /proc/[0-9]*/environ"
        OUTPUT_VARIABLE survivors)
    if(NOT survivors STREQUAL "")
        message(FATAL_ERROR
                "worker processes outlived the wedged sweep:\n"
                "${survivors}")
    endif()
endif()

# --- Transport fault inside the forked fleet: each first-generation
#     worker garbles its first result frame, the coordinator drops it
#     and retries the point on a clean respawn ---
run_case("${OUT}/netfault.txt" "${OUT}/netfault.err" 0
         "ACR_NET_FAULT=garble=2" --forks=2)
expect_identical("${OUT}/reference.txt" "${OUT}/netfault.txt"
                 "transport-faulted forked sweep")
expect_match("${OUT}/netfault.err" "protocol error" "garbled frame report")

# --- A long but finite watchdog is valid and stays out of the way ---
run_case("${OUT}/longtimeout.txt" "${OUT}/longtimeout.err" 0 ""
         --forks=2 --point-timeout=3600)
expect_identical("${OUT}/reference.txt" "${OUT}/longtimeout.txt"
                 "forked sweep under a long watchdog")

# --- Exhausted retries: quarantine, FAILED cell, exit code 3 ---
run_case("${OUT}/quarantine.txt" "${OUT}/quarantine.err" 3
         "ACR_TEST_CRASH_INDEX=1" --forks=2 --retries=1)
expect_match("${OUT}/quarantine.txt" "FAILED" "quarantined table cell")
expect_match("${OUT}/quarantine.err" "quarantin" "quarantine report")

# --- Journaled resume: coordinator dies after 2 completions, the
#     rerun serves those 2 from the journal and finishes the rest ---
run_case("${OUT}/half.txt" "${OUT}/half.err" 7
         "ACR_TEST_COORD_EXIT_AFTER=2" --forks=2
         "--journal=${OUT}/sweep.journal")
run_case("${OUT}/resumed.txt" "${OUT}/resumed.err" 0 ""
         --forks=2 "--journal=${OUT}/sweep.journal" --resume)
expect_identical("${OUT}/reference.txt" "${OUT}/resumed.txt"
                 "journal-resumed forked sweep")
expect_match("${OUT}/resumed.err" "journal: served 2 of"
             "resume must serve exactly the journaled completions")

# --- Full cache: a completed journal serves every owned point ---
run_case("${OUT}/cached.txt" "${OUT}/cached.err" 0 ""
         --jobs=2 "--journal=${OUT}/sweep.journal" --resume)
expect_identical("${OUT}/reference.txt" "${OUT}/cached.txt"
                 "fully-cached rerun")
file(READ "${OUT}/cached.err" cached_err)
string(REGEX MATCH "journal: served ([0-9]+) of ([0-9]+)" _
       "${cached_err}")
if(NOT CMAKE_MATCH_1 OR NOT CMAKE_MATCH_1 STREQUAL CMAKE_MATCH_2)
    message(FATAL_ERROR
            "fully-cached rerun re-simulated points (served "
            "${CMAKE_MATCH_1} of ${CMAKE_MATCH_2}):\n${cached_err}")
endif()

# --- Torn tail: chop the journal mid-record; the torn line is
#     dropped, that point reruns, output still identical ---
file(READ "${OUT}/sweep.journal" journal)
string(LENGTH "${journal}" journal_len)
math(EXPR keep "${journal_len} - 40")
string(SUBSTRING "${journal}" 0 ${keep} torn)
file(WRITE "${OUT}/sweep.journal" "${torn}")
run_case("${OUT}/torn.txt" "${OUT}/torn.err" 0 ""
         --forks=2 "--journal=${OUT}/sweep.journal" --resume)
expect_identical("${OUT}/reference.txt" "${OUT}/torn.txt"
                 "torn-tail resumed sweep")
expect_match("${OUT}/torn.err" "torn" "torn-tail warning")

# --- Merging shards that contain failed records: the merged render
#     shows FAILED cells and exits 3, same as a live quarantine ---
run_case("${OUT}/fshard0.ndjson" "${OUT}/fshard0.err" 3
         "ACR_TEST_CRASH_INDEX=0" --shard=0/2 --forks=2 --retries=0)
run_case("${OUT}/fshard1.ndjson" "${OUT}/fshard1.err" 0 "" --shard=1/2)
run_case("${OUT}/fmerged.txt" "${OUT}/fmerged.err" 3 ""
         "--merge=${OUT}/fshard0.ndjson,${OUT}/fshard1.ndjson")
expect_match("${OUT}/fmerged.txt" "FAILED"
             "merged FAILED table cell")
expect_match("${OUT}/fmerged.err" "quarantin"
             "merged quarantine report")

# --- In-process journal writes (threaded journal insert path) ---
run_case("${OUT}/inproc.txt" "${OUT}/inproc.err" 0 ""
         --jobs=2 "--journal=${OUT}/inproc.journal")
run_case("${OUT}/inproc_resumed.txt" "${OUT}/inproc_resumed.err" 0 ""
         --jobs=1 "--journal=${OUT}/inproc.journal" --resume)
expect_identical("${OUT}/reference.txt" "${OUT}/inproc_resumed.txt"
                 "in-process journaled rerun")

# --- Oracle-in-workers parity (needs -DTORTURE=<torture binary>): a
#     fixture divergence (ACR_TEST_CORRUPT_RECOVERY) must surface
#     identically — same rendered bytes, same exit-4 verdict — whether
#     the point runs on in-process threads (--jobs), forked wire-
#     protocol workers (--forks), or split across shards whose records
#     carry the divergence to a later --merge. In shard mode the legs
#     themselves exit 0: the verdict travels in the result records
#     (oracleDivergences/oracleReport) and is applied at render time.
if(DEFINED TORTURE)
    set(oracle_campaign --workloads=is --modes=reckpt --coords=global
        --lats=0.5 --errors=8 --checkpoints=5 --seeds=1 --oracle=on)
    function(run_oracle output errfile expect_status)
        execute_process(
            COMMAND "${CMAKE_COMMAND}" -E env ACR_TEST_CORRUPT_RECOVERY=1
                    "${TORTURE}" ${oracle_campaign} ${ARGN}
            OUTPUT_FILE "${output}"
            ERROR_FILE "${errfile}"
            RESULT_VARIABLE status)
        if(NOT status EQUAL ${expect_status})
            file(READ "${errfile}" stderr)
            message(FATAL_ERROR
                    "${TORTURE} ${ARGN}: expected exit "
                    "${expect_status}, got ${status}:\n${stderr}")
        endif()
    endfunction()

    run_oracle("${OUT}/oracle_jobs.txt" "${OUT}/oracle_jobs.err" 4
               --jobs=1)
    run_oracle("${OUT}/oracle_forks.txt" "${OUT}/oracle_forks.err" 4
               --forks=2)
    expect_identical("${OUT}/oracle_jobs.txt" "${OUT}/oracle_forks.txt"
                     "oracle divergence under --forks")
    expect_match("${OUT}/oracle_forks.err" "\\[oracle\\]"
                 "forked oracle diagnostic")

    run_oracle("${OUT}/oracle_s0.ndjson" "${OUT}/oracle_s0.err" 0
               --shard=0/2 --forks=2)
    run_oracle("${OUT}/oracle_s1.ndjson" "${OUT}/oracle_s1.err" 0
               --shard=1/2)
    # The divergence must travel inside the wire records themselves.
    file(READ "${OUT}/oracle_s0.ndjson" s0)
    file(READ "${OUT}/oracle_s1.ndjson" s1)
    if(NOT "${s0}${s1}" MATCHES "\"oracleDivergences\":[1-9]")
        message(FATAL_ERROR
                "no shard record carries a nonzero oracleDivergences "
                "count — divergences are not crossing the wire")
    endif()
    run_oracle("${OUT}/oracle_merged.txt" "${OUT}/oracle_merged.err" 4
               "--merge=${OUT}/oracle_s0.ndjson,${OUT}/oracle_s1.ndjson")
    expect_identical("${OUT}/oracle_jobs.txt" "${OUT}/oracle_merged.txt"
                     "oracle divergence across shard+merge")

    message(STATUS
            "fault smoke: oracle divergence surfaced identically in "
            "--jobs, --forks, and --shard+merge")
endif()

message(STATUS
        "fault smoke: crash, watchdog, quarantine, and resume all "
        "render byte-identically")
