# Pass-group deal order check, run as a ctest. Against the fig06 bench
# (-DBENCH=...), whose 40-point grid needs 8 slice passes (one per
# workload), it counts the passes each execution mode computes and
# verifies that every mode renders the recorded golden CSV
# (-DGOLDEN=tests/golden/fig06_grid.csv) byte-for-byte:
#
#   --jobs=3                           exactly 8 passes
#   --forks=3                          at most 10, summed over workers
#   --listen + 3 --connect workers     at most 10, summed over workers
#   --shard=0/3, 1/3, 2/3 --> --merge  at most 10, summed over shards
#
# In-process runs report "[sweep] N slice pass(es)" on stderr; each
# --worker/--connect process reports "[worker] P point(s), N slice
# pass(es)" at its clean exit. Invoke with
#   cmake -DBENCH=<path> -DGOLDEN=<csv> -DOUT=<scratch dir>
#         -P deal_order_smoke.cmake

foreach(var BENCH GOLDEN OUT)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "deal_order_smoke.cmake needs -D${var}=...")
    endif()
endforeach()

file(REMOVE_RECURSE "${OUT}")
file(MAKE_DIRECTORY "${OUT}")

function(run_bench output errfile)
    execute_process(
        COMMAND "${BENCH}" --format=csv ${ARGN}
        OUTPUT_FILE "${output}"
        ERROR_FILE "${errfile}"
        RESULT_VARIABLE status)
    if(NOT status EQUAL 0)
        file(READ "${errfile}" stderr)
        message(FATAL_ERROR "${BENCH} ${ARGN} failed (${status}):\n"
                "${stderr}")
    endif()
endfunction()

function(expect_golden candidate what)
    execute_process(
        COMMAND "${CMAKE_COMMAND}" -E compare_files
                "${GOLDEN}" "${candidate}"
        RESULT_VARIABLE status)
    if(NOT status EQUAL 0)
        message(FATAL_ERROR "${what} output differs from the golden "
                "(${GOLDEN} vs ${candidate})")
    endif()
endfunction()

# Sum the pass counts of every report line matching @pattern (its one
# capture group is the count) across @ARGN stderr files.
function(sum_passes result pattern)
    set(total 0)
    set(lines 0)
    foreach(errfile ${ARGN})
        file(STRINGS "${errfile}" reports REGEX "${pattern}")
        foreach(report ${reports})
            string(REGEX MATCH "${pattern}" _ "${report}")
            math(EXPR total "${total} + ${CMAKE_MATCH_1}")
            math(EXPR lines "${lines} + 1")
        endforeach()
    endforeach()
    if(lines EQUAL 0)
        message(FATAL_ERROR "no pass report matching '${pattern}' in "
                "${ARGN}")
    endif()
    set(${result} ${total} PARENT_SCOPE)
endfunction()

function(expect_passes what passes op bound)
    if(NOT passes ${op} ${bound})
        message(FATAL_ERROR "${what} computed ${passes} slice passes "
                "(want ${op} ${bound})")
    endif()
    message(STATUS "deal order smoke: ${what}: ${passes} slice passes")
endfunction()

set(sweep_report "^\\[sweep\\] ([0-9]+) slice pass")
set(worker_report "^\\[worker\\] [0-9]+ point\\(s\\), ([0-9]+) slice pass")

run_bench("${OUT}/jobs.csv" "${OUT}/jobs.err" --jobs=3)
expect_golden("${OUT}/jobs.csv" "--jobs=3")
sum_passes(passes "${sweep_report}" "${OUT}/jobs.err")
expect_passes("--jobs=3" ${passes} EQUAL 8)

run_bench("${OUT}/forks.csv" "${OUT}/forks.err" --forks=3)
expect_golden("${OUT}/forks.csv" "--forks=3")
sum_passes(passes "${worker_report}" "${OUT}/forks.err")
expect_passes("--forks=3" ${passes} LESS_EQUAL 10)

# The coordinator announces its kernel-picked port on stderr; the
# workers need it, so a small shell script starts the fleet.
file(WRITE "${OUT}/listen.sh" [=[
bench=$1 out=$2
"$bench" --format=csv --listen=127.0.0.1:0 \
    > "$out/listen.csv" 2> "$out/listen.err" &
coord=$!
port= tries=0
while [ -z "$port" ] && [ $tries -lt 400 ]; do
    port=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9][0-9]*\).*/\1/p' \
        "$out/listen.err" 2>/dev/null | head -n 1)
    [ -n "$port" ] || sleep 0.05
    tries=$((tries + 1))
done
if [ -z "$port" ]; then
    kill $coord 2>/dev/null
    echo "coordinator announced no port" >&2
    exit 1
fi
workers=
for w in 1 2 3; do
    "$bench" --format=csv --connect=127.0.0.1:$port \
        > /dev/null 2> "$out/connect$w.err" &
    workers="$workers $!"
done
status=0
wait $coord || status=$?
for pid in $workers; do
    wait $pid || status=$?
done
exit $status
]=])
execute_process(
    COMMAND sh "${OUT}/listen.sh" "${BENCH}" "${OUT}"
    RESULT_VARIABLE status
    ERROR_VARIABLE stderr)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "--listen with 3 --connect workers failed "
            "(${status}):\n${stderr}")
endif()
expect_golden("${OUT}/listen.csv" "--listen with 3 --connect workers")
sum_passes(passes "${worker_report}" "${OUT}/connect1.err"
           "${OUT}/connect2.err" "${OUT}/connect3.err")
expect_passes("--listen with 3 --connect workers" ${passes}
              LESS_EQUAL 10)

set(shard_files "")
set(shard_errs "")
foreach(shard 0 1 2)
    run_bench("${OUT}/shard${shard}.ndjson" "${OUT}/shard${shard}.err"
              --shard=${shard}/3 --jobs=2)
    list(APPEND shard_files "${OUT}/shard${shard}.ndjson")
    list(APPEND shard_errs "${OUT}/shard${shard}.err")
endforeach()
string(REPLACE ";" "," merge_list "${shard_files}")
run_bench("${OUT}/merged.csv" "${OUT}/merged.err" "--merge=${merge_list}")
expect_golden("${OUT}/merged.csv" "--shard=*/3 + --merge")
sum_passes(passes "${sweep_report}" ${shard_errs})
expect_passes("--shard=*/3" ${passes} LESS_EQUAL 10)

message(STATUS "deal order smoke: every mode renders the golden")
