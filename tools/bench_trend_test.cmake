# ctest driver for bench_trend: writes two small BENCH logs into WORK_DIR
# and checks which rows the tool compares. Rows that differ only in
# git_rev (provenance) must be compared; rows from different hardware
# (isa) must not. Run as
#   cmake -DBENCH_TREND=<binary> -DWORK_DIR=<dir> -P bench_trend_test.cmake
file(MAKE_DIRECTORY "${WORK_DIR}")

function(expect_comparisons name rows expected)
  set(path "${WORK_DIR}/${name}.json")
  file(WRITE "${path}" "${rows}")
  execute_process(COMMAND "${BENCH_TREND}" "${path}"
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${name}: bench_trend exited ${rc}\n${out}${err}")
  endif()
  if(NOT out MATCHES "bench_trend: ${expected} comparison\\(s\\)")
    message(FATAL_ERROR "${name}: expected ${expected} comparison(s)\n${out}")
  endif()
endfunction()

set(row_head "{\"bench\": \"fig8_detect\", \"threads\": 1, ")
set(row_tags "\"host_cores\": 4, \"build_type\": \"Release\"")

expect_comparisons(revisions
  "${row_head}\"points_per_sec\": 88000.0, ${row_tags}, \"isa\": \"avx512\", \"git_rev\": \"aaaa\"}
${row_head}\"points_per_sec\": 90000.0, ${row_tags}, \"isa\": \"avx512\", \"git_rev\": \"bbbb\"}
" 1)

expect_comparisons(hardware
  "${row_head}\"points_per_sec\": 88000.0, ${row_tags}, \"isa\": \"avx512\", \"git_rev\": \"aaaa\"}
${row_head}\"points_per_sec\": 60000.0, ${row_tags}, \"isa\": \"avx2\", \"git_rev\": \"aaaa\"}
" 0)
