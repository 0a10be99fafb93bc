# ctest driver (cmake -P): bench_compare must catch the smallest change. It
# copies the checked-in baselines, adds 1 to the first "ops" count in
# BENCH_shard.json and requires exit status 1 (differences found).
#
#   cmake -DTOOL=<bench_compare> -DBASELINES=<dir> -DWORK=<scratch dir>
#         -P bench_compare_off_by_one.cmake
file(REMOVE_RECURSE "${WORK}")
file(COPY "${BASELINES}/" DESTINATION "${WORK}")
file(READ "${WORK}/BENCH_shard.json" text)
string(REGEX MATCH "\"ops\": [0-9]+" field "${text}")
if(NOT field)
  message(FATAL_ERROR "no \"ops\" count in BENCH_shard.json")
endif()
string(FIND "${text}" "${field}" at)
string(LENGTH "${field}" field_len)
string(SUBSTRING "${text}" 0 ${at} head)
math(EXPR tail_at "${at} + ${field_len}")
string(SUBSTRING "${text}" ${tail_at} -1 tail)
string(REGEX REPLACE "^\"ops\": " "" count "${field}")
math(EXPR bumped "${count} + 1")
file(WRITE "${WORK}/BENCH_shard.json" "${head}\"ops\": ${bumped}${tail}")

execute_process(
  COMMAND "${TOOL}" "--baseline=${BASELINES}" "--candidate=${WORK}"
  RESULT_VARIABLE status)
if(NOT status EQUAL 1)
  message(FATAL_ERROR
    "bench_compare exited ${status} on a count changed by 1 (want 1)")
endif()
