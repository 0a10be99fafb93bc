# ctest driver (cmake -P): every bad command line must print a message on
# stderr and exit 2 — no abort, no silent fallback, no run. Each case is a
# program name and its arguments, separated by '|'.
#
#   cmake -DTOOLS=<dir of the tools> -DBENCHES=<dir of the benches>
#         -DWORK=<scratch dir> -P bad_command_lines.cmake
set(cases
  # Numbers: a sign, trailing garbage, a word where a number goes.
  "cffs_run|shards=-1|--workload=mt|--clients=4|--ops=4"
  "cffs_run|--capacity=-1|--check-ordering"
  "cffs_run|--bytes=-1"
  "cffs_run|--files=12abc"
  "cffs_run|--workload=mt|--clients=4|--backpressure=abc"
  "cffs_mkfs|IMG|--mb=abc"
  "cffs_populate|IMG|--files=x"
  # Config strings: an unknown name or key, garbage, a repeated key.
  "cffs_run|device=flsh"
  "cffs_run|nosuchkey=1"
  "cffs_run|cache_blocks=12abc"
  "cffs_run|fs=c-ffs|fs=ffs"
  # Unknown flags, which used to be ignored or taken for a conviction.
  "cffs_populate|IMG|--nosuch=1"
  "cffs_run|fs=ffs|--polcy=sync|--check-ordering|--mutate=defer-inode-init"
  "bench_fig5_smallfile|--quik"
  # A flag the workload or outputs cannot use, and a count it cannot run.
  "cffs_run|--workload=xshard"
  "cffs_run|--txns=10"
  "cffs_run|--workload=mt|--per-shard"
  "cffs_run|shards=2|--workload=postmark"
  "cffs_run|--check-ordering|--mutate=xshard-early-clear"
  "cffs_run|shards=2|--workload=xshard|--txns=0|--check-ordering"
  # The in-process mode moved to cffs_run --check-ordering.
  "cffs_ordercheck|--run|fs=ffs"
  # Jump hashing is the only directory placement; the flag is gone.
  "cffs_run|shards=2|--workload=mt|--placement=jump"
  # Image tools: debug command lines are checked whole before the image is
  # read (no IMG exists), then a bad file-system name and a flag the config
  # keys replaced.
  "cffs_debug|IMG|sb|bogus"
  "cffs_debug|IMG|dir"
  "cffs_mkfs|IMG|fs=cfs"
  "cffs_mkfs|IMG|--type=ffs"
)

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")
set(failures "")
foreach(case IN LISTS cases)
  string(REPLACE "|" ";" argv "${case}")
  list(POP_FRONT argv program)
  if(program MATCHES "^bench_")
    set(program "${BENCHES}/${program}")
  else()
    set(program "${TOOLS}/${program}")
  endif()
  execute_process(
    COMMAND "${program}" ${argv}
    WORKING_DIRECTORY "${WORK}"
    RESULT_VARIABLE status
    OUTPUT_QUIET
    ERROR_VARIABLE err)
  if(NOT status STREQUAL "2" OR err STREQUAL "")
    string(APPEND failures "\n  ${case}: exit ${status}, stderr \"${err}\"")
  endif()
endforeach()
if(failures)
  message(FATAL_ERROR "want exit 2 with a message from:${failures}")
endif()
